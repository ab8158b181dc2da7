"""Area model for Figure 9: 32K STEs, 14nm, per-component breakdown.

Components per architecture:

- *state matching*: subarrays sized per Table 2.  Sunder and CA pack 256
  states per 256x256 array; Impala packs 16 states per 16x16 array and
  needs one array per nibble position (4 at its fixed 16-bit rate).
- *interconnect*: one 256x256 8T local crossbar per 256 states plus one
  global switch array per 1024-state cluster (the hierarchical design all
  three SRAM architectures share).
- *reporting*: Sunder's reporting lives inside the matching arrays at a
  2% circuitry overhead.  The AP-style reporting bolted onto CA and
  Impala is modelled as an area *fraction* of the kernel; the published
  estimate for the AP is 40% of chip area (Gwennap, MPR 2014), and the
  paper's Figure 9 ratios imply similar fractions for CA/Impala.  These
  fractions are the calibration knobs recorded in EXPERIMENTS.md.
"""

from .subarray_params import CA_MATCHING, IMPALA_MATCHING, SUNDER_8T

#: States per 256-column subarray / local crossbar.
STATES_PER_SUBARRAY = 256
#: States per global-switch cluster (4 subarrays, paper Section 5).
STATES_PER_CLUSTER = 1024
#: Extra circuitry Sunder adds for reporting (decoders, OR tree, counter).
SUNDER_REPORTING_OVERHEAD = 0.02
#: AP-style reporting area as a fraction of total chip area [Gwennap 2014].
AP_REPORTING_CHIP_FRACTION = 0.40
#: Impala's fixed rate: four nibble positions matched in parallel.
IMPALA_NIBBLE_LANES = 4


def _ceil_div(numerator, denominator):
    return -(-numerator // denominator)


def interconnect_area_um2(num_states):
    """Hierarchical crossbar area shared by Sunder, CA, and Impala."""
    local = _ceil_div(num_states, STATES_PER_SUBARRAY) * SUNDER_8T.area_um2
    global_switches = _ceil_div(num_states, STATES_PER_CLUSTER) * SUNDER_8T.area_um2
    return local + global_switches


def sunder_area_um2(num_states):
    """Sunder area breakdown: matching+reporting fused, plus interconnect."""
    arrays = _ceil_div(num_states, STATES_PER_SUBARRAY)
    matching = arrays * SUNDER_8T.area_um2
    reporting = matching * SUNDER_REPORTING_OVERHEAD
    return {
        "matching": matching,
        "reporting": reporting,
        "interconnect": interconnect_area_um2(num_states),
    }


def ca_area_um2(num_states, reporting_fraction=AP_REPORTING_CHIP_FRACTION):
    """Cache Automaton: 6T matching, 8T interconnect, AP-style reporting."""
    arrays = _ceil_div(num_states, STATES_PER_SUBARRAY)
    matching = arrays * CA_MATCHING.area_um2
    interconnect = interconnect_area_um2(num_states)
    kernel = matching + interconnect
    reporting = kernel * reporting_fraction / (1.0 - reporting_fraction)
    return {
        "matching": matching,
        "reporting": reporting,
        "interconnect": interconnect,
    }


def impala_area_um2(num_states, reporting_fraction=AP_REPORTING_CHIP_FRACTION):
    """Impala: tiny 6T matching arrays x4 lanes, 8T interconnect, AP reporting."""
    groups = _ceil_div(num_states, IMPALA_MATCHING.cols)
    matching = groups * IMPALA_NIBBLE_LANES * IMPALA_MATCHING.area_um2
    interconnect = interconnect_area_um2(num_states)
    kernel = matching + interconnect
    reporting = kernel * reporting_fraction / (1.0 - reporting_fraction)
    return {
        "matching": matching,
        "reporting": reporting,
        "interconnect": interconnect,
    }


def ap_area_um2(num_states, sunder_total_ratio=2.1):
    """The AP's area, anchored to the paper's published 2.1x ratio.

    The AP is a DRAM-process design with no public per-component area
    data, so its Figure 9 bar is reconstructed from the paper's stated
    ratio to Sunder and the 40% reporting fraction from [Gwennap 2014].
    """
    total = sunder_total_ratio * sum(sunder_area_um2(num_states).values())
    reporting = total * AP_REPORTING_CHIP_FRACTION
    kernel = total - reporting
    return {
        "matching": kernel * 0.5,
        "reporting": reporting,
        "interconnect": kernel * 0.5,
    }


def throughput_per_area(num_states=32768):
    """Throughput density (Gbps/mm2) — the conclusion's headline metric.

    The paper closes with "three orders of magnitude higher throughput
    per unit area compared to the Micron's AP".  The AP's bar is its
    *native 50nm* silicon: its 14nm-equivalent area grows back by the
    quadratic feature-size ratio, and its throughput is the native
    0.133 GHz x 8 bits.
    """
    from .pipeline import (
        AP_TECHNOLOGY_NM,
        TARGET_TECHNOLOGY_NM,
        ap_frequency_ghz,
        SUNDER_PIPELINE,
        CA_PIPELINE,
        IMPALA_PIPELINE,
    )

    scaling = (AP_TECHNOLOGY_NM / TARGET_TECHNOLOGY_NM) ** 2
    sunder_mm2 = sum(sunder_area_um2(num_states).values()) / 1e6
    ca_mm2 = sum(ca_area_um2(num_states).values()) / 1e6
    impala_mm2 = sum(impala_area_um2(num_states).values()) / 1e6
    ap_mm2_14 = sum(ap_area_um2(num_states).values()) / 1e6

    rows = [
        {"architecture": "Sunder",
         "gbps": SUNDER_PIPELINE.operating_frequency_ghz * 16,
         "area_mm2": sunder_mm2},
        {"architecture": "Impala",
         "gbps": IMPALA_PIPELINE.operating_frequency_ghz * 16,
         "area_mm2": impala_mm2},
        {"architecture": "CA",
         "gbps": CA_PIPELINE.operating_frequency_ghz * 8,
         "area_mm2": ca_mm2},
        {"architecture": "AP (50nm silicon)",
         "gbps": ap_frequency_ghz(AP_TECHNOLOGY_NM) * 8,
         "area_mm2": ap_mm2_14 * scaling},
    ]
    sunder_density = rows[0]["gbps"] / rows[0]["area_mm2"]
    for row in rows:
        row["gbps_per_mm2"] = row["gbps"] / row["area_mm2"]
        row["sunder_density_ratio"] = sunder_density / row["gbps_per_mm2"]
    return rows


#: Figure 9's architectures, in presentation order, with their models.
_AREA_MODELS = {
    "Sunder": sunder_area_um2,
    "CA": ca_area_um2,
    "Impala": impala_area_um2,
    "AP": ap_area_um2,
}


def breakdown_table(parts_by_name):
    """Figure 9 rows (mm2 + ratios) from per-architecture component areas.

    ``parts_by_name`` maps architecture name to its ``{matching,
    reporting, interconnect}`` um2 dict, in presentation order.  Shared
    by :func:`figure9_breakdown` and the ``figure9_arch`` runtime stage
    so both paths produce identical rows.
    """
    sunder_total = sum(parts_by_name["Sunder"].values())
    table = []
    for name, parts in parts_by_name.items():
        total = sum(parts.values())
        table.append({
            "architecture": name,
            "matching_mm2": parts["matching"] / 1e6,
            "interconnect_mm2": parts["interconnect"] / 1e6,
            "reporting_mm2": parts["reporting"] / 1e6,
            "total_mm2": total / 1e6,
            "ratio_to_sunder": total / sunder_total,
        })
    return table


def figure9_breakdown(num_states=32768):
    """Area breakdown for every architecture, plus ratios to Sunder."""
    return breakdown_table({name: model(num_states)
                            for name, model in _AREA_MODELS.items()})
