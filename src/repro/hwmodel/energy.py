"""Dynamic energy model derived from Table 2's read-power figures.

The paper reports per-subarray read power at the nominal 0.8V/14nm corner;
dynamic energy per access is ``power x access delay``.  Combining the
access counts of a simulated run (matching reads, crossbar evaluations,
report writes/reads) with those per-access energies yields an end-to-end
energy estimate — an extension artifact the paper does not tabulate but
its models imply.
"""

from .subarray_params import CA_MATCHING, IMPALA_MATCHING, SUNDER_8T


def _energy_pj(params):
    """Energy of one access in picojoules: mW x ps = nW*s*1e-... = 1e-3 pJ."""
    return params.read_power_mw * params.delay_ps * 1e-3


#: Per-access energies (pJ) for each subarray flavour.
ENERGY_PJ = {
    "sunder_8t": _energy_pj(SUNDER_8T),
    "ca_6t": _energy_pj(CA_MATCHING),
    "impala_6t": _energy_pj(IMPALA_MATCHING),
}


class EnergyReport:
    """Energy breakdown of one run, in nanojoules."""

    def __init__(self, matching_nj, interconnect_nj, reporting_nj):
        self.matching_nj = matching_nj
        self.interconnect_nj = interconnect_nj
        self.reporting_nj = reporting_nj

    @property
    def total_nj(self):
        return self.matching_nj + self.interconnect_nj + self.reporting_nj

    def per_byte_pj(self, input_bytes):
        """Average energy per input byte in picojoules."""
        if input_bytes == 0:
            return 0.0
        return self.total_nj * 1000.0 / input_bytes

    def __repr__(self):
        return ("EnergyReport(match=%.2fnJ, ic=%.2fnJ, report=%.2fnJ, "
                "total=%.2fnJ)" % (self.matching_nj, self.interconnect_nj,
                                   self.reporting_nj, self.total_nj))


def device_energy(device):
    """Energy of everything a :class:`SunderDevice` did since configuration.

    Uses the per-port access counters of every subarray and crossbar:
    Port-2 reads are matching/crossbar evaluations (8T access each),
    Port-1 traffic is configuration plus reporting.
    """
    # Packed runs defer matching-side counter updates; flush them first.
    device.sync_dynamic_state()
    matching = 0
    interconnect = 0
    reporting = 0
    per_access = ENERGY_PJ["sunder_8t"]
    for _, _, pu in device.iter_pus():
        matching += pu.subarray.port2_reads * per_access
        reporting += (pu.subarray.port1_writes + pu.subarray.port1_reads) \
            * per_access
        interconnect += pu.crossbar.port2_reads * per_access
    for cluster in device.clusters:
        interconnect += cluster.global_switch.crossbar.port2_reads * per_access
    return EnergyReport(matching / 1000.0, interconnect / 1000.0,
                        reporting / 1000.0)


def analytic_energy(cycles, pus, report_cycles, reports_drained_rows=0):
    """Closed-form energy for big runs (no bit-level device needed).

    Per cycle, every active PU performs one matching evaluation and one
    local-crossbar evaluation, plus one global-switch evaluation per
    cluster; every report cycle adds a Port-1 entry write; every drained
    or flushed row adds a Port-1 read.
    """
    per_access = ENERGY_PJ["sunder_8t"]
    matching = cycles * pus * per_access
    interconnect = cycles * pus * per_access  # local switches
    interconnect += cycles * max(1, pus // 4) * per_access  # global switches
    reporting = (report_cycles + reports_drained_rows) * per_access
    return EnergyReport(matching / 1000.0, interconnect / 1000.0,
                        reporting / 1000.0)
