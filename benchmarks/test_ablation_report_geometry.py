"""Ablation: reporting-region geometry (m report bits, n metadata bits).

The paper fixes m=12 (3.9% of 256 states) and n=20.  This bench sweeps
both and shows the capacity/flush consequences on the SPM stress case —
the design-space evidence behind the parameter selection.
"""

from repro.core import ReportingPerfModel, SunderConfig
from repro.core.mapping import place
from repro.experiments.formatting import format_table
from repro.sim.engine import BitsetEngine
from repro.sim.inputs import stream_for
from repro.sim.reports import ReportRecorder
from repro.transform import to_rate
from repro.workloads import generate

COLUMNS = [
    ("report_bits", "m (report bits)"),
    ("metadata_bits", "n (metadata)"),
    ("entries_per_row", "Entries/row"),
    ("capacity", "Capacity"),
    ("counter_bits", "Local counter"),
    ("flushes", "SPM flushes"),
    ("slowdown", "SPM overhead"),
]


def _sweep(scale):
    instance = generate("SPM", scale=scale, seed=0)
    strided = to_rate(instance.automaton, 4)
    vectors, limit = stream_for(strided, instance.input_bytes)
    recorder = ReportRecorder(position_limit=limit)
    BitsetEngine(strided).run(vectors, recorder)

    rows = []
    for m, n in [(8, 16), (12, 20), (12, 36), (24, 24), (32, 32), (60, 68)]:
        config = SunderConfig(rate_nibbles=4, report_bits=m, metadata_bits=n,
                              fifo=False)
        placement = place(strided, config)
        result = ReportingPerfModel(config).evaluate(
            recorder, placement, len(vectors), capacity_scale=scale
        )
        rows.append({
            "report_bits": m,
            "metadata_bits": n,
            "entries_per_row": config.entries_per_row,
            "capacity": config.report_capacity,
            "counter_bits": config.local_counter_bits(),
            "flushes": result.flushes,
            "slowdown": result.slowdown,
        })
    return rows


def test_report_geometry_ablation(benchmark, bench_scale, save_result):
    rows = benchmark.pedantic(
        lambda: _sweep(min(bench_scale, 0.01)), rounds=1, iterations=1,
    )
    save_result(
        "ablation_report_geometry",
        format_table(rows, COLUMNS, title="Ablation: report-entry geometry",
                     float_format="%.4f"),
    )
    # Wider entries -> fewer entries per row -> smaller capacity.
    capacities = {(row["report_bits"], row["metadata_bits"]): row["capacity"]
                  for row in rows}
    assert capacities[(8, 16)] > capacities[(12, 20)] > capacities[(60, 68)]
    # And smaller capacity can only increase flush pressure.
    flushes = [row["flushes"] for row in rows]
    assert flushes[-1] >= flushes[0]
