"""Extension bench: hot/cold splitting and reporting complementarity.

Liu et al. (MICRO'18) shrink hardware footprint by configuring only
profiled-hot states, at the cost of extra *intermediate* reports at the
hot/cold boundary.  The Sunder paper's Section 1 claims its reporting
architecture absorbs that extra traffic where AP-style reporting cannot.
This bench quantifies both halves of the claim on a deep ruleset.
"""

from repro.baselines import ApReportingModel
from repro.core import (
    ReportingPerfModel,
    SunderConfig,
    place,
    pu_fill_cycles_from_events,
)
from repro.experiments.formatting import format_table
from repro.extensions import split_hot_cold
from repro.regex import compile_ruleset
from repro.sim import BitsetEngine, ReportRecorder
from repro.transform import to_rate
from repro.workloads.base import WorkloadRandom, build_input

COLUMNS = [
    ("config", "Configuration"),
    ("hw_states", "HW states"),
    ("reports", "Reports"),
    ("intermediate_pct", "Intermediate %"),
    ("sunder_overhead", "Sunder overhead"),
    ("ap_overhead", "AP overhead"),
]


def _experiment():
    rng = WorkloadRandom(11)
    # Deep rules whose tails rarely execute: the hot/cold sweet spot.
    rules = compile_ruleset([
        ("attack%02d[a-f]{10}zz" % index, "rule%02d" % index)
        for index in range(12)
    ])
    # Traffic full of rule *prefixes* (hot) and occasional full matches.
    plants = []
    for position in range(0, 9000, 60):
        if position % 600 == 0:
            plants.append((position, b"attack03abcdefabcdzz"))
        else:
            plants.append((position, b"attack%02d" % (position // 60 % 12)))
    data = build_input(rng, 10_000, plants)

    rows = []
    for label, machine in [
        ("full automaton", rules),
        ("hot/cold split", split_hot_cold(rules, list(data[:2000]),
                                          activity_coverage=0.99).hot_automaton),
    ]:
        recorder = ReportRecorder()
        BitsetEngine(machine).run(list(data), recorder)
        report_ids = [s.id for s in machine.report_states()]
        ap = ApReportingModel(scale=0.01).evaluate(
            recorder, report_ids, len(data))

        strided = to_rate(machine, 4)
        from repro.sim import stream_for
        vectors, limit = stream_for(strided, data)
        strided_recorder = ReportRecorder(position_limit=limit)
        BitsetEngine(strided).run(vectors, strided_recorder)
        config = SunderConfig(rate_nibbles=4, report_bits=24)
        placement = place(strided, config)
        fills = pu_fill_cycles_from_events(strided_recorder, placement)
        sunder = ReportingPerfModel(config).evaluate(
            fills, len(vectors), capacity_scale=0.01)

        intermediate = sum(
            1 for event in recorder.events
            if str(event.report_code).startswith("hotcold-boundary/")
        )
        rows.append({
            "config": label,
            "hw_states": len(machine),
            "reports": recorder.total_reports,
            "intermediate_pct": (
                100.0 * intermediate / recorder.total_reports
                if recorder.total_reports else 0.0
            ),
            "sunder_overhead": sunder.slowdown,
            "ap_overhead": ap.slowdown,
        })
    return rows


def test_hotcold_complementarity(benchmark, save_result):
    rows = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    save_result(
        "extension_hotcold",
        format_table(rows, COLUMNS,
                     title="Extension: hot/cold splitting (Liu et al.) "
                           "+ reporting architectures"),
    )
    full, split = rows
    # The split shrinks the hardware footprint...
    assert split["hw_states"] < full["hw_states"]
    # ...but generates more reports (the intermediates)...
    assert split["reports"] > full["reports"]
    assert split["intermediate_pct"] > 10
    # ...which Sunder absorbs while AP-style reporting degrades.
    assert split["sunder_overhead"] < 1.1
    assert split["ap_overhead"] > full["ap_overhead"]
