"""Empirical validation of the Figure 10 closed form.

Figure 10 itself is analytic; this bench *constructs* a single-PU
automaton with 12 reporting states, generates inputs whose report-cycle
fraction sweeps the x-axis, replays the measured report streams through
the event-driven reporting model, and checks that the empirical slowdowns
track the closed-form curve's shape (monotone, negligible at low rates).
"""

import random

from repro.automata import Automaton, StartKind, SymbolSet
from repro.core import (
    ReportingPerfModel,
    SunderConfig,
    place,
    pu_fill_cycles_from_events,
)
from repro.core.perfmodel import HOST_BITS_PER_CYCLE, sensitivity_slowdown
from repro.experiments.formatting import format_table

COLUMNS = [
    ("target_pct", "Target RC%"),
    ("measured_pct", "Measured RC%"),
    ("empirical", "Empirical slowdown"),
    ("closed_form", "Closed form"),
]


def _probe_automaton():
    """12 reporting states, each firing on one dedicated nibble value."""
    automaton = Automaton(name="probe", bits=4, arity=4, start_period=1)
    full = SymbolSet.full(4)
    for index in range(12):
        automaton.new_state(
            "r%d" % index,
            (full, full, full, SymbolSet.of(4, [index])),
            start=StartKind.ALL_INPUT,
            report=True,
            report_code="r%d" % index,
        )
    return automaton


def _experiment(cycles=30_000, seed=5):
    rng = random.Random(seed)
    automaton = _probe_automaton()
    # Host path matched to the closed form: 4.6 bits/cycle for both the
    # concurrent FIFO drain and the stop-and-read flush (256-bit rows).
    host_rows_per_cycle = HOST_BITS_PER_CYCLE / 256.0
    config = SunderConfig(rate_nibbles=4, report_bits=12, fifo=True,
                          fifo_drain_rows_per_cycle=host_rows_per_cycle,
                          flush_rows_per_cycle=host_rows_per_cycle)
    placement = place(automaton, config)

    from repro.sim import BitsetEngine, ReportRecorder
    engine = BitsetEngine(automaton)
    rows = []
    for target_pct in (1, 5, 20, 50, 80, 100):
        probability = target_pct / 100.0
        stream = []
        for _ in range(cycles):
            if rng.random() < probability:
                last = rng.randrange(12)
            else:
                last = 13  # no reporting state matches values > 11
            stream.append((0, 0, 0, last))
        recorder = ReportRecorder()
        engine.run(stream, recorder)
        fills = pu_fill_cycles_from_events(recorder, placement)
        result = ReportingPerfModel(config).evaluate(fills, cycles)
        rows.append({
            "target_pct": target_pct,
            "measured_pct": 100.0 * recorder.report_cycles / cycles,
            "empirical": result.slowdown,
            "closed_form": sensitivity_slowdown(probability, config=config),
        })
    return rows


def test_figure10_empirical(benchmark, save_result):
    rows = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    save_result(
        "figure10_empirical",
        format_table(rows, COLUMNS,
                     title="Figure 10 validation: event-driven vs closed form"),
    )
    empiricals = [row["empirical"] for row in rows]
    # Shape agreement: monotone, free at low rates, multiple-x at 100%.
    assert empiricals == sorted(empiricals)
    assert rows[0]["empirical"] < 1.05
    assert rows[-1]["empirical"] > 2.0
    # Quantitative agreement with the closed form within 2x everywhere the
    # closed form predicts nontrivial slowdown.
    for row in rows:
        if row["closed_form"] > 1.5:
            ratio = row["empirical"] / row["closed_form"]
            assert 0.4 < ratio < 2.5, row
