"""Analytic reporting-performance model tests."""

import hashlib

import pytest

from repro.core import (ReportingPerfModel, SunderConfig, place,
                        sensitivity_slowdown)
from repro.errors import ArchitectureError
from repro.sim import BitsetEngine, stream_for
from repro.sim.reports import ReportRecorder
from repro.transform import to_rate
from repro.workloads import BENCHMARK_NAMES, generate

#: The drains the pin covers: none, the default FIFO, and two contended
#: FIFOs, the only setting whose FIFO stalls are nonzero.
DRAINS = [
    {"fifo": False},
    {"fifo": True},
    {"fifo": True, "fifo_drain_rows_per_cycle": 0.05},
    {"fifo": True, "fifo_drain_rows_per_cycle": 0.01},
]

#: sha256 of ``repr([(repr(stall_cycles), flushes, fills), ...])`` over
#: every benchmark at scale 0.002, seeds 0 and 1, and each of DRAINS,
#: recorded from the per-PU fill-cycle replay that the row replay
#: replaced: Table 4's floats must not move by a bit.
DRAIN_PIN = "b0b9df0012d64892fab9c67f186615fb7deeadc4d489203b8828f6d3f3921516"


def _config(fifo=False, **kwargs):
    return SunderConfig(rate_nibbles=4, report_bits=12, metadata_bits=20,
                        fifo=fifo, **kwargs)


class StubPlacement:
    """Places a state in the PU its id names: ``(pu, name)`` is in ``pu``."""

    def report_pu_of(self, state_id):
        return state_id[0]


def _recorder(pu_cycles):
    """Rows in which each PU of ``{pu: cycles}`` reports in its cycles."""
    by_cycle = {}
    for pu, cycles in pu_cycles.items():
        for cycle in cycles:
            by_cycle.setdefault(cycle, []).append((0, (pu, "s"), "r"))
    recorder = ReportRecorder()
    for cycle in sorted(by_cycle):
        recorder.record_cycle(cycle, by_cycle[cycle], 4)
    return recorder


def _evaluate(config, pu_cycles, total_cycles, capacity_scale=1.0):
    return ReportingPerfModel(config).evaluate(
        _recorder(pu_cycles), StubPlacement(), total_cycles,
        capacity_scale=capacity_scale)


class TestReportingPerfModel:
    def test_no_fills_no_overhead(self):
        result = _evaluate(_config(), {}, 1000)
        assert result.slowdown == 1.0 and result.flushes == 0

    def test_below_capacity_never_flushes(self):
        config = _config()
        fills = {("c", 0): list(range(config.report_capacity))}
        result = _evaluate(config, fills, config.report_capacity + 1)
        assert result.flushes == 0

    def test_overflow_flushes_once_per_capacity(self):
        config = _config()
        total = config.report_capacity * 3 + 1
        fills = {("c", 0): list(range(total))}
        result = _evaluate(config, fills, total + 1)
        assert result.flushes == 3
        assert result.stall_cycles > 0
        assert result.slowdown > 1.0

    def test_fifo_drain_reduces_flushes(self):
        total = 40_000
        fills = {("c", 0): list(range(0, total, 2))}  # fill rate 0.5/cycle
        no_fifo = _evaluate(_config(fifo=False), fills, total)
        fifo = _evaluate(_config(fifo=True, fifo_drain_rows_per_cycle=0.25),
                         fills, total)
        assert no_fifo.flushes > 0
        assert fifo.flushes < no_fifo.flushes

    def test_fifo_fully_drains_slow_fills(self):
        fills = {("c", 0): list(range(0, 40_000, 10))}  # 0.1 fills/cycle
        result = _evaluate(_config(fifo=True, fifo_drain_rows_per_cycle=0.25),
                           fills, 40_000)
        assert result.flushes == 0

    def test_independent_pus_flush_independently(self):
        config = _config()
        total = config.report_capacity + 1
        fills = {
            ("c", 0): list(range(total)),
            ("c", 1): [0],
        }
        result = _evaluate(config, fills, total + 1)
        assert result.flushes == 1

    def test_capacity_scale_shrinks_capacity(self):
        config = _config()
        fills = {("c", 0): list(range(100))}
        scaled = _evaluate(config, fills, 200, capacity_scale=0.01)
        unscaled = _evaluate(config, fills, 200)
        assert scaled.flushes > unscaled.flushes == 0

    def test_fill_beyond_stream_rejected(self):
        with pytest.raises(ArchitectureError):
            _evaluate(_config(), {("c", 0): [10]}, 10)

    def test_bad_scale_rejected(self):
        with pytest.raises(ArchitectureError):
            _evaluate(_config(), {}, 10, capacity_scale=0)


class TestDrainPin:
    def test_every_benchmark_and_drain_matches_the_pin(self):
        scale = 0.002
        results = []
        for name in BENCHMARK_NAMES:
            for seed in (0, 1):
                instance = generate(name, scale=scale, seed=seed)
                strided = to_rate(instance.automaton, 4)
                vectors, limit = stream_for(strided, instance.input_bytes)
                recorder = BitsetEngine(strided).run(
                    vectors, position_limit=limit)
                placement = place(strided, SunderConfig(rate_nibbles=4))
                for drain in DRAINS:
                    result = ReportingPerfModel(
                        SunderConfig(rate_nibbles=4, **drain)).evaluate(
                            recorder, placement, len(vectors),
                            capacity_scale=scale)
                    results.append((repr(result.stall_cycles),
                                    result.flushes, result.fills))
        contended = results[2::4] + results[3::4]
        assert any(float(stalls) > 0 for stalls, _, _ in contended)
        digest = hashlib.sha256(repr(results).encode("utf-8")).hexdigest()
        assert digest == DRAIN_PIN


class TestFillExtraction:
    def test_groups_by_pu_and_dedups_cycles(self):
        class FakePlacement:
            def report_pu_of(self, state_id):
                return ("c0", 0) if state_id.startswith("a") else ("c0", 1)

        recorder = ReportRecorder()
        # a1 and a2: same PU, same cycle -> one fill, whether they share
        # a row or not; cycles come out ascending whatever the row order
        # (a multi-round run absorbs each round's rows).
        recorder.record_cycle(1, [(0, "b1", "z")], 4)
        recorder.record_cycle(0, [(0, "a1", "x"), (0, "a2", "y")], 4)
        recorder.record_cycle(0, [(1, "a2", "y")], 4)
        rows = recorder.units_by_cycle(FakePlacement().report_pu_of)
        assert list(rows.items()) == [
            (0, frozenset({("c0", 0)})), (1, frozenset({("c0", 1)}))]
        result = ReportingPerfModel(_config()).evaluate(
            recorder, FakePlacement(), 2)
        assert result.fills == 2


class TestSensitivity:
    def test_paper_anchor_points(self):
        config = SunderConfig(report_bits=12)
        worst = sensitivity_slowdown(1.0, summarize=False, config=config)
        summarized = sensitivity_slowdown(1.0, summarize=True, config=config)
        assert 6.0 <= worst <= 8.0       # paper: 7x
        assert 1.2 <= summarized <= 1.6  # paper: 1.4x

    def test_low_rates_are_free(self):
        assert sensitivity_slowdown(0.05) == 1.0
        assert sensitivity_slowdown(0.0) == 1.0

    def test_monotone_in_rate(self):
        values = [sensitivity_slowdown(r / 10.0) for r in range(11)]
        assert values == sorted(values)

    def test_summarization_always_helps(self):
        for rate in (0.2, 0.5, 0.8, 1.0):
            assert (
                sensitivity_slowdown(rate, summarize=True)
                <= sensitivity_slowdown(rate, summarize=False)
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ArchitectureError):
            sensitivity_slowdown(1.5)
