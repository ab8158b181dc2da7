"""Analytic reporting-performance model tests."""

import pytest

from repro.core import (
    ReportingPerfModel,
    SunderConfig,
    pu_fill_cycles_from_events,
    sensitivity_slowdown,
)
from repro.errors import ArchitectureError
from repro.sim.reports import ReportRecorder


def _config(fifo=False, **kwargs):
    return SunderConfig(rate_nibbles=4, report_bits=12, metadata_bits=20,
                        fifo=fifo, **kwargs)


class TestReportingPerfModel:
    def test_no_fills_no_overhead(self):
        result = ReportingPerfModel(_config()).evaluate({}, 1000)
        assert result.slowdown == 1.0 and result.flushes == 0

    def test_below_capacity_never_flushes(self):
        config = _config()
        fills = {("c", 0): list(range(config.report_capacity))}
        result = ReportingPerfModel(config).evaluate(
            fills, config.report_capacity + 1
        )
        assert result.flushes == 0

    def test_overflow_flushes_once_per_capacity(self):
        config = _config()
        total = config.report_capacity * 3 + 1
        fills = {("c", 0): list(range(total))}
        result = ReportingPerfModel(config).evaluate(fills, total + 1)
        assert result.flushes == 3
        assert result.stall_cycles > 0
        assert result.slowdown > 1.0

    def test_fifo_drain_reduces_flushes(self):
        total = 40_000
        fills = {("c", 0): list(range(0, total, 2))}  # fill rate 0.5/cycle
        no_fifo = ReportingPerfModel(_config(fifo=False)).evaluate(fills, total)
        fifo = ReportingPerfModel(
            _config(fifo=True, fifo_drain_rows_per_cycle=0.25)
        ).evaluate(fills, total)
        assert no_fifo.flushes > 0
        assert fifo.flushes < no_fifo.flushes

    def test_fifo_fully_drains_slow_fills(self):
        fills = {("c", 0): list(range(0, 40_000, 10))}  # 0.1 fills/cycle
        result = ReportingPerfModel(
            _config(fifo=True, fifo_drain_rows_per_cycle=0.25)
        ).evaluate(fills, 40_000)
        assert result.flushes == 0

    def test_independent_pus_flush_independently(self):
        config = _config()
        total = config.report_capacity + 1
        fills = {
            ("c", 0): list(range(total)),
            ("c", 1): [0],
        }
        result = ReportingPerfModel(config).evaluate(fills, total + 1)
        assert result.flushes == 1

    def test_capacity_scale_shrinks_capacity(self):
        config = _config()
        fills = {("c", 0): list(range(100))}
        scaled = ReportingPerfModel(config).evaluate(
            fills, 200, capacity_scale=0.01
        )
        unscaled = ReportingPerfModel(config).evaluate(fills, 200)
        assert scaled.flushes > unscaled.flushes == 0

    def test_fill_beyond_stream_rejected(self):
        with pytest.raises(ArchitectureError):
            ReportingPerfModel(_config()).evaluate({("c", 0): [10]}, 10)

    def test_bad_scale_rejected(self):
        with pytest.raises(ArchitectureError):
            ReportingPerfModel(_config()).evaluate({}, 10, capacity_scale=0)


class TestFillExtraction:
    def test_groups_by_pu_and_dedups_cycles(self):
        class FakePlacement:
            def report_pu_of(self, state_id):
                return ("c0", 0) if state_id.startswith("a") else ("c0", 1)

        recorder = ReportRecorder()
        # a1 and a2: same PU, same cycle -> one fill.
        recorder.record_cycle(0, [(0, "a1", "x"), (0, "a2", "y")], 4)
        recorder.record_cycle(1, [(0, "b1", "z")], 4)
        fills = pu_fill_cycles_from_events(recorder, FakePlacement())
        assert fills == {("c0", 0): [0], ("c0", 1): [1]}


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
