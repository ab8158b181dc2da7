"""Report-analytics tests."""

import pytest

from repro.errors import SimulationError
from repro.sim import ReportRecorder
from repro.sim.analysis import (
    buffer_pressure,
    burst_widths,
    density_timeline,
    inter_report_gaps,
    per_code_counts,
    summarize_analysis,
)


def _recorder(cycle_counts):
    recorder = ReportRecorder()
    for cycle, count in cycle_counts:
        plan = [(0, "s%d" % index, "c%d" % index) for index in range(count)]
        recorder.record_cycle(cycle, plan, 1)
    return recorder


class TestGapsAndBursts:
    def test_gaps(self):
        recorder = _recorder([(0, 1), (10, 1), (15, 2)])
        assert inter_report_gaps(recorder) == [10, 5]

    def test_no_gaps_for_single_cycle(self):
        assert inter_report_gaps(_recorder([(5, 3)])) == []

    def test_burst_widths(self):
        recorder = _recorder([(0, 1), (1, 4), (2, 4)])
        assert burst_widths(recorder) == {1: 1, 4: 2}

    def test_per_code_counts(self):
        recorder = _recorder([(0, 2), (1, 1)])
        counts = per_code_counts(recorder)
        assert counts["c0"] == 2 and counts["c1"] == 1

    def test_per_code_counts_weight_shared_plans(self):
        recorder = ReportRecorder()
        shared = ((0, "a", "x"), (0, "b", "y"), (0, "c", "x"))
        for cycle in (0, 3, 9):
            recorder.record_cycle(cycle, shared, 1)
        recorder.record_cycle(10, [(0, "d", "z")], 1)
        assert per_code_counts(recorder) == {"x": 6, "y": 3, "z": 1}
        assert list(per_code_counts(recorder)) == ["x", "y", "z"]


class TestTimeline:
    def test_windows_partition_reports(self):
        recorder = _recorder([(0, 1), (50, 2), (99, 3)])
        timeline = density_timeline(recorder, 100, windows=2)
        assert timeline == [1, 5]
        assert sum(timeline) == recorder.total_reports

    def test_validation(self):
        recorder = _recorder([(0, 1)])
        with pytest.raises(SimulationError):
            density_timeline(recorder, 0)
        with pytest.raises(SimulationError):
            density_timeline(recorder, 10, windows=0)


class TestBufferPressure:
    def test_peak_without_drain(self):
        recorder = _recorder([(c, 1) for c in range(10)])
        peak, overflows, final = buffer_pressure(recorder, 100, 20)
        assert peak == 10 and overflows == 0 and final == 10

    def test_overflow_counted(self):
        recorder = _recorder([(c, 1) for c in range(10)])
        peak, overflows, _ = buffer_pressure(recorder, 4, 20)
        assert overflows == 2
        assert peak <= 5

    def test_drain_reduces_level(self):
        recorder = _recorder([(0, 1), (10, 1)])
        _, _, final = buffer_pressure(recorder, 100, 20, drain_per_cycle=0.2)
        assert final == 0.0

    def test_validation(self):
        recorder = _recorder([(5, 1)])
        with pytest.raises(SimulationError):
            buffer_pressure(recorder, 0, 10)
        with pytest.raises(SimulationError):
            buffer_pressure(recorder, 10, 5)


class TestSummary:
    def test_full_summary(self):
        recorder = _recorder([(0, 1), (10, 3)])
        summary = summarize_analysis(recorder, 20)
        assert summary["max_burst"] == 3
        assert summary["min_gap"] == 10
        assert summary["hot_codes"][0][0] == "c0"

    def test_empty_recorder(self):
        summary = summarize_analysis(ReportRecorder(), 10)
        assert summary["max_burst"] == 0
        assert summary["min_gap"] is None

    def test_on_real_workload(self):
        from repro.workloads import generate
        instance = generate("TCP", scale=0.002, seed=0)
        row = instance.measured_behavior()
        recorder = row["recorder"]
        summary = summarize_analysis(recorder, row["cycles"])
        assert summary["report_cycles"] == row["report_cycles"]
        assert len(summary["timeline"]) == 20
