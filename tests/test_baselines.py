"""AP / AP+RAD reporting-model and throughput-model tests."""

import pytest

from repro.baselines import (
    ApReportingModel,
    SUNDER_THROUGHPUT,
    ThroughputModel,
    figure8_rows,
)
from repro.errors import ArchitectureError
from repro.sim.reports import ReportRecorder


def _events(cycles_and_states):
    """A recorder with one single-report row per ``(cycle, state)``."""
    recorder = ReportRecorder()
    for cycle, state in cycles_and_states:
        recorder.record_cycle(cycle, [(0, state, state)], 1)
    return recorder


STATE_IDS = ["s%d" % index for index in range(32)]


class TestApModel:
    def test_silent_workload_is_free(self):
        result = ApReportingModel().evaluate(_events([]), STATE_IDS, 10_000)
        assert result.slowdown == 1.0

    def test_no_reporting_states_rejected(self):
        with pytest.raises(ArchitectureError):
            ApReportingModel().evaluate(_events([]), [], 100)

    def test_every_cycle_reporting_saturates(self):
        # One report per cycle forever: the queue saturates and the
        # steady-state cost is one region offload per cycle over the
        # export bandwidth (1088/40 ~ 27x).
        total = 200_000
        events = _events((cycle, "s0") for cycle in range(total))
        result = ApReportingModel(scale=0.01).evaluate(events, STATE_IDS, total)
        assert 20.0 < result.slowdown < 30.0

    def test_sparse_reporting_wastes_whole_vector(self):
        # AP offloads the full 1088-bit vector even for a single report.
        events = _events((cycle, "s0") for cycle in range(0, 1000, 100))
        result = ApReportingModel(scale=0.01).evaluate(events, STATE_IDS, 1000)
        assert result.offloaded_bits == 10 * 1088

    def test_multiple_regions_multiply_offload(self):
        model = ApReportingModel(scale=1.0 / 1024)  # region size 1 state
        events = _events([(0, "s0"), (0, "s1"), (1, "s0")])
        offloads, n_regions = model.offload_bits_per_cycle_map(events, STATE_IDS)
        assert n_regions == 32
        assert offloads[0] == 2 * 1088 and offloads[1] == 1088

    def test_same_region_offloads_once(self):
        model = ApReportingModel(scale=1.0)  # region size 1024: all in one
        events = _events([(0, "s0"), (0, "s1"), (0, "s31")])
        offloads, _ = model.offload_bits_per_cycle_map(events, STATE_IDS)
        assert offloads[0] == 1088

    def test_queue_absorbs_bursts(self):
        # A single burst far below capacity costs nothing.
        events = _events((0, "s%d" % index) for index in range(8))
        result = ApReportingModel(scale=1.0).evaluate(events, STATE_IDS, 10_000)
        assert result.slowdown == 1.0


class TestRadModel:
    def test_rad_helps_sparse_reporting(self):
        total = 100_000
        events = _events((cycle, "s0") for cycle in range(total))
        ap = ApReportingModel(rad=False, scale=0.01).evaluate(
            events, STATE_IDS, total
        )
        rad = ApReportingModel(rad=True, scale=0.01).evaluate(
            events, STATE_IDS, total
        )
        assert rad.slowdown < ap.slowdown
        assert rad.offloaded_bits < ap.offloaded_bits

    def test_rad_chunk_payload(self):
        model = ApReportingModel(rad=True, scale=1.0)
        events = _events([(0, "s0")])
        offloads, _ = model.offload_bits_per_cycle_map(events, STATE_IDS)
        assert offloads[0] == 128 + 64

    def test_scale_validation(self):
        with pytest.raises(ArchitectureError):
            ApReportingModel(scale=0)


class TestThroughput:
    def test_kernel_throughput(self):
        model = ThroughputModel("x", 2.0, 8)
        assert model.kernel_gbps() == 16.0
        assert model.effective_gbps(4.0) == 4.0

    def test_overhead_below_one_rejected(self):
        with pytest.raises(ValueError):
            ThroughputModel("x", 1.0, 8).effective_gbps(0.9)

    def test_sunder_is_16bit_at_3p6ghz(self):
        assert SUNDER_THROUGHPUT.bits_per_cycle == 16
        assert SUNDER_THROUGHPUT.frequency_ghz == pytest.approx(3.61, abs=0.05)

    def test_figure8_shape(self):
        rows = figure8_rows(1.0, 4.69, 2.23)
        by_name = {row["architecture"]: row for row in rows}
        # Paper's ordering: Sunder > Impala > CA > AP14 > AP50.
        assert (
            by_name["Sunder"]["ap_reporting_gbps"]
            > by_name["Impala"]["ap_reporting_gbps"]
            > by_name["CA"]["ap_reporting_gbps"]
            > by_name["AP (14nm)"]["ap_reporting_gbps"]
            > by_name["AP (50nm)"]["ap_reporting_gbps"]
        )
        # Headline: two orders of magnitude over the 50nm AP.
        assert by_name["AP (50nm)"]["sunder_speedup_ap"] > 100
        # RAD narrows but does not close the gap.
        for name in ("Impala", "CA", "AP (14nm)", "AP (50nm)"):
            assert (
                by_name[name]["sunder_speedup_rad"]
                < by_name[name]["sunder_speedup_ap"]
            )
