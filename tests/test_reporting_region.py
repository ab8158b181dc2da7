"""Reporting-region tests: geometry, append/read, FIFO, flush, summarize."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReportingRegion, SramSubarray, SunderConfig
from repro.errors import ArchitectureError


def _region(rate=4, fifo=False, m=12, n=20, **kwargs):
    config = SunderConfig(rate_nibbles=rate, report_bits=m, metadata_bits=n,
                          fifo=fifo, **kwargs)
    subarray = SramSubarray(config.subarray_rows, config.subarray_cols)
    return ReportingRegion(subarray, config), config


def _bits(config, *set_positions):
    bits = np.zeros(config.report_bits, dtype=bool)
    for position in set_positions:
        bits[position] = True
    return bits


class TestGeometry:
    @pytest.mark.parametrize("rate,rows", [(1, 240), (2, 224), (4, 192)])
    def test_report_rows_by_rate(self, rate, rows):
        _, config = _region(rate=rate)
        assert config.report_rows == rows

    def test_capacity(self):
        _, config = _region(rate=4, m=12, n=20)
        # 32-bit entries, 8 per 256-bit row, 192 rows.
        assert config.entries_per_row == 8
        assert config.report_capacity == 1536

    def test_local_counter_size_matches_equation_1(self):
        # Paper example: 16-bit processing, m=8, n=24 -> 16-bit counter.
        config = SunderConfig(rate_nibbles=4, report_bits=8, metadata_bits=24)
        assert config.local_counter_bits() == 8 + 3

    def test_entry_must_fit_in_row(self):
        with pytest.raises(ArchitectureError):
            SunderConfig(report_bits=200, metadata_bits=100)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ArchitectureError):
            SunderConfig(rate_nibbles=3)


class TestAppendAndRead:
    def test_roundtrip_single_entry(self):
        region, config = _region()
        region.append(_bits(config, 0, 5), cycle=42)
        entries = region.read_entries()
        assert len(entries) == 1
        assert entries[0].cycle == 42
        assert list(np.flatnonzero(entries[0].report_vector)) == [0, 5]

    def test_entries_pack_within_rows(self):
        region, config = _region()
        for cycle in range(10):
            region.append(_bits(config, cycle % config.report_bits), cycle)
        assert region.used_rows == 2  # 8 entries/row
        entries = region.read_entries()
        assert [entry.cycle for entry in entries] == list(range(10))

    def test_metadata_truncates_modulo(self):
        region, config = _region(n=8)
        region.append(_bits(config, 0), cycle=300)
        assert region.read_entries()[0].cycle == 300 % 256

    def test_wrong_width_rejected(self):
        region, config = _region()
        with pytest.raises(ArchitectureError):
            region.append(np.zeros(config.report_bits + 1, dtype=bool), 0)

    def test_read_entry_selective(self):
        region, config = _region()
        for cycle in range(5):
            region.append(_bits(config, 1), cycle)
        assert region.read_entry(3).cycle == 3
        with pytest.raises(ArchitectureError):
            region.read_entry(5)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 2 ** 20 - 1)),
                    min_size=1, max_size=40))
    def test_roundtrip_property(self, items):
        region, config = _region()
        for position, cycle in items:
            region.append(_bits(config, position), cycle)
        entries = region.read_entries()
        assert len(entries) == len(items)
        for entry, (position, cycle) in zip(entries, items):
            assert entry.cycle == cycle
            assert list(np.flatnonzero(entry.report_vector)) == [position]


class TestFlush:
    def test_flush_on_overflow(self):
        region, config = _region(flush_rows_per_cycle=64)
        sunk = []
        region.sink = sunk.append
        for cycle in range(config.report_capacity + 1):
            region.append(_bits(config, 0), cycle)
        assert region.flushes == 1
        assert region.stall_cycles == 3  # ceil(192 / 64)
        # The flushed batch reached the host; one entry remains buffered.
        assert len(sunk) == 1 and len(sunk[0]) == config.report_capacity
        assert region.count == 1

    def test_flush_empty_is_free(self):
        region, _ = _region()
        assert region.flush() == 0
        assert region.flushes == 0

    def test_flush_stall_scales_with_used_rows(self):
        region, config = _region(flush_rows_per_cycle=1)
        for cycle in range(config.entries_per_row * 2):  # two rows
            region.append(_bits(config, 0), cycle)
        assert region.flush() == 2


class TestFifo:
    def test_background_drain_frees_space(self):
        region, config = _region(fifo=True, fifo_drain_rows_per_cycle=1.0)
        drained = []
        region.sink = drained.extend
        for cycle in range(8):
            region.append(_bits(config, 0), cycle)
        region.tick()
        assert region.count == 0
        assert [entry.cycle for entry in drained] == list(range(8))

    def test_fractional_drain_accumulates_credit(self):
        region, config = _region(fifo=True, fifo_drain_rows_per_cycle=0.0625)
        region.append(_bits(config, 0), 0)
        assert region.tick() == 0  # credit 0.5 entries (0.0625 * 8)
        assert region.tick() == 1  # credit reaches 1.0

    def test_unused_credit_is_not_banked(self):
        # One entry a cycle leaves 7 of the 8 entries of bandwidth unused;
        # the host cannot spend them on a later burst.
        region, config = _region(fifo=True, fifo_drain_rows_per_cycle=1.0)
        for cycle in range(10):
            region.append(_bits(config, 0), cycle)
            assert region.tick() == 1
        for cycle in range(10, 30):
            region.append(_bits(config, 0), cycle)
        assert region.tick() == config.entries_per_row
        assert region.count == 20 - config.entries_per_row

    def test_explicit_budget_overrides(self):
        region, config = _region(fifo=True)
        for cycle in range(6):
            region.append(_bits(config, 0), cycle)
        assert region.tick(max_entries=4) == 4
        assert region.count == 2

    def test_disabled_fifo_never_drains(self):
        region, config = _region(fifo=False)
        region.append(_bits(config, 0), 0)
        assert region.tick() == 0
        assert region.count == 1

    def test_wraparound_preserves_order(self):
        region, config = _region(fifo=True)
        total = config.report_capacity + config.entries_per_row
        received = []
        region.sink = received.extend
        for cycle in range(total):
            region.append(_bits(config, 0), cycle)
            region.tick(max_entries=1)
        received.extend(region.read_entries())
        assert [entry.cycle for entry in received] == list(range(total))
        assert region.flushes == 0  # drain kept up


class TestSummarize:
    def test_summary_ors_report_columns(self):
        region, config = _region()
        region.append(_bits(config, 2), 0)
        region.append(_bits(config, 7), 1)
        summary, stall = region.summarize()
        assert list(np.flatnonzero(summary)) == [2, 7]
        assert stall == config.summarize_stall_cycles  # one 16-row batch

    def test_summary_stall_scales_with_rows(self):
        region, config = _region()
        for cycle in range(config.entries_per_row * 40):  # 40 rows
            region.append(_bits(config, 1), cycle)
        _, stall = region.summarize()
        assert stall == config.summarize_stall_cycles * 3  # ceil(40/16)

    def test_empty_region_summary(self):
        region, _ = _region()
        summary, stall = region.summarize()
        assert not summary.any() and stall == 0
