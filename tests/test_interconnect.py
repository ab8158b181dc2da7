"""Crossbar and global-switch tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CrossbarSwitch, GlobalSwitch, SunderConfig, SunderDevice
from repro.errors import ArchitectureError
from repro.transform import to_rate
from repro.workloads.registry import generate


class TestCrossbar:
    def test_single_edge_propagation(self):
        switch = CrossbarSwitch(8)
        switch.program_edge(2, 5)
        active = np.zeros(8, dtype=bool)
        active[2] = True
        enabled = switch.propagate(active)
        assert list(np.flatnonzero(enabled)) == [5]

    def test_or_functionality_multiple_parents(self):
        switch = CrossbarSwitch(8)
        switch.program_edge(0, 4)
        switch.program_edge(1, 4)
        for parents in ([0], [1], [0, 1]):
            active = np.zeros(8, dtype=bool)
            active[parents] = True
            assert switch.propagate(active)[4]

    def test_no_active_states_enables_nothing(self):
        switch = CrossbarSwitch(8)
        switch.program_edge(0, 1)
        assert not switch.propagate(np.zeros(8, dtype=bool)).any()

    def test_self_loop(self):
        switch = CrossbarSwitch(4)
        switch.program_edge(3, 3)
        active = np.zeros(4, dtype=bool)
        active[3] = True
        assert switch.propagate(active)[3]

    def test_unprogram_edge(self):
        switch = CrossbarSwitch(4)
        switch.program_edge(0, 1)
        switch.program_edge(0, 1, connected=False)
        active = np.zeros(4, dtype=bool)
        active[0] = True
        assert not switch.propagate(active).any()

    def test_bounds_checked(self):
        switch = CrossbarSwitch(4)
        with pytest.raises(ArchitectureError):
            switch.program_edge(4, 0)
        with pytest.raises(ArchitectureError):
            switch.propagate(np.zeros(5, dtype=bool))

    def test_program_rows_checked(self):
        switch = CrossbarSwitch(4)
        switch.program_rows({0: 0b0110, 3: 0b1000})
        assert switch.rows == [0b0110, 0, 0, 0b1000]
        for rows in ({4: 1}, {-1: 1}, {0: 1 << 4}, {0: -1}):
            with pytest.raises(ArchitectureError):
                switch.program_rows(rows)

    def test_port2_counts_only_driven_evaluations(self):
        switch = CrossbarSwitch(4)
        switch.program_edge(0, 2)
        switch.program_edge(1, 3)
        switch.propagate(np.zeros(4, dtype=bool))
        assert switch.port2_reads == 0
        assert switch.reach(0b11) == 0b1100
        assert switch.port2_reads == 0
        switch.propagate(np.array([True, True, False, False]))
        assert switch.port2_reads == 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_propagation_equals_boolean_matmul(self, seed):
        rng = np.random.RandomState(seed)
        size = 16
        adjacency = rng.rand(size, size) < 0.3
        active = rng.rand(size) < 0.4
        switch = CrossbarSwitch(size)
        switch.program_adjacency(adjacency)
        got = switch.propagate(active)
        want = active @ adjacency  # boolean mat-vec
        assert (got == want.astype(bool)).all()


class TestGlobalSwitch:
    def test_inter_pu_routing(self):
        switch = GlobalSwitch(num_pus=4, pu_size=8)
        switch.program_edge(0, 3, 2, 6)
        actives = [np.zeros(8, dtype=bool) for _ in range(4)]
        actives[0][3] = True
        remote = switch.propagate(actives)
        assert list(np.flatnonzero(remote[2])) == [6]
        assert not remote[0].any() and not remote[1].any()

    def test_intra_pu_edge_rejected(self):
        switch = GlobalSwitch(num_pus=2, pu_size=8)
        with pytest.raises(ArchitectureError):
            switch.program_edge(1, 0, 1, 3)

    def test_slot_math(self):
        switch = GlobalSwitch(num_pus=4, pu_size=256)
        assert switch.slot(0, 0) == 0
        assert switch.slot(3, 255) == 1023
        with pytest.raises(ArchitectureError):
            switch.slot(4, 0)

    def test_wrong_pu_count_rejected(self):
        switch = GlobalSwitch(num_pus=2, pu_size=4)
        with pytest.raises(ArchitectureError):
            switch.propagate([np.zeros(4, dtype=bool)])


class TestDeviceCrossbars:
    def test_snort_rows_hold_every_edge_once(self):
        """A configured device's crossbars are packed rows whose set bits
        are exactly the machine's edges; Snort at 0.01 spans three
        clusters, so the global switches hold some of them."""
        strided = to_rate(generate("Snort", scale=0.01, seed=0).automaton, 4)
        device = SunderDevice(SunderConfig(rate_nibbles=4))
        placement = device.configure(strided)
        cols = device.config.subarray_cols
        local = [pu.crossbar for _, _, pu in device.iter_pus()]
        remote = [cluster.global_switch.crossbar
                  for cluster in device.clusters]
        for crossbar in local + remote:
            assert len(crossbar.rows) == crossbar.size
            assert all(isinstance(row, int) and 0 <= row < 1 << crossbar.size
                       for row in crossbar.rows)
            assert not any(isinstance(value, np.ndarray)
                           for value in vars(crossbar).values())
        remote_bits = sum(bin(row).count("1")
                          for crossbar in remote for row in crossbar.rows)
        assert remote_bits > 0
        assert (sum(bin(row).count("1")
                    for crossbar in local for row in crossbar.rows)
                + remote_bits) == strided.num_transitions()
        for src, dst in strided.transitions():
            src_slot = placement.slot_of(src)
            dst_slot = placement.slot_of(dst)
            cluster = device.clusters[src_slot.cluster]
            if src_slot.pu == dst_slot.pu:
                row = cluster.pus[src_slot.pu].crossbar.rows[src_slot.column]
                assert row >> dst_slot.column & 1
            else:
                row = cluster.global_switch.crossbar.rows[
                    src_slot.pu * cols + src_slot.column]
                assert row >> (dst_slot.pu * cols + dst_slot.column) & 1
