"""Tests for graph operations, especially language-preserving merging."""

import random

import pytest

from repro.automata import (
    Automaton,
    SymbolSet,
    connected_components,
    degree_statistics,
    minimize,
    single_pattern,
    union,
)
from repro.automata.ops import longest_simple_path_bound, reachable_from
from repro.errors import AutomatonError
from repro.sim import BitsetEngine
from conftest import random_automaton


class TestComponents:
    def test_two_patterns_two_components(self):
        machine = union([single_pattern("a", b"xy"), single_pattern("b", b"pq")])
        components = connected_components(machine)
        assert len(components) == 2
        assert sorted(len(c) for c in components) == [2, 2]

    def test_single_component_when_connected(self):
        machine = single_pattern("a", b"abcd")
        assert len(connected_components(machine)) == 1

    def test_largest_component_first(self):
        machine = union([single_pattern("a", b"ab"), single_pattern("b", b"pqrst")])
        components = connected_components(machine)
        assert len(components[0]) == 5


class TestDegreeStatistics:
    def test_chain_degrees(self):
        machine = single_pattern("a", b"abc")
        stats = degree_statistics(machine)
        assert stats["max_fan_out"] == 1
        assert stats["max_fan_in"] == 1

    def test_empty_automaton(self):
        stats = degree_statistics(Automaton())
        assert stats["max_fan_in"] == 0


def _identical_branches():
    """Two identical chains from one start: two states are redundant."""
    automaton = Automaton(bits=8)
    automaton.new_state("s", SymbolSet.of(8, [1]), start="all-input")
    for branch in ("x", "y"):
        automaton.new_state(branch + "1", SymbolSet.of(8, [2]))
        automaton.new_state(branch + "2", SymbolSet.of(8, [3]),
                            report=True, report_code="r")
        automaton.add_transition("s", branch + "1")
        automaton.add_transition(branch + "1", branch + "2")
    return automaton


class TestMinimize:
    def test_merges_identical_branches(self):
        # Two identical chains from the same start should collapse.
        automaton = _identical_branches()
        removed = minimize(automaton)
        assert removed == 2
        assert len(automaton) == 3

    def test_frozen_machine_raises_only_when_it_would_merge(self):
        redundant = _identical_branches().freeze()
        with pytest.raises(AutomatonError):
            minimize(redundant)
        assert len(redundant) == 5
        minimal = _identical_branches()
        minimize(minimal)
        assert minimize(minimal.freeze()) == 0

    def test_does_not_merge_different_reports(self):
        automaton = Automaton(bits=8)
        automaton.new_state("s", SymbolSet.of(8, [1]), start="all-input")
        automaton.new_state("a", SymbolSet.of(8, [2]), report=True,
                            report_code="ra")
        automaton.new_state("b", SymbolSet.of(8, [2]), report=True,
                            report_code="rb")
        automaton.add_transition("s", "a")
        automaton.add_transition("s", "b")
        assert minimize(automaton) == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_minimize_preserves_language(self, seed):
        rng = random.Random(seed)
        automaton = random_automaton(rng, n_states=10, bits=4,
                                     edge_density=0.3)
        if len(automaton) == 0:
            return
        reference = automaton.copy()
        minimize(automaton)
        automaton.validate()
        for trial in range(10):
            data = [rng.randrange(16) for _ in range(rng.randint(0, 30))]
            got = BitsetEngine(automaton).run(data).event_keys()
            want = BitsetEngine(reference).run(data).event_keys()
            # Keys are (position, report_code): state ids may merge, the
            # observable reports may not change.
            assert got == want, (seed, trial, data)


class TestPartitionRefinement:
    """The refinement minimizer must subsume the legacy round-based one."""

    def _dup_union(self, copies, length):
        return union([single_pattern("dup", bytes([65] * length))
                      for _ in range(copies)], name="dup")

    def test_collapses_long_duplicate_chains_fully(self):
        # 40 duplicate 64-state chains need 64 legacy rounds — beyond the
        # 32-round cap — but one refinement pass collapses them all.
        from repro.automata.ops import minimize_legacy
        machine = self._dup_union(40, 64)
        legacy = self._dup_union(40, 64)
        minimize(machine)
        minimize_legacy(legacy)
        assert len(machine) == 64
        assert len(legacy) > len(machine)

    def test_merges_through_cycles(self):
        # Two identical self-looping reporters: exact-successor matching
        # sees different ids through the loops, refinement merges them.
        automaton = Automaton(bits=8)
        automaton.new_state("s", SymbolSet.of(8, [1]), start="all-input")
        for name in ("a", "b"):
            automaton.new_state(name, SymbolSet.of(8, [2]),
                                report=True, report_code="r")
            automaton.add_transition("s", name)
            automaton.add_transition(name, name)
        minimize(automaton)
        assert len(automaton) == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_never_merges_less_than_legacy(self, seed):
        from repro.automata.ops import minimize_legacy
        rng = random.Random(seed)
        automaton = random_automaton(rng, n_states=12, bits=4,
                                     edge_density=0.35)
        legacy = automaton.copy()
        removed = minimize(automaton)
        removed_legacy = minimize_legacy(legacy)
        assert removed >= removed_legacy

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_legacy_language(self, seed):
        from repro.automata.ops import minimize_legacy
        rng = random.Random(1000 + seed)
        automaton = random_automaton(rng, n_states=10, bits=4,
                                     edge_density=0.3)
        legacy = automaton.copy()
        minimize(automaton)
        minimize_legacy(legacy)
        for trial in range(8):
            data = [rng.randrange(16) for _ in range(rng.randint(0, 25))]
            got = BitsetEngine(automaton).run(data).event_keys()
            want = BitsetEngine(legacy).run(data).event_keys()
            assert got == want, (seed, trial, data)

    def test_keeps_distinct_rules_separate(self):
        # Rules with distinct report codes must not be welded together.
        machine = union([single_pattern("a", b"xy", report_code="a"),
                         single_pattern("b", b"xy", report_code="b")])
        minimize(machine)
        assert len(connected_components(machine)) == 2


class TestReachability:
    def test_reachable_from(self):
        machine = single_pattern("a", b"abc")
        assert reachable_from(machine, ["a_0"]) == {"a_0", "a_1", "a_2"}
        assert reachable_from(machine, ["a_2"]) == {"a_2"}

    def test_depth_bound(self):
        machine = single_pattern("a", b"abcde")
        assert longest_simple_path_bound(machine) == 5


class TestUnion:
    def test_union_preserves_both_languages(self):
        a = single_pattern("a", b"xy", report_code="A")
        b = single_pattern("b", b"zz", report_code="B")
        machine = union([a, b])
        recorder = BitsetEngine(machine).run(list(b"xyzz"))
        assert {code for _, code in recorder.event_keys()} == {"A", "B"}

    def test_union_requires_input(self):
        with pytest.raises(ValueError):
            union([])
