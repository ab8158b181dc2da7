"""Tests for Ste and Automaton structure."""

import hashlib
import pickle
import weakref

import pytest

from repro.automata import Automaton, StartKind, Ste, SymbolSet, single_pattern
from repro.automata import automaton as automaton_module
from repro.errors import AutomatonError


def _sset(*values):
    return SymbolSet.of(8, values)


class TestSte:
    def test_basic_construction(self):
        ste = Ste("q", _sset(1), start="all-input", report=True, report_code="r")
        assert ste.start is StartKind.ALL_INPUT
        assert ste.report and ste.report_code == "r"
        assert ste.report_offsets == (0,)
        assert ste.arity == 1 and ste.bits == 8

    def test_vector_symbols(self):
        ste = Ste("q", (_sset(1), _sset(2)), report=True,
                  report_offsets=(0, 1))
        assert ste.arity == 2
        assert ste.report_offsets == (0, 1)

    def test_default_report_offset_is_last(self):
        ste = Ste("q", (_sset(1), _sset(2)), report=True)
        assert ste.report_offsets == (1,)

    def test_report_code_dropped_when_not_reporting(self):
        ste = Ste("q", _sset(1), report=False, report_code="x")
        assert ste.report_code is None

    def test_offsets_without_report_rejected(self):
        with pytest.raises(AutomatonError):
            Ste("q", _sset(1), report=False, report_offsets=(0,))

    def test_offset_out_of_range_rejected(self):
        with pytest.raises(AutomatonError):
            Ste("q", _sset(1), report=True, report_offsets=(1,))

    def test_mixed_widths_rejected(self):
        with pytest.raises(AutomatonError):
            Ste("q", (_sset(1), SymbolSet.of(4, [1])))

    def test_matches(self):
        ste = Ste("q", (_sset(1, 2), _sset(3)))
        assert ste.matches((1, 3)) and ste.matches((2, 3))
        assert not ste.matches((1, 4))
        with pytest.raises(AutomatonError):
            ste.matches((1,))

    def test_clone_preserves_everything(self):
        ste = Ste("q", _sset(1), start="start-of-data", report=True,
                  report_code="r")
        copy = ste.clone("q2")
        assert copy.id == "q2"
        assert copy.behavior_key() == ste.behavior_key()


class TestAutomaton:
    def test_add_and_query(self):
        automaton = Automaton(bits=8)
        automaton.new_state("a", _sset(1), start="all-input")
        automaton.new_state("b", _sset(2), report=True, report_code="b")
        automaton.add_transition("a", "b")
        assert len(automaton) == 2
        assert automaton.successors("a") == {"b"}
        assert automaton.predecessors("b") == {"a"}
        assert [s.id for s in automaton.report_states()] == ["b"]
        assert automaton.num_transitions() == 1
        automaton.validate()

    def test_duplicate_id_rejected(self):
        automaton = Automaton()
        automaton.new_state("a", _sset(1))
        with pytest.raises(AutomatonError):
            automaton.new_state("a", _sset(2))

    def test_shape_mismatch_rejected(self):
        automaton = Automaton(bits=8)
        with pytest.raises(AutomatonError):
            automaton.add_state(Ste("x", SymbolSet.of(4, [1])))
        automaton2 = Automaton(bits=8, arity=2)
        with pytest.raises(AutomatonError):
            automaton2.add_state(Ste("x", _sset(1)))

    def test_transition_to_unknown_state_rejected(self):
        automaton = Automaton()
        automaton.new_state("a", _sset(1), start="all-input")
        with pytest.raises(AutomatonError):
            automaton.add_transition("a", "ghost")

    def test_remove_state_cleans_edges(self):
        automaton = Automaton()
        automaton.new_state("a", _sset(1), start="all-input")
        automaton.new_state("b", _sset(2))
        automaton.add_transition("a", "b")
        automaton.add_transition("b", "a")
        automaton.remove_state("b")
        assert automaton.successors("a") == set()
        assert automaton.predecessors("a") == set()

    def test_validate_rejects_unreachable(self):
        automaton = Automaton()
        automaton.new_state("a", _sset(1), start="all-input")
        automaton.new_state("orphan", _sset(2))
        with pytest.raises(AutomatonError):
            automaton.validate()
        assert automaton.prune_unreachable() == 1
        automaton.validate()

    def test_validate_rejects_empty_symbol_set(self):
        automaton = Automaton()
        ste = Ste("a", _sset(1), start="all-input")
        object.__setattr__  # noqa: B018 - documents intent
        automaton.add_state(ste)
        ste.symbols = (SymbolSet.empty(8),)
        with pytest.raises(AutomatonError):
            automaton.validate()

    def test_copy_is_deep_for_structure(self):
        original = single_pattern("p", b"ab")
        duplicate = original.copy()
        duplicate.remove_state("p_1")
        assert "p_1" in original and "p_1" not in duplicate

    def test_relabeled_preserves_behavior(self):
        from repro.sim import BitsetEngine
        original = single_pattern("p", b"abc")
        relabeled = original.relabeled()
        data = list(b"xxabcx")
        assert (
            BitsetEngine(original).run(data).positions()
            == BitsetEngine(relabeled).run(data).positions()
        )

    def test_merge_in_shape_checks(self):
        a = Automaton(bits=8)
        b = Automaton(bits=4)
        with pytest.raises(AutomatonError):
            a.merge_in(b, "x_")

    def test_fingerprint_hashes_integer_ids_as_strings(self):
        def chain(ids):
            machine = Automaton(name="chain", bits=8)
            for index, state_id in enumerate(ids):
                machine.new_state(state_id, SymbolSet.single(8, index),
                                  start="all-input" if index == 0 else "none",
                                  report=index == len(ids) - 1)
            for src, dst in zip(ids, ids[1:]):
                machine.add_transition(src, dst)
            return machine.validate()

        numbered = chain([0, 1, 2])
        fingerprint = numbered.fingerprint()
        assert fingerprint == chain(["0", "1", "2"]).fingerprint()
        assert numbered.freeze().fingerprint() == fingerprint

    def test_summary(self):
        automaton = single_pattern("p", b"abcd")
        summary = automaton.summary()
        assert summary["states"] == 4
        assert summary["report_states"] == 1
        assert summary["report_state_pct"] == 25.0


class _CountingHashlib:
    """Stands in for the module's ``hashlib``; counts sha256 objects."""

    def __init__(self):
        self.calls = 0

    def sha256(self, *args):
        self.calls += 1
        return hashlib.sha256(*args)


class TestFrozen:
    def test_frozen_machine_hashes_once(self, monkeypatch):
        counting = _CountingHashlib()
        monkeypatch.setattr(automaton_module, "hashlib", counting)
        machine = single_pattern("p", b"abc")
        machine.fingerprint()
        machine.fingerprint()
        assert counting.calls == 2  # unfrozen: every call hashes
        first = machine.freeze().fingerprint()
        assert counting.calls == 3
        assert machine.fingerprint() == first
        assert counting.calls == 3

    def test_frozen_machine_validates_once(self, monkeypatch):
        calls = []
        walk = Automaton.unreachable_states

        def counting(machine):
            calls.append(machine)
            return walk(machine)

        monkeypatch.setattr(Automaton, "unreachable_states", counting)
        machine = single_pattern("p", b"abc")
        machine.validate()
        machine.validate()
        assert len(calls) == 2  # unfrozen: every call checks
        machine.freeze()
        assert machine.validate() is machine
        assert machine.validate() is machine
        assert len(calls) == 3

    def test_failed_validation_is_not_remembered(self):
        machine = single_pattern("p", b"abc")
        machine.new_state("orphan", _sset(1))
        machine.freeze()
        for _ in range(2):
            with pytest.raises(AutomatonError, match="unreachable"):
                machine.validate()

    def test_freeze_is_idempotent(self):
        machine = single_pattern("p", b"abc")
        assert machine.freeze() is machine
        assert machine.freeze().frozen

    def test_shallow_clone_of_frozen_shares_and_stays_frozen(self):
        source = single_pattern("p", b"abc").freeze()
        clone = source.shallow_clone(name="other")
        assert clone.frozen
        assert all(mine is theirs for mine, theirs in zip(
            clone.successor_columns(), source.successor_columns()))
        assert clone.name == "other"
        assert clone.fingerprint() != source.fingerprint()
        with pytest.raises(AutomatonError):
            clone.add_transition("p_0", "p_2")

    def test_shallow_clone_of_unfrozen_is_independent(self):
        source = single_pattern("p", b"abc")
        clone = source.shallow_clone(name="other")
        assert not clone.frozen
        clone.remove_state("p_2")
        assert "p_2" in source and source.successors("p_1") == {"p_2"}

    def test_copy_of_frozen_is_mutable(self):
        duplicate = single_pattern("p", b"ab").freeze().copy()
        assert not duplicate.frozen
        duplicate.remove_state("p_1")

    def test_frozen_survives_pickling_and_stays_weakrefable(self):
        machine = single_pattern("p", b"abc").freeze()
        digest = machine.fingerprint()
        loaded = pickle.loads(pickle.dumps(machine))
        assert loaded.frozen
        assert loaded.fingerprint() == digest
        with pytest.raises(AutomatonError):
            loaded.name = "renamed"
        assert weakref.ref(loaded)() is loaded


class TestSinglePattern:
    def test_matches_literal_everywhere(self):
        from repro.sim import BitsetEngine
        automaton = single_pattern("p", b"ab", report_code="hit")
        recorder = BitsetEngine(automaton).run(list(b"ababxab"))
        assert recorder.positions() == [1, 3, 6]

    def test_empty_pattern_rejected(self):
        with pytest.raises(AutomatonError):
            single_pattern("p", b"")
