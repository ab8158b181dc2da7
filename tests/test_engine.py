"""Functional-engine tests: semantics, differential, and recorder."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import Automaton, StartKind, SymbolSet
from repro.errors import SimulationError
from repro.sim import BitsetEngine, NaiveEngine, ReportRecorder
from repro.sim.engine import _normalize_stream
from conftest import random_automaton


class TestSemantics:
    def test_start_of_data_only_fires_at_cycle_zero(self):
        automaton = Automaton(bits=8)
        automaton.new_state("s", SymbolSet.of(8, [1]),
                            start=StartKind.START_OF_DATA,
                            report=True, report_code="s")
        recorder = BitsetEngine(automaton).run([1, 1, 1])
        assert recorder.positions() == [0]

    def test_all_input_fires_every_cycle(self):
        automaton = Automaton(bits=8)
        automaton.new_state("s", SymbolSet.of(8, [1]),
                            start=StartKind.ALL_INPUT,
                            report=True, report_code="s")
        recorder = BitsetEngine(automaton).run([1, 2, 1])
        assert recorder.positions() == [0, 2]

    def test_start_period_gates_all_input(self):
        automaton = Automaton(bits=8, start_period=2)
        automaton.new_state("s", SymbolSet.of(8, [1]),
                            start=StartKind.ALL_INPUT,
                            report=True, report_code="s")
        recorder = BitsetEngine(automaton).run([1, 1, 1, 1])
        assert recorder.positions() == [0, 2]

    def test_transitions_require_match(self):
        automaton = Automaton(bits=8)
        automaton.new_state("a", SymbolSet.of(8, [1]), start="all-input")
        automaton.new_state("b", SymbolSet.of(8, [2]), report=True,
                            report_code="b")
        automaton.add_transition("a", "b")
        assert BitsetEngine(automaton).run([1, 2]).positions() == [1]
        assert BitsetEngine(automaton).run([1, 3]).positions() == []
        assert BitsetEngine(automaton).run([2, 2]).positions() == []

    def test_vector_arity_positions(self):
        automaton = Automaton(bits=4, arity=2)
        automaton.new_state(
            "s", (SymbolSet.of(4, [1]), SymbolSet.full(4)),
            start="all-input", report=True, report_code="s",
            report_offsets=(0,),
        )
        recorder = BitsetEngine(automaton).run([(1, 5), (2, 5), (1, 0)])
        # Offset 0 within cycles 0 and 2 -> stream positions 0 and 4.
        assert recorder.positions() == [0, 4]

    def test_out_of_range_symbol_raises(self):
        automaton = Automaton(bits=4)
        automaton.new_state("s", SymbolSet.full(4), start="all-input")
        with pytest.raises(SimulationError):
            BitsetEngine(automaton).run([16])

    def test_arity_mismatch_raises(self):
        automaton = Automaton(bits=4, arity=2)
        automaton.new_state("s", (SymbolSet.full(4),) * 2, start="all-input")
        with pytest.raises(SimulationError):
            BitsetEngine(automaton).run([(1,)])

    def test_reset_between_runs(self):
        automaton = Automaton(bits=8)
        automaton.new_state("s", SymbolSet.of(8, [1]),
                            start=StartKind.START_OF_DATA,
                            report=True, report_code="s")
        engine = BitsetEngine(automaton)
        assert engine.run([1]).total_reports == 1
        assert engine.run([2]).total_reports == 0
        assert engine.run([1]).total_reports == 1

    def test_active_ids_and_history(self):
        automaton = Automaton(bits=8)
        automaton.new_state("s", SymbolSet.of(8, [1]), start="all-input")
        engine = BitsetEngine(automaton)
        engine.run([1, 2, 1])
        assert engine.active_count_history == [1, 0, 1]


class TestDifferential:
    @pytest.mark.parametrize("seed", range(15))
    def test_bitset_matches_naive(self, seed):
        rng = random.Random(seed)
        automaton = random_automaton(rng, n_states=9, bits=4,
                                     edge_density=0.3)
        if len(automaton) == 0:
            return
        bitset, naive = BitsetEngine(automaton), NaiveEngine(automaton)
        for _ in range(5):
            data = [rng.randrange(16) for _ in range(rng.randint(0, 25))]
            r1, r2 = ReportRecorder(), ReportRecorder()
            bitset.run(data, r1)
            naive.run(data, r2)
            assert r1.event_keys() == r2.event_keys()
            assert bitset.active_ids() == naive.active_ids()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.binary(max_size=24))
    def test_bitset_matches_naive_hypothesis(self, seed, raw):
        rng = random.Random(seed)
        automaton = random_automaton(rng, n_states=7, bits=4,
                                     edge_density=0.35)
        if len(automaton) == 0:
            return
        data = [byte % 16 for byte in raw]
        r1 = BitsetEngine(automaton).run(data)
        r2 = NaiveEngine(automaton).run(data)
        assert r1.event_keys() == r2.event_keys()


def _chain(length):
    """A frozen, validated ``length``-state chain: one edge per state."""
    automaton = Automaton(name="chain", bits=8)
    for index in range(length):
        automaton.new_state(
            "s%d" % index, SymbolSet.of(8, [index % 256]),
            start="all-input" if index == 0 else "none",
            report=index == length - 1,
            report_code="end" if index == length - 1 else None)
        if index:
            automaton.add_transition("s%d" % (index - 1), "s%d" % index)
    return automaton.freeze().validate()


class TestBinding:
    def test_build_memory_is_sized_by_edges(self):
        # Full-width successor masks took 37 MB (1.9 kB per state) for
        # this chain; rows sized by edges take under 9 MB.
        states = 20_000
        automaton = _chain(states)
        tracemalloc.start()
        try:
            engine = BitsetEngine(automaton)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 800 * states
        assert engine.run(bytes(range(256)) * 2).total_reports == 0

    def test_shaped_stream_is_used_as_is(self):
        automaton = Automaton(bits=4, arity=2)
        automaton.new_state("s", (SymbolSet.of(4, [1]), SymbolSet.full(4)),
                            start="all-input", report=True, report_code="s",
                            report_offsets=(0,))
        shaped = [(1, 5), (2, 5), (1, 0)]
        assert _normalize_stream(automaton, shaped) is shaped
        assert _normalize_stream(automaton, [[1, 5], (2, 5)]) == [
            (1, 5), (2, 5)]
        with pytest.raises(SimulationError, match="arity"):
            _normalize_stream(automaton, [(1, 5), (2,)])
        flat = Automaton(bits=8)
        flat.new_state("s", SymbolSet.of(8, [1]), start="all-input")
        assert _normalize_stream(flat, [1, (2,)]) == [(1,), (2,)]


class TestProgress:
    """Unobserved runs longer than one chunk report under REPRO_PROGRESS."""

    def _run(self, monkeypatch, capsys, setting):
        if setting is None:
            monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        else:
            monkeypatch.setenv("REPRO_PROGRESS", setting)
        automaton = Automaton(name="ones", bits=8)
        automaton.new_state("s", SymbolSet.of(8, [1]), start="all-input",
                            report=True, report_code="s")
        recorder = BitsetEngine(automaton).run([1, 0] * 40_000)
        assert recorder.total_reports == 40_000
        return capsys.readouterr().err

    def test_progress_lines_when_requested(self, monkeypatch, capsys):
        assert "[repro] simulate[ones] 100.0%" in self._run(
            monkeypatch, capsys, "1")

    def test_silent_by_default(self, monkeypatch, capsys):
        assert "simulate" not in self._run(monkeypatch, capsys, None)


class TestRecorder:
    def test_position_limit_filters(self):
        recorder = ReportRecorder(position_limit=5)
        recorder.record_cycle(4, [(0, "s", "c")], 1)
        recorder.record_cycle(5, [(0, "s", "c")], 1)
        assert recorder.total_reports == 1
        assert recorder.positions() == [4]

    def test_summary_columns(self):
        recorder = ReportRecorder()
        recorder.record_cycle(0, [(0, "a", "x"), (0, "b", "y")], 1)
        recorder.record_cycle(3, [(0, "a", "x")], 1)
        summary = recorder.summary(10)
        assert summary["reports"] == 3
        assert summary["report_cycles"] == 2
        assert summary["reports_per_report_cycle"] == 1.5
        assert summary["report_cycle_pct"] == 20.0

    def test_cycle_profile(self):
        recorder = ReportRecorder()
        recorder.record_cycle(1, [(0, "a", "x"), (0, "b", "y")], 1)
        assert recorder.cycle_profile(3) == [0, 2, 0]

    def test_max_reports_in_a_cycle(self):
        recorder = ReportRecorder()
        assert recorder.max_reports_in_a_cycle() == 0
        for _ in range(3):
            recorder.record_cycle(7, [(0, "a", "x")], 1)
        assert recorder.max_reports_in_a_cycle() == 3

    def test_rows_keep_one_arity(self):
        recorder = ReportRecorder()
        recorder.record_cycle(0, [(1, "a", "x")], 2)
        with pytest.raises(SimulationError, match="arity"):
            recorder.record_cycle(1, [(0, "a", "x")], 4)
        other = ReportRecorder()
        other.record_cycle(0, [(0, "a", "x")], 1)
        with pytest.raises(SimulationError, match="arity"):
            recorder.absorb(other)
        assert recorder.total_reports == 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4),
           st.one_of(st.none(), st.integers(0, 40)),
           st.lists(st.tuples(st.integers(0, 9),
                              st.lists(st.tuples(st.integers(0, 3),
                                                 st.sampled_from("abc")),
                                       min_size=1, max_size=4)),
                    max_size=8))
    def test_record_cycle_equals_per_event_record(self, arity, limit, rows):
        """Rows expand to exactly the reports a per-event log would hold:
        each triple at ``cycle * arity + offset``, in write order, minus
        those at or past the limit, repeated cycles summed per cycle."""
        recorder = ReportRecorder(position_limit=limit)
        expected = []
        for cycle, entries in rows:
            plan = tuple((offset % arity, "s" + code, code)
                         for offset, code in entries)
            recorder.record_cycle(cycle, plan, arity)
            expected += [(cycle * arity + offset, cycle, state_id, code)
                         for offset, state_id, code in plan
                         if limit is None or cycle * arity + offset < limit]
        assert [(event.position, event.cycle, event.state_id,
                 event.report_code) for event in recorder.events] == expected
        assert recorder.total_reports == len(expected)
        per_cycle = {}
        for _, cycle, _, _ in expected:
            per_cycle[cycle] = per_cycle.get(cycle, 0) + 1
        assert list(recorder.reports_per_cycle.items()) == \
            list(per_cycle.items())
        assert recorder.event_keys() == {
            (position, code) for position, _, _, code in expected}
