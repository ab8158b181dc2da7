"""Kernel/table differential suite: the block-sliced BitsetEngine at
every step-table budget must be bit-exact with NaiveEngine, including
start-period and report-offset edge cases, plus the step-table, symbol
class and active-count behaviours themselves."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import Automaton, StartKind, SymbolSet
from repro.errors import SimulationError
from repro.sim import BitsetEngine, NaiveEngine, ReportRecorder
from repro.sim.engine import DEFAULT_STEP_CACHE, _popcount
from conftest import budget_engine, random_automaton

#: Every step-table budget under differential test, patched into
#: ``DEFAULT_STEP_CACHE`` before construction (0 and 4 are tiny: the
#: table is cleared before every store, or every few).
CACHES = [0, DEFAULT_STEP_CACHE, 4]


def _cache_id(capacity):
    """Case id naming the engine's block-sliced kernel and the capacity."""
    return "sliced-cache%d" % capacity


def _edge_case_automaton(rng, start_period=1, arity=2):
    """Random vector automaton with start periods and multi-offset reports."""
    automaton = Automaton(name="edge", bits=4, arity=arity,
                          start_period=start_period)
    n_states = rng.randint(3, 10)
    ids = []
    for index in range(n_states):
        symbols = tuple(
            SymbolSet.of(4, rng.sample(range(16), rng.randint(1, 8)))
            for _ in range(arity)
        )
        start = StartKind.NONE
        if index == 0 or rng.random() < 0.2:
            start = rng.choice([StartKind.ALL_INPUT, StartKind.START_OF_DATA])
        report = rng.random() < 0.4
        automaton.new_state(
            "s%d" % index,
            symbols,
            start=start,
            report=report,
            report_code="c%d" % index if report else None,
            report_offsets=tuple(sorted(rng.sample(range(arity),
                                                   rng.randint(1, arity))))
            if report else None,
        )
        ids.append("s%d" % index)
    for src in ids:
        for dst in ids:
            if rng.random() < 0.3:
                automaton.add_transition(src, dst)
    automaton.prune_unreachable()
    return automaton


def _assert_equivalent(automaton, streams, step_cache):
    bitset = budget_engine(automaton, step_cache)
    naive = NaiveEngine(automaton)
    for data in streams:
        r1, r2 = ReportRecorder(), ReportRecorder()
        bitset.run(data, r1)
        naive.run(data, r2)
        assert r1.event_keys() == r2.event_keys()
        assert r1.total_reports == r2.total_reports
        assert dict(r1.reports_per_cycle) == dict(r2.reports_per_cycle)
        assert bitset.active_ids() == naive.active_ids()


class TestDifferential:
    @pytest.mark.parametrize("step_cache", CACHES, ids=_cache_id)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_automata_match_naive(self, seed, step_cache):
        rng = random.Random(seed)
        automaton = random_automaton(rng, n_states=9, bits=4,
                                     edge_density=0.3)
        if len(automaton) == 0:
            return
        streams = [
            [rng.randrange(16) for _ in range(rng.randint(0, 30))]
            for _ in range(4)
        ]
        _assert_equivalent(automaton, streams, step_cache)

    @pytest.mark.parametrize("step_cache", CACHES, ids=_cache_id)
    @pytest.mark.parametrize("start_period", (1, 2, 3, 5))
    def test_start_period_and_offsets_match_naive(self, start_period,
                                                  step_cache):
        rng = random.Random(1000 + start_period)
        automaton = _edge_case_automaton(rng, start_period=start_period)
        if len(automaton) == 0:
            return
        streams = [
            [(rng.randrange(16), rng.randrange(16))
             for _ in range(rng.randint(1, 40))]
            for _ in range(4)
        ]
        _assert_equivalent(automaton, streams, step_cache)

    def test_kernels_agree_on_large_lazy_sliced_automaton(self):
        """The lazy table fill stays exact on a machine of many blocks."""
        rng = random.Random(7)
        automaton = random_automaton(rng, n_states=552,
                                     bits=4, edge_density=0.01)
        engine = BitsetEngine(automaton)
        assert any(entry is None
                   for table in engine._block_tables for entry in table)
        data = [rng.randrange(16) for _ in range(120)]
        r_sliced = engine.run(data)
        r_naive = NaiveEngine(automaton).run(data)
        assert r_sliced.event_keys() == r_naive.event_keys()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.binary(max_size=32),
           st.sampled_from([0, 8, 1024]))
    def test_hypothesis_configs_match_naive(self, seed, raw, cache):
        rng = random.Random(seed)
        automaton = random_automaton(rng, n_states=7, bits=4,
                                     edge_density=0.35)
        if len(automaton) == 0:
            return
        data = [byte % 16 for byte in raw]
        r1 = budget_engine(automaton, cache).run(data)
        r2 = NaiveEngine(automaton).run(data)
        assert r1.event_keys() == r2.event_keys()

    def test_warm_cache_reruns_are_identical(self):
        """A second run over the same stream (all cache hits) must match."""
        rng = random.Random(99)
        automaton = random_automaton(rng, n_states=8, bits=4)
        engine = BitsetEngine(automaton)
        data = [rng.randrange(16) for _ in range(200)]
        first = engine.run(data)
        info = engine.step_cache_info()
        second = engine.run(data)
        assert engine.step_cache_info()["hits"] > info["hits"]
        assert first.event_keys() == second.event_keys()
        assert first.total_reports == second.total_reports

    def test_step_streaming_matches_run(self):
        """Streaming step() calls equal one run() (the hoisted hot loop)."""
        rng = random.Random(5)
        automaton = random_automaton(rng, n_states=8, bits=4)
        data = [rng.randrange(16) for _ in range(150)]
        run_recorder = BitsetEngine(automaton).run(data)
        engine = BitsetEngine(automaton)
        step_recorder = ReportRecorder()
        engine.reset()
        for symbol in data:
            engine.step((symbol,), step_recorder)
        assert step_recorder.event_keys() == run_recorder.event_keys()


class TestStepCache:
    def _abc(self):
        automaton = Automaton(bits=8)
        automaton.new_state("s", SymbolSet.of(8, [1]), start="all-input",
                            report=True, report_code="s")
        return automaton

    def test_counters_and_info(self):
        engine = BitsetEngine(self._abc())
        engine.run([1, 2, 1, 2, 1])
        info = engine.step_cache_info()
        assert info["hits"] + info["misses"] == 5
        assert info["misses"] >= 1
        assert 0.0 <= info["hit_rate"] <= 1.0
        assert info["limit"] == DEFAULT_STEP_CACHE
        assert info["size"] <= info["limit"]

    def test_tiny_cache_evicts_but_stays_exact(self):
        rng = random.Random(3)
        automaton = random_automaton(rng, n_states=8, bits=4)
        engine = budget_engine(automaton, 2)
        data = [rng.randrange(16) for _ in range(100)]
        recorder = engine.run(data)
        assert engine.step_cache_info()["limit"] == 2
        assert engine.step_cache_info()["size"] <= 2
        reference = NaiveEngine(automaton).run(data)
        assert recorder.event_keys() == reference.event_keys()

    @pytest.mark.parametrize("step_cache", [DEFAULT_STEP_CACHE, 0])
    def test_out_of_range_values_raise(self, step_cache):
        """A value outside [0, 2**bits) fails at the boundary both
        engines share: a negative one must not wrap around to the top
        of the alphabet."""
        automaton = Automaton(bits=8)
        automaton.new_state("s", SymbolSet.of(8, [255]), start="all-input",
                            report=True, report_code="s")
        engine = budget_engine(automaton, step_cache)
        for stream in ([-1, 255, -256], [255, -256], [256], [(255,), (-1,)]):
            for runner in (engine, NaiveEngine(automaton)):
                with pytest.raises(SimulationError, match="out of range"):
                    runner.run(stream)
        with pytest.raises(SimulationError):
            engine.run_batch([[255], [-1]])
        engine.reset()
        with pytest.raises(SimulationError):
            engine.step((-1,))
        assert engine.run([255, 0, 255]).positions() == [0, 2]


def _distinct_step_triples(automaton, streams):
    """Distinct (active set before the cycle, symbol class, phase) triples.

    Computed from :meth:`NaiveEngine.step` return values: a vector's
    class is the set of states whose symbols match it, and the phase is
    2 on cycle 0, 1 on a start-period boundary and 0 otherwise.
    """
    period = automaton.start_period
    triples = set()
    for stream in streams:
        naive = NaiveEngine(automaton)
        active = frozenset()
        for cycle, vector in enumerate(stream):
            phase = 2 if cycle == 0 else 1 if cycle % period == 0 else 0
            matching = frozenset(state.id for state in automaton
                                 if state.matches(vector))
            triples.add((active, matching, phase))
            active = frozenset(naive.step(vector))
    return triples


class TestStepTableCounters:
    """Under the budget a miss is exactly a first-seen step triple: an
    active set, a symbol class (the states an input matches) and a
    start phase.

    ``sim.step_cache_hit_ratio`` in the benchmark is read from these
    counters, so they must not depend on how the table is stored.
    """

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]),
           st.lists(st.lists(st.integers(0, 3), max_size=25),
                    min_size=1, max_size=4))
    def test_misses_are_distinct_step_triples(self, seed, start_period,
                                              symbols):
        rng = random.Random(seed)
        automaton = _edge_case_automaton(rng, start_period=start_period,
                                         arity=1)
        if len(automaton) == 0:
            return
        streams = [[(symbol,) for symbol in stream] for stream in symbols]
        expected = len(_distinct_step_triples(automaton, streams))
        cycles = sum(len(stream) for stream in streams)

        engine = BitsetEngine(automaton)
        for stream in streams:
            engine.run(stream)
        assert engine.step_cache_info()["misses"] == expected

        engine = BitsetEngine(automaton)
        for stream in streams:
            engine.reset()
            for vector in stream:
                engine.step(vector)
        assert engine.step_cache_info()["misses"] == expected

        engine = BitsetEngine(automaton)
        engine.run_batch(streams)
        info = engine.step_cache_info()
        assert info["misses"] == expected
        assert info["hits"] + info["misses"] == cycles
        assert info["size"] == expected


    @pytest.mark.parametrize("seed", range(3))
    def test_propagation_once_per_set_and_phase(self, seed):
        """A set's enabled mask is kept per start phase: however many
        vectors leave one (active set, phase) pair, its successors are
        propagated once, in serial runs and in batches alike."""
        rng = random.Random(seed)
        automaton = random_automaton(rng, n_states=12, bits=4)
        automaton.start_period = 3
        streams = [[(rng.randrange(16),) for _ in range(60)]
                   for _ in range(3)]
        pairs = {(active, phase) for active, _, phase
                 in _distinct_step_triples(automaton, streams)}
        for batched in (False, True):
            engine = BitsetEngine(automaton)
            calls = []
            propagate = engine._propagate

            def counted(mask, propagate=propagate, calls=calls):
                calls.append(mask)
                return propagate(mask)

            engine._propagate = counted
            if batched:
                engine.run_batch(streams)
            else:
                for stream in streams:
                    engine.run(stream)
            assert engine.step_cache_info()["misses"] > len(pairs)
            assert len(calls) <= len(pairs)


class TestActiveCountTally:
    def test_tally_is_bounded_by_distinct_counts(self):
        """The active-state statistics keep one entry per distinct
        count, not one per cycle, and count every cycle of a run across
        budget resets."""
        automaton = Automaton(bits=8)
        automaton.new_state("s", SymbolSet.of(8, [1]), start="all-input")
        automaton.new_state("t", SymbolSet.of(8, [1, 2]), start="all-input")
        for step_cache in (DEFAULT_STEP_CACHE, 0, 1):
            engine = budget_engine(automaton, step_cache)
            engine.run([1, 2, 1, 3])
            assert engine.active_count_tally() == {2: 2, 1: 1, 0: 1}
            engine.run([1, 2, 3] * 5000)
            assert engine.active_count_tally() == {2: 5000, 1: 5000,
                                                   0: 5000}
            engine.reset()
            assert engine.active_count_tally() == {}
            for value in (2, 2, 3):
                engine.step(value)
            assert engine.active_count_tally() == {1: 2, 0: 1}


class TestSymbolClasses:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]),
           st.lists(st.lists(st.integers(0, 15), max_size=30),
                    min_size=1, max_size=3))
    def test_one_class_per_distinct_match_mask(self, seed, arity, streams):
        """A table holds one class per distinct match mask among the
        codes its streams held, and every code seen maps to its mask's
        class, across runs, batches and budget resets."""
        rng = random.Random(seed)
        automaton = _edge_case_automaton(rng, arity=arity)
        if len(automaton) == 0:
            return
        engine = budget_engine(automaton, rng.choice([0, 2, 1024]))
        code_streams = [[value * 4099 % (16 ** arity) for value in stream]
                        for stream in streams]
        engine.run_batch(code_streams[1:])
        engine.run(code_streams[0])
        seen = {code for codes in code_streams for code in codes}
        masks = {engine._class_masks[engine._class_of[code]]
                 for code in seen}
        assert set(engine._class_of) == seen
        assert len(engine._class_masks) == len(masks)
        for code in seen:
            vector = tuple((code >> 4 * shift) & 0xF
                           for shift in range(arity - 1, -1, -1))
            expected = 0
            for index, state in enumerate(automaton):
                if state.matches(vector):
                    expected |= 1 << index
            assert engine._class_masks[engine._class_of[code]] == expected


def test_popcount_matches_reference():
    rng = random.Random(0)
    for _ in range(200):
        value = rng.getrandbits(rng.randint(1, 300))
        assert _popcount(value) == bin(value).count("1")
    assert _popcount(0) == 0
