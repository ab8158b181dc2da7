"""Frozen machines as integer columns.

:meth:`Automaton.freeze` converts the two id-set edge maps into
successor columns (the ids in insertion order, and every state's row of
dense state indices, ascending, in one flat ``targets`` array cut by
``offsets``) and drops the sets and the predecessor map.  Every public
reader must read the same machine from the columns as from the sets: a
frozen machine, its ``copy()`` (edge sets again) and a pickle round
trip agree on every benchmark's instance and rate ladder.  The pickle
keeps the rows' order too.  A copy's rebuilt sets iterate in an order
of their own, so its edges are compared as a set; freezing the copy
restores the one row order, so it gives the rung's columns back, and
squaring it builds the same machine as squaring the rung.
"""

import os
import pathlib
import pickle
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro.automata import Automaton, SymbolSet, connected_components
from repro.automata.indexed import IndexedAutomaton
from repro.automata.ops import degree_statistics
from repro.transform.pipeline import rate_ladder
from repro.transform.striding import square
from repro.workloads import BENCHMARK_NAMES, generate


def _ladder(name):
    """Benchmark ``name``'s frozen instance and rate 1, 2 and 4 rungs."""
    automaton = generate(name, scale=0.002, seed=0).automaton.freeze()
    ladder = rate_ladder(automaton, (1, 2, 4))
    return [automaton, ladder[1], ladder[2], ladder[4]]


def _readings(machine, ordered=True):
    """What the public readers return, adjacency as sets."""
    ids = machine.state_ids()
    edges = list(machine.transitions())
    return {
        "state_ids": ids,
        "transitions": edges if ordered else sorted(edges),
        "successors": [set(machine.successors(s)) for s in ids],
        "predecessors": [set(machine.predecessors(s)) for s in ids],
        "num_transitions": machine.num_transitions(),
        "fingerprint": machine.fingerprint(),
        "dumps": machine.dumps(),
    }


def _assert_columnar(machine):
    """A frozen machine holds no set and no predecessor structure."""
    assert machine.frozen
    for attr, value in vars(machine).items():
        assert "pred" not in attr and attr != "_succ"
        assert not isinstance(value, (set, frozenset))
        if isinstance(value, dict):
            assert not any(isinstance(item, (set, frozenset))
                           for item in value.values())


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_readers_agree_across_copy_and_pickle(name):
    for machine in _ladder(name):
        _assert_columnar(machine)
        expected = _readings(machine)
        duplicate = machine.copy()
        assert not duplicate.frozen
        assert _readings(duplicate, ordered=False) == _readings(
            machine, ordered=False)
        loaded = pickle.loads(pickle.dumps(machine))
        _assert_columnar(loaded)
        assert _readings(loaded) == expected


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_refrozen_copy_has_the_rung_columns(name):
    _, rate1, rate2, rate4 = _ladder(name)
    for rung in (rate1, rate2, rate4):
        refrozen = rung.copy().freeze()
        assert refrozen.successor_columns() == rung.successor_columns()
    assert square(rate1.copy().freeze()).dumps() == square(rate1).dumps()


#: Benchmarks whose rate-2 and rate-4 rungs took their state order from
#: id-set iteration, and so from the string hash seed, before every
#: frozen row ascended.
HASH_SEED_BENCHMARKS = ("Brill", "Hamming", "Levenshtein", "SPM")

_RUNG_DIGESTS = """
import hashlib
from repro.transform.pipeline import rate_ladder
from repro.workloads import generate
for name in %r:
    machine = generate(name, scale=0.002, seed=0).automaton.freeze()
    for rate, rung in sorted(rate_ladder(machine, (1, 2, 4)).items()):
        print(name, rate, hashlib.sha256(rung.dumps().encode()).hexdigest())
"""


def _rung_digests(hash_seed):
    """The rungs' ``dumps()`` digests, built in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _RUNG_DIGESTS % (HASH_SEED_BENCHMARKS,)],
        capture_output=True, text=True, timeout=300, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_rungs_do_not_depend_on_the_hash_seed():
    digests = _rung_digests(0)
    assert len(digests.splitlines()) == 3 * len(HASH_SEED_BENCHMARKS)
    assert _rung_digests(1) == digests


def _diamond():
    """a -> {b, c} -> d, with a self-loop on d."""
    machine = Automaton(name="diamond", bits=8)
    for index, state_id in enumerate("abcd"):
        machine.new_state(state_id, SymbolSet.of(8, [index]),
                          start="all-input" if state_id == "a" else "none",
                          report=state_id == "d")
    for src, dst in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
                     ("d", "d")):
        machine.add_transition(src, dst)
    return machine


class TestColumns:
    def test_rows_ascend_and_drop_the_sets(self):
        machine = _diamond()
        fingerprint = machine.fingerprint()
        machine.freeze()
        _assert_columnar(machine)
        ids, targets, offsets = machine.successor_columns()
        assert ids == ["a", "b", "c", "d"]
        assert list(offsets) == [0, 2, 3, 4, 5]
        assert list(targets) == [1, 2, 3, 3, 3]
        assert machine.successors("a") == ("b", "c")
        assert machine.predecessors("d") == ("b", "c", "d")
        assert machine.predecessors("a") == ()
        assert machine.fingerprint() == fingerprint

    def test_unknown_state_raises_key_error(self):
        machine = _diamond().freeze()
        for reader in (machine.successors, machine.predecessors):
            with pytest.raises(KeyError):
                reader("nowhere")

    def test_derived_views_match_the_mutable_machine(self):
        machine = _diamond()
        components = connected_components(machine)
        degrees = degree_statistics(machine)
        reference = IndexedAutomaton.from_automaton(machine)
        machine.freeze()
        assert connected_components(machine) == components
        assert degree_statistics(machine) == degrees
        view = IndexedAutomaton.from_automaton(machine)
        assert view.succ == reference.succ == [[1, 2], [3], [3], [3]]
        assert view.pred == reference.pred == [[], [0], [0], [1, 2, 3]]

    def test_merge_in_reads_a_frozen_source(self):
        frozen = _diamond().freeze()
        merged = Automaton(name="merged", bits=8)
        mapping = merged.merge_in(frozen, "x.")
        assert sorted(merged.transitions()) == sorted(
            (mapping[src], mapping[dst]) for src, dst in frozen.transitions())
        merged.validate()

    def test_freeze_memory_is_sized_by_edges(self):
        # Two id sets per state took about 430 bytes a state; the columns
        # are one id pointer and two 4-byte ints per state and edge.
        states = 20_000
        machine = Automaton(name="chain", bits=8)
        for index in range(states):
            machine.new_state("s%d" % index, SymbolSet.of(8, [index % 256]),
                              start="all-input" if index == 0 else "none")
            if index:
                machine.add_transition("s%d" % (index - 1), "s%d" % index)
        tracemalloc.start()
        try:
            machine.freeze()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        edges = machine.num_transitions()
        assert edges == states - 1
        assert kept < 24 * edges
        assert peak < 160 * edges
