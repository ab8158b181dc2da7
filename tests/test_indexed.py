"""Differential suite: indexed automaton kernels vs the legacy kernels.

The indexed kernels (``repro.automata.indexed``, the ``_square`` body of
``repro.transform.striding``, and ``ops.minimize``) must be *bit-exact*
with the string-graph implementations they replaced — same state ids,
same insertion order, same survivor choices, same ``dumps()`` text.  The
legacy bodies survive as unmemoized oracles (``square_unindexed``,
``minimize_unindexed``) purely so this suite can keep pinning them.

Bit-exactness is what keeps stored ``to_rate`` rungs valid: their keys
are ``CODE_VERSION``-salted stage keys that never see the kernel, so a
kernel that built a different machine would be served rungs the old
one wrote (pinned below with a literal fingerprint).
"""

import random

import pytest

from repro.automata import Automaton, StartKind, SymbolSet
from repro.automata.indexed import IndexedAutomaton
from repro.automata.ops import minimize, minimize_unindexed
from repro.regex import compile_pattern
from repro.transform import to_nibbles
from repro.transform.striding import _square, square, square_unindexed, stride
from repro.workloads.registry import generate

#: Structural fingerprint of ``square(to_nibbles(he(llo)+))`` as produced
#: by the pre-indexed pipeline.  If this changes, every stored ``to_rate``
#: rung is stale — bump ``runtime.store.CODE_VERSION`` (the one salt of
#: the one store) along with the constant, and only if the change is
#: deliberate.
PINNED_SQUARE_FP = (
    "dbfa11cddba6a2cd3f8d02227158330e75839929bdd62b3f2d952b61d3dbc063")


def rich_random_automaton(seed, n_states=14, bits=4, arity=1,
                          start_period=1, edge_density=0.18,
                          report_fraction=0.35, prune=True):
    """A random homogeneous NFA exercising every structural dimension.

    Varies symbol masks per position, start kinds, report codes, and
    *interior* report offsets (positions after an offset are forced to
    full wildcards, preserving the striding offset invariant).
    """
    rng = random.Random(seed)
    automaton = Automaton(name="rand%d" % seed, bits=bits, arity=arity,
                          start_period=start_period)
    full = SymbolSet.full(bits)
    ids = []
    for index in range(n_states):
        report = rng.random() < report_fraction
        if report and arity > 1 and rng.random() < 0.5:
            offset = rng.randrange(arity)
            offsets = (offset,)
        else:
            offset = arity - 1
            offsets = None  # Ste default: last position
        symbols = []
        for position in range(arity):
            if report and position > offset:
                symbols.append(full)
            elif rng.random() < 0.2:
                symbols.append(full)
            else:
                members = rng.sample(range(1 << bits),
                                     rng.randint(1, min(6, 1 << bits)))
                symbols.append(SymbolSet.of(bits, members))
        start = StartKind.NONE
        if index == 0:
            start = StartKind.ALL_INPUT
        elif rng.random() < 0.2:
            start = rng.choice(
                [StartKind.ALL_INPUT, StartKind.START_OF_DATA])
        state_id = "s%d" % index
        automaton.new_state(
            state_id,
            tuple(symbols) if arity > 1 else symbols[0],
            start=start,
            report=report,
            report_code="c%d" % index if report and rng.random() < 0.7
            else None,
            report_offsets=offsets if report else None,
        )
        ids.append(state_id)
    for src in ids:
        for dst in ids:
            if rng.random() < edge_density:
                automaton.add_transition(src, dst)
    if prune:
        automaton.prune_unreachable()
        automaton.validate()
    return automaton


#: 48 random machines: 16 seeds x (arity, start_period) in a shape grid
#: (keep at least 40 when editing), plus the registry's Snort and SPM
#: nibble machines at scale 0.005 (692 and 1034 states), far larger than
#: any random case.
CASES = [(seed, arity, period)
         for seed in range(16)
         for arity, period in ((1, 1), (2, 2), (2, 4))] + ["Snort", "SPM"]


def _ids(case):
    return case if isinstance(case, str) else "seed%d-arity%d-period%d" % case


def _machine(case):
    if isinstance(case, str):
        return to_nibbles(generate(case, scale=0.005, seed=0).automaton)
    seed, arity, period = case
    return rich_random_automaton(seed, arity=arity, start_period=period)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_square_bit_exact(case):
    machine = _machine(case)
    for minimized in (False, True):
        indexed = _square(machine, minimized=minimized, name=None)
        legacy = square_unindexed(machine, minimized=minimized)
        assert indexed.dumps() == legacy.dumps()
        indexed.validate()


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_minimize_bit_exact(case):
    machine = _machine(case)
    # Squared-but-unminimized machines are the richest minimize inputs
    # (duplicate behaviours by construction).
    source = square_unindexed(machine, minimized=False)
    one, other = source.copy(), source.copy()
    removed_indexed = minimize(one)
    removed_legacy = minimize_unindexed(other)
    assert removed_indexed == removed_legacy
    assert one.dumps() == other.dumps()
    one.validate()


@pytest.mark.parametrize("seed", range(20))
def test_prune_and_depth_bound_bit_exact(seed):
    machine = rich_random_automaton(seed, n_states=18, edge_density=0.12,
                                    prune=False)
    direct = machine.copy()
    direct.prune_unreachable()

    indexed = IndexedAutomaton.from_automaton(machine.copy())
    indexed.prune_unreachable()
    via_index = machine.copy()
    indexed.write_back(via_index)
    assert via_index.dumps() == direct.dumps()


def test_pinned_fingerprint_stability():
    machine = compile_pattern("he(llo)+", report_code="hello")
    squared = _square(to_nibbles(machine), minimized=True, name=None)
    assert squared.fingerprint() == PINNED_SQUARE_FP


def test_minimize_skip_markers():
    """Minimizing a machine a second time removes nothing."""
    machine = square_unindexed(
        to_nibbles(compile_pattern("ab+c", report_code="k")),
        minimized=False)
    removed = minimize(machine)
    # A structurally identical copy is already minimal.
    again = machine.copy()
    assert minimize(again) == 0
    assert again.dumps() == machine.dumps()
    assert removed >= 0


def test_square_records_result_as_minimal():
    machine = to_nibbles(compile_pattern("xy+z", report_code="k"))
    squared = square(machine, minimized=True)
    assert minimize(squared.copy()) == 0


def test_shallow_clone_shares_states_not_edges():
    machine = rich_random_automaton(3)
    clone = machine.shallow_clone()
    assert clone.dumps() == machine.dumps()
    some_id = machine.state_ids()[0]
    assert clone.state(some_id) is machine.state(some_id)
    # Edge containers are fresh: growing the clone leaves the original.
    other = machine.state_ids()[-1]
    before = len(machine.successors(some_id))
    clone.add_transition(some_id, other)
    clone.remove_transition(some_id, other)
    assert len(machine.successors(some_id)) == before


def test_stride_factor_one_is_shallow():
    machine = rich_random_automaton(5)
    relabeled = stride(machine, 1)
    assert relabeled is not machine
    assert relabeled.name == machine.name
    assert relabeled.dumps() == machine.dumps()


def test_merge_in_matches_manual_union():
    left = rich_random_automaton(7, n_states=10)
    right = rich_random_automaton(8, n_states=9)
    merged = left.copy(name="merged")
    mapping = merged.merge_in(right, prefix="r:")
    assert set(mapping) == set(right.state_ids())
    assert len(merged) == len(left) + len(right)
    for state in right:
        twin = merged.state(mapping[state.id])
        assert twin.behavior_key() == state.behavior_key()
        assert ({mapping[d] for d in right.successors(state.id)}
                == merged.successors(mapping[state.id]))
    merged.validate()
