"""Shared fixtures and generators for the test suite."""

import random

import pytest

from repro.automata import Automaton, StartKind, SymbolSet
from repro.regex import compile_pattern
from repro.sim import BitsetEngine
from repro.sim import engine as engine_module


def budget_engine(automaton, step_cache):
    """A :class:`BitsetEngine` built while its step-table budget
    (``DEFAULT_STEP_CACHE``, read at construction) is ``step_cache``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "DEFAULT_STEP_CACHE", step_cache)
        return BitsetEngine(automaton)


def random_automaton(rng, n_states=8, bits=8, edge_density=0.25,
                     report_fraction=0.3, all_input=True, alphabet=None):
    """A random (connected-ish) homogeneous NFA for differential tests.

    Symbol sets draw from ``alphabet`` (default: every symbol).
    """
    automaton = Automaton(name="rand", bits=bits)
    ids = []
    pool = range(1 << bits) if alphabet is None else alphabet
    for index in range(n_states):
        members = rng.sample(pool, rng.randint(1, min(6, len(pool))))
        start = StartKind.NONE
        if index == 0:
            start = StartKind.ALL_INPUT if all_input else StartKind.START_OF_DATA
        elif rng.random() < 0.15:
            start = rng.choice([StartKind.ALL_INPUT, StartKind.START_OF_DATA])
        report = rng.random() < report_fraction
        automaton.new_state(
            "s%d" % index,
            SymbolSet.of(bits, members),
            start=start,
            report=report,
            report_code="c%d" % index if report else None,
        )
        ids.append("s%d" % index)
    for src in ids:
        for dst in ids:
            if rng.random() < edge_density:
                automaton.add_transition(src, dst)
    automaton.prune_unreachable()
    return automaton


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture(scope="session")
def small_ruleset():
    """A compiled multi-pattern ruleset reused across tests."""
    from repro.regex import compile_ruleset
    return compile_ruleset(["abc", "b.d", "xy+z", "[0-9]{3}", "he(llo)+"])


@pytest.fixture(scope="session")
def abc_automaton():
    return compile_pattern("abc", report_code="abc")
