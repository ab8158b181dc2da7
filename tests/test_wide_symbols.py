"""16-bit (wide-alphabet) transformation tests — the SPM-style case."""

import hashlib
import random

import pytest

from repro.automata import Automaton, StartKind, SymbolSet, union
from repro.errors import TransformError
from repro.sim import BitsetEngine, vectorize
from repro.transform import (
    stride,
    to_nibbles,
    verify_offset_invariant,
    wide_report_position_to_symbol,
    wide_symbols_to_nibbles,
)
from repro.transform.nibble import _decompose_wide


def _wide_chain(symbol_sets, name="wide"):
    """Chain automaton over 16-bit symbols, reporting at the end."""
    automaton = Automaton(name=name, bits=16)
    previous = None
    last = len(symbol_sets) - 1
    for index, sset in enumerate(symbol_sets):
        state_id = "%s%d" % (name, index)
        automaton.new_state(
            state_id, sset,
            start=StartKind.ALL_INPUT if index == 0 else StartKind.NONE,
            report=index == last,
            report_code=name if index == last else None,
        )
        if previous:
            automaton.add_transition(previous, state_id)
        previous = state_id
    return automaton


def _wide_fixtures():
    """16-bit machines for the bytes pin: random chains, one with a
    self-loop and a skip edge, and a union of twin chains that
    minimization merges."""
    machines = []
    for seed in range(8):
        rng = random.Random(seed)
        values = [rng.randrange(1 << 16) for _ in range(40)]
        sets = [SymbolSet.of(16, rng.sample(values, rng.randint(1, 24)))
                for _ in range(rng.randint(2, 5))]
        machines.append(_wide_chain(sets, "w%d" % seed))
    looped = _wide_chain([
        SymbolSet.from_ranges(16, [(0x1200, 0x12FF), (0xAB00, 0xAB0F)]),
        SymbolSet.full(16),
        SymbolSet.of(16, [0x1234, 0xABCD, 7]),
    ], "loop")
    looped.add_transition("loop1", "loop1")
    looped.add_transition("loop0", "loop2")
    machines.append(looped)
    twin = [SymbolSet.of(16, [0x1234, 0xABCD]), SymbolSet.single(16, 7)]
    machines.append(union([_wide_chain(twin, "a"), _wide_chain(twin, "b")],
                          name="twins"))
    return machines


#: sha256 over ``to_nibbles(machine, minimized=...).dumps()`` of every
#: :func:`_wide_fixtures` machine: the 16-bit path's ids, state order
#: and rows.
WIDE_BYTES_PIN = {
    True: "02191cb95f4d4eba3e2cf6ab35ff503082f94d347a49b26a8d7249fd2f02a870",
    False: "0c29482c1b06fadfa0f127d160f402f7351d865cb94a41e4f3b528c5fb4142a1",
}


def _wide_hits(automaton, symbols):
    recorder = BitsetEngine(automaton).run([(value,) for value in symbols])
    return {(event.position, event.report_code) for event in recorder.events}


def _nibble_hits(machine, symbols, arity=1):
    nibbles = wide_symbols_to_nibbles(symbols)
    vectors, limit = vectorize(nibbles, arity)
    recorder = BitsetEngine(machine).run(vectors, position_limit=limit)
    return {
        (wide_report_position_to_symbol(event.position), event.report_code)
        for event in recorder.events
    }


class TestDecomposition:
    def test_chains_partition_exactly(self):
        rng = random.Random(0)
        for _ in range(20):
            members = {rng.randrange(1 << 16)
                       for _ in range(rng.randint(1, 40))}
            sset = SymbolSet.of(16, members)
            rebuilt = set()
            for chain in _decompose_wide(sset, 4):
                values = {0}
                for nibble_set in chain:
                    values = {
                        (value << 4) | nib
                        for value in values for nib in nibble_set
                    }
                assert not values & rebuilt, "chains must be disjoint"
                rebuilt |= values
            assert rebuilt == members

    def test_full_range_is_one_chain(self):
        chains = _decompose_wide(SymbolSet.full(16), 4)
        assert len(chains) == 1
        assert all(part.is_full() for part in chains[0])

    def test_singleton(self):
        chains = _decompose_wide(SymbolSet.single(16, 0xBEEF), 4)
        assert len(chains) == 1
        assert [list(part)[0] for part in chains[0]] == [0xB, 0xE, 0xE, 0xF]


class TestWideTransform:
    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence_random(self, seed):
        rng = random.Random(seed)
        alphabet = [rng.randrange(1 << 16) for _ in range(6)]
        sets = [
            SymbolSet.of(16, rng.sample(alphabet, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        automaton = _wide_chain(sets, "w%d" % seed)
        machine = to_nibbles(automaton)
        assert machine.bits == 4
        assert machine.start_period == 4
        for _ in range(10):
            symbols = [rng.choice(alphabet + [0, 0xFFFF])
                       for _ in range(rng.randint(0, 10))]
            assert _nibble_hits(machine, symbols) == _wide_hits(
                automaton, symbols
            ), (seed, symbols)

    def test_strides_to_16bit_rate(self):
        # Nibble machine (period 4) squared twice: one 16-bit symbol per
        # strided cycle, period folding 4 -> 2 -> 1.
        sets = [SymbolSet.of(16, [0x1234, 0xABCD]), SymbolSet.single(16, 7)]
        automaton = _wide_chain(sets, "stride")
        machine = to_nibbles(automaton)
        strided = stride(machine, 4)
        assert strided.arity == 4
        assert strided.start_period == 1
        verify_offset_invariant(strided)
        rng = random.Random(3)
        for _ in range(10):
            symbols = [rng.choice([0x1234, 0xABCD, 7, 0])
                       for _ in range(rng.randint(0, 8))]
            assert _nibble_hits(strided, symbols, arity=4) == _wide_hits(
                automaton, symbols
            ), symbols

    @pytest.mark.parametrize("minimized", [True, False])
    def test_bytes_are_pinned(self, minimized):
        digest = hashlib.sha256()
        for machine in _wide_fixtures():
            digest.update(to_nibbles(machine, minimized=minimized)
                          .dumps().encode("utf-8"))
        assert digest.hexdigest() == WIDE_BYTES_PIN[minimized]

    def test_intermediate_period_two(self):
        sets = [SymbolSet.single(16, 0x00FF)]
        machine = to_nibbles(_wide_chain(sets))
        squared = stride(machine, 2)
        assert squared.start_period == 2


class TestHelpers:
    def test_symbol_flattening_order(self):
        assert wide_symbols_to_nibbles([0xABCD]) == [0xA, 0xB, 0xC, 0xD]

    def test_out_of_range_symbol_rejected(self):
        with pytest.raises(TransformError):
            wide_symbols_to_nibbles([1 << 16])

    def test_position_mapping(self):
        assert wide_report_position_to_symbol(3) == 0
        assert wide_report_position_to_symbol(7) == 1
        with pytest.raises(TransformError):
            wide_report_position_to_symbol(4)

    def test_unsupported_width_rejected(self):
        automaton = Automaton(bits=12)
        automaton.new_state("s", SymbolSet.of(12, [1]), start="all-input")
        with pytest.raises(TransformError):
            to_nibbles(automaton)
