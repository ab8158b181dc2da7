"""Transformation correctness: the core property of the whole pipeline.

Every test here enforces the same contract: for any automaton and any
byte input, the set of (byte position, report code) pairs is identical
between the original 8-bit machine and its 1/2/4-nibble transforms.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import Automaton, StartKind, SymbolSet
from repro.errors import TransformError
from repro.regex import compile_pattern, compile_ruleset
from repro.transform import (
    byte_reports,
    check_equivalent,
    nibble_report_position_to_byte,
    square,
    stride,
    to_nibbles,
    to_rate,
    transform_overhead,
    verify_offset_invariant,
)
from repro.workloads import BENCHMARK_NAMES, generate

PATTERNS = [
    "abc", "a(b|c)d", "ab*c", "a.c", "[a-c]{2,4}x", "foo|bar+",
    "^start", "a+b+", "(ab)+c", "he(llo)+ world", "[0-9]+[a-f]",
    "a(b|cd)*e",
]
ALPHABET = b"abcdefxyz 0123hello world start"

#: sha256 over ``to_nibbles(instance.automaton, minimized=...).dumps()``
#: of every registry benchmark at scale 0.002, generator seeds 0 and 1.
#: The bytes pin the decomposition's ids, state order and rows, which
#: fingerprints and report hits do not; the minimized machine is the
#: rate-1 rung artifact stores hold.
NIBBLE_BYTES_PIN = {
    True: "cb1bf03417a3ff548750b7f0768bf818a88a3bcac1628e46e79997885d689063",
    False: "17040c61d58ad5a35af05c6823a513162598a471aed17e9ea9422620d862cc0f",
}


class TestNibbleTransform:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_equivalence_randomized(self, pattern):
        automaton = compile_pattern(pattern)
        nibble = to_nibbles(automaton)
        rng = random.Random(hash(pattern) & 0xFFFF)
        for _ in range(20):
            data = bytes(rng.choice(ALPHABET)
                         for _ in range(rng.randint(0, 40)))
            check_equivalent(automaton, nibble, data)

    def test_shape(self, abc_automaton):
        nibble = to_nibbles(abc_automaton)
        assert nibble.bits == 4
        assert nibble.arity == 1
        assert nibble.start_period == 2

    def test_unminimized_is_also_equivalent(self, abc_automaton):
        nibble = to_nibbles(abc_automaton, minimized=False)
        check_equivalent(abc_automaton, nibble, b"zzabcabz")

    def test_minimization_shrinks_redundant_rules(self):
        from repro.automata import single_pattern, union
        # Two identical literal rules: naive decomposition duplicates the
        # chains; the congruence merge collapses them.
        machine = union([
            single_pattern("p1", b"ab", report_code="r"),
            single_pattern("p2", b"ab", report_code="r"),
        ])
        naive = to_nibbles(machine, minimized=False)
        minimized = to_nibbles(machine, minimized=True)
        assert len(minimized) < len(naive)
        check_equivalent(machine, minimized, b"zababz")

    def test_rejects_non_byte_automata(self):
        automaton = Automaton(bits=4)
        automaton.new_state("s", SymbolSet.full(4), start="all-input")
        with pytest.raises(TransformError):
            to_nibbles(automaton)

    def test_position_mapping_rejects_even(self):
        with pytest.raises(TransformError):
            nibble_report_position_to_byte(4)

    @pytest.mark.parametrize("minimized", [True, False])
    def test_registry_bytes_are_pinned(self, minimized):
        digest = hashlib.sha256()
        for name in BENCHMARK_NAMES:
            for seed in (0, 1):
                machine = generate(name, scale=0.002, seed=seed).automaton
                digest.update(to_nibbles(machine, minimized=minimized)
                              .dumps().encode("utf-8"))
        assert digest.hexdigest() == NIBBLE_BYTES_PIN[minimized], (
            "the nibble decomposition changed its bytes: warm stores "
            "would serve stale rate-1 rungs unless runtime.store"
            ".CODE_VERSION is bumped")

    def test_states_share_one_symbol_set_per_mask(self):
        machine = to_nibbles(generate("Snort", scale=0.002).automaton)
        masks = {ste.symbols[0].mask for ste in machine}
        assert len(machine) > 2 * len(masks)
        assert len({id(ste.symbols[0]) for ste in machine}) == len(masks)
        assert len({id(ste.symbols) for ste in machine}) == len(masks)

    def test_reports_on_low_nibble(self, abc_automaton):
        from repro.sim import BitsetEngine, stream_for
        nibble = to_nibbles(abc_automaton)
        vectors, limit = stream_for(nibble, b"abc")
        recorder = BitsetEngine(nibble).run(vectors, position_limit=limit)
        assert all(event.position % 2 == 1 for event in recorder.events)


class TestStriding:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("rate", [2, 4])
    def test_equivalence_randomized(self, pattern, rate):
        automaton = compile_pattern(pattern)
        strided = to_rate(automaton, rate)
        rng = random.Random((hash(pattern) ^ rate) & 0xFFFF)
        for _ in range(15):
            data = bytes(rng.choice(ALPHABET)
                         for _ in range(rng.randint(0, 40)))
            check_equivalent(automaton, strided, data)

    def test_offset_invariant_holds(self):
        for pattern in PATTERNS[:6]:
            automaton = compile_pattern(pattern)
            for rate in (2, 4):
                verify_offset_invariant(to_rate(automaton, rate))

    def test_odd_length_inputs_pad_correctly(self, abc_automaton):
        strided = to_rate(abc_automaton, 4)
        # 'abc' is 6 nibbles: pads 2; the report must still appear and no
        # pad-position artifacts may leak.
        for data in (b"abc", b"xabc", b"xxabc", b"xxxabc"):
            check_equivalent(abc_automaton, strided, data)

    def test_native_4bit_start_period_1(self):
        # A native 4-bit automaton (start period 1) strides with phase
        # states: matches must be found at odd offsets too.
        automaton = Automaton(bits=4)
        automaton.new_state("a", SymbolSet.of(4, [1]), start="all-input")
        automaton.new_state("b", SymbolSet.of(4, [2]), report=True,
                            report_code="hit")
        automaton.add_transition("a", "b")
        squared = square(automaton)
        from repro.sim import BitsetEngine, vectorize
        for stream in ([1, 2], [0, 1, 2], [0, 0, 1, 2], [1, 2, 1, 2]):
            vectors, limit = vectorize(stream, 2)
            got = BitsetEngine(squared).run(
                vectors, position_limit=limit
            ).event_keys()
            want = BitsetEngine(automaton).run(stream).event_keys()
            assert got == want, stream

    def test_stride_factor_must_be_power_of_two(self, abc_automaton):
        nibble = to_nibbles(abc_automaton)
        with pytest.raises(TransformError):
            stride(nibble, 3)

    def test_stride_one_returns_copy(self, abc_automaton):
        nibble = to_nibbles(abc_automaton)
        copy = stride(nibble, 1)
        assert copy is not nibble
        assert len(copy) == len(nibble)

    def test_mid_vector_report_not_suppressed_by_failing_tail(self):
        # 'ab' reports after 4 nibbles; at rate 4 a vector holds 2 bytes,
        # so a match of 'ab' at bytes 0-1 followed by garbage at bytes
        # 2-3 must still report (the remnant-state mechanism).
        automaton = compile_pattern("ab", report_code="ab")
        strided = to_rate(automaton, 4)
        check_equivalent(automaton, strided, b"abZZ")
        check_equivalent(automaton, strided, b"ZabZ")

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=24), st.sampled_from([1, 2, 4]))
    def test_ruleset_equivalence_hypothesis(self, raw, rate):
        data = bytes(byte % 8 + ord("a") for byte in raw)
        machine = compile_ruleset(["ab", "b(c|d)e", "ha+h"])
        strided = to_rate(machine, rate)
        check_equivalent(machine, strided, data)


class TestOverheadAccounting:
    def test_ratios_normalized_to_base(self, small_ruleset):
        overhead = transform_overhead(small_ruleset)
        base = overhead["base"]["states"]
        assert overhead[1]["states"] == pytest.approx(
            overhead[1]["state_ratio"] * base
        )
        # 2-nibble should be near 1x: one byte per cycle, like the base.
        assert 0.5 < overhead[2]["state_ratio"] < 2.0

    def test_unsupported_rate_rejected(self, abc_automaton):
        with pytest.raises(TransformError):
            to_rate(abc_automaton, 3)

    def test_byte_reports_helper(self, abc_automaton):
        want = byte_reports(abc_automaton, b"xabcx")
        assert want == {(3, "abc")}
        got = byte_reports(to_rate(abc_automaton, 2), b"xabcx")
        assert got == want

    def test_check_equivalent_raises_with_diff(self, abc_automaton):
        other = compile_pattern("abd", report_code="abc")
        with pytest.raises(TransformError):
            check_equivalent(abc_automaton, to_nibbles(other), b"abc abd")


class TestNative4BitStriding:
    """Striding automata that are natively 4-bit (start period 1).

    These exercise the phase-state machinery (mid-vector starts) far more
    than byte-derived machines, whose starts always align with vector
    boundaries.
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_square_equivalence_random(self, seed):
        import random as _random
        from conftest import random_automaton
        from repro.sim import BitsetEngine, vectorize

        rng = _random.Random(seed)
        automaton = random_automaton(rng, n_states=7, bits=4,
                                     edge_density=0.3)
        if len(automaton) == 0:
            return
        squared = square(automaton)
        verify_offset_invariant(squared)
        for _ in range(8):
            stream = [rng.randrange(16) for _ in range(rng.randint(0, 20))]
            vectors, limit = vectorize(stream, 2)
            got = BitsetEngine(squared).run(
                vectors, position_limit=limit
            ).event_keys()
            want = BitsetEngine(automaton).run(stream).event_keys()
            assert got == want, (seed, stream)

    @pytest.mark.parametrize("seed", range(5))
    def test_double_square_equivalence_random(self, seed):
        import random as _random
        from conftest import random_automaton
        from repro.sim import BitsetEngine, vectorize

        rng = _random.Random(1000 + seed)
        automaton = random_automaton(rng, n_states=6, bits=4,
                                     edge_density=0.3)
        if len(automaton) == 0:
            return
        strided = stride(automaton, 4)
        verify_offset_invariant(strided)
        for _ in range(6):
            stream = [rng.randrange(16) for _ in range(rng.randint(0, 24))]
            vectors, limit = vectorize(stream, 4)
            got = BitsetEngine(strided).run(
                vectors, position_limit=limit
            ).event_keys()
            want = BitsetEngine(automaton).run(stream).event_keys()
            assert got == want, (seed, stream)

    def test_start_of_data_only_automaton(self):
        from repro.automata import Automaton, SymbolSet
        from repro.sim import BitsetEngine, vectorize

        automaton = Automaton(bits=4)
        automaton.new_state("a", SymbolSet.of(4, [1]),
                            start="start-of-data")
        automaton.new_state("b", SymbolSet.of(4, [2]), report=True,
                            report_code="ab")
        automaton.add_transition("a", "b")
        squared = square(automaton)
        for stream in ([1, 2], [2, 1], [1, 2, 1, 2], [1]):
            vectors, limit = vectorize(stream, 2)
            got = BitsetEngine(squared).run(
                vectors, position_limit=limit
            ).event_keys()
            want = BitsetEngine(automaton).run(stream).event_keys()
            assert got == want, stream
