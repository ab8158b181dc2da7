"""Tests for workload-generation internals (base.py machinery)."""

import random

import pytest

from repro.errors import WorkloadError
from repro.regex import compile_pattern
from repro.sim import BitsetEngine
from repro.workloads.base import (
    COLD_ALPHABET,
    WorkloadRandom,
    escape_literal,
    grow_cold_rules,
    infer_noise_budget,
    plant_schedule,
    scaled,
    uniform_noise,
)


class TestEscaping:
    def test_escape_literal_roundtrip(self):
        data = bytes(range(0, 256, 7))
        automaton = compile_pattern(escape_literal(data))
        recorder = BitsetEngine(automaton).run(list(data))
        assert recorder.positions() == [len(data) - 1]

    def test_escapes_metacharacters(self):
        pattern = escape_literal(b".*[]()")
        automaton = compile_pattern(pattern)
        assert BitsetEngine(automaton).run(list(b".*[]()")).total_reports == 1
        assert BitsetEngine(automaton).run(list(b"ab[]()")).total_reports == 0


class TestColdRules:
    def test_cold_alphabet_disjoint_from_ascii(self):
        assert all(byte >= 0x80 for byte in COLD_ALPHABET)

    def test_grow_until_budget(self):
        rng = WorkloadRandom(0)
        rules = grow_cold_rules(
            rng, lambda r: escape_literal(r.cold_literal(10)), 95, "t"
        )
        total = sum(len(rule) for rule in rules)
        assert total >= 95
        # Cold rules never fire on ASCII noise.
        for rule in rules[:3]:
            assert BitsetEngine(rule).run(list(b"abcdefghij" * 4)).total_reports == 0

    def test_zero_budget_gives_no_rules(self):
        rng = WorkloadRandom(0)
        assert grow_cold_rules(rng, lambda r: "ignored", 0, "t") == []


class TestPlanning:
    def test_scaled_floors_at_minimum(self):
        assert scaled(5, 0.001) == 1
        assert scaled(1000, 0.01) == 10
        assert scaled(5, 0.001, minimum=3) == 3

    def test_infer_noise_budget_guards_degenerate_scales(self):
        assert infer_noise_budget(0.01) == 10_000
        with pytest.raises(WorkloadError):
            infer_noise_budget(0.00001)

    def test_plant_schedule_density(self):
        rng = WorkloadRandom(1)
        plants = plant_schedule(rng, 10_000, 5.0, b"needle", 0.01)
        assert len(plants) == pytest.approx(500, abs=1)
        positions = [position for position, _ in plants]
        assert positions == sorted(positions)
        # Non-overlapping end-aligned slots.
        for a, b in zip(positions, positions[1:]):
            assert b - a >= len(b"needle") + 1

    def test_plant_schedule_absolute_counts(self):
        rng = WorkloadRandom(1)
        plants = plant_schedule(rng, 10_000, 0.0, b"x", 0.01,
                                absolute_reports=35)
        assert len(plants) == 1  # 35 * 0.01 rounds to 1 (floored at 1)

    def test_workload_random_helpers(self):
        rng = WorkloadRandom(7)
        literal = rng.literal(12, b"ab")
        assert len(literal) == 12 and set(literal) <= {ord("a"), ord("b")}
        cold = rng.cold_literal(6)
        assert all(byte in COLD_ALPHABET for byte in cold)


class TestUniformNoise:
    """The block draw reproduces one ``choice`` call per symbol."""

    @staticmethod
    def per_symbol(rng, length, alphabet):
        """The reference: the per-symbol loop the block draw replaces."""
        return bytearray(rng.choice(alphabet) for _ in range(length))

    @pytest.mark.parametrize("size", [1, 2, 3, 20, 37, 64, 128, 129, 255])
    def test_bytes_and_state_match_the_per_symbol_loop(self, size):
        alphabet = bytes(random.Random(size).sample(range(256), size))
        for length in (0, 1, 7, 3000):
            reference = random.Random(size * 1000 + length)
            block = random.Random(size * 1000 + length)
            assert uniform_noise(block, length, alphabet) == self.per_symbol(
                reference, length, alphabet), (size, length)
            assert block.getstate() == reference.getstate()

    def test_alphabet_sizes_outside_one_to_255_are_rejected(self):
        for alphabet in (b"", bytes(range(256))):
            with pytest.raises(WorkloadError):
                uniform_noise(random.Random(0), 10, alphabet)
