"""Workload-generator tests: determinism and Table 1 calibration."""

import pytest

from repro.automata import Automaton, SymbolSet, single_pattern
from repro.errors import AutomatonError, WorkloadError
from repro.exec import Session
from repro.workloads import (
    BENCHMARK_NAMES,
    PAPER_TABLE1,
    generate,
    hamming_automaton,
    levenshtein_automaton,
    spm_automaton,
)
from repro.workloads.base import (
    burst_group_patterns,
    build_input,
    poisson_positions,
    WorkloadRandom,
)

SCALE = 0.004

# Dynamic targets with loose tolerance: generated inputs are stochastic.
CALIBRATED = {
    "Snort": ("report_cycle_pct", 94.89, 3.0),
    "TCP": ("report_cycle_pct", 9.84, 1.5),
    "Brill": ("report_cycle_pct", 11.33, 2.0),
    "Protomata": ("report_cycle_pct", 10.08, 2.0),
    "SPM": ("report_cycle_pct", 3.24, 1.0),
    "EntityResolution": ("report_cycle_pct", 2.73, 1.0),
    "Bro217": ("report_cycle_pct", 1.64, 0.8),
}


@pytest.fixture(scope="module")
def instances():
    return {name: generate(name, scale=SCALE, seed=0)
            for name in BENCHMARK_NAMES}


@pytest.fixture(scope="module")
def behaviors(instances):
    return {name: inst.measured_behavior()
            for name, inst in instances.items()}


class TestGeneration:
    def test_all_benchmarks_generate(self, instances):
        assert set(instances) == set(PAPER_TABLE1)

    def test_deterministic_given_seed(self):
        a = generate("Bro217", scale=SCALE, seed=3)
        b = generate("Bro217", scale=SCALE, seed=3)
        assert a.input_bytes == b.input_bytes
        assert len(a.automaton) == len(b.automaton)

    def test_seed_changes_output(self):
        a = generate("Bro217", scale=SCALE, seed=1)
        b = generate("Bro217", scale=SCALE, seed=2)
        assert a.input_bytes != b.input_bytes

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            generate("NotABenchmark")

    def test_automata_validate(self, instances):
        for instance in instances.values():
            instance.automaton.validate()

    def test_input_length_scales(self, instances):
        for instance in instances.values():
            assert len(instance.input_bytes) == int(1_000_000 * SCALE)


class TestBornFrozen:
    """Generated machines enter the pipeline frozen and validated."""

    @pytest.fixture(scope="class")
    def tiny(self):
        return {name: generate(name, scale=0.002, seed=0)
                for name in BENCHMARK_NAMES}

    def test_every_instance_is_frozen_and_validated(self, tiny,
                                                    monkeypatch):
        def refuse(self):
            raise AssertionError("%s validated again" % self.name)

        monkeypatch.setattr(Automaton, "unreachable_states", refuse)
        for name, instance in tiny.items():
            assert instance.automaton.frozen, name
            assert instance.automaton.validate() is instance.automaton

    def test_a_session_binds_the_instance_itself(self, tiny):
        for instance in tiny.values():
            machine = instance.automaton
            assert Session(machine).automaton is machine

    def test_mutators_raise_and_copy_thaws(self, tiny):
        machine = tiny["TCP"].automaton
        first = machine.state_ids()[0]
        mutators = [
            lambda m: m.new_state("late", SymbolSet.full(8)),
            lambda m: m.add_transition(first, first),
            lambda m: m.remove_transition(first, first),
            lambda m: m.remove_state(first),
            lambda m: m.prune_unreachable(),
            lambda m: m.merge_in(single_pattern("x", b"x"), "x_"),
            lambda m: setattr(m, "name", "renamed"),
        ]
        for mutate in mutators:
            with pytest.raises(AutomatonError):
                mutate(machine)
        thawed = machine.copy()
        assert not thawed.frozen
        assert thawed.dumps() == machine.dumps()
        for mutate in mutators:
            mutate(thawed)
        assert machine.name == "TCP" and first in machine


class TestCalibration:
    @pytest.mark.parametrize("name", sorted(CALIBRATED))
    def test_dynamic_targets(self, behaviors, name):
        key, target, tolerance = CALIBRATED[name]
        assert behaviors[name][key] == pytest.approx(target, abs=tolerance)

    def test_silent_benchmarks_stay_silent(self, behaviors):
        for name in ("ClamAV",):
            assert behaviors[name]["reports"] == 0
        for name in ("Dotstar03", "ExactMatch", "Ranges1", "Hamming"):
            assert behaviors[name]["report_cycle_pct"] < 0.2

    def test_burst_benchmarks_burst(self, behaviors):
        assert behaviors["Brill"]["reports_per_report_cycle"] > 5
        assert behaviors["Fermi"]["reports_per_report_cycle"] > 4
        assert behaviors["SPM"]["reports_per_report_cycle"] > 4

    def test_snort_reports_nearly_every_cycle(self, behaviors):
        assert behaviors["Snort"]["reports_per_report_cycle"] == pytest.approx(
            1.72, abs=0.15
        )

    def test_report_state_fractions_in_paper_band(self, behaviors):
        # Paper range is 1% - 8.5%; allow generation slack.
        for name, row in behaviors.items():
            assert 0.5 <= row["report_state_pct"] <= 16.0, name


class TestBuilders:
    def test_hamming_accepts_within_distance(self):
        from repro.sim import BitsetEngine
        automaton = hamming_automaton(b"ACGTACGT", 2, "h", "h")
        for data, expected in [
            (b"ACGTACGT", True),   # exact
            (b"ACGAACGT", True),   # 1 mismatch
            (b"TCGAACGT", True),   # 2 mismatches
            (b"TCGAACGA", False),  # 3 mismatches
        ]:
            recorder = BitsetEngine(automaton).run(list(data))
            assert bool(recorder.total_reports) is expected, data

    def test_levenshtein_accepts_edits(self):
        from repro.sim import BitsetEngine
        automaton = levenshtein_automaton(b"ACGTAC", 1, "l", "l")
        for data, expected in [
            (b"ACGTAC", True),    # exact
            (b"AGGTAC", True),    # substitution
            (b"ACGATAC", True),   # insertion
            (b"ACTAC", True),     # deletion
            (b"AGGTTAC", False),  # distance 2
        ]:
            recorder = BitsetEngine(automaton).run(list(data))
            assert bool(recorder.total_reports) is expected, data

    def test_spm_matches_with_gaps(self):
        from repro.sim import BitsetEngine
        automaton = spm_automaton(b"abc", "s", "s")
        assert BitsetEngine(automaton).run(list(b"a..b....c")).total_reports == 1
        assert BitsetEngine(automaton).run(list(b"acb")).total_reports == 0

    def test_burst_group_patterns_all_match_witness(self):
        from repro.regex import compile_pattern
        from repro.sim import BitsetEngine
        rng = WorkloadRandom(0)
        witness = b"abcdef"
        for body in burst_group_patterns(witness, 6, rng):
            automaton = compile_pattern(body)
            assert BitsetEngine(automaton).run(list(witness)).total_reports == 1

    def test_poisson_positions_respect_density_limit(self):
        rng = WorkloadRandom(0)
        with pytest.raises(WorkloadError):
            poisson_positions(rng, 100, 60, 5)

    def test_build_input_plants_witnesses(self):
        rng = WorkloadRandom(0)
        data = build_input(rng, 50, [(10, b"NEEDLE")])
        assert data[10:16] == b"NEEDLE"
        assert len(data) == 50
