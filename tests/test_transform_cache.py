"""Tests for the rate ladder and the artifact store's automaton tier.

Every rate is one ladder: rate 1 is the nibble machine and rate 2r one
minimized squaring of rate r.  The ladder builds the same machines as
the construction it replaced at every supported rate, the tables climb
each benchmark's ladder once, and the ladder's rungs persist in the
artifact store: the runtime code-version salt invalidates entries,
corrupt on-disk artifacts degrade to a miss with a warning metric, and
sharing across processes goes through the disk tier.
"""

import os

import pytest

from repro import obs
from repro.automata import Automaton, single_pattern, union
from repro.experiments import table3, table4
from repro.runtime import Runtime, store as runtime_store
from repro.runtime.artifacts import AUTOMATON_CODEC
from repro.runtime.store import ArtifactStore, artifact_key
from repro.transform import (
    check_equivalent,
    square,
    stride,
    to_nibbles,
    to_rate,
)
from repro.transform import pipeline, striding
from repro.transform.pipeline import rate_ladder
from repro.workloads import BENCHMARK_NAMES, generate
from conftest import random_automaton


@pytest.fixture(autouse=True)
def fresh_store():
    """Every test starts and ends with a pristine memory-only store."""
    runtime_store.configure()
    yield
    runtime_store.configure()


def _rung(pattern=b"hello", rate=4):
    """A ladder rung and the stage-style key it is stored under."""
    machine = to_rate(single_pattern("pat", pattern), rate)
    return machine, artifact_key(AUTOMATON_CODEC.kind, "to_rate", pattern,
                                 rate)


class TestKeying:
    def test_code_version_salts_key(self, monkeypatch):
        before = artifact_key(AUTOMATON_CODEC.kind, "to_rate", "pat")
        monkeypatch.setattr(runtime_store, "CODE_VERSION", "next-version")
        assert artifact_key(AUTOMATON_CODEC.kind, "to_rate", "pat") != before


class TestMemoryTier:
    def test_renames_never_reach_a_cached_master(self):
        """Renaming a rung clones it: the frozen machine it came from,
        which the store may hold as a master, keeps its name."""
        a = single_pattern("pat", b"hello")
        for rate in (1, 2, 4):
            assert to_rate(a, rate).name == "pat.%dnibble" % rate
        nibble = to_nibbles(a)
        assert nibble.name == a.name + ".nibble"
        assert stride(nibble, 2).name == a.name + ".nibble.x2"
        inner = square(nibble, minimized=False)
        assert square(inner).name == a.name + ".nibble.x2.x2"
        # Climbing renames a clone: the rung below keeps its name.
        ladder = rate_ladder(a)
        assert [ladder[rate].name for rate in (1, 2, 4)] == [
            "pat.1nibble", "pat.2nibble", "pat.4nibble"]

    def test_lru_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(runtime_store, "DEFAULT_MEMORY_ENTRIES", 1)
        store = ArtifactStore()
        first, first_key = _rung(b"one")
        second, second_key = _rung(b"two")
        store.put(first_key, first, AUTOMATON_CODEC)
        store.put(second_key, second, AUTOMATON_CODEC)
        assert store.stats["evictions"] == 1
        assert store.get(first_key, AUTOMATON_CODEC) is None
        assert store.get(second_key, AUTOMATON_CODEC) is second


class TestDiskTier:
    def test_shared_directory_across_processes(self, tmp_path):
        directory = str(tmp_path)
        machine, key = _rung(b"hello world")
        ArtifactStore(directory=directory).put(key, machine, AUTOMATON_CODEC)
        assert os.listdir(directory) == [key + ".json"]
        # A fresh store on the same directory models a new process.
        fresh = ArtifactStore(directory=directory)
        served = fresh.get(key, AUTOMATON_CODEC)
        assert fresh.stats["disk_hits"] == 1
        assert served.frozen
        assert served.dumps() == machine.dumps()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        machine, key = _rung(b"abc", rate=2)
        ArtifactStore(directory=str(tmp_path)).put(key, machine,
                                                   AUTOMATON_CODEC)
        assert all(name.endswith(".json") for name in os.listdir(str(tmp_path)))

    def test_corrupt_artifact_is_a_miss_with_warning_metric(self, tmp_path):
        directory = str(tmp_path)
        machine, key = _rung(rate=2)
        ArtifactStore(directory=directory).put(key, machine, AUTOMATON_CODEC)
        for name in os.listdir(directory):
            with open(os.path.join(directory, name), "w") as handle:
                handle.write('{"format": "repro-automaton", "version":')
        store = ArtifactStore(directory=directory)
        registry = obs.MetricsRegistry()
        with obs.collecting(registry=registry):
            assert store.get(key, AUTOMATON_CODEC) is None
            corrupt = registry.get(
                "repro_runtime_artifact_corrupt_total").value
        assert store.stats["corrupt"] == 1
        assert corrupt == 1

    def test_truncated_artifact_is_a_miss(self, tmp_path):
        directory = str(tmp_path)
        machine, key = _rung(b"truncate me", rate=2)
        ArtifactStore(directory=directory).put(key, machine, AUTOMATON_CODEC)
        for name in os.listdir(directory):
            path = os.path.join(directory, name)
            data = open(path).read()
            open(path, "w").write(data[: len(data) // 2])
        store = ArtifactStore(directory=directory)
        assert store.get(key, AUTOMATON_CODEC) is None
        assert store.stats["corrupt"] == 1

    def test_salt_change_invalidates_disk_entries(self, tmp_path, monkeypatch):
        directory = str(tmp_path)
        machine, key = _rung(rate=2)
        ArtifactStore(directory=directory).put(key, machine, AUTOMATON_CODEC)
        monkeypatch.setattr(runtime_store, "CODE_VERSION", "bumped")
        _, bumped_key = _rung(rate=2)
        assert bumped_key != key
        store = ArtifactStore(directory=directory)
        assert store.get(bumped_key, AUTOMATON_CODEC) is None
        assert store.stats["disk_hits"] == 0
        assert store.stats["misses"] == 1

    def test_info_and_clear(self, tmp_path):
        store = ArtifactStore(directory=str(tmp_path))
        for pattern in (b"abc", b"abd"):
            machine, key = _rung(pattern, rate=2)
            store.put(key, machine, AUTOMATON_CODEC)
        info = store.info()
        assert info["disk_entries"] == 2
        assert info["disk_bytes"] > 0
        assert info["memory_used"] == 2
        removed = store.clear()
        assert removed == info["disk_entries"] + info["memory_used"]
        after = store.info()
        assert after["disk_entries"] == 0 and after["memory_used"] == 0


class TestDifferential:
    """The ladder builds the machines of the construction it replaced:
    the nibble machine, its minimized square, and the minimized square
    of its unminimized square."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_registry_benchmarks_all_rates(self, name):
        automaton = generate(name, scale=0.002, seed=0).automaton
        nibble = to_nibbles(automaton)
        references = {
            1: nibble,
            2: square(nibble),
            4: square(square(nibble, minimized=False)),
        }
        ladder = rate_ladder(automaton)
        for rate, reference in references.items():
            expected = reference.shallow_clone(
                name="%s.%dnibble" % (automaton.name, rate)).fingerprint()
            assert to_rate(automaton, rate).fingerprint() == expected
            assert ladder[rate].fingerprint() == expected

    def test_rate_names_are_uniform(self):
        a = single_pattern("pat", b"abc")
        assert to_rate(a, 1).name == "pat.1nibble"
        assert to_rate(a, 2).name == "pat.2nibble"
        assert to_rate(a, 4).name == "pat.4nibble"

    def test_cached_transform_stays_language_preserving(self, rng):
        """Every rung of one ladder matches the byte machine's reports."""
        automaton = random_automaton(rng, n_states=10)
        data = bytes(rng.randrange(256) for _ in range(300))
        for rate, machine in rate_ladder(automaton, (2, 4)).items():
            check_equivalent(automaton, machine, data)


class TestStrideRegression:
    """stride() minimizes every squaring — results must stay
    deterministic (bit-identical across fresh builds), equal to the
    ladder's doubling, and correct."""

    def test_bit_identical_across_fresh_builds(self, rng):
        automaton = random_automaton(rng, n_states=9)
        nib = to_nibbles(automaton)
        first = stride(nib, 4)
        second = stride(nib, 4)
        assert first is not second
        assert first.dumps() == second.dumps()
        twice = stride(stride(nib, 2), 2)
        assert twice.shallow_clone(name=first.name).dumps() == first.dumps()

    def test_final_only_minimization_preserves_language(self, rng):
        """Rate 4 built by two minimized squarings keeps the language."""
        for _ in range(3):
            automaton = random_automaton(rng, n_states=8)
            data = bytes(rng.randrange(256) for _ in range(200))
            strided = to_rate(automaton, 4)
            check_equivalent(automaton, strided, data)

    def test_duplicate_rules_collapse(self):
        machines = [single_pattern("dup", b"abcabc") for _ in range(6)]
        merged = union(machines, name="dup")
        nib = to_nibbles(merged)
        solo = to_nibbles(single_pattern("dup", b"abcabc"))
        assert len(nib) == len(solo)


class TestLadder:
    def test_tables_climb_each_ladder_once(self, monkeypatch):
        """Cold Tables 3 and 4 on one runtime share every rung: two
        squarings and one nibble conversion per benchmark, and no
        structural fingerprint at all."""
        calls = {"square": 0, "to_nibbles": 0, "fingerprint": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(striding, "square",
                            counted("square", striding.square))
        monkeypatch.setattr(pipeline, "to_nibbles",
                            counted("to_nibbles", pipeline.to_nibbles))
        monkeypatch.setattr(Automaton, "fingerprint",
                            counted("fingerprint", Automaton.fingerprint))
        names = ["Bro217", "TCP"]
        runtime = Runtime()
        table3.run(scale=0.002, names=names, runtime=runtime)
        table4.run(scale=0.002, names=names, runtime=runtime)
        assert calls == {"square": 2 * len(names),
                         "to_nibbles": len(names), "fingerprint": 0}
