"""Tests for transform memoization in the artifact store
(repro.transform.cache).

Cached and fresh transforms are structurally identical at every
supported rate, the runtime code-version salt invalidates entries,
corrupt on-disk artifacts degrade to a miss with a warning metric,
sharing across processes goes through the disk tier, and store hits are
visible (and excluded from stage timing) in the telemetry.
"""

import os
import random

import pytest

from repro import obs
from repro.automata import single_pattern, union
from repro.errors import AutomatonError
from repro.runtime import store as runtime_store
from repro.transform import cache as transform_cache
from repro.transform import (
    check_equivalent,
    last_call_was_hit,
    square,
    stride,
    to_nibbles,
    to_rate,
)
from repro.workloads import BENCHMARK_NAMES, generate
from conftest import random_automaton


@pytest.fixture(autouse=True)
def fresh_store():
    """Every test starts and ends with a pristine memory-only store."""
    runtime_store.configure()
    yield
    runtime_store.configure()


def _stats():
    return runtime_store.get_store().stats


class TestKeying:
    def test_same_structure_same_key(self):
        a = single_pattern("p", b"abc")
        b = single_pattern("p", b"abc")
        assert (transform_cache.key("nibble", a, minimized=True)
                == transform_cache.key("nibble", b, minimized=True))

    def test_params_change_key(self):
        a = single_pattern("p", b"abc")
        key = transform_cache.key
        assert key("nibble", a, minimized=True) != key(
            "nibble", a, minimized=False)
        assert key("nibble", a, minimized=True) != key(
            "stride", a, minimized=True)

    def test_code_version_salts_key(self, monkeypatch):
        a = single_pattern("p", b"abc")
        before = transform_cache.key("nibble", a)
        monkeypatch.setattr(runtime_store, "CODE_VERSION", "next-version")
        assert transform_cache.key("nibble", a) != before


class TestMemoryTier:
    def test_second_call_hits_and_matches(self):
        a = single_pattern("pat", b"hello")
        first = to_nibbles(a)
        assert not last_call_was_hit()
        second = to_nibbles(a)
        assert last_call_was_hit()
        assert first.fingerprint() == second.fingerprint()
        assert first.dumps() == second.dumps()
        assert _stats()["memory_hits"] == 1

    def test_hits_share_the_frozen_master(self):
        a = single_pattern("pat", b"hello")
        first = to_nibbles(a)
        second = to_nibbles(a)
        assert second is first
        assert first.frozen
        with pytest.raises(AutomatonError):
            first.name = "mutated"
        assert to_nibbles(a).name == "pat.nibble"

    def test_renames_never_reach_a_cached_master(self):
        a = single_pattern("pat", b"hello")
        for rate in (1, 2, 4):
            assert to_rate(a, rate).name == "pat.%dnibble" % rate
        nibble = to_nibbles(a)
        assert nibble.name == a.name + ".nibble"
        assert stride(nibble, 2).name == a.name + ".nibble.x2"
        # stride(…, 4) renamed the outer square of its build.
        inner = square(nibble, minimized=False)
        assert square(inner).name == a.name + ".nibble.x2.x2"

    def test_structurally_equal_sources_share_entries(self):
        first = to_nibbles(single_pattern("pat", b"xyz"))
        assert not last_call_was_hit()
        second = to_nibbles(single_pattern("pat", b"xyz"))
        assert last_call_was_hit()
        assert first.dumps() == second.dumps()

    def test_lru_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(runtime_store, "DEFAULT_MEMORY_ENTRIES", 1)
        runtime_store.configure()
        to_nibbles(single_pattern("a", b"one"))
        to_nibbles(single_pattern("b", b"two"))
        assert _stats()["evictions"] >= 1
        to_nibbles(single_pattern("a", b"one"))
        assert not last_call_was_hit()

    def test_outer_miss_wins_over_inner_hits(self):
        nib = to_nibbles(single_pattern("pat", b"abcd"))
        square(nib)  # populate the inner square entry
        stride(nib, 2)  # outer stride misses, inner square hits
        assert not last_call_was_hit()
        stride(nib, 2)
        assert last_call_was_hit()


class TestDiskTier:
    def test_shared_directory_across_processes(self, tmp_path):
        directory = str(tmp_path)
        runtime_store.configure(directory=directory)
        a = single_pattern("pat", b"hello world")
        first = to_rate(a, 4)
        assert os.listdir(directory)
        # A fresh store on the same directory models a new process.
        runtime_store.configure(directory=directory)
        second = to_rate(a, 4)
        assert _stats()["disk_hits"] > 0
        assert first.dumps() == second.dumps()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        runtime_store.configure(directory=str(tmp_path))
        to_rate(single_pattern("pat", b"abc"), 2)
        assert all(name.endswith(".json") for name in os.listdir(str(tmp_path)))

    def test_corrupt_artifact_is_a_miss_with_warning_metric(self, tmp_path):
        directory = str(tmp_path)
        runtime_store.configure(directory=directory)
        a = single_pattern("pat", b"hello")
        first = to_rate(a, 2)
        for name in os.listdir(directory):
            with open(os.path.join(directory, name), "w") as handle:
                handle.write('{"format": "repro-automaton", "version":')
        runtime_store.configure(directory=directory)
        registry = obs.MetricsRegistry()
        with obs.collecting(registry=registry):
            second = to_rate(a, 2)
            corrupt = registry.get(
                "repro_runtime_artifact_corrupt_total").value
        assert _stats()["corrupt"] > 0
        assert corrupt > 0
        assert first.dumps() == second.dumps()

    def test_truncated_artifact_is_a_miss(self, tmp_path):
        directory = str(tmp_path)
        runtime_store.configure(directory=directory)
        a = single_pattern("pat", b"truncate me")
        first = to_rate(a, 2)
        for name in os.listdir(directory):
            path = os.path.join(directory, name)
            data = open(path).read()
            open(path, "w").write(data[: len(data) // 2])
        runtime_store.configure(directory=directory)
        second = to_rate(a, 2)
        assert _stats()["corrupt"] > 0
        assert first.dumps() == second.dumps()

    def test_salt_change_invalidates_disk_entries(self, tmp_path, monkeypatch):
        directory = str(tmp_path)
        runtime_store.configure(directory=directory)
        a = single_pattern("pat", b"hello")
        to_rate(a, 2)
        monkeypatch.setattr(runtime_store, "CODE_VERSION", "bumped")
        runtime_store.configure(directory=directory)
        to_rate(a, 2)
        assert _stats()["disk_hits"] == 0
        assert _stats()["misses"] > 0

    def test_info_and_clear(self, tmp_path):
        runtime_store.configure(directory=str(tmp_path))
        to_rate(single_pattern("pat", b"abc"), 2)
        info = runtime_store.get_store().info()
        assert info["disk_entries"] > 0
        assert info["disk_bytes"] > 0
        assert info["memory_used"] > 0
        removed = runtime_store.get_store().clear()
        assert removed == info["disk_entries"] + info["memory_used"]
        after = runtime_store.get_store().info()
        assert after["disk_entries"] == 0 and after["memory_used"] == 0


class TestDifferential:
    """Cached results must be structurally identical to fresh builds."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_registry_benchmarks_all_rates(self, name):
        automaton = generate(name, scale=0.003, seed=5).automaton
        for rate in (1, 2, 4):
            runtime_store.configure()  # cold store: a real build
            fresh = to_rate(automaton, rate)
            cached = to_rate(automaton, rate)
            assert last_call_was_hit()
            assert fresh.fingerprint() == cached.fingerprint()
            assert fresh.dumps() == cached.dumps()
            assert fresh.name == cached.name

    def test_rate_names_are_uniform(self):
        a = single_pattern("pat", b"abc")
        assert to_rate(a, 1).name == "pat.1nibble"
        assert to_rate(a, 2).name == "pat.2nibble"
        assert to_rate(a, 4).name == "pat.4nibble"

    def test_cached_transform_stays_language_preserving(self, rng):
        automaton = random_automaton(rng, n_states=10)
        data = bytes(rng.randrange(256) for _ in range(300))
        for rate in (2, 4):
            cached = to_rate(automaton, rate)  # second call is the copy
            check_equivalent(automaton, cached, data)


class TestStrideRegression:
    """stride() minimizes only the final machine — results must stay
    deterministic (bit-identical across fresh builds) and correct."""

    def test_bit_identical_across_fresh_builds(self, rng):
        automaton = random_automaton(rng, n_states=9)
        nib = to_nibbles(automaton)
        runtime_store.configure()
        first = stride(nib, 4)
        runtime_store.configure()
        second = stride(nib, 4)
        assert first.dumps() == second.dumps()

    def test_final_only_minimization_preserves_language(self, rng):
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


class TestTelemetry:
    def test_cached_stage_excluded_from_stage_seconds(self):
        a = single_pattern("pat", b"hello world!")
        registry = obs.MetricsRegistry()
        trace = obs.TraceCollector()
        with obs.collecting(registry=registry, trace=trace):
            to_rate(a, 2)
            cold = registry.get(
                "repro_transform_stage_seconds").labels(stage="nibble").count
            to_rate(a, 2)
            warm = registry.get(
                "repro_transform_stage_seconds").labels(stage="nibble").count
        assert cold == 1
        assert warm == 1  # the hit did not observe a second sample
        nibble_spans = [span for span in trace.finished()
                        if span.name == "transform.nibble"]
        assert [span.attrs.get("cached") for span in nibble_spans] == [
            False, True]
