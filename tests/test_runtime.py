"""Tests for the stage-graph runtime (repro.runtime).

Covers the artifact store's tiers (memory LRU, atomic disk artifacts,
corruption-degrades-to-miss, frozen shared masters, a bad path failing
at construction), the per-kind codecs' round trips, graph
construction (deduplication, topological keys, error cases), and the
scheduler's demand pruning — a warm store must skip the expensive
upstream stages entirely.
"""

import json
import os

import pytest

from repro import obs
from repro.automata import Ste, SymbolSet, single_pattern, union
from repro.automata.indexed import IndexedAutomaton
from repro.errors import (ArtifactError, AutomatonError, SimulationError,
                          StageGraphError)
from repro.runtime import store as runtime_store
from repro.runtime.artifacts import (AUTOMATON_CODEC, INSTANCE_CODEC,
                                     JSON_CODEC, SIMRUN_CODEC, SimRun)
from repro.runtime.graph import Runtime, StageGraph
from repro.runtime.stages import REGISTRY, canonical, get_stage
from repro.runtime.store import ArtifactStore, JsonCodec, artifact_key
from repro.core.config import SunderConfig
from repro.sim.reports import ReportRecorder
from repro.transform import to_rate
from repro.workloads import generate


@pytest.fixture(autouse=True)
def fresh_store():
    """Every test starts and ends with a pristine memory-only store."""
    runtime_store.configure()
    yield
    runtime_store.configure()


def _instance(name="Bro217", scale=0.002, seed=0):
    return generate(name, scale=scale, seed=seed)


class TestArtifactKey:
    def test_kind_prefix_and_stability(self):
        key = artifact_key("instance", "generate", "a", "b")
        assert key.startswith("instance-")
        assert key == artifact_key("instance", "generate", "a", "b")

    def test_parts_and_kind_change_key(self):
        base = artifact_key("instance", "generate", "a")
        assert artifact_key("instance", "generate", "b") != base
        assert artifact_key("simrun", "generate", "a") != base
        # Part boundaries matter: ("ab", "c") must not equal ("a", "bc").
        assert artifact_key("json", "ab", "c") != artifact_key("json", "a", "bc")


def _json_round_trip(value):
    return JSON_CODEC.decode(JSON_CODEC.encode(value))


def _assert_same_recorder(decoded, recorder):
    """Every event field and per-cycle item, in order."""
    def fields(rec):
        return [(event.position, event.cycle, event.state_id,
                 event.report_code) for event in rec.events]
    assert fields(decoded) == fields(recorder)
    assert list(decoded.reports_per_cycle.items()) == \
        list(recorder.reports_per_cycle.items())
    assert decoded.total_reports == recorder.total_reports


class TestCodecs:
    def test_json_codec_round_trip(self):
        value = {"a": [1, 2.5, "x"], "b": None}
        assert _json_round_trip(value) == value

    def test_json_codec_rejects_garbage(self):
        for text in ("not json", '{"format": "other"}',
                     '{"format": "repro-json", "version": 2}'):
            with pytest.raises(ArtifactError):
                JSON_CODEC.decode(text)

    def test_json_codec_copy_decouples(self):
        master = {"rows": [1, 2]}
        served = JSON_CODEC.freeze(master)
        served["rows"].append(3)
        assert master["rows"] == [1, 2]

    def test_instance_codec_round_trip(self):
        instance = _instance()
        decoded = INSTANCE_CODEC.decode(INSTANCE_CODEC.encode(instance))
        assert decoded.name == instance.name
        assert decoded.family == instance.family
        assert decoded.input_bytes == instance.input_bytes
        assert decoded.paper_row == instance.paper_row
        assert decoded.automaton.dumps() == instance.automaton.dumps()

    def test_instance_codec_freezes_in_place(self):
        instance = _instance()
        assert INSTANCE_CODEC.freeze(instance) is instance
        assert instance.automaton.frozen

    def test_simrun_codec_round_trip(self):
        instance = _instance()
        run = get_stage("simulate8").func({"name": instance.name}, instance)
        assert run.recorder.events
        decoded = SIMRUN_CODEC.decode(SIMRUN_CODEC.encode(run))
        assert decoded.summary() == run.summary()
        _assert_same_recorder(decoded.recorder, run.recorder)
        # Parameters and an aggregates-only recorder survive too; the
        # out-of-order cycle pins insertion order, not sorted order.
        for keep_events in (True, False):
            recorder = ReportRecorder(keep_events=keep_events,
                                      position_limit=9)
            recorder.record_cycle(4, [(0, "s1", "c"), (1, "s2", None)], 2)
            recorder.record_cycle(1, [(1, "s1", "c")], 2)
            run = SimRun(recorder, cycles=5, max_active_states=2,
                         avg_active_states=0.5)
            decoded = SIMRUN_CODEC.decode(SIMRUN_CODEC.encode(run))
            assert decoded.summary() == run.summary()
            assert decoded.recorder.keep_events is keep_events
            assert decoded.recorder.position_limit == 9
            _assert_same_recorder(decoded.recorder, recorder)

    def test_simrun_codec_rejects_garbage(self):
        with pytest.raises(ArtifactError):
            SIMRUN_CODEC.decode("[]")
        with pytest.raises(ArtifactError):
            SIMRUN_CODEC.decode(json.dumps(
                {"format": "repro-simrun", "version": 99}))


class TestArtifactStore:
    def test_memory_hit_serves_copy(self):
        store = ArtifactStore()
        store.put("json-k", {"a": 1}, JSON_CODEC)
        first = store.get("json-k", JSON_CODEC)
        first["a"] = 99
        assert store.get("json-k", JSON_CODEC) == {"a": 1}
        assert store.stats["memory_hits"] == 2

    def test_disk_tier_survives_new_store(self, tmp_path):
        ArtifactStore(directory=str(tmp_path)).put(
            "json-k", [1, 2, 3], JSON_CODEC)
        fresh = ArtifactStore(directory=str(tmp_path))
        assert fresh.get("json-k", JSON_CODEC) == [1, 2, 3]
        assert fresh.stats["disk_hits"] == 1

    def test_corrupt_artifact_degrades_to_miss(self, tmp_path):
        store = ArtifactStore(directory=str(tmp_path))
        path = tmp_path / "json-k.json"
        path.write_text("{garbage", encoding="utf-8")
        assert store.get("json-k", JSON_CODEC) is None
        assert store.stats["corrupt"] == 1
        assert store.stats["misses"] == 1
        assert path.exists()  # left in place for post-mortem

    def test_fetch_memoizes(self):
        store = ArtifactStore()
        calls = []

        def build():
            calls.append(1)
            return {"v": 1}

        value, hit = store.fetch("json-k", JSON_CODEC, build)
        assert (value, hit, len(calls)) == ({"v": 1}, None, 1)
        value, hit = store.fetch("json-k", JSON_CODEC, build)
        assert (value, hit, len(calls)) == ({"v": 1}, "memory", 1)

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(runtime_store, "DEFAULT_MEMORY_ENTRIES", 2)
        store = ArtifactStore()
        assert store.info()["memory_entries"] == 2
        for index in range(3):
            store.put("json-%d" % index, index, JSON_CODEC)
        assert store.stats["evictions"] == 1
        assert store.get("json-0", JSON_CODEC) is None

    def test_clear_and_info(self, tmp_path):
        store = ArtifactStore(directory=str(tmp_path))
        store.put("json-a", 1, JSON_CODEC)
        store.put("json-b", 2, JSON_CODEC)
        info = store.info()
        assert info["memory_used"] == 2
        assert info["disk_entries"] == 2
        assert info["disk_bytes"] > 0
        assert store.clear() == 4  # two memory entries + two files
        assert store.info()["disk_entries"] == 0

    def test_clear_removes_torn_temp_files(self, tmp_path):
        store = ArtifactStore(directory=str(tmp_path))
        store.put("json-k", 1, JSON_CODEC)
        # What a writer killed between write and rename leaves behind.
        (tmp_path / "json-abc.json.tmp.999.1").write_text(
            '{"format": "repro-json"', encoding="utf-8")
        assert store.info()["disk_entries"] == 1
        assert store.clear() == 2  # one memory entry + one file
        assert os.listdir(str(tmp_path)) == []

    def test_configure_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(runtime_store.ENV_VAR, str(tmp_path))
        runtime_store.configure()  # reset so get_store re-reads the env
        runtime_store._ACTIVE = None
        assert runtime_store.get_store().directory == str(tmp_path)

    def test_env_var_alone_persists_transforms(self, tmp_path, monkeypatch):
        machine = single_pattern("p", b"persist me")
        monkeypatch.setenv(runtime_store.ENV_VAR, str(tmp_path))
        monkeypatch.setattr(runtime_store, "_ACTIVE", None)
        first = to_rate(machine, 4)
        assert [name for name in os.listdir(str(tmp_path))
                if name.startswith("automaton-") and name.endswith(".json")]
        # A fresh store on the same directory models a new process.
        runtime_store.configure(directory=str(tmp_path))
        second = to_rate(machine, 4)
        assert runtime_store.get_store().stats["disk_hits"] > 0
        assert second.dumps() == first.dumps()

    def test_corrupt_counter_counts_every_kind(self, tmp_path):
        instance = _instance()
        ArtifactStore(directory=str(tmp_path)).put(
            "instance-k", instance, INSTANCE_CODEC)
        path = tmp_path / "instance-k.json"
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:len(text) // 2], encoding="utf-8")
        registry = obs.MetricsRegistry()
        with obs.collecting(registry=registry):
            store = ArtifactStore(directory=str(tmp_path))
            assert store.get("instance-k", INSTANCE_CODEC) is None
        assert registry.get("repro_runtime_artifact_corrupt_total").value == 1
        assert store.stats["corrupt"] == 1

    def test_path_that_is_not_a_directory_fails_at_construction(
            self, tmp_path, monkeypatch):
        path = tmp_path / "not-a-dir"
        path.write_text("x", encoding="utf-8")
        for build in (ArtifactStore, runtime_store.configure):
            with pytest.raises(ArtifactError, match=str(path)):
                build(directory=str(path))
        # The env-var path reaches the store lazily, from its first
        # user, which must not swallow the error.
        monkeypatch.setenv(runtime_store.ENV_VAR, str(path))
        monkeypatch.setattr(runtime_store, "_ACTIVE", None)
        with pytest.raises(ArtifactError, match=str(path)):
            to_rate(single_pattern("p", b"abc"), 4)


def _served_machine():
    return union([single_pattern("a", b"abc"), single_pattern("b", b"abd")],
                 name="served")


def _first_edge(machine):
    return next(iter(machine.transitions()))


def _rebind(attr):
    def mutate(machine):
        setattr(machine, attr, getattr(machine, attr))
    return mutate


#: Every way to change an automaton; each must raise once it is frozen.
MUTATORS = {
    "add_state": lambda m: m.add_state(
        Ste("fresh", SymbolSet.single(8, ord("z")))),
    "add_transition": lambda m: m.add_transition(*_first_edge(m)),
    "remove_transition": lambda m: m.remove_transition(*_first_edge(m)),
    "remove_state": lambda m: m.remove_state(m.state_ids()[-1]),
    "prune_unreachable": lambda m: m.prune_unreachable(),
    "merge_in": lambda m: m.merge_in(single_pattern("c", b"xy"), "m_"),
    "rebind_name": _rebind("name"),
    "rebind_bits": _rebind("bits"),
    "rebind_states": _rebind("_states"),
    "write_back": lambda m: IndexedAutomaton.from_automaton(m).write_back(m),
}


def _served(tmp_path, codec, obj, tier):
    """``obj`` put into a disk-backed store, then served from ``tier``."""
    store = ArtifactStore(directory=str(tmp_path))
    store.put("k", obj, codec)
    if tier == "disk":
        # A fresh store on the same directory models a new process.
        store = ArtifactStore(directory=str(tmp_path))
    served = store.get("k", codec)
    assert store.stats["%s_hits" % tier] == 1
    return store, served


class TestFrozenMasters:
    @pytest.mark.parametrize("tier", ["memory", "disk"])
    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_served_automaton_mutators_raise(self, tmp_path, tier, mutator):
        store, served = _served(tmp_path, AUTOMATON_CODEC,
                                _served_machine(), tier)
        before = served.dumps()
        with pytest.raises(AutomatonError, match="frozen"):
            MUTATORS[mutator](served)
        assert served.dumps() == before
        assert store.get("k", AUTOMATON_CODEC) is served

    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_served_run_recorder_refuses_records(self, tmp_path, tier):
        instance = _instance()
        run = get_stage("simulate8").func({"name": instance.name}, instance)
        store, served = _served(tmp_path, SIMRUN_CODEC, run, tier)
        recorder = served.recorder
        total = recorder.total_reports
        with pytest.raises(SimulationError):
            recorder.record(0, 0, "s", "code")
        with pytest.raises(SimulationError):
            recorder.record_cycle(0, [(0, "s", "code")], 1)
        with pytest.raises(SimulationError):
            recorder.absorb(ReportRecorder())
        assert recorder.total_reports == total
        assert store.get("k", SIMRUN_CODEC) is served

    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_served_instance_automaton_is_frozen(self, tmp_path, tier):
        store, served = _served(tmp_path, INSTANCE_CODEC, _instance(), tier)
        assert served.automaton.frozen
        assert store.get("k", INSTANCE_CODEC) is served


class TestCanonical:
    def test_dict_order_independent(self):
        assert canonical({"b": 2, "a": 1}) == canonical({"a": 1, "b": 2})

    def test_config_fields_distinguish(self):
        a = SunderConfig(report_bits=12)
        b = SunderConfig(report_bits=16)
        assert canonical(a) != canonical(b)
        assert canonical(a) == canonical(SunderConfig(report_bits=12))

    def test_sequences_recurse(self):
        assert canonical([1, (2, 3)]) == "[1,[2,3]]"


class TestStageGraph:
    def test_dedup_same_signature(self):
        graph = StageGraph()
        a = graph.task("generate", {"name": "Bro217", "scale": 0.002,
                                    "seed": 0})
        b = graph.task("generate", {"name": "Bro217", "scale": 0.002,
                                    "seed": 0})
        assert a is b
        assert len(graph) == 1

    def test_params_change_identity_and_key(self):
        graph = StageGraph()
        a = graph.task("generate", {"name": "Bro217", "scale": 0.002,
                                    "seed": 0})
        b = graph.task("generate", {"name": "Bro217", "scale": 0.002,
                                    "seed": 1})
        assert a is not b
        assert a.key != b.key

    def test_key_chains_through_dependencies(self):
        graph = StageGraph()
        gen0 = graph.task("generate", {"name": "Bro217", "scale": 0.002,
                                       "seed": 0})
        gen1 = graph.task("generate", {"name": "Bro217", "scale": 0.002,
                                       "seed": 1})
        sim0 = graph.task("simulate8", {"name": "Bro217"}, deps=[gen0])
        sim1 = graph.task("simulate8", {"name": "Bro217"}, deps=[gen1])
        assert sim0.key != sim1.key

    def test_foreign_dependency_rejected(self):
        other = StageGraph()
        gen = other.task("generate", {"name": "Bro217", "scale": 0.002,
                                      "seed": 0})
        graph = StageGraph()
        with pytest.raises(StageGraphError):
            graph.task("simulate8", {"name": "Bro217"}, deps=[gen])

    def test_unknown_stage_rejected(self):
        with pytest.raises(StageGraphError):
            StageGraph().task("no_such_stage")

    def test_cacheable_on_uncached_rejected(self):
        graph = StageGraph()
        arch = graph.task("figure9_arch", {"arch": "Sunder",
                                           "num_states": 1024})
        assert arch.key is None  # uncacheable stages have no address
        with pytest.raises(StageGraphError):
            graph.task("table1_row", {"name": "Bro217"}, deps=[arch])

    def test_registry_cacheability(self):
        cached = {name for name, entry in REGISTRY.items() if entry.cacheable}
        assert {"generate", "simulate8", "to_rate", "simulate_strided",
                "table1_row", "table3_row", "report_drain"} <= cached
        assert {"figure9_arch", "figure10_point"}.isdisjoint(cached)
        assert "place" not in REGISTRY


def _table1_graph(graph, name="Bro217", scale=0.002, seed=0):
    gen = graph.task("generate", {"name": name, "scale": scale,
                                  "seed": seed})
    sim = graph.task("simulate8", {"name": name}, deps=[gen])
    return graph.task("table1_row", {"name": name}, deps=[gen, sim])


class TestRuntimeExecute:
    def test_results_match_direct_execution(self):
        graph = StageGraph()
        row_task = _table1_graph(graph)
        results = Runtime(store=ArtifactStore()).execute(graph)
        instance = _instance()
        run8 = get_stage("simulate8").func({"name": "Bro217"}, instance)
        expected = get_stage("table1_row").func(
            {"name": "Bro217"}, instance, run8)
        assert results[row_task] == expected

    def test_warm_store_skips_upstream_stages(self):
        store = ArtifactStore()
        graph = StageGraph()
        _table1_graph(graph)
        Runtime(store=store).execute(graph)
        assert store.stats["stores"] == 3

        before = dict(store.stats)
        warm_graph = StageGraph()
        target = _table1_graph(warm_graph)
        results = Runtime(store=store).execute(warm_graph, targets=[target])
        # Only the row itself is probed: its hit removes the demand on
        # generate/simulate8 entirely (no extra lookups, no executions).
        assert store.stats["memory_hits"] == before["memory_hits"] + 1
        assert store.stats["misses"] == before["misses"]
        assert store.stats["stores"] == before["stores"]
        assert results[target]["benchmark"] == "Bro217"

    def test_warm_and_cold_results_identical(self):
        store = ArtifactStore()
        cold_graph = StageGraph()
        cold_target = _table1_graph(cold_graph)
        cold = Runtime(store=store).execute(cold_graph)[cold_target]
        warm_graph = StageGraph()
        warm_target = _table1_graph(warm_graph)
        warm = Runtime(store=store).execute(warm_graph)[warm_target]
        assert cold == warm

    def test_targets_prune_undemanded_tasks(self):
        store = ArtifactStore()
        graph = StageGraph()
        gen = graph.task("generate", {"name": "Bro217", "scale": 0.002,
                                      "seed": 0})
        graph.task("simulate8", {"name": "Bro217"}, deps=[gen])
        results = Runtime(store=store).execute(graph, targets=[gen])
        assert set(results) == {gen}
        assert store.stats["stores"] == 1  # simulate8 never ran

    def test_foreign_target_rejected(self):
        graph = StageGraph()
        _table1_graph(graph)
        other = StageGraph()
        foreign = _table1_graph(other)
        with pytest.raises(StageGraphError):
            Runtime(store=ArtifactStore()).execute(graph, targets=[foreign])

    def test_stage_metrics_recorded(self):
        registry = obs.MetricsRegistry()
        store = ArtifactStore()
        with obs.collecting(registry=registry):
            graph = StageGraph()
            _table1_graph(graph)
            Runtime(store=store).execute(graph)
            warm = StageGraph()
            _table1_graph(warm)
            Runtime(store=store).execute(warm)
        misses = registry.get("repro_runtime_stage_misses_total")
        hits = registry.get("repro_runtime_stage_hits_total")
        assert misses.labels(stage="generate").value == 1
        assert misses.labels(stage="simulate8").value == 1
        assert misses.labels(stage="table1_row").value == 1
        assert hits.labels(stage="table1_row").value == 1
        assert registry.get("repro_runtime_stage_seconds") is not None
