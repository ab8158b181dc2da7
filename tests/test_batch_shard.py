"""Differential suite for batched and sharded execution.

Every fast-path strategy — ``BitsetEngine.run_batch``,
``BitsetEngine.run_sharded`` (sequential and interleaved,
in-process and through a worker pool) and ``SunderDevice.run_batch`` —
must be *bit-exact* against the plain serial run: identical recorder
payloads (event order included) and identical active-count histories.  The artifact-keying tests pin that
``batch``/``shards`` salt the simulate-stage keys while plain runs keep
their pre-existing keys.
"""

import random

import pytest

from conftest import budget_engine, random_automaton
from repro.automata import StartKind, SymbolSet
from repro.core import SunderConfig, SunderDevice
from repro.errors import ArchitectureError, SimulationError
from repro.regex import compile_ruleset
from repro.sim import BitsetEngine, stream_for
from repro.sim.engine import DEFAULT_STEP_CACHE
from repro.sim.parallel import ParallelRunner
from repro.sim.reports import ReportRecorder
from repro.transform import to_rate

RULES = ["abc", "b.d", "xy+z", "hello", "[0-9]{3}", "q(rs|tu)v"]
#: Same shapes minus the ``y+`` loop — sharding needs a finite depth bound.
ACYCLIC_RULES = ["abc", "b.d", "hello", "[0-9]{3}", "q(rs|tu)v"]
DATA_ALPHABET = b"abcdxyz hello0123qrstuv"


def _noisy_data(rng, length=400):
    noise = bytes(rng.choice(DATA_ALPHABET) for _ in range(length))
    return noise + b"abc hello 123 " + noise + b"xyyz qrsv"


#: Step-table budgets under lane tests: the default (64k transitions),
#: and 2, where nearly every miss clears the table and re-interns every
#: lane.
over_table_budgets = pytest.mark.parametrize(
    "step_cache", [DEFAULT_STEP_CACHE, 2], ids=["64k", "2"])


def _assert_table_reset(engine, step_cache):
    """A tiny-budget run must really have cleared its table."""
    if step_cache == 2:
        info = engine.step_cache_info()
        assert info["misses"] > 2
        assert info["size"] <= 2


def _serial_payloads(automaton, lane_streams, limit=None):
    payloads = []
    histories = []
    for vectors in lane_streams:
        engine = BitsetEngine(automaton)
        recorder = engine.run(vectors, position_limit=limit)
        payloads.append(recorder.to_payload())
        histories.append(list(engine.active_count_history))
    return payloads, histories


# ``run_batch`` has one lane layout (one active int per lane); "lanes"
# names it and "auto" is the default call that reaches it.  Each id
# seeds its own random streams, so the two cases cover different data.
@pytest.mark.parametrize("rate", [1, 2, 4])
@pytest.mark.parametrize("layout", ["lanes", "auto"])
class TestEngineBatchDifferential:
    def test_batch_matches_serial_runs(self, rate, layout):
        rng = random.Random(100 * rate + len(layout))
        machine = to_rate(compile_ruleset(RULES), rate) if rate > 1 else \
            compile_ruleset(RULES)
        lanes = rng.randint(2, 7)
        lane_streams = []
        limit = None
        for _ in range(lanes):
            vectors, limit = stream_for(machine, _noisy_data(rng))
            lane_streams.append(vectors)
        expected, histories = _serial_payloads(machine, lane_streams, limit)

        engine = BitsetEngine(machine)
        recorders = engine.run_batch(lane_streams, position_limit=limit)
        assert [r.to_payload() for r in recorders] == expected
        assert [list(h) for h in engine.lane_histories] == histories
        assert any(p["rows"]["cycle"] for p in expected)

    def test_batch_with_caller_recorders(self, rate, layout):
        rng = random.Random(rate + len(layout))
        machine = to_rate(compile_ruleset(RULES[:3]), rate) if rate > 1 \
            else compile_ruleset(RULES[:3])
        lane_streams = []
        limit = None
        for _ in range(3):
            vectors, limit = stream_for(machine, _noisy_data(rng, 150))
            lane_streams.append(vectors)
        expected, _ = _serial_payloads(machine, lane_streams, limit)
        recorders = [ReportRecorder(position_limit=limit) for _ in range(3)]
        out = BitsetEngine(machine).run_batch(lane_streams,
                                              recorders=recorders)
        assert out is recorders
        assert [r.to_payload() for r in recorders] == expected


class TestEngineBatchEdges:
    def test_recorder_count_mismatch_rejected(self, abc_automaton):
        with pytest.raises(SimulationError):
            BitsetEngine(abc_automaton).run_batch(
                [[97], [98]], recorders=[ReportRecorder()])

    def test_empty_and_unequal_lane_lengths(self, abc_automaton):
        engine = BitsetEngine(abc_automaton)
        streams = [list(b"abcabc"), [], list(b"xxabc")]
        expected, _ = _serial_payloads(abc_automaton, streams)
        recorders = engine.run_batch(streams)
        assert [r.to_payload() for r in recorders] == expected

    @over_table_budgets
    def test_random_automata_match_serial_runs(self, step_cache):
        rng = random.Random(777)
        for trial in range(6):
            machine = random_automaton(rng, n_states=rng.randint(4, 12))
            streams = [
                [rng.randrange(256) for _ in range(rng.randint(0, 60))]
                for _ in range(rng.randint(1, 5))]
            expected, _ = _serial_payloads(machine, streams)
            engine = budget_engine(machine, step_cache)
            recorders = engine.run_batch(streams)
            assert [r.to_payload() for r in recorders] == expected, trial
            _assert_table_reset(engine, step_cache)


@pytest.mark.parametrize("interleave", [True, False])
class TestEngineShardDifferential:
    def test_shard_stitch_matches_single_pass(self, interleave):
        rng = random.Random(42 if interleave else 43)
        machine = compile_ruleset(ACYCLIC_RULES)
        assert machine.depth_bound() is not None
        vectors, limit = stream_for(machine, _noisy_data(rng))
        serial_engine = BitsetEngine(machine)
        serial = serial_engine.run(vectors, position_limit=limit)
        serial_history = list(serial_engine.active_count_history)
        for shards in (2, 3, 5, 8):
            engine = BitsetEngine(machine)
            recorder = engine.run_sharded(vectors, shards,
                                          position_limit=limit,
                                          interleave=interleave)
            assert recorder.to_payload() == serial.to_payload(), shards
            assert list(engine.active_count_history) == serial_history

    def test_overlap_window_reports_not_duplicated(self, interleave):
        # Witnesses planted to straddle every shard boundary: the
        # overlap replay re-sees those cycles, and the stitcher must
        # count each report exactly once.
        machine = compile_ruleset(["abcd"])
        data = b"abcd" * 50
        vectors, limit = stream_for(machine, data)
        serial = BitsetEngine(machine).run(vectors, position_limit=limit)
        assert serial.total_reports == 50
        for shards in (2, 3, 7):
            recorder = BitsetEngine(machine).run_sharded(
                vectors, shards, position_limit=limit,
                interleave=interleave)
            assert recorder.to_payload() == serial.to_payload()

    @over_table_budgets
    def test_random_shard_boundaries_property(self, interleave, step_cache):
        rng = random.Random(99 if interleave else 98)
        for trial in range(8):
            machine = random_automaton(rng, n_states=rng.randint(4, 10))
            if machine.depth_bound() is None:
                continue  # cyclic draws take the fallback path (below)
            stream = [rng.randrange(256) for _ in range(rng.randint(5, 120))]
            serial = BitsetEngine(machine).run(stream)
            shards = rng.randint(1, len(stream))
            engine = budget_engine(machine, step_cache)
            recorder = engine.run_sharded(
                stream, shards, interleave=interleave)
            assert recorder.to_payload() == serial.to_payload(), \
                (trial, shards)
            _assert_table_reset(engine, step_cache)

    def test_strided_machine_sharded(self, interleave):
        rng = random.Random(7)
        machine = to_rate(compile_ruleset(ACYCLIC_RULES[:4]), 4)
        vectors, limit = stream_for(machine, _noisy_data(rng))
        serial = BitsetEngine(machine).run(vectors, position_limit=limit)
        recorder = BitsetEngine(machine).run_sharded(
            vectors, 4, position_limit=limit, interleave=interleave)
        assert recorder.to_payload() == serial.to_payload()


class TestShardFallbacksAndPool:
    def test_cyclic_automaton_falls_back_to_serial(self):
        machine = compile_ruleset(["he(llo)+"])
        assert machine.depth_bound() is None
        data = b"hellollo hello " * 10
        serial = BitsetEngine(machine).run(list(data))
        recorder = BitsetEngine(machine).run_sharded(list(data), 4)
        assert recorder.to_payload() == serial.to_payload()

    def test_single_shard_is_plain_run(self):
        machine = compile_ruleset(["abc"])
        data = list(b"zabcz")
        serial = BitsetEngine(machine).run(data)
        recorder = BitsetEngine(machine).run_sharded(data, 1)
        assert recorder.to_payload() == serial.to_payload()

    def test_shards_clamped_to_stream_length(self):
        machine = compile_ruleset(["ab"])
        data = list(b"abab")
        serial = BitsetEngine(machine).run(data)
        recorder = BitsetEngine(machine).run_sharded(data, 100)
        assert recorder.to_payload() == serial.to_payload()

    def test_pool_runner_path_bit_exact(self):
        rng = random.Random(31)
        machine = compile_ruleset(ACYCLIC_RULES)
        vectors, limit = stream_for(machine, _noisy_data(rng, 600))
        serial_engine = BitsetEngine(machine)
        serial = serial_engine.run(vectors, position_limit=limit)
        engine = BitsetEngine(machine)
        recorder = engine.run_sharded(
            vectors, 4, position_limit=limit,
            runner=ParallelRunner(workers=2))
        assert recorder.to_payload() == serial.to_payload()
        assert (list(engine.active_count_history)
                == list(serial_engine.active_count_history))

    def test_auto_shards_short_stream_falls_back_serial(self):
        from repro.sim import engine as engine_module
        machine = compile_ruleset(["abc"])
        data = list(b"zabcz" * 20)
        assert len(data) < engine_module.AUTO_SHARD_MIN_CYCLES
        serial = BitsetEngine(machine).run(data)
        recorder = BitsetEngine(machine).run_sharded(data, "auto")
        assert recorder.to_payload() == serial.to_payload()

    def test_auto_shards_long_stream_shards_bit_exact(self, monkeypatch):
        from repro.sim import engine as engine_module
        monkeypatch.setattr(engine_module, "AUTO_SHARD_MIN_CYCLES", 64)
        rng = random.Random(5)
        machine = compile_ruleset(ACYCLIC_RULES)
        vectors, limit = stream_for(machine, _noisy_data(rng, 200))
        serial = BitsetEngine(machine).run(vectors, position_limit=limit)
        recorder = BitsetEngine(machine).run_sharded(
            vectors, "auto", position_limit=limit)
        assert recorder.to_payload() == serial.to_payload()

    def test_auto_shards_sizing(self):
        from repro.sim.engine import (AUTO_SHARD_DEFAULT,
                                      AUTO_SHARD_MIN_CYCLES, BitsetEngine)
        assert BitsetEngine._auto_shards(AUTO_SHARD_MIN_CYCLES - 1,
                                         None) == 1
        assert BitsetEngine._auto_shards(AUTO_SHARD_MIN_CYCLES,
                                         None) == AUTO_SHARD_DEFAULT
        runner = ParallelRunner(workers=3)
        assert BitsetEngine._auto_shards(AUTO_SHARD_MIN_CYCLES,
                                         runner) == 3

    def test_auto_shards_stage_param_bit_exact(self):
        """``shards="auto"`` flows through the experiment stage params."""
        from repro.exec import ExecutionPlan
        from repro.experiments.table1 import simulation_params
        from repro.runtime.stages import canonical, get_stage
        from repro.workloads import generate

        params = simulation_params({"name": "ExactMatch"},
                                   ExecutionPlan(shards="auto"))
        assert params["plan"]["shards"] == "auto"
        assert canonical(params) != canonical({"name": "ExactMatch"})
        instance = generate("ExactMatch", 0.002, 0)
        sim8 = get_stage("simulate8").func
        plain = sim8({"name": "ExactMatch"}, instance)
        auto = sim8(params, instance)
        assert auto.recorder.events == plain.recorder.events
        assert auto.cycles == plain.cycles


@pytest.mark.parametrize("rate", [1, 2, 4])
class TestDeviceBatchDifferential:
    def test_device_batch_matches_serial_devices(self, rate):
        rng = random.Random(rate * 17)
        machine = to_rate(compile_ruleset(RULES), rate)
        config = SunderConfig(rate_nibbles=rate, report_bits=16)
        lanes = rng.randint(2, 5)
        data = _noisy_data(rng)
        cut = len(data) // lanes
        lane_streams = []
        limit = None
        for index in range(lanes):
            vectors, limit = stream_for(machine, data[index * cut:
                                                      (index + 1) * cut])
            lane_streams.append(vectors)
        expected = []
        for vectors in lane_streams:
            device = SunderDevice(config, fidelity="packed")
            device.configure(machine)
            result = device.run(vectors, position_limit=limit)
            reports = result.reports()
            expected.append((reports.total_reports,
                             dict(reports.reports_per_cycle),
                             sorted(e.key() for e in reports.events)))
        device = SunderDevice(config, fidelity="packed")
        device.configure(machine)
        recorders = device.run_batch(lane_streams, position_limit=limit)
        got = [(r.total_reports, dict(r.reports_per_cycle),
                sorted(e.key() for e in r.events)) for r in recorders]
        assert got == expected
        # The batched path must not disturb the device's streaming state.
        assert device.global_cycle == 0

    def test_device_batch_events_in_cycle_order(self, rate):
        # Unlike the archive-reconstruction path, batched lanes decode
        # reports inline, so each lane's events arrive in cycle order.
        machine = to_rate(compile_ruleset(["abc"]), rate)
        vectors, limit = stream_for(machine, b"xxabcxxabcxx")
        device = SunderDevice(
            SunderConfig(rate_nibbles=rate, report_bits=16),
            fidelity="packed")
        device.configure(machine)
        [recorder] = device.run_batch([vectors], position_limit=limit)
        cycles = [event.cycle for event in recorder.events]
        assert cycles == sorted(cycles)
        assert recorder.total_reports == 2


class TestDeviceBatchEdges:
    def test_literal_fidelity_rejected(self):
        machine = to_rate(compile_ruleset(["ab"]), 4)
        device = SunderDevice(
            SunderConfig(rate_nibbles=4, report_bits=16),
            fidelity="literal")
        device.configure(machine)
        with pytest.raises(ArchitectureError):
            device.run_batch([[(0, 0, 0, 0)]])

    def test_unconfigured_device_rejected(self):
        device = SunderDevice(SunderConfig(rate_nibbles=4, report_bits=16))
        with pytest.raises(ArchitectureError):
            device.run_batch([[(0, 0, 0, 0)]])


class TestDepthBound:
    def test_linear_chain(self):
        machine = compile_ruleset(["abcd"])
        assert machine.depth_bound() == 3

    def test_cyclic_is_none(self):
        machine = compile_ruleset(["a(bc)+d"])
        assert machine.depth_bound() is None

    def test_self_loop_is_none(self, rng):
        machine = random_automaton(rng, n_states=3, edge_density=0.0)
        first = next(iter(machine.states()))
        machine.add_transition(first.id, first.id)
        assert machine.depth_bound() is None

    def test_empty_automaton(self):
        from repro.automata import Automaton
        machine = Automaton(name="empty", bits=8)
        assert machine.depth_bound() == 0


class TestStageKeysAndCache:
    def test_batch_and_shards_salt_simulate_keys(self):
        from repro.exec import ExecutionPlan
        from repro.experiments import table1
        from repro.runtime import StageGraph

        def sim_key(**fields):
            graph = StageGraph()
            table1.define(graph, 0.002, 0, ["Snort"],
                          plan=ExecutionPlan(**fields))
            [sim] = [task for task in graph.order
                     if task.stage.name == "simulate8"]
            return sim.key

        graph = StageGraph()
        table1.define(graph, 0.002, 0, ["Snort"])
        [plain] = [task.key for task in graph.order
                   if task.stage.name == "simulate8"]
        assert sim_key(batch=1, shards=1) == plain  # pre-change key shape
        keys = {plain, sim_key(batch=4), sim_key(batch=8), sim_key(shards=3),
                sim_key(shards=4)}
        assert len(keys) == 5

    def test_warm_store_hits_for_same_batch_params(self, tmp_path):
        from repro import obs
        from repro.exec import ExecutionPlan
        from repro.experiments import table1
        from repro.runtime import Runtime, StageGraph
        from repro.runtime import store as runtime_store

        def run_simulate(batch):
            graph = StageGraph()
            table1.define(graph, 0.002, 0, ["Snort"],
                          plan=ExecutionPlan(batch=batch))
            [sim] = [task for task in graph.order
                     if task.stage.name == "simulate8"]
            results = Runtime().execute(graph, targets=[sim])
            return results[sim]

        store_dir = str(tmp_path / "artifacts")
        try:
            runtime_store.configure(directory=store_dir)
            cold = run_simulate(batch=4)
            # Fresh store on the same directory drops the memory tier:
            # the warm run is served purely by on-disk artifacts.
            runtime_store.configure(directory=store_dir)
            registry = obs.MetricsRegistry()
            with obs.collecting(registry=registry):
                warm = run_simulate(batch=4)
                different = run_simulate(batch=8)
        finally:
            runtime_store.configure()
        assert warm.recorder.to_payload() == cold.recorder.to_payload()
        assert different.recorder.to_payload() == cold.recorder.to_payload()
        misses = registry.get("repro_runtime_stage_misses_total")
        hits = registry.get("repro_runtime_stage_hits_total")
        # Same batch param: pure hit.  Different batch param: new key,
        # so it executes (a miss) even on the warm store.
        assert hits.labels(stage="simulate8").value == 1
        assert misses.labels(stage="simulate8").value == 1

    def test_experiment_rows_identical_across_strategies(self):
        from repro.exec import ExecutionPlan
        from repro.experiments import table1
        plain = table1.run(scale=0.002, seed=0, names=["Snort", "SPM"])
        batched = table1.run(scale=0.002, seed=0, names=["Snort", "SPM"],
                             plan=ExecutionPlan(batch=4))
        sharded = table1.run(scale=0.002, seed=0, names=["Snort", "SPM"],
                             plan=ExecutionPlan(shards=3))
        assert plain == batched == sharded
