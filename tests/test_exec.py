"""Differential suite for the unified execution-plan layer.

The layer's contract is that nothing new executes: a planned
``Session.execute`` call dispatches to exactly the run variants PRs 5-8
already proved bit-exact, so its results must equal every direct
variant call — engine serial/sharded/interleaved/batched/gated and
device packed/literal/gated — across the prefilter suite's regex
families and rates 1/2/4.  On top of that sit the plan's error
matrix (bad values, contradictory combinations, trait-dependent
rejections), canonical serialization, trait memoization, and the
planner property that its output is always executable.
"""

import json
import random

import pytest

from conftest import random_automaton
from repro import cli
from repro.automata import Automaton
from repro.core import SunderConfig, SunderDevice
from repro.errors import ArchitectureError
from repro.exec import (DEFAULT_PLAN, PLAN_FORMAT, PLAN_VERSION,
                        ExecutionPlan, Planner, Session, automaton_traits,
                        resolve_plan)
from repro.exec import planner as planner_module
from repro.exec import session as session_module
from repro.exec import traits as traits_module
from repro.prefilter import build_prefilter, gated_device_run, gated_simulation
from repro.regex import compile_pattern, compile_ruleset
from repro.sim import BitsetEngine, stream_for
from repro.sim.engine import AUTO_SHARD_MIN_CYCLES
from repro.sim.reports import ReportRecorder
from repro.transform import to_rate
from test_prefilter import (ALPHABET, FILTERABLE_FAMILIES, RATES,
                            UNFILTERABLE_FAMILIES, _streams)

ALL_FAMILIES = dict(FILTERABLE_FAMILIES)
ALL_FAMILIES.update(UNFILTERABLE_FAMILIES)


def _events(recorder):
    return [(e.position, e.cycle, e.state_id, e.report_code)
            for e in recorder.events]


def _sorted_events(recorder):
    return sorted(_events(recorder))


def _recorder_for(machine, data):
    _, limit = stream_for(machine, data)
    return ReportRecorder(position_limit=limit)


# ---------------------------------------------------------------------------
# Differential: Session.execute vs every direct engine run variant
# ---------------------------------------------------------------------------
class TestSessionEngineDifferential:

    @pytest.mark.parametrize("family", sorted(ALL_FAMILIES))
    def test_planned_session_matches_direct_variants(self, family):
        rules = ALL_FAMILIES[family]
        rng = random.Random(40 + len(family))
        streams = _streams(rules, rng)
        for rate in RATES:
            source = compile_ruleset(rules)
            machine = source if rate == 1 else to_rate(source, rate)
            traits = automaton_traits(machine)
            for data in streams:
                vectors, limit = stream_for(machine, data)
                engine = BitsetEngine(machine)

                # serial
                baseline = _recorder_for(machine, data)
                engine.run(vectors, baseline)
                session = Session(machine, ExecutionPlan(), source=source)
                got = session.execute([data])
                assert len(got) == 1
                assert _events(got[0]) == _events(baseline), (
                    family, rate, "serial")

                # multi-stream batch
                recorders = [_recorder_for(machine, d) for d in streams]
                engine.run_batch([stream_for(machine, d)[0]
                                  for d in streams], recorders)
                got = Session(machine, ExecutionPlan(),
                              source=source).execute(streams)
                assert [_events(r) for r in got] \
                    == [_events(r) for r in recorders], (
                        family, rate, "batch")

                # sharded + interleaved lanes (acyclic machines only:
                # validate_for rejects explicit counts on cyclic ones)
                if traits.depth_bound is not None:
                    direct = _recorder_for(machine, data)
                    engine.run_sharded(vectors, 3, direct, interleave=False)
                    got = Session(machine, ExecutionPlan(shards=3),
                                  source=source).execute([data])
                    assert _events(got[0]) == _events(direct), (
                        family, rate, "sharded")

                    direct = _recorder_for(machine, data)
                    engine.run_sharded(vectors, 3, direct, interleave=True)
                    got = Session(machine, ExecutionPlan(batch=3),
                                  source=source).execute([data])
                    assert _events(got[0]) == _events(direct), (
                        family, rate, "interleaved")

                # prefilter-gated (bit-exact whether the gate engages
                # or bypasses; unfilterable families take the bypass)
                direct = _recorder_for(machine, data)
                gated_simulation(machine, data, direct, source=source,
                                 prefilter=build_prefilter(source))
                got = Session(machine, ExecutionPlan(prefilter=True),
                              source=source).execute([data])
                assert _sorted_events(got[0]) == _sorted_events(direct), (
                    family, rate, "gated")

    def test_session_reuses_one_engine_across_calls(self):
        machine = compile_ruleset(["abc", "needle"])
        session = Session(machine, DEFAULT_PLAN)
        session.execute([b"xxabcxx"])
        engine = session._engine
        session.execute([b"needle soup"])
        assert session._engine is engine

    def test_auto_planned_session_matches_serial(self):
        machine = compile_ruleset(["a.*b"])  # cyclic -> serial plan
        data = b"xa yyy b zzz ab"
        vectors, _ = stream_for(machine, data)
        baseline = _recorder_for(machine, data)
        BitsetEngine(machine).run(vectors, baseline)
        session = Session(machine)
        got = session.execute([data])
        assert _events(got[0]) == _events(baseline)
        assert session.plan is not None  # bound on first execute
        assert session.plan.strategy == "serial"


# ---------------------------------------------------------------------------
# Differential: Session.execute vs every direct device run variant
# ---------------------------------------------------------------------------
class TestSessionDeviceDifferential:

    @pytest.mark.parametrize("family", sorted(ALL_FAMILIES))
    def test_planned_session_matches_direct_variants(self, family):
        rules = ALL_FAMILIES[family]
        rng = random.Random(80 + len(family))
        streams = _streams(rules, rng, length=160)
        for rate in RATES:
            source = compile_ruleset(rules)
            machine = to_rate(source, rate)
            config = SunderConfig(rate_nibbles=rate)

            # packed batch (the device's only multi-stream path)
            device = SunderDevice(config, fidelity="packed")
            device.configure(machine)
            recorders = [_recorder_for(machine, d) for d in streams]
            device.run_batch([stream_for(machine, d)[0] for d in streams],
                             recorders=recorders)
            got = Session(machine, ExecutionPlan(target="device"),
                          source=source, config=config).execute(streams)
            assert [_events(r) for r in got] \
                == [_events(r) for r in recorders], (family, rate, "packed")

            # literal oracle, one fresh device per stream
            data = streams[1]
            vectors, limit = stream_for(machine, data)
            device = SunderDevice(config, fidelity="literal")
            device.configure(machine)
            direct = device.run(vectors, position_limit=limit).reports()
            got = Session(machine,
                          ExecutionPlan(target="device", fidelity="literal"),
                          source=source, config=config).execute([data])
            assert _events(got[0]) == _events(direct), (family, rate,
                                                        "literal")

            # prefilter-gated device run
            device = SunderDevice(config, fidelity="packed")
            device.configure(machine)
            prefilter = build_prefilter(source)
            direct = gated_device_run(device, machine, data, source=source,
                                      prefilter=prefilter)
            got = Session(machine,
                          ExecutionPlan(target="device", prefilter=True),
                          source=source, config=config).execute([data])
            assert _sorted_events(got[0]) == _sorted_events(direct), (
                family, rate, "gated")

    def test_literal_sessions_are_isolated_across_calls(self):
        source = compile_ruleset(["abc"])
        machine = to_rate(source, 2)
        config = SunderConfig(rate_nibbles=2)
        session = Session(machine,
                          ExecutionPlan(target="device", fidelity="literal"),
                          source=source, config=config)
        first = session.execute([b"xxabc"])
        second = session.execute([b"xxabc"])
        assert _events(first[0]) == _events(second[0])


# ---------------------------------------------------------------------------
# Plan error matrix: values, combinations, trait-dependent rules
# ---------------------------------------------------------------------------
class TestPlanValidation:

    @pytest.mark.parametrize("fields", [
        {"target": "gpu"},
        {"target": None},
        {"fidelity": "exact"},
        {"fidelity": None},
        {"batch": 0},
        {"batch": True},
        {"batch": 2.0},
        {"shards": 0},
        {"shards": "turbo"},
        {"shards": False},
        {"prefilter": 1},
        {"fidelity": "auto"},               # not an alias of "packed"
        {"prefilter": "yes"},
        {"shards": 2.5},
        {"shards": -1},
        {"target": "Engine"},
    ])
    def test_bad_values_raise_value_error(self, fields):
        with pytest.raises(ValueError):
            ExecutionPlan(**fields)

    @pytest.mark.parametrize("fields", [
        {"prefilter": True, "fidelity": "literal"},
        {"prefilter": True, "shards": 4},
        {"prefilter": True, "shards": "auto"},
        {"prefilter": True, "batch": 4},
        {"shards": 4, "batch": 4},
        {"shards": "auto", "batch": 2},
        {"target": "device", "shards": 4},
        {"target": "device", "shards": "auto"},
        {"target": "device", "batch": 4},
    ])
    def test_contradictory_combinations_raise(self, fields):
        with pytest.raises(ArchitectureError):
            ExecutionPlan(**fields)

    def test_error_messages_name_the_conflict(self):
        with pytest.raises(ArchitectureError, match="packed fidelity"):
            ExecutionPlan(prefilter=True, fidelity="literal")
        with pytest.raises(ArchitectureError, match="replay windows"):
            ExecutionPlan(prefilter=True, shards=4)
        with pytest.raises(ArchitectureError, match="competing"):
            ExecutionPlan(shards=2, batch=2)
        with pytest.raises(ValueError, match="hotcold_coverage"):
            ExecutionPlan.from_payload(
                {"prefilter": True, "hotcold_coverage": 0.9})
        with pytest.raises(ValueError, match="'literal', 'packed'"):
            ExecutionPlan(fidelity="auto")

    def test_validate_for_rejects_explicit_split_on_cyclic(self):
        cyclic = automaton_traits(compile_pattern("a.*b"))
        assert cyclic.depth_bound is None and cyclic.cyclic
        with pytest.raises(ArchitectureError, match="cyclic"):
            ExecutionPlan(shards=4).validate_for(cyclic)
        with pytest.raises(ArchitectureError, match="cyclic"):
            ExecutionPlan(batch=4).validate_for(cyclic)
        # "auto" stays valid: the engine itself falls back to serial
        plan = ExecutionPlan(shards="auto")
        assert plan.validate_for(cyclic) is plan

    def test_validate_for_accepts_split_on_acyclic(self):
        acyclic = automaton_traits(compile_pattern("abc"))
        assert acyclic.depth_bound is not None
        plan = ExecutionPlan(shards=4)
        assert plan.validate_for(acyclic) is plan

    def test_session_rejects_non_plan_values(self):
        machine = compile_pattern("abc")
        with pytest.raises(ValueError, match="ExecutionPlan"):
            Session(machine, plan={"shards": 4})

    def test_session_validates_plan_against_traits(self):
        with pytest.raises(ArchitectureError, match="cyclic"):
            Session(compile_pattern("a.*b"), ExecutionPlan(shards=4))


# ---------------------------------------------------------------------------
# Canonical serialization and the key-salting rule
# ---------------------------------------------------------------------------
class TestPlanSerialization:

    def test_default_plan_param_payload_is_empty(self):
        assert DEFAULT_PLAN.param_payload() == {}
        assert DEFAULT_PLAN.is_default

    def test_param_payload_carries_only_non_defaults_plus_version(self):
        plan = ExecutionPlan(shards="auto", fidelity="literal")
        assert plan.param_payload() == {
            "fidelity": "literal", "shards": "auto", "v": PLAN_VERSION}
        assert ExecutionPlan(fidelity="packed").param_payload() == {}
        # Unchanged since the plan lost its kernel/batch_layout/step_cache
        # fields, so salted artifact keys of existing plans stay valid.
        assert ExecutionPlan(prefilter=True).param_payload() == {
            "prefilter": True, "v": 1}

    def test_full_round_trip(self):
        plan = ExecutionPlan(target="device", fidelity="packed",
                             prefilter=True)
        assert ExecutionPlan.from_payload(plan.to_payload()) == plan
        assert ExecutionPlan.loads(plan.dumps()) == plan
        assert ExecutionPlan.from_payload(plan.param_payload()) == plan

    def test_payload_envelope_is_versioned(self):
        payload = DEFAULT_PLAN.to_payload()
        assert payload["format"] == PLAN_FORMAT
        assert payload["version"] == PLAN_VERSION

    @pytest.mark.parametrize("payload", [
        {"format": "not-a-plan", "version": 1},
        {"format": "repro-exec-plan", "version": 99},
        {"v": 99, "shards": 2},
        {"sharrds": 2, "v": 1},
        "not json {",
        17,
        # Fields a plan no longer has are rejected, not ignored.
        {"kernel": "scan", "v": 1},
        {"batch_layout": "wide", "v": 1},
        {"format": "repro-exec-plan", "version": 1, "step_cache": 512},
    ])
    def test_malformed_payloads_raise_value_error(self, payload):
        with pytest.raises(ValueError):
            if isinstance(payload, str):
                ExecutionPlan.loads(payload)
            else:
                ExecutionPlan.from_payload(payload)

    def test_cli_rejects_removed_plan_fields(self):
        document = json.dumps({"kernel": "scan", "v": PLAN_VERSION})
        with pytest.raises(SystemExit, match="--plan: unknown plan field"):
            cli.main(["--plan", document, "experiment", "table1"])

    def test_cli_rejects_removed_plan_values(self):
        document = json.dumps({"fidelity": "auto"})
        with pytest.raises(SystemExit,
                           match="--plan: .*'literal', 'packed'"):
            cli.main(["--plan", document, "match", "ab", "--text", "xab"])
        document = json.dumps({"prefilter": True, "hotcold_coverage": 0.9})
        with pytest.raises(SystemExit, match="--plan: .*hotcold_coverage"):
            cli.main(["--plan", document, "match", "ab", "--text", "xab"])

    def test_resolve_plan_coercions(self):
        assert resolve_plan(None) is None
        assert resolve_plan("auto") is None
        plan = ExecutionPlan(batch=2)
        assert resolve_plan(plan) is plan
        assert resolve_plan(plan.param_payload()) == plan
        assert resolve_plan(plan.dumps()) == plan
        with pytest.raises(ValueError):
            resolve_plan(3.5)

    def test_reasons_are_advisory_and_never_serialized(self):
        plan = ExecutionPlan(shards=2, reasons=[
            {"choice": "strategy", "value": "sharded", "reason": "test"}])
        assert plan.reasons
        assert "reasons" not in plan.to_payload()
        assert ExecutionPlan.from_payload(plan.to_payload()) == plan

    def test_equality_and_hash_over_fields(self):
        assert ExecutionPlan(batch=2) == ExecutionPlan(batch=2)
        assert ExecutionPlan(batch=2) != ExecutionPlan(batch=3)
        assert hash(ExecutionPlan()) == hash(DEFAULT_PLAN)
        assert "default" in repr(ExecutionPlan())
        assert "batch=2" in repr(ExecutionPlan(batch=2))


# ---------------------------------------------------------------------------
# Traits: memoized automaton analyses
# ---------------------------------------------------------------------------
class TestTraits:

    def test_traits_capture_the_planner_inputs(self):
        machine = compile_ruleset(["abc", "needle"])
        traits = automaton_traits(machine)
        assert traits.state_count == len(machine)
        assert traits.depth_bound == machine.depth_bound()
        assert not traits.cyclic
        assert traits.filterable and traits.literal_count >= 2

    def test_cyclic_unfilterable_traits(self):
        traits = automaton_traits(compile_pattern("a.*b"))
        assert traits.cyclic and traits.depth_bound is None
        assert not traits.filterable
        assert traits.reason

    def test_traits_are_memoized_per_machine(self):
        machine = compile_pattern("abc")
        assert automaton_traits(machine) is automaton_traits(machine)


class TestTraitsOnDemand:
    """A session computes traits only when it plans or splits a stream."""

    DATA = b"xxabcxxneedlexxabc"

    def _machines(self):
        source = compile_ruleset(["abc", "needle"])
        return source, to_rate(source, 4)

    def _count(self, monkeypatch, refuse=False):
        calls = []

        def traits(machine):
            calls.append(machine)
            if refuse:
                raise AssertionError("traits computed for %r" % machine.name)
            return automaton_traits(machine)

        for module in (session_module, planner_module, traits_module):
            monkeypatch.setattr(module, "automaton_traits", traits)
        if refuse:
            def no_fingerprint(machine):
                raise AssertionError("fingerprinted %r" % machine.name)
            monkeypatch.setattr(Automaton, "fingerprint", no_fingerprint)
        return calls

    def test_explicit_serial_plan_computes_none(self, monkeypatch):
        machines = self._machines()
        expected = []
        for machine in machines:
            vectors, limit = stream_for(machine, self.DATA)
            recorder = ReportRecorder(position_limit=limit)
            expected.append(_events(BitsetEngine(machine).run(vectors,
                                                              recorder)))
        self._count(monkeypatch, refuse=True)
        for machine, events in zip(machines, expected):
            got = Session(machine, ExecutionPlan()).execute([self.DATA])
            assert _events(got[0]) == events and events

    def test_plan_free_session_computes_traits(self, monkeypatch):
        source, _ = self._machines()
        calls = self._count(monkeypatch)
        session = Session(source)
        assert calls == []
        session.execute([self.DATA])
        assert calls and all(machine is source for machine in calls)

    def test_split_stream_plan_computes_traits_at_construction(
            self, monkeypatch):
        source, _ = self._machines()
        calls = self._count(monkeypatch)
        Session(source, ExecutionPlan(shards=2))
        assert calls == [source]
        Session(source, ExecutionPlan(batch=2))
        assert calls == [source, source]
        Session(source, ExecutionPlan(shards="auto"))
        assert calls == [source, source]

    def test_splits_stream(self):
        assert ExecutionPlan(shards=2).splits_stream
        assert ExecutionPlan(batch=2).splits_stream
        for plan in (ExecutionPlan(), ExecutionPlan(shards="auto"),
                     ExecutionPlan(prefilter=True),
                     ExecutionPlan(target="device")):
            assert not plan.splits_stream


# ---------------------------------------------------------------------------
# Planner: decisions carry reasons; output is always executable
# ---------------------------------------------------------------------------
class TestPlanner:

    def test_filterable_acyclic_gets_the_gate(self):
        plan, choices = Planner().explain(compile_ruleset(["abc", "hello"]))
        assert plan.prefilter and plan.strategy == "gated"
        assert choices[0] == {"choice": "strategy", "value": "gated",
                              "reason": "filterable-acyclic"}
        assert plan.reasons == choices

    def test_cyclic_machine_stays_serial(self):
        plan, choices = Planner().explain(compile_pattern("a.*b"))
        assert plan.strategy == "serial"
        assert choices[0]["reason"] == "cyclic"

    def test_long_acyclic_unfilterable_stream_stays_serial(self):
        """The planner never shards one stream: without a process pool
        the blocks only add warm-up replays.  A plan-free session binds
        the default plan even past the engine's auto-shard threshold."""
        machine = compile_pattern("a.c")
        data = b"xaxcabc" * (AUTO_SHARD_MIN_CYCLES // 7 + 1)
        assert len(data) >= AUTO_SHARD_MIN_CYCLES
        session = Session(machine)
        [result] = session.execute([data])
        assert session.plan == DEFAULT_PLAN
        assert session.plan.reasons[0] == {
            "choice": "strategy", "value": "serial", "reason": "unfilterable"}
        baseline = _recorder_for(machine, data)
        BitsetEngine(machine).run(stream_for(machine, data)[0], baseline)
        assert _sorted_events(result) == _sorted_events(baseline)

    def test_multi_stream_batches(self):
        _, choices = Planner().explain(compile_pattern("a.c"),
                                       stream_count=4)
        assert choices[0]["value"] == "batch"
        assert choices[0]["reason"] == "multi-stream"

    def test_bad_planner_inputs(self):
        with pytest.raises(ValueError):
            Planner(target="gpu")
        with pytest.raises(ValueError):
            Planner().plan(compile_pattern("abc"), stream_count=0)

    def test_planner_output_is_always_executable(self, rng):
        """Property: over random machines and shapes, the planner never
        emits a plan that validate_for or Session.execute rejects."""
        checked = 0
        for index in range(60):
            if checked >= 40:
                break
            machine = random_automaton(
                rng, n_states=rng.randint(3, 10),
                edge_density=rng.choice([0.05, 0.15, 0.35]),
                report_fraction=0.5)
            if not len(machine):
                continue
            traits = automaton_traits(machine)
            stream_count = rng.choice([1, 1, 3])
            plan = Planner().plan(machine, stream_count=stream_count)
            plan.validate_for(traits)
            data = bytes(rng.randrange(256) for _ in range(60))
            streams = [data] * stream_count
            results = Session(machine, plan).execute(streams)
            assert len(results) == stream_count
            baseline = _recorder_for(machine, data)
            BitsetEngine(machine).run(stream_for(machine, data)[0], baseline)
            assert _sorted_events(results[0]) == _sorted_events(baseline)
            checked += 1
        assert checked >= 40  # the property must actually exercise


# ---------------------------------------------------------------------------
# Stage plumbing: the plan param salts keys only when non-default
# ---------------------------------------------------------------------------
class TestStagePlumbing:

    def test_stage_plan_prefers_the_plan_param(self):
        from repro.runtime.stages import _stage_plan
        plan = ExecutionPlan(shards="auto", prefilter=False)
        assert _stage_plan({"plan": plan.param_payload()}) == plan
        assert _stage_plan({}) == DEFAULT_PLAN
        gated = ExecutionPlan(prefilter=True)
        assert _stage_plan({"plan": gated.param_payload()}) == gated

    def test_default_plan_keeps_simulation_params_unchanged(self):
        from repro.experiments.table1 import simulation_params
        base = {"name": "Snort"}
        assert simulation_params(base) == base
        assert simulation_params(base, plan=DEFAULT_PLAN) == base
        salted = simulation_params(base, plan=ExecutionPlan(shards="auto"))
        assert salted["plan"] == {"shards": "auto", "v": PLAN_VERSION}
        packed = simulation_params(base, plan=ExecutionPlan(fidelity="packed"))
        assert packed == base

    @pytest.mark.parametrize("fields", [
        {"target": "device"},
        {"fidelity": "literal"},
        {"target": "device", "fidelity": "literal"},
    ])
    def test_simulation_params_reject_fields_the_stages_ignore(self, fields):
        """The simulate stages run on the engine: a device target or the
        literal fidelity would re-key byte-identical rows, so it fails."""
        from repro.experiments import table1, table4
        from repro.runtime import StageGraph
        plan = ExecutionPlan(**fields)
        with pytest.raises(ArchitectureError, match="functional engine"):
            table1.simulation_params({"name": "Snort"}, plan)
        with pytest.raises(ArchitectureError, match="functional engine"):
            table4.define(StageGraph(), 0.002, 0, ["Snort"], 4, plan=plan)

    def test_cli_experiment_rejects_a_device_plan(self, capsys):
        document = json.dumps({"target": "device"})
        assert cli.main(["--plan", document, "experiment", "table1",
                         "--scale", "0.002"]) == 2
        assert "error: the simulate stages run on the functional engine" \
            in capsys.readouterr().err
