"""Tests for the execution-plan layer: plan, planner, session.

The plan space is target x fidelity, small enough to enumerate: one
property test runs every plan through ``Session.execute`` on random
machines and streams and checks each stream's reports against the
:class:`~repro.sim.engine.NaiveEngine` oracle.  Around it sit the
session's mechanisms (engine reuse, literal-device isolation, nothing
computed before the first run), the plan's value checks and canonical
serialization, and the planner's reasons.
"""

import json
import random
from collections import Counter

import pytest

from conftest import random_automaton
from repro import cli
from repro.automata import Automaton
from repro.automata.indexed import IndexedAutomaton
from repro.core.packed import FIDELITIES
from repro.exec import (DEFAULT_PLAN, PLAN_FORMAT, PLAN_VERSION, TARGETS,
                        ExecutionPlan, Planner, Session, resolve_plan)
from repro.regex import compile_pattern, compile_ruleset
from repro.sim import BitsetEngine, NaiveEngine, stream_for
from repro.sim.reports import ReportRecorder
from repro.transform import to_rate

RATES = (1, 2, 4)
#: The whole plan space.
PLANS = [ExecutionPlan(target=target, fidelity=fidelity)
         for target in TARGETS for fidelity in FIDELITIES]


def _events(recorder):
    return [(e.position, e.cycle, e.state_id, e.report_code)
            for e in recorder.events]


def _sorted_events(recorder):
    return sorted(_events(recorder))


def _recorder_for(machine, data):
    _, limit = stream_for(machine, data)
    return ReportRecorder(position_limit=limit)


def _symbol_stream(rng, machine, length):
    """Bytes that walk the machine's edges from its start states, with
    some noise, so runs reach its reporting states."""
    starts = [state.id for state in machine.start_states()]
    data = []
    state_id = None
    while len(data) < length:
        if state_id is None or rng.random() < 0.1:
            state_id = rng.choice(starts)
        if rng.random() < 0.1:
            data.append(rng.randrange(256))
            continue
        data.append(rng.choice(list(machine.state(state_id).symbols[0])))
        successors = sorted(machine.successors(state_id))
        state_id = rng.choice(successors) if successors else None
    return bytes(data)


# ---------------------------------------------------------------------------
# Property: every plan agrees with the NaiveEngine oracle
# ---------------------------------------------------------------------------
class TestPlanSpace:

    @pytest.mark.parametrize("seed", range(8))
    def test_every_plan_matches_the_oracle(self, seed):
        """Each (target, fidelity) plan, over one stream and over three,
        gives every stream NaiveEngine's report multiset and position
        limit: engine plans on the 8-bit machine and its rate-1/2/4
        transforms, device plans on the transforms."""
        rng = random.Random(seed)
        source = None
        while source is None or not source.report_states():
            # A narrow alphabet keeps the rate-4 machines placeable on
            # the default device configuration.
            source = random_automaton(rng, n_states=rng.randint(3, 6),
                                      edge_density=rng.choice([0.25, 0.4]),
                                      report_fraction=0.4,
                                      alphabet=b"abcdwxyz")
        streams = [_symbol_stream(rng, source, rng.randint(0, 40))
                   for _ in range(3)]
        reported = 0
        for machine in [source] + [to_rate(source, rate) for rate in RATES]:
            expected = []
            for data in streams:
                vectors, limit = stream_for(machine, data)
                oracle = NaiveEngine(machine).run(vectors,
                                                  position_limit=limit)
                expected.append((Counter(_events(oracle)), limit))
                reported += oracle.total_reports
            for plan in PLANS:
                if plan.target == "device" and machine.bits != 4:
                    continue
                for count in (1, 3):
                    got = Session(machine, plan).execute(streams[:count])
                    assert len(got) == count
                    for index, (recorder, (events, limit)) in enumerate(
                            zip(got, expected)):
                        where = (seed, machine.bits, machine.arity, plan,
                                 count, index)
                        assert recorder.position_limit == limit, where
                        assert Counter(_events(recorder)) == events, where
        assert reported  # the property must actually compare reports


# ---------------------------------------------------------------------------
# Session mechanisms
# ---------------------------------------------------------------------------
class TestSessionMechanisms:

    def test_session_reuses_one_engine_across_calls(self):
        machine = compile_ruleset(["abc", "needle"])
        session = Session(machine, DEFAULT_PLAN)
        session.execute([b"xxabcxx"])
        engine = session._engine
        session.execute([b"needle soup"])
        assert session._engine is engine

    def test_literal_sessions_are_isolated_across_calls(self):
        machine = to_rate(compile_ruleset(["abc"]), 2)
        session = Session(machine,
                          ExecutionPlan(target="device", fidelity="literal"))
        first = session.execute([b"xxabc"])
        second = session.execute([b"xxabc"])
        assert _events(first[0]) == _events(second[0])

    def test_auto_planned_session_matches_serial(self):
        machine = compile_ruleset(["a.*b"])
        data = b"xa yyy b zzz ab"
        vectors, _ = stream_for(machine, data)
        baseline = _recorder_for(machine, data)
        BitsetEngine(machine).run(vectors, baseline)
        session = Session(machine)
        got = session.execute([data])
        assert _events(got[0]) == _events(baseline)
        assert session.plan == DEFAULT_PLAN  # bound on first execute
        assert session.plan.reasons[0] == {
            "choice": "strategy", "value": "serial",
            "reason": "single-stream"}

    def test_sessions_never_fingerprint_or_index(self, monkeypatch):
        """A session computes nothing about its machine beyond the run:
        explicit and planned sessions neither fingerprint nor index it."""
        source = compile_ruleset(["abc", "needle"])
        machine = to_rate(source, 4)
        data = b"xxabcxxneedlexxabc"
        expected = {}
        for target in (source, machine):
            vectors, limit = stream_for(target, data)
            recorder = ReportRecorder(position_limit=limit)
            expected[target] = _events(BitsetEngine(target).run(vectors,
                                                                recorder))

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError("%s called" % name)
            return call

        monkeypatch.setattr(Automaton, "fingerprint", refuse("fingerprint"))
        monkeypatch.setattr(IndexedAutomaton, "from_automaton",
                            classmethod(refuse("from_automaton")))
        for target, events in expected.items():
            for session in (Session(target, ExecutionPlan()),
                            Session(target)):
                assert _events(session.execute([data])[0]) == events
                assert events
        got = Session(machine, planner=Planner(target="device")).execute(
            [data, data])
        assert [_sorted_events(r) for r in got] == [
            sorted(expected[machine])] * 2


# ---------------------------------------------------------------------------
# Plan values
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
        """A bad target or fidelity, and any value of a field the plan
        no longer has, fail at the payload boundary."""
        with pytest.raises(ValueError):
            ExecutionPlan.from_payload(fields)

    def test_error_messages_name_the_conflict(self):
        for field, value in (("batch", 4), ("shards", "auto"),
                             ("prefilter", True)):
            with pytest.raises(ValueError,
                               match="unknown plan field.*%s" % field):
                ExecutionPlan.from_payload({field: value, "v": 1})
        with pytest.raises(ValueError, match="hotcold_coverage"):
            ExecutionPlan.from_payload(
                {"target": "device", "hotcold_coverage": 0.9})
        with pytest.raises(ValueError, match="'literal', 'packed'"):
            ExecutionPlan(fidelity="auto")

    def test_session_rejects_non_plan_values(self):
        machine = compile_pattern("abc")
        with pytest.raises(ValueError, match="ExecutionPlan"):
            Session(machine, plan={"target": "device"})


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------
class TestPlanSerialization:

    def test_full_round_trip(self):
        plan = ExecutionPlan(target="device", fidelity="literal")
        assert ExecutionPlan.from_payload(plan.to_payload()) == plan
        assert ExecutionPlan.loads(plan.dumps()) == plan
        assert ExecutionPlan.from_payload(
            {"target": "device", "fidelity": "literal"}) == plan

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
        for field, value in (("kernel", "scan"), ("batch", 4),
                             ("shards", 2), ("prefilter", True)):
            document = json.dumps({"target": "device", field: value,
                                   "v": PLAN_VERSION})
            with pytest.raises(SystemExit,
                               match="--plan: unknown plan field.*" + field):
                cli.main(["--plan", document, "match", "ab", "--text", "xab"])

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
        plan = ExecutionPlan(fidelity="literal")
        assert resolve_plan(plan) is plan
        assert resolve_plan(plan.to_payload()) == plan
        assert resolve_plan(plan.dumps()) == plan
        with pytest.raises(ValueError):
            resolve_plan(3.5)

    def test_reasons_are_advisory_and_never_serialized(self):
        plan = ExecutionPlan(target="device", reasons=[
            {"choice": "strategy", "value": "batch", "reason": "test"}])
        assert plan.reasons
        assert "reasons" not in plan.to_payload()
        assert ExecutionPlan.from_payload(plan.to_payload()) == plan

    def test_equality_and_hash_over_fields(self):
        literal = ExecutionPlan(fidelity="literal")
        assert literal == ExecutionPlan(fidelity="literal")
        assert literal != ExecutionPlan(target="device", fidelity="literal")
        assert hash(ExecutionPlan()) == hash(DEFAULT_PLAN)
        assert "default" in repr(ExecutionPlan())
        assert "fidelity='literal'" in repr(literal)


# ---------------------------------------------------------------------------
# Planner: the stream count picks the strategy, with a reason
# ---------------------------------------------------------------------------
class TestPlanner:

    def test_cyclic_machine_stays_serial(self):
        plan, choices = Planner().explain(compile_pattern("a.*b"))
        assert plan == DEFAULT_PLAN
        assert choices == [{"choice": "strategy", "value": "serial",
                            "reason": "single-stream"}]
        assert plan.reasons == choices

    def test_multi_stream_batches(self):
        plan, choices = Planner(target="device").explain(
            compile_pattern("a.c"), stream_count=4)
        assert plan == ExecutionPlan(target="device")
        assert choices[0] == {"choice": "strategy", "value": "batch",
                              "reason": "multi-stream"}
        assert choices[1]["choice"] == "fidelity"
        assert choices[1]["value"] == "packed"

    def test_bad_planner_inputs(self):
        with pytest.raises(ValueError):
            Planner(target="gpu")
        with pytest.raises(ValueError):
            Planner().plan(compile_pattern("abc"), stream_count=0)

    def test_planner_output_is_always_executable(self, rng):
        """Property: over random machines and stream counts, a plan-free
        session executes and matches the serial run."""
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
            stream_count = rng.choice([1, 1, 3])
            data = bytes(rng.randrange(256) for _ in range(60))
            streams = [data] * stream_count
            results = Session(machine).execute(streams)
            assert len(results) == stream_count
            baseline = _recorder_for(machine, data)
            BitsetEngine(machine).run(stream_for(machine, data)[0], baseline)
            assert _sorted_events(results[0]) == _sorted_events(baseline)
            checked += 1
        assert checked >= 40  # the property must actually exercise


# ---------------------------------------------------------------------------
# Stage plumbing: the experiment stages take no plan
# ---------------------------------------------------------------------------
class TestStagePlumbing:

    def test_cli_experiment_rejects_a_device_plan(self):
        """No experiment takes a plan, whatever the document says: a plan
        before ``experiment`` exits instead of being silently dropped."""
        for document in ('{"target": "device"}', '{"target": "engine"}',
                         '{"batch": 4}'):
            with pytest.raises(SystemExit,
                               match="^--plan applies only to: match$"):
                cli.main(["--plan", document, "experiment", "table1",
                          "--scale", "0.002"])
