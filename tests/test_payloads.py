"""Indexed store payloads: exact round trips and rejected corruption.

``repro-automaton`` (:meth:`Automaton.to_payload`) and
``repro-report-stream`` (:meth:`ReportRecorder.to_payload`) write each
state id once and refer to it by index.  A decoded machine must equal its
source in ``dumps()``, ``fingerprint()``, state order and its edges, read
forward and backward.  A damaged payload must raise
:class:`AutomatonError` or :class:`ArtifactError` — never decode with an
index Python silently wrapped — and reach the store as a miss counted in
``repro_runtime_artifact_corrupt_total``.
"""

import copy
import json

import pytest

from repro import obs
from repro.automata import Automaton, StartKind, SymbolSet
from repro.errors import ArtifactError, AutomatonError
from repro.runtime import store as runtime_store
from repro.runtime.artifacts import AUTOMATON_CODEC, SIMRUN_CODEC, SimRun
from repro.runtime.store import ArtifactStore
from repro.sim import BitsetEngine
from repro.sim.reports import ReportRecorder
from repro.transform import to_rate
from repro.workloads import BENCHMARK_NAMES, generate

from test_indexed import rich_random_automaton


@pytest.fixture(autouse=True)
def fresh_store():
    runtime_store.configure()
    yield
    runtime_store.configure()


def _assert_round_trip(machine):
    text = machine.dumps()
    decoded = Automaton.loads(text)
    assert decoded.dumps() == text
    assert decoded.fingerprint() == machine.fingerprint()
    assert decoded.state_ids() == machine.state_ids()
    edges = sorted(machine.transitions())
    assert sorted(decoded.transitions()) == edges
    assert sorted((src, dst) for dst in decoded.state_ids()
                  for src in decoded.predecessors(dst)) == edges
    return decoded


class TestAutomatonRoundTrip:
    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("arity", [1, 2, 4])
    def test_random_machines(self, bits, arity):
        for seed in range(8):
            _assert_round_trip(rich_random_automaton(
                seed, bits=bits, arity=arity, start_period=1 + seed % 2,
                prune=seed % 4 != 3))

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_registry_machines(self, name):
        machine = generate(name, scale=0.002, seed=0).automaton
        for candidate in (machine, to_rate(machine, 4)):
            _assert_round_trip(candidate)

    def test_each_state_id_written_once(self):
        strided = to_rate(generate("Snort", scale=0.002, seed=0).automaton,
                          4)
        text = strided.dumps()
        assert any(strided.successors(state_id)
                   and strided.predecessors(state_id)
                   for state_id in strided.state_ids())
        for state_id in strided.state_ids():
            assert text.count(json.dumps(state_id)) == 1

    def test_empty_machine(self):
        _assert_round_trip(Automaton(name="empty", bits=4, arity=2))


def _small_machine():
    """Two states, both edge kinds, an arity-2 report with two offsets."""
    machine = Automaton(name="m", bits=4, arity=2)
    machine.new_state("a", (SymbolSet.single(4, 1), SymbolSet.full(4)),
                      start=StartKind.ALL_INPUT)
    machine.new_state("b", (SymbolSet.single(4, 2), SymbolSet.single(4, 3)),
                      report=True, report_code="r", report_offsets=(0, 1))
    machine.add_transition("a", "b")
    machine.add_transition("b", "b")
    return machine


def _set(column, index, value):
    def mutate(payload):
        payload[column][index] = value
    return mutate


def _put(column, value):
    def mutate(payload):
        payload[column] = value
    return mutate


def _automaton_v1(payload):
    payload.clear()
    payload.update({
        "format": "repro-automaton", "version": 1, "name": "m", "bits": 4,
        "arity": 1, "start_period": 1,
        "states": [["a", ["2"], "all-input", 0, None, []],
                   ["b", ["4"], "none", 1, "r", [0]]],
        "transitions": [["a", ["b"]]],
    })


#: (case, mutation of ``_small_machine().to_payload()``).
AUTOMATON_CASES = [
    ("successor past the end", _set("successors", 0, [2])),
    ("negative successor", _set("successors", 0, [-1])),
    ("successor row out of order", _set("successors", 1, [1, 0])),
    ("repeated successor in a row", _set("successors", 0, [1, 1])),
    ("symbol index past the end", _set("symbols", 1, 2)),
    ("negative symbol index", _set("symbols", 1, -1)),
    ("duplicate state id", _set("ids", 1, "a")),
    ("short symbols column", _put("symbols", [0])),
    ("long start column", _put("start", [2, 0, 0])),
    ("short successors column", _put("successors", [[1]])),
    ("report columns of unequal length", _put("report_code", [])),
    ("mask beyond the alphabet", _put("symbol_sets",
                                      [["10000", "ffff"], ["4", "8"]])),
    ("symbol set of the wrong arity", _put("symbol_sets",
                                           [["2", "ffff"], ["4"]])),
    ("unknown start kind", _set("start", 0, 3)),
    ("negative start kind", _set("start", 1, -1)),
    ("negative report index", _put("report", [-1])),
    ("repeated report index", lambda payload: payload.update(
        report=[1, 1], report_code=["r", "r"],
        report_offsets=[[0, 1], [0, 1]])),
    ("unsorted report offsets", _set("report_offsets", 0, [1, 0])),
    ("report offset beyond the arity", _set("report_offsets", 0, [2])),
    ("negative report offset", _set("report_offsets", 0, [-1, 1])),
    ("empty report offsets", _set("report_offsets", 0, [])),
    ("v1 payload", _automaton_v1),
]


def _report_stream_v1(payload):
    payload.clear()
    payload.update({
        "format": "repro-report-stream", "version": 1, "keep_events": True,
        "position_limit": None, "total_reports": 1,
        "reports_per_cycle": [[3, 1]], "events": [[3, 3, "s", "c"]],
    })


def _report_stream_v2(payload):
    payload.clear()
    payload.update({
        "format": "repro-report-stream", "version": 2, "keep_events": True,
        "position_limit": None, "total_reports": 1,
        "reports_per_cycle": [3, 1],
        "events": {"position": [3], "cycle": [3], "state": [0], "code": [0]},
        "state_ids": ["s"], "report_codes": ["c"],
    })


def _set_in(table, column, index, value):
    def mutate(payload):
        payload[table][column][index] = value
    return mutate


def _drop(table, column):
    def mutate(payload):
        payload[table][column].pop()
    return mutate


#: (case, mutation of ``_small_run().recorder.to_payload()``), whose plan
#: table holds two plans of two and one entries over states ``a``/``b``
#: and codes ``r``/``None``, at arity 2.
REPORT_STREAM_CASES = [
    ("state index past the end", _set_in("plans", "state", 0, 2)),
    ("negative state index", _set_in("plans", "state", 1, -1)),
    ("code index past the end", _set_in("plans", "code", 0, 2)),
    ("negative code index", _set_in("plans", "code", 1, -1)),
    ("plan index past the end", _set_in("rows", "plan", 0, 2)),
    ("negative plan index", _set_in("rows", "plan", 1, -1)),
    ("offset past the arity", _set_in("plans", "offset", 0, 2)),
    ("negative offset", _set_in("plans", "offset", 2, -1)),
    ("short cycle column", _drop("rows", "cycle")),
    ("cycle past the column's range", _set_in("rows", "cycle", 0, 2 ** 32)),
    ("short plan column", _drop("rows", "plan")),
    ("short state column", _drop("plans", "state")),
    ("plan sizes short of the entries", _set_in("plans", "size", 0, 1)),
    ("empty plan", lambda payload: payload["plans"].update(size=[3, 0])),
    ("rows without an arity", _put("arity", None)),
    ("v1 payload", _report_stream_v1),
    ("v2 payload", _report_stream_v2),
]


def _small_run():
    recorder = ReportRecorder()
    recorder.record_cycle(4, [(0, "a", "r"), (1, "b", None)], 2)
    recorder.record_cycle(1, [(1, "a", "r")], 2)
    return SimRun(recorder, cycles=6, max_active_states=2,
                  avg_active_states=0.5)


def _assert_same_rows(decoded, recorder):
    assert decoded.position_limit == recorder.position_limit
    assert decoded.arity == recorder.arity
    assert decoded.cycles == recorder.cycles
    assert decoded.plans == recorder.plans
    assert decoded.total_reports == recorder.total_reports
    assert list(decoded.reports_per_cycle.items()) == \
        list(recorder.reports_per_cycle.items())
    assert decoded.events == recorder.events


class TestReportStreamRoundTrip:
    def test_out_of_order_cycles(self):
        recorder = _small_run().recorder
        payload = recorder.to_payload()
        assert payload["rows"] == {"cycle": [4, 1], "plan": [0, 1]}
        decoded = ReportRecorder.from_payload(json.loads(json.dumps(payload)))
        _assert_same_rows(decoded, recorder)
        assert decoded.to_payload() == payload

    def test_last_row_trimmed_by_the_limit(self):
        machine = Automaton(name="t", bits=4, arity=2)
        machine.new_state("x", (SymbolSet.full(4), SymbolSet.full(4)),
                          start=StartKind.ALL_INPUT, report=True,
                          report_code="x", report_offsets=(0, 1))
        recorder = ReportRecorder(position_limit=5)
        BitsetEngine(machine).run([(1, 2)] * 3, recorder)
        # Cycles 0 and 1 keep both offsets; cycle 2 keeps position 4 only.
        assert recorder.positions() == [0, 1, 2, 3, 4]
        assert recorder.plans[0] is recorder.plans[1]
        assert recorder.plans[2] == ((0, "x", "x"),)
        payload = recorder.to_payload()
        assert payload["rows"]["plan"] == [0, 0, 1]
        assert payload["plans"]["size"] == [2, 1]
        decoded = ReportRecorder.from_payload(json.loads(json.dumps(payload)))
        _assert_same_rows(decoded, recorder)
        assert decoded.plans[0] is decoded.plans[1]

    def test_empty_recorder(self):
        recorder = ReportRecorder(position_limit=3)
        decoded = ReportRecorder.from_payload(recorder.to_payload())
        _assert_same_rows(decoded, recorder)


def _case_ids(cases):
    return [name for name, _ in cases]


def _assert_counted_corrupt(tmp_path, key, codec, text):
    (tmp_path / (key + ".json")).write_text(text, encoding="utf-8")
    registry = obs.MetricsRegistry()
    with obs.collecting(registry=registry):
        store = ArtifactStore(directory=str(tmp_path))
        assert store.get(key, codec) is None
    assert registry.get("repro_runtime_artifact_corrupt_total").value == 1
    assert store.stats["corrupt"] == 1


class TestMalformedPayloads:
    def test_cases_start_from_valid_payloads(self):
        _assert_round_trip(_small_machine())
        text = SIMRUN_CODEC.encode(_small_run())
        assert SIMRUN_CODEC.encode(SIMRUN_CODEC.decode(text)) == text

    @pytest.mark.parametrize("case", AUTOMATON_CASES,
                             ids=_case_ids(AUTOMATON_CASES))
    def test_automaton(self, case, tmp_path):
        _, mutate = case
        payload = _small_machine().to_payload()
        mutate(payload)
        with pytest.raises(AutomatonError):
            Automaton.from_payload(copy.deepcopy(payload))
        _assert_counted_corrupt(tmp_path, "automaton-k", AUTOMATON_CODEC,
                                json.dumps(payload))

    @pytest.mark.parametrize("case", REPORT_STREAM_CASES,
                             ids=_case_ids(REPORT_STREAM_CASES))
    def test_report_stream(self, case, tmp_path):
        _, mutate = case
        payload = json.loads(SIMRUN_CODEC.encode(_small_run()))
        mutate(payload["recorder"])
        with pytest.raises(ArtifactError):
            ReportRecorder.from_payload(copy.deepcopy(payload["recorder"]))
        _assert_counted_corrupt(tmp_path, "simrun-k", SIMRUN_CODEC,
                                json.dumps(payload))
