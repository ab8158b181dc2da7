"""Reports are stored as rows: one per reporting cycle (or per reporting
PU on the device), each referring to a plan tuple shared by every row of
the same active set."""

from collections import Counter

import pytest

from repro.core import ReportingPerfModel, SunderConfig, SunderDevice
from repro.sim import BitsetEngine, NaiveEngine, stream_for
from repro.transform import to_rate
from repro.workloads import generate


@pytest.fixture(scope="module")
def spm():
    instance = generate("SPM", scale=0.002, seed=0)
    return instance, to_rate(instance.automaton, 4)


def _report_multiset(recorder):
    return Counter((event.position, event.state_id, event.report_code)
                   for event in recorder.events)


@pytest.mark.parametrize("stride", [False, True], ids=["8bit", "4nibble"])
def test_engine_writes_one_row_per_reporting_cycle(spm, stride):
    instance, strided = spm
    machine = strided if stride else instance.automaton
    vectors, limit = stream_for(machine, instance.input_bytes)
    engine = BitsetEngine(machine)
    recorder = engine.run(vectors, position_limit=limit)
    assert recorder.total_reports > 0
    assert len(recorder.cycles) == len(recorder.plans) \
        == recorder.report_cycles
    distinct = len({id(plan) for plan in recorder.plans})
    assert distinct <= len(engine._set_plans)
    assert distinct * 10 <= recorder.total_reports
    assert recorder.total_reports == sum(map(len, recorder.plans))
    naive = NaiveEngine(machine).run(vectors, position_limit=limit)
    assert _report_multiset(recorder) == _report_multiset(naive)


def test_packed_device_writes_one_row_per_reporting_pu(spm):
    instance, strided = spm
    vectors, limit = stream_for(strided, instance.input_bytes)
    device = SunderDevice(SunderConfig(rate_nibbles=4, report_bits=16),
                          fidelity="packed")
    placement = device.configure(strided)
    (recorder,) = device.run_batch([vectors], position_limit=limit)
    engine_recorder = BitsetEngine(strided).run(vectors, position_limit=limit)
    assert _report_multiset(recorder) == _report_multiset(engine_recorder)
    for plan in recorder.plans:
        assert len({placement.report_pu_of(state_id)
                    for _, state_id, _ in plan}) == 1
    assert len(recorder.cycles) > recorder.report_cycles
    assert len({id(plan) for plan in recorder.plans}) < len(recorder.plans)
    # One row per (PU, cycle) fill: exactly the region writes Table 4
    # replays, so the model pools the device's rows that share a cycle
    # into the engine's one row per cycle.
    for drain in ({"fifo": False},
                  {"fifo": True, "fifo_drain_rows_per_cycle": 0.01}):
        model = ReportingPerfModel(
            SunderConfig(rate_nibbles=4, report_bits=16, **drain))
        engine_result, device_result = [
            model.evaluate(rows, placement, len(vectors), capacity_scale=0.002)
            for rows in (engine_recorder, recorder)]
        assert vars(device_result) == vars(engine_result)
        assert engine_result.fills == len(recorder.cycles)
        assert engine_result.flushes > 0
