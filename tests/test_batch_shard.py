"""Batched multi-stream execution: mechanisms and statistics.

``Session.execute``'s plan-space property test (tests/test_exec.py)
checks batched reports against the NaiveEngine oracle.  This suite
pins what that test does not see: a batch's active-state statistics
equal the serial runs', lanes of unequal length and tiny step tables
stay bit-exact, the device's batched path leaves its streaming state
alone, and both kernels reject inconsistent calls.
"""

import random

import pytest

from conftest import budget_engine, random_automaton
from repro import obs
from repro.core import SunderConfig, SunderDevice
from repro.errors import ArchitectureError, SimulationError
from repro.regex import compile_ruleset
from repro.sim import BitsetEngine, stream_for
from repro.sim.engine import DEFAULT_STEP_CACHE
from repro.sim.reports import ReportRecorder
from repro.transform import to_rate

RULES = ["abc", "b.d", "xy+z", "hello", "[0-9]{3}", "q(rs|tu)v"]
DATA_ALPHABET = b"abcdxyz hello0123qrstuv"


def _noisy_data(rng):
    noise = bytes(rng.choice(DATA_ALPHABET) for _ in range(400))
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


def _serial_payloads(automaton, lane_streams):
    return [BitsetEngine(automaton).run(vectors).to_payload()
            for vectors in lane_streams]


def _observed_active_states(run):
    """The ``repro_engine_active_states`` histogram ``run()`` records."""
    registry = obs.MetricsRegistry()
    with obs.collecting(registry=registry):
        run()
    histogram = registry.get("repro_engine_active_states").labels(
        engine="bitset")
    return histogram.count, histogram.sum, histogram.bucket_counts()


# ``run_batch`` has one lane layout (one active int per lane); "lanes"
# names it and "auto" is the default call that reaches it.  Each id
# seeds its own random streams, so the two cases cover different data.
@pytest.mark.parametrize("rate", [1, 2, 4])
@pytest.mark.parametrize("layout", ["lanes", "auto"])
class TestEngineBatchDifferential:
    def test_batch_matches_serial_runs(self, rate, layout):
        """One observed run_batch observes the same per-cycle
        active-state counts as the same streams run serially."""
        rng = random.Random(100 * rate + len(layout))
        machine = to_rate(compile_ruleset(RULES), rate) if rate > 1 else \
            compile_ruleset(RULES)
        lane_streams = [stream_for(machine, _noisy_data(rng))[0]
                        for _ in range(rng.randint(2, 7))]

        def serial():
            for vectors in lane_streams:
                BitsetEngine(machine).run(vectors)

        batched = _observed_active_states(
            lambda: BitsetEngine(machine).run_batch(lane_streams))
        assert batched == _observed_active_states(serial)
        assert batched[0] == sum(map(len, lane_streams))
        assert batched[1] > 0


class TestEngineBatchEdges:
    def test_recorder_count_mismatch_rejected(self, abc_automaton):
        with pytest.raises(SimulationError):
            BitsetEngine(abc_automaton).run_batch(
                [[97], [98]], recorders=[ReportRecorder()])

    def test_empty_and_unequal_lane_lengths(self, abc_automaton):
        engine = BitsetEngine(abc_automaton)
        streams = [list(b"abcabc"), [], list(b"xxabc")]
        expected = _serial_payloads(abc_automaton, streams)
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
            expected = _serial_payloads(machine, streams)
            engine = budget_engine(machine, step_cache)
            recorders = engine.run_batch(streams)
            assert [r.to_payload() for r in recorders] == expected, trial
            _assert_table_reset(engine, step_cache)


@pytest.mark.parametrize("rate", [1, 2, 4])
class TestDeviceBatchDifferential:
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
        # The batched path must not disturb the device's streaming state.
        assert device.global_cycle == 0


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
