"""Packed-fidelity differential suite: packed vs literal vs the engines.

The packed kernel (:mod:`repro.core.packed`) must be *bit-exact* against
the literal bit-level device — same reports, cycles, stalls, and access
statistics — and both must match the functional engines.  The sweeps
here randomize the input stream and cover every rate and both drain
strategies; the registry's Snort and SPM machines add placements that
span many PUs.
"""

import math
import random

import pytest

from repro.automata import Automaton
from repro.core import (
    FIDELITIES,
    SunderConfig,
    SunderDevice,
    load_device,
    save_device,
)
from repro.core.host import HostInterface
from repro.errors import ArchitectureError
from repro.hwmodel.energy import device_energy
from repro.regex import compile_ruleset
from repro.sim import BitsetEngine, NaiveEngine, stream_for
from repro.sim import engine as engine_module
from repro.transform import to_rate
from repro.workloads.registry import generate

RULES = ["abc", "b.d", "xy+z", "hello", "[0-9]{3}", "q(rs|tu)v"]
DATA_ALPHABET = b"abcdxyz hello0123qrstuv"


def _random_data(seed, length=300):
    rng = random.Random(seed)
    noise = bytes(rng.choice(DATA_ALPHABET) for _ in range(length))
    return noise + b"abc hello 123 " + noise + b"xyyzqrsv"


def _config(rate, fifo):
    return SunderConfig(rate_nibbles=rate, report_bits=16, fifo=fifo,
                        fifo_drain_rows_per_cycle=0.5)


def _run(automaton, data, config, fidelity):
    device = SunderDevice(config, fidelity=fidelity)
    device.configure(automaton)
    vectors, limit = stream_for(automaton, data)
    result = device.run(vectors, position_limit=limit)
    return device, result, vectors, limit


def _access_counters(device):
    """Every matching-side subarray counter, in deterministic order."""
    counters = []
    for _, _, pu in device.iter_pus():
        counters.append((pu.subarray.port1_reads, pu.subarray.port1_writes,
                         pu.subarray.port2_reads,
                         pu.crossbar.subarray.port2_reads))
    for cluster in device.clusters:
        counters.append(cluster.global_switch.crossbar.subarray.port2_reads)
    return counters


def _assert_fidelities_agree(strided, data, config, engines):
    """Packed and literal runs agree on everything; returns the literal
    device."""
    _, literal_result, vectors, limit = _run(strided, data, config, "literal")
    literal_device = literal_result.device
    packed_device, packed_result, _, _ = _run(strided, data, config, "packed")

    # RunResult figures are identical.
    assert packed_result.cycles == literal_result.cycles
    assert packed_result.stall_cycles == literal_result.stall_cycles
    # Report streams are identical, and non-trivial.
    literal_keys = literal_result.reports().event_keys()
    assert packed_result.reports().event_keys() == literal_keys
    assert literal_keys
    # Aggregate statistics are identical.
    assert packed_device.statistics() == literal_device.statistics()
    # Subarray access counters (and hence energy) are identical: the
    # packed path derives them analytically.
    assert _access_counters(packed_device) == _access_counters(literal_device)
    assert repr(device_energy(packed_device)) == \
        repr(device_energy(literal_device))
    # Both fidelities match the functional engines.
    for engine_cls in engines:
        reference = engine_cls(strided).run(
            vectors, position_limit=limit).event_keys()
        assert literal_keys == reference
    return literal_device


class TestPackedVsLiteral:
    @pytest.mark.parametrize("fifo", [False, True])
    @pytest.mark.parametrize("rate", [1, 2, 4])
    def test_randomized_differential(self, rate, fifo):
        strided = to_rate(compile_ruleset(RULES), rate)
        _assert_fidelities_agree(strided, _random_data(rate * 31 + fifo),
                                 _config(rate, fifo),
                                 (BitsetEngine, NaiveEngine))

    @pytest.mark.parametrize("name", ["Snort", "SPM"])
    def test_multi_pu_registry_machines(self, name):
        """Every RULES machine fits on one PU; these need 9 and 14.  Only
        BitsetEngine is compared: NaiveEngine is slow at this size, and
        tests/test_engine_kernels.py pins BitsetEngine to it."""
        instance = generate(name, scale=0.01, seed=0)
        strided = to_rate(instance.automaton, 4)
        device = _assert_fidelities_agree(
            strided, instance.input_bytes[:1000], SunderConfig(rate_nibbles=4),
            (BitsetEngine,))
        assert len(device.placement.pus_used()) > 1

    @pytest.mark.parametrize("fifo", [False, True])
    @pytest.mark.parametrize("rate", [1, 2, 4])
    def test_dynamic_state_identical_after_run(self, rate, fifo):
        machine = compile_ruleset(RULES[:4])
        strided = to_rate(machine, rate)
        config = _config(rate, fifo)
        data = _random_data(rate * 17 + fifo, length=120)
        _, literal_result, _, _ = _run(strided, data, config, "literal")
        packed_device, _, _, _ = _run(strided, data, config, "packed")
        for (_, _, literal_pu), (_, _, packed_pu) in zip(
                literal_result.device.iter_pus(), packed_device.iter_pus()):
            assert (literal_pu.enable == packed_pu.enable).all()
            assert (literal_pu.active == packed_pu.active).all()


class TestPackedStepAndContext:
    def _devices(self, fifo=True):
        strided = to_rate(compile_ruleset(RULES[:3]), 4)
        config = _config(4, fifo)
        devices = []
        for fidelity in ("literal", "packed"):
            device = SunderDevice(config, fidelity=fidelity)
            device.configure(strided)
            devices.append(device)
        vectors, _ = stream_for(strided, _random_data(99, length=150))
        return devices, vectors

    def test_single_step_parity(self):
        (literal, packed), vectors = self._devices()
        for vector in vectors[:40]:
            assert packed.step(vector) == literal.step(vector)
            for (_, _, lpu), (_, _, ppu) in zip(
                    literal.iter_pus(), packed.iter_pus()):
                assert (lpu.active == ppu.active).all()
            assert packed.live_report_status() == literal.live_report_status()

    def test_context_switch_interleaving(self):
        (literal, packed), vectors = self._devices()
        half = len(vectors) // 2
        contexts = {}
        for device in (literal, packed):
            device.run(vectors[:half])
            contexts[device] = device.save_context()
            device.reset_matching_state()
            device.run(vectors[:20])
            device.load_context(contexts[device])
            device.run(vectors[half:])
        assert (packed.report_events().event_keys()
                == literal.report_events().event_keys())
        assert packed.statistics() == literal.statistics()

    def test_snapshot_roundtrip_mid_stream(self):
        (literal, packed), vectors = self._devices(fifo=False)
        half = len(vectors) // 2
        packed.run(vectors[:half])
        literal.run(vectors[:half])
        restored = load_device(save_device(packed), fidelity="packed")
        restored.run(vectors[half:])
        literal.run(vectors[half:])
        assert (restored.report_events().event_keys()
                == literal.report_events().event_keys())

    def test_host_store_invalidates_kernel(self):
        (literal, packed), vectors = self._devices()
        packed.run(vectors[:10])
        assert packed._kernel is not None
        host = HostInterface(packed)
        row = packed.clusters[0].pus[0].subarray.read_row(0)
        host.store_row(host.address_map.address_of(0, 0, 0), row)
        assert packed._kernel is None
        # The rewritten row was identical, so behaviour is unchanged.
        packed.run(vectors[10:])
        literal.run(vectors)
        assert (packed.report_events().event_keys()
                == literal.report_events().event_keys())


class TestFifoDrainBandwidth:
    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_idle_cycles_bank_no_drain_credit(self, fidelity):
        """Host bandwidth left unused while no region holds entries is
        lost: after a long idle stretch, a burst drains at most what its
        own cycles allow (0.01 rows x 8 entries per cycle)."""
        config = SunderConfig(rate_nibbles=1, fifo=True,
                              fifo_drain_rows_per_cycle=0.01)
        machine = to_rate(compile_ruleset(["a"]), 1)
        device = SunderDevice(config, fidelity=fidelity)
        device.configure(machine)
        # 10,000 idle nibble cycles, then 40 reports in 80 cycles.
        vectors, limit = stream_for(machine, b"b" * 5000 + b"a" * 40)
        result = device.run(vectors, position_limit=limit)
        assert result.reports().total_reports == 40
        drained = 40 - device.statistics()["buffered_entries"]
        bandwidth = (config.fifo_drain_rows_per_cycle
                     * config.entries_per_row * 80)
        assert 0 < drained <= math.ceil(bandwidth)


class TestKernelMechanics:
    def test_fidelity_knob(self):
        assert SunderDevice().fidelity == "packed"
        assert SunderDevice(fidelity="literal").fidelity == "literal"
        assert FIDELITIES == ("literal", "packed")
        for fidelity in ("auto", "warp"):
            with pytest.raises(ArchitectureError):
                SunderDevice(fidelity=fidelity)

    def test_step_cache_hits_and_idle_skipping(self):
        strided = to_rate(compile_ruleset(["abc"]), 4)
        device = SunderDevice(_config(4, False), fidelity="packed")
        device.configure(strided)
        vectors, _ = stream_for(strided, b"abcd" * 100)
        device.run(vectors)
        info = device.step_cache_info()
        assert info["misses"] >= 1
        assert info["hits"] > info["misses"]  # periodic stream re-keys fast
        assert 0.0 < info["hit_rate"] <= 1.0
        assert info["size"] <= info["limit"]
        # The kernel steps on the engine's table, keyed on active sets
        # and symbol classes: the PUs a one-cluster machine leaves empty
        # add no keys and split no class, so the device classes codes
        # and misses exactly where the engine does, and under the budget
        # each miss stores one transition.
        engine = BitsetEngine(strided)
        engine.run(vectors)
        assert info["misses"] == engine.step_cache_info()["misses"]
        assert info["hits"] == engine.step_cache_info()["hits"]
        assert info["size"] == info["misses"]
        kernel = device._kernel
        assert len(kernel._class_masks) == len(engine._class_masks)
        assert ({code: kernel._class_of[code] for code in vectors}
                == {code: engine._class_of[code] for code in vectors})

    def test_cache_disabled_still_exact(self, monkeypatch):
        # A zero budget clears the table on every miss.
        monkeypatch.setattr(engine_module, "DEFAULT_STEP_CACHE", 0)
        strided = to_rate(compile_ruleset(RULES[:3]), 4)
        config = _config(4, True)
        data = _random_data(5, length=100)
        vectors, limit = stream_for(strided, data)
        uncached = SunderDevice(config, fidelity="packed")
        uncached.configure(strided)
        literal = SunderDevice(config, fidelity="literal")
        literal.configure(strided)
        uncached_result = uncached.run(vectors, position_limit=limit)
        literal_result = literal.run(vectors, position_limit=limit)
        # Only the transition stored by the last miss survives it.
        info = uncached.step_cache_info()
        assert info["limit"] == 0 and info["size"] == 1
        assert info["hits"] + info["misses"] == len(vectors)
        assert (uncached_result.reports().event_keys()
                == literal_result.reports().event_keys())
        assert uncached_result.stall_cycles == literal_result.stall_cycles

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_eviction_past_the_budget_stays_exact(self, budget, monkeypatch):
        """Past its budget the transition table is cleared and rebuilt
        from the live active set without changing a report or a stall."""
        monkeypatch.setattr(engine_module, "DEFAULT_STEP_CACHE", budget)
        strided = to_rate(compile_ruleset(RULES), 4)
        # Idle runs repeat one key, so even a one-entry table hits.
        data = _random_data(budget, length=120) + b"z" * 40 + b"abc" * 12
        vectors, limit = stream_for(strided, data)
        stalled = False
        for fifo in (False, True):
            # Two report rows per PU, so the region fills and stalls.
            config = SunderConfig(rate_nibbles=4, report_bits=16, fifo=fifo,
                                  fifo_drain_rows_per_cycle=0.05,
                                  subarray_rows=66)
            _, literal, _, _ = _run(strided, data, config, "literal")
            device, packed, _, _ = _run(strided, data, config, "packed")
            expected = sorted(e.key() for e in literal.reports().events)
            assert sorted(e.key() for e in packed.reports().events) \
                == expected
            assert packed.stall_cycles == literal.stall_cycles
            stalled |= literal.stall_cycles > 0
            info = device.step_cache_info()
            assert info["limit"] == budget
            assert info["size"] <= budget
            assert info["hits"] > 0 and info["misses"] > budget
            # Classes depend only on the machine: the resets keep them.
            assert set(device._kernel._class_of) == set(vectors)

            batch_device = SunderDevice(config)
            batch_device.configure(strided)
            [recorder] = batch_device.run_batch([vectors],
                                                position_limit=limit)
            assert sorted(e.key() for e in recorder.events) == expected
            assert batch_device.step_cache_info()["size"] <= budget
        assert stalled

    def test_literal_device_never_compiles(self):
        strided = to_rate(compile_ruleset(["abc"]), 4)
        device = SunderDevice(_config(4, False), fidelity="literal")
        device.configure(strided)
        vectors, _ = stream_for(strided, b"abc" * 20)
        device.run(vectors)
        assert device._kernel is None
        assert device.step_cache_info()["misses"] == 0

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_empty_machine_runs_on_no_pus(self, fidelity):
        device = SunderDevice(_config(1, False), fidelity=fidelity)
        device.configure(Automaton(bits=4))
        assert device.clusters == []
        assert device.run([(1,), (2,)]).cycles == 2
        assert device.statistics()["cycles"] == 2
        if fidelity == "packed":
            recorders = device.run_batch([[(1,)], [(3,), (4,)]])
            assert [r.total_reports for r in recorders] == [0, 0]

    def test_packed_rejects_bad_vectors(self):
        strided = to_rate(compile_ruleset(["abc"]), 4)
        device = SunderDevice(_config(4, False), fidelity="packed")
        device.configure(strided)
        with pytest.raises(ArchitectureError):
            device.step((1, 2))  # wrong arity
        with pytest.raises(ArchitectureError):
            device.step((1, 2, 3, 16))  # nibble out of range
