"""Device-serialization tests: a reloaded device is bit-equivalent."""

import pytest

from repro.core import SunderConfig, SunderDevice
from repro.core.snapshot import load_device, save_device
from repro.errors import ArchitectureError
from repro.regex import compile_ruleset
from repro.sim import BitsetEngine, code_vectors, stream_for
from repro.transform import to_rate


@pytest.fixture
def machine():
    return to_rate(compile_ruleset([("abc", "A"), ("xyz", "X")]), 4)


def _device(machine, fifo=False):
    device = SunderDevice(SunderConfig(rate_nibbles=4, report_bits=16,
                                       fifo=fifo))
    device.configure(machine)
    return device


class TestRoundTrip:
    def test_fresh_device_roundtrip(self, machine):
        device = _device(machine)
        clone = load_device(save_device(device))
        data = b"zz abc zz xyz zz"
        vectors, limit = stream_for(machine, data)
        result = clone.run(vectors, position_limit=limit)
        want = BitsetEngine(machine).run(
            vectors, position_limit=limit
        ).event_keys()
        assert result.reports().event_keys() == want

    def test_mid_stream_resume(self, machine):
        device = _device(machine)
        data = b"zz abc zz xyz zz"
        vectors, limit = stream_for(machine, data)
        split = 5  # mid-'abc' at byte granularity
        for vector in vectors[:split]:
            device.step(vector)

        clone = load_device(save_device(device))
        for code in vectors[split:]:
            device.step(code)
            clone.step(code_vectors([code], machine.bits, machine.arity)[0])
        assert (clone.report_events(position_limit=limit).event_keys()
                == device.report_events(position_limit=limit).event_keys())

    def test_buffered_reports_survive(self, machine):
        device = _device(machine)
        vectors, limit = stream_for(machine, b"abcabcabc")
        for vector in vectors:
            device.step(vector)
        buffered = device.statistics()["buffered_entries"]
        assert buffered > 0
        clone = load_device(save_device(device))
        assert clone.statistics()["buffered_entries"] == buffered
        assert (clone.report_events(position_limit=limit).event_keys()
                == device.report_events(position_limit=limit).event_keys())

    def test_without_dynamic_state(self, machine):
        device = _device(machine)
        vectors, _ = stream_for(machine, b"abc")
        for vector in vectors:
            device.step(vector)
        clone = load_device(save_device(device, include_dynamic_state=False))
        assert clone.statistics()["buffered_entries"] == 0
        assert clone.global_cycle == 0

    def test_placement_preserved_exactly(self, machine):
        device = _device(machine)
        clone = load_device(save_device(device))
        for state_id, slot in device.placement.slots.items():
            assert clone.placement.slots[state_id] == slot

    def test_unconfigured_rejected(self):
        with pytest.raises(ArchitectureError):
            save_device(SunderDevice())

    def test_bad_version_rejected(self, machine):
        import json
        text = save_device(_device(machine))
        document = json.loads(text)
        document["version"] = 99
        with pytest.raises(ArchitectureError):
            load_device(json.dumps(document))

    def test_edge_split_across_clusters_rejected(self, machine):
        """A snapshot is outside input: a placement that puts an edge's
        two ends in different clusters fails to load, as configure()
        fails on it, instead of wiring the edge into one cluster."""
        import json
        device = _device(machine)
        document = json.loads(save_device(device))
        src, dst = next(iter(machine.transitions()))
        _, pu, column = document["placement"][str(dst)]
        document["placement"][str(dst)] = [1, pu, column]
        document["clusters_used"] = 2
        document.pop("dynamic")
        with pytest.raises(ArchitectureError, match="across clusters"):
            load_device(json.dumps(document))


class TestRestoreChecks:
    """A snapshot or a context is outside input: a restore rejects
    state that neither configure() nor a step could have produced."""

    @pytest.mark.parametrize("edit", [
        "cluster_past_end", "negative_cluster", "pu_past_end",
        "negative_pu", "column_past_end", "shared_slot",
    ])
    def test_bad_slot_rejected(self, machine, edit):
        import json
        document = json.loads(save_device(_device(machine)))
        document.pop("dynamic")
        first, second = [str(state.id) for state in machine
                         if not state.report][:2]
        slots = document["placement"]
        if edit == "cluster_past_end":
            slots[first][0] = 1
        elif edit == "pu_past_end":
            slots[first][1] = 4
        elif edit == "column_past_end":
            slots[first][2] = 256
        elif edit == "shared_slot":
            slots[first] = list(slots[second])
        else:
            # -1 on every state, so no edge crosses clusters or PUs and
            # only the index itself is wrong (a list index would wrap).
            axis = {"negative_cluster": 0, "negative_pu": 1}[edit]
            for slot in slots.values():
                slot[axis] = -1
        with pytest.raises(ArchitectureError):
            load_device(json.dumps(document))

    def test_dynamic_record_off_device_rejected(self, machine):
        import json
        document = json.loads(save_device(_device(machine)))
        document["dynamic"][0]["cluster"] = 5
        with pytest.raises(ArchitectureError):
            load_device(json.dumps(document))

    @pytest.mark.parametrize("field, value", [
        ("write_index", 10 ** 6), ("read_index", 10 ** 6), ("count", -3),
        ("count", 1), ("high_water", 10 ** 6), ("report_rows", ""),
    ])
    def test_reporting_region_inconsistent_rejected(self, machine, field,
                                                    value):
        """Region pointers no run could leave used to load and then
        lose reports silently."""
        import json
        device = _device(machine)
        vectors, _ = stream_for(machine, b"abcabc" * 8)
        for vector in vectors[:len(vectors) // 2]:
            device.step(vector)
        document = json.loads(save_device(device))
        document["dynamic"][0][field] = value
        with pytest.raises(ArchitectureError, match="reporting region"):
            load_device(json.dumps(document))

    @pytest.mark.parametrize("fidelity", ["literal", "packed"])
    def test_enable_not_propagated_rejected(self, machine, fidelity):
        """The literal fidelity steps from the stored enables and the
        packed kernel from the active set, so a snapshot whose enables
        are not the propagation of its active set would run differently
        under the two; it fails to load under both."""
        import json
        device = _device(machine)
        vectors, _ = stream_for(machine, b"zz ab")
        for vector in vectors:
            device.step(vector)
        document = json.loads(save_device(device))
        record = document["dynamic"][0]
        record["enable"] = "ff" * (len(record["enable"]) // 2)
        with pytest.raises(ArchitectureError, match="propagation"):
            load_device(json.dumps(document), fidelity=fidelity)

    def test_context_enable_not_propagated_rejected(self, machine):
        device = _device(machine)
        vectors, _ = stream_for(machine, b"zz ab")
        for vector in vectors:
            device.step(vector)
        context = device.save_context()
        cluster, pu, enable, active = context["enables"][0]
        context["enables"][0] = (cluster, pu, ~enable, active)
        context["global_cycle"] = 0
        before = device.save_context()
        with pytest.raises(ArchitectureError, match="propagation"):
            device.load_context(context)
        after = device.save_context()
        assert after["global_cycle"] == before["global_cycle"]
        for old, new in zip(before["enables"], after["enables"]):
            assert (old[2] == new[2]).all() and (old[3] == new[3]).all()
