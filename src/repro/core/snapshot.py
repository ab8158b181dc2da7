"""Whole-device serialization: persist a configured Sunder device.

Configuration (placement + subarray programming) is the expensive step
for large rulesets; persisting it lets a deployment reload a compiled
device image instead of re-running the transform/place/program pipeline.
The snapshot stores the config, the automaton (via MNRL), the placement,
and optionally the dynamic state (enables + reporting-region contents) so
in-flight matching can resume.

Format: a single JSON document (subarray bitmaps packed as hex strings),
versioned for forward compatibility.
"""

import json

import numpy as np

from ..automata import mnrl
from ..errors import ArchitectureError
from .config import SunderConfig
from .device import SunderDevice
from .mapping import Placement, StateSlot

FORMAT_VERSION = 1


def _pack_bits(array):
    """Bool array -> hex string."""
    return np.packbits(array.astype(np.uint8)).tobytes().hex()


def _unpack_bits(text, length):
    """Inverse of :func:`_pack_bits`."""
    raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    return np.unpackbits(raw)[:length].astype(bool)


def _config_dict(config):
    return {
        "rate_nibbles": config.rate_nibbles,
        "report_bits": config.report_bits,
        "metadata_bits": config.metadata_bits,
        "fifo": config.fifo,
        "flush_rows_per_cycle": config.flush_rows_per_cycle,
        "fifo_drain_rows_per_cycle": config.fifo_drain_rows_per_cycle,
        "summarize_batch_rows": config.summarize_batch_rows,
        "summarize_stall_cycles": config.summarize_stall_cycles,
    }


def save_device(device, include_dynamic_state=True):
    """Serialize a configured device to a JSON string."""
    if device.placement is None:
        raise ArchitectureError("cannot snapshot an unconfigured device")
    # Under the packed fidelity the authoritative enable/active vectors
    # live in the compiled kernel; materialize them first.
    device.sync_dynamic_state()
    document = {
        "version": FORMAT_VERSION,
        "config": _config_dict(device.config),
        "automaton_mnrl": mnrl.dumps(device.automaton),
        "placement": {
            str(state_id): [slot.cluster, slot.pu, slot.column]
            for state_id, slot in device.placement.slots.items()
        },
        "clusters_used": device.placement.clusters_used,
    }
    if include_dynamic_state:
        dynamic = []
        for cluster_index, pu_index, pu in device.iter_pus():
            region = pu.reporting
            dynamic.append({
                "cluster": cluster_index,
                "pu": pu_index,
                "enable": _pack_bits(pu.enable),
                "active": _pack_bits(pu.active),
                "report_rows": _pack_bits(
                    pu.subarray.cells[region.first_row:, :].reshape(-1)
                ),
                "write_index": region.write_index,
                "read_index": region.read_index,
                "count": region.count,
                "high_water": region._high_water,
            })
        document["dynamic"] = dynamic
        document["global_cycle"] = device.global_cycle
    return json.dumps(document)


def load_device(text, fidelity="packed"):
    """Reconstruct a device from :func:`save_device` output.

    The automaton is re-programmed from its MNRL form using the *saved*
    placement (bit-identical layout), then any dynamic state is restored.
    ``fidelity`` selects the execution path of the rebuilt device; the
    packed kernel compiles lazily from the restored subarrays, so the
    dynamic state below lands before any compilation happens.
    """
    document = json.loads(text)
    if document.get("version") != FORMAT_VERSION:
        raise ArchitectureError(
            "unsupported snapshot version %r" % document.get("version")
        )
    config = SunderConfig(**document["config"])
    automaton = mnrl.loads(document["automaton_mnrl"])

    device = SunderDevice(config, fidelity=fidelity)
    placement = Placement(automaton, config)
    placement.clusters_used = document["clusters_used"]
    for state_id, (cluster, pu, column) in document["placement"].items():
        placement.slots[state_id] = StateSlot(cluster, pu, column)

    # Re-program using the saved placement (mirrors SunderDevice.configure
    # but without re-running the placer).
    from .device import _Cluster
    device.clusters = [_Cluster(config)
                       for _ in range(placement.clusters_used)]
    for state in automaton:
        slot = placement.slot_of(state.id)
        device.clusters[slot.cluster].pus[slot.pu].configure_state(
            slot.column, state
        )
    for src, dst in automaton.transitions():
        src_slot = placement.slot_of(src)
        dst_slot = placement.slot_of(dst)
        cluster = device.clusters[src_slot.cluster]
        if src_slot.pu == dst_slot.pu:
            cluster.pus[src_slot.pu].program_edge(
                src_slot.column, dst_slot.column
            )
        else:
            cluster.global_switch.program_edge(
                src_slot.pu, src_slot.column, dst_slot.pu, dst_slot.column
            )
    device.placement = placement
    device.automaton = automaton
    device._regions = [pu.reporting for _, _, pu in device.iter_pus()]

    for record in document.get("dynamic", []):
        pu = device.clusters[record["cluster"]].pus[record["pu"]]
        region = pu.reporting
        cols = device.config.subarray_cols
        pu.enable = _unpack_bits(record["enable"], cols)
        pu.active = _unpack_bits(record["active"], cols)
        rows = device.config.report_rows
        flat = _unpack_bits(record["report_rows"], rows * cols)
        pu.subarray.cells[region.first_row:, :] = flat.reshape(rows, cols)
        region.write_index = record["write_index"]
        region.read_index = record["read_index"]
        region.count = record["count"]
        region._high_water = record["high_water"]
    device.global_cycle = document.get("global_cycle", 0)
    return device
