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

    # Re-program through configure's own path, with the saved placement
    # instead of a fresh one.
    device.program(automaton, placement)

    # Enables and actives restore through the context path, which
    # checks the PUs they name and that each enable is the propagation
    # of the active set.
    records = document.get("dynamic", [])
    cols = config.subarray_cols
    device.load_context({
        "global_cycle": document.get("global_cycle", 0),
        "enables": [(record["cluster"], record["pu"],
                     _unpack_bits(record["enable"], cols),
                     _unpack_bits(record["active"], cols))
                    for record in records],
    })
    for record in records:
        pu = device.clusters[record["cluster"]].pus[record["pu"]]
        region = pu.reporting
        rows = config.report_rows
        flat = _unpack_bits(record["report_rows"], rows * cols)
        write, read = record["write_index"], record["read_index"]
        count, high_water = record["count"], record["high_water"]
        capacity = region.capacity
        # What a run leaves: a FIFO of ``count`` entries from ``read`` to
        # ``write``, inside the slots touched since the last flush.
        if (flat.size != rows * cols
                or not (0 <= read < capacity and 0 <= write < capacity)
                or not 0 <= count <= high_water <= capacity
                or (read + count) % capacity != write):
            raise ArchitectureError(
                "snapshot reporting region of cluster %r PU %r is "
                "inconsistent" % (record["cluster"], record["pu"])
            )
        pu.subarray.cells[region.first_row:, :] = flat.reshape(rows, cols)
        region.write_index = write
        region.read_index = read
        region.count = count
        region._high_water = high_water
    return device
