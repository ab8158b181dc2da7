"""The Sunder architecture model — the paper's primary contribution."""

from .capacity import RatePlan, plan_rates, recommend_rate
from .config import (
    PUS_PER_CLUSTER,
    ROWS_PER_NIBBLE,
    SUBARRAY_COLS,
    SUBARRAY_ROWS,
    SunderConfig,
)
from .device import HostArchive, RunResult, SunderDevice
from .host import AddressMap, HostInterface
from .interconnect import CrossbarSwitch, GlobalSwitch
from .mapping import Placement, StateSlot, place
from .match_array import MatchArray
from .packed import (
    DEFAULT_DEVICE_STEP_CACHE,
    FIDELITIES,
    PackedKernel,
    pack_bits,
    unpack_bits,
)
from .perfmodel import (
    HOST_BITS_PER_CYCLE,
    PerfResult,
    ReportingPerfModel,
    pu_fill_cycles_from_events,
    sensitivity_slowdown,
)
from .pu import ProcessingUnit
from .reconfigure import (
    MultiRoundResult,
    configuration_write_cycles,
    partition_rounds,
    run_multi_round,
)
from .reporting import ReportEntry, ReportingRegion
from .slice_hash import SliceHash
from .snapshot import load_device, save_device
from .subarray import MAX_ACTIVATED_ROWS, SramSubarray

__all__ = [
    "AddressMap",
    "CrossbarSwitch",
    "DEFAULT_DEVICE_STEP_CACHE",
    "FIDELITIES",
    "GlobalSwitch",
    "PackedKernel",
    "pack_bits",
    "unpack_bits",
    "HOST_BITS_PER_CYCLE",
    "HostArchive",
    "HostInterface",
    "MAX_ACTIVATED_ROWS",
    "MatchArray",
    "MultiRoundResult",
    "configuration_write_cycles",
    "partition_rounds",
    "run_multi_round",
    "PUS_PER_CLUSTER",
    "PerfResult",
    "Placement",
    "ProcessingUnit",
    "RatePlan",
    "plan_rates",
    "recommend_rate",
    "ROWS_PER_NIBBLE",
    "ReportEntry",
    "ReportingPerfModel",
    "ReportingRegion",
    "RunResult",
    "SUBARRAY_COLS",
    "SUBARRAY_ROWS",
    "SliceHash",
    "SramSubarray",
    "StateSlot",
    "SunderConfig",
    "SunderDevice",
    "pu_fill_cycles_from_events",
    "place",
    "load_device",
    "save_device",
    "sensitivity_slowdown",
]
