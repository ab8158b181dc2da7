"""Functional automata simulation (the repo's VASim stand-in)."""

from .analysis import (
    buffer_pressure,
    burst_widths,
    density_timeline,
    inter_report_gaps,
    per_code_counts,
    summarize_analysis,
)
from .engine import (
    DEFAULT_STEP_CACHE,
    BitsetEngine,
    NaiveEngine,
    TransitionTable,
)
from .inputs import (
    PAD_NIBBLE,
    bytes_to_nibbles,
    nibble_position_to_byte,
    nibbles_to_bytes,
    stream_for,
    vectorize,
)
from .reports import ReportEvent, ReportRecorder
from .stats import dynamic_statistics, reporting_behavior, static_statistics
from .trace import CycleTrace, Tracer

__all__ = [
    "BitsetEngine",
    "CycleTrace",
    "DEFAULT_STEP_CACHE",
    "NaiveEngine",
    "Tracer",
    "TransitionTable",
    "ReportEvent",
    "ReportRecorder",
    "PAD_NIBBLE",
    "buffer_pressure",
    "burst_widths",
    "bytes_to_nibbles",
    "density_timeline",
    "inter_report_gaps",
    "per_code_counts",
    "summarize_analysis",
    "nibbles_to_bytes",
    "nibble_position_to_byte",
    "stream_for",
    "vectorize",
    "dynamic_statistics",
    "reporting_behavior",
    "static_statistics",
]
