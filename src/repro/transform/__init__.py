"""Hardware-aware automata transformations (paper Section 4)."""

from .equivalence import byte_reports, check_equivalent
from .nibble import (
    nibble_report_position_to_byte,
    to_nibbles,
    wide_report_position_to_symbol,
    wide_symbols_to_nibbles,
)
from .pipeline import SUPPORTED_RATES, to_rate, transform_overhead
from .striding import square, stride, verify_offset_invariant

__all__ = [
    "SUPPORTED_RATES",
    "byte_reports",
    "check_equivalent",
    "nibble_report_position_to_byte",
    "square",
    "stride",
    "to_nibbles",
    "to_rate",
    "transform_overhead",
    "verify_offset_invariant",
    "wide_report_position_to_symbol",
    "wide_symbols_to_nibbles",
]
