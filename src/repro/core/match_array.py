"""The state-matching half of a Sunder match/report subarray.

Up to four 4-bit nibbles are one-hot encoded in the top rows of a 256x256
subarray (16 rows per nibble).  Matching a vector of nibbles activates one
row per nibble through the 4:16 decoders; BL2's wired-NOR then produces
the per-state match vector in a single access.

Because BL2 computes NOR (not AND), the acceptance data is stored
*complemented*: ``cell[row(i, v), state] = 1`` iff the state does **not**
accept nibble value ``v`` at position ``i``.  A state's column then pulls
BL2 low exactly when some activated position rejects, so BL2-high ==
"every position accepted" — the AND-of-nibbles the paper describes.
"""

import numpy as np

from ..errors import ArchitectureError, CapacityError
from .config import ROWS_PER_NIBBLE
from .subarray import SramSubarray


class MatchArray:
    """State matching over the top ``16 * rate`` rows of a subarray.

    Parameters
    ----------
    subarray:
        The shared :class:`SramSubarray` (the reporting region uses its
        lower rows).
    rate_nibbles:
        Configured processing rate (1, 2, or 4 nibbles per cycle).
    """

    def __init__(self, subarray, rate_nibbles):
        self.subarray = subarray
        self.rate_nibbles = rate_nibbles
        self.capacity = subarray.cols
        self._configured = 0
        # Complemented storage: an unprogrammed column must reject every
        # nibble value, i.e. hold all-ones in the matching rows.
        subarray.cells[: self.matching_rows, :] = True

    @property
    def matching_rows(self):
        """Rows claimed by the one-hot encodings."""
        return ROWS_PER_NIBBLE * self.rate_nibbles

    def row_of(self, position, value):
        """Physical row holding nibble ``value`` of nibble ``position``."""
        if not 0 <= position < self.rate_nibbles:
            raise ArchitectureError(
                "nibble position %d out of range for rate %d"
                % (position, self.rate_nibbles)
            )
        if not 0 <= value < ROWS_PER_NIBBLE:
            raise ArchitectureError("nibble value %d out of range" % value)
        return position * ROWS_PER_NIBBLE + value

    # ------------------------------------------------------------------
    # Configuration (Automata Mode writes through Port 1).
    # ------------------------------------------------------------------
    def configure_state(self, column, symbols):
        """Program one state's symbol sets into ``column``.

        ``symbols`` is the STE's tuple of 4-bit symbol sets (length ==
        rate); see :meth:`configure_columns`.
        """
        self.configure_columns([column], [symbols])

    def configure_columns(self, columns, symbols):
        """Program several states' symbol sets in one write.

        ``symbols[i]`` (an STE's tuple of 4-bit symbol sets, length ==
        rate) goes into ``columns[i]``.  Stored complemented, per the
        module docstring: the matching rows of every listed column are
        written at once, computed from the masks.  Every column and
        symbol tuple is checked before anything is written.
        """
        width = ROWS_PER_NIBBLE * self.rate_nibbles
        raw = bytearray()
        for column, symbol_sets in zip(columns, symbols):
            if not 0 <= column < self.capacity:
                raise CapacityError(
                    "column %d out of range (%d columns)"
                    % (column, self.capacity)
                )
            if len(symbol_sets) != self.rate_nibbles:
                raise ArchitectureError(
                    "state arity %d does not match configured rate %d"
                    % (len(symbol_sets), self.rate_nibbles)
                )
            # Row p * 16 + v of the column is bit p * 16 + v of the
            # complemented masks laid end to end: 1 where position p
            # rejects value v.
            rejects = 0
            for symbol_set in reversed(symbol_sets):
                if symbol_set.bits != 4:
                    raise ArchitectureError(
                        "match array stores 4-bit symbols only")
                rejects = (rejects << ROWS_PER_NIBBLE) | (
                    symbol_set.mask ^ 0xFFFF)
            raw += rejects.to_bytes(width // 8, "little")
        if not raw:
            return
        bits = np.unpackbits(np.frombuffer(bytes(raw), dtype=np.uint8)
                             .reshape(len(columns), width // 8),
                             axis=1, bitorder="little").view(bool)
        self.subarray.cells[:width, columns] = bits.T
        self._configured = max(self._configured, max(columns) + 1)

    def clear_column(self, column):
        """Erase a state column (mark every value as rejecting)."""
        self.subarray.cells[: self.matching_rows, column] = True

    # ------------------------------------------------------------------
    # Runtime (Automata Mode matches through Port 2).
    # ------------------------------------------------------------------
    def match(self, vector):
        """Match one input vector; returns a bool array over columns.

        Activates one row per nibble position and senses the wired-NOR —
        exactly one Port-2 access per cycle regardless of rate.
        """
        if len(vector) != self.rate_nibbles:
            raise ArchitectureError(
                "input vector arity %d does not match rate %d"
                % (len(vector), self.rate_nibbles)
            )
        rows = [self.row_of(position, value) for position, value in enumerate(vector)]
        return self.subarray.wired_nor(rows)

    def match_columns(self, vector):
        """Match restricted to configured columns (ignores unused ones)."""
        return self.match(vector)[: self._configured]


def match_vector_reference(states, vector):
    """Oracle used in tests: per-state match bits straight from symbol sets."""
    return np.array(
        [all(value in sset for sset, value in zip(state.symbols, vector))
         for state in states],
        dtype=bool,
    )
