"""Memory-mapped full-crossbar interconnect (paper Section 5.2).

The state-transition stage is an 8T SRAM subarray used as a crossbar:
row ``r``, column ``c`` holds '1' when state ``r`` activates state ``c``.
At runtime the *active state vector* drives the row activators, and each
column's BL2 wired-NOR (inverted) computes "does any active predecessor
point at me" — the OR-functionality the paper highlights.  Because every
column intersects every row, any 256-state connectivity pattern routes
without congestion.

The model keeps each row as one packed int whose bit ``c`` is cell
``(r, c)``, so a crossbar costs one list slot per row however wide it
is: a programmed automaton sets a few cells per row, and a cluster's
global switch has a million cells.

A :class:`GlobalSwitch` is the same structure one level up, connecting
the processing units of a cluster so automata up to 1024 states span PUs.
"""

import numpy as np

from ..errors import ArchitectureError
from .packed import pack_bits, unpack_bits


class CrossbarSwitch:
    """A ``size x size`` full crossbar.

    ``rows[r]`` is row ``r`` packed: bit ``c`` is set when state ``r``
    activates state ``c``.  ``port2_reads`` counts the evaluations that
    drove at least one row (:meth:`propagate`, or the packed kernel's
    analytic count).
    """

    def __init__(self, size=256):
        self.size = size
        self.rows = [0] * size
        self.port2_reads = 0

    def program_edge(self, src, dst, connected=True):
        """Write one connectivity bit (configuration time, Port 1)."""
        if not (0 <= src < self.size and 0 <= dst < self.size):
            raise ArchitectureError(
                "edge (%d, %d) out of range for a %d-state crossbar"
                % (src, dst, self.size)
            )
        if connected:
            self.rows[src] |= 1 << dst
        else:
            self.rows[src] &= ~(1 << dst)

    def program_rows(self, rows):
        """Write whole packed rows, ``{row: bits}``, in one pass."""
        limit = 1 << self.size
        for row, bits in rows.items():
            if not (0 <= row < self.size and 0 <= bits < limit):
                raise ArchitectureError(
                    "row %d = %#x out of range for a %d-state crossbar"
                    % (row, bits, self.size)
                )
            self.rows[row] = bits

    def program_adjacency(self, adjacency):
        """Program a full boolean adjacency matrix at once."""
        adjacency = np.asarray(adjacency, dtype=bool)
        if adjacency.shape != (self.size, self.size):
            raise ArchitectureError(
                "adjacency must be %dx%d" % (self.size, self.size)
            )
        self.rows = [pack_bits(row) for row in adjacency]

    def reach(self, active):
        """OR of the rows the packed ``active`` set drives.

        The wired-NOR evaluation itself, without counting a Port-2 read:
        :meth:`propagate` counts, a restore's consistency check does not.
        """
        rows = self.rows
        reached = 0
        while active:
            low = active & -active
            reached |= rows[low.bit_length() - 1]
            active ^= low
        return reached

    def propagate(self, active_vector):
        """One state-transition step.

        ``active_vector`` drives the activator wordlines; the result is
        the *potential next states* vector (per column: OR over active
        predecessors).  An all-inactive input simply returns all-False
        without touching the array, matching the circuit (no activated
        wordline leaves BL2 precharged).
        """
        active_vector = np.asarray(active_vector, dtype=bool)
        if active_vector.shape != (self.size,):
            raise ArchitectureError(
                "active vector must have %d bits" % self.size
            )
        active = pack_bits(active_vector)
        if not active:
            return np.zeros(self.size, dtype=bool)
        # The wired-NOR hardware activates all driven rows simultaneously;
        # the OR over the selected rows models the same evaluation
        # without the 64-row stability cap (activators are driven
        # full-swing here, unlike lowered-voltage multi-row *reads*).
        self.port2_reads += 1
        return unpack_bits(self.reach(active), self.size)


class GlobalSwitch:
    """Cluster-level crossbar: routes activations between PUs.

    Indexed by *global* state slots: PU ``p``'s column ``c`` is slot
    ``p * 256 + c``.  Only inter-PU edges are programmed here; intra-PU
    edges stay in the local crossbars (they are evaluated in parallel,
    Section 7.4).
    """

    def __init__(self, num_pus=4, pu_size=256):
        self.num_pus = num_pus
        self.pu_size = pu_size
        self.size = num_pus * pu_size
        self.crossbar = CrossbarSwitch(self.size)

    def slot(self, pu_index, column):
        """Global slot of ``(pu, column)``."""
        if not (0 <= pu_index < self.num_pus and 0 <= column < self.pu_size):
            raise ArchitectureError(
                "slot (%d, %d) out of range" % (pu_index, column)
            )
        return pu_index * self.pu_size + column

    def program_edge(self, src_pu, src_col, dst_pu, dst_col):
        """Program one inter-PU activation wire."""
        if src_pu == dst_pu:
            raise ArchitectureError(
                "intra-PU edges belong in the local crossbar"
            )
        self.crossbar.program_edge(
            self.slot(src_pu, src_col), self.slot(dst_pu, dst_col)
        )

    def propagate(self, active_by_pu):
        """Cluster-wide transition step.

        ``active_by_pu`` is a list of per-PU active vectors; returns the
        per-PU *remote* enable vectors (to OR with each PU's local
        propagation result).
        """
        if len(active_by_pu) != self.num_pus:
            raise ArchitectureError(
                "expected %d PU vectors, got %d"
                % (self.num_pus, len(active_by_pu))
            )
        stacked = np.concatenate([
            np.asarray(vector, dtype=bool) for vector in active_by_pu
        ])
        enabled = self.crossbar.propagate(stacked)
        return [
            enabled[index * self.pu_size:(index + 1) * self.pu_size]
            for index in range(self.num_pus)
        ]
