"""One Sunder processing unit: match/report subarray + local crossbar.

A PU hosts up to 256 states (one per column).  Each cycle it

1. matches the broadcast input vector against every column (Port 2,
   multi-row wired-NOR),
2. ANDs the match vector with the enable vector computed last cycle,
3. ORs the reporting-enabled columns of the active vector; if any fired,
   appends an entry to the in-subarray reporting region (Port 1 — the
   dual ports are what let matching and report writing pipeline), and
4. propagates the active vector through the local crossbar.

The device layer combines step-4 results with the cluster's global
switch and the start-state vectors to produce next cycle's enables.
"""

import numpy as np

from ..automata.ste import StartKind
from ..errors import ArchitectureError
from .config import SunderConfig
from .interconnect import CrossbarSwitch
from .match_array import MatchArray
from .reporting import ReportingRegion
from .subarray import SramSubarray


class ProcessingUnit:
    """One 256-state processing unit."""

    def __init__(self, config=None, sink=None):
        self.config = config if config is not None else SunderConfig()
        self.subarray = SramSubarray(
            self.config.subarray_rows, self.config.subarray_cols
        )
        self.match_array = MatchArray(self.subarray, self.config.rate_nibbles)
        self.reporting = ReportingRegion(self.subarray, self.config, sink=sink)
        self.crossbar = CrossbarSwitch(self.config.subarray_cols)

        cols = self.config.subarray_cols
        self.state_of_column = [None] * cols
        self.all_input_vector = np.zeros(cols, dtype=bool)
        self.start_of_data_vector = np.zeros(cols, dtype=bool)
        self.report_column_mask = np.zeros(cols, dtype=bool)
        self.enable = np.zeros(cols, dtype=bool)
        self.active = np.zeros(cols, dtype=bool)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def report_column_base(self):
        """First reporting-enabled column (the last m columns report)."""
        return self.config.subarray_cols - self.config.report_bits

    def configure(self, placed):
        """Program a list of ``(column, state)`` pairs in one write.

        The matching rows of every listed column, the start vectors and
        the report mask are each written once, and each column remembers
        its state's identity.  A reporting state off the
        reporting-enabled columns, or a non-reporting one on them,
        raises :class:`ArchitectureError` before anything is written.
        """
        base = self.report_column_base
        for column, state in placed:
            if state.report and column < base:
                raise ArchitectureError(
                    "reporting state %r must occupy a reporting-enabled "
                    "column (>= %d), got %d" % (state.id, base, column)
                )
            if not state.report and column >= base:
                raise ArchitectureError(
                    "non-reporting state %r may not occupy reporting "
                    "column %d" % (state.id, column)
                )
        self.match_array.configure_columns(
            [column for column, _ in placed],
            [state.symbols for _, state in placed])
        all_input = []
        start_of_data = []
        for column, state in placed:
            self.state_of_column[column] = state
            if state.start is StartKind.ALL_INPUT:
                all_input.append(column)
            elif state.start is StartKind.START_OF_DATA:
                start_of_data.append(column)
        self.all_input_vector[all_input] = True
        self.start_of_data_vector[start_of_data] = True
        self.report_column_mask[[column for column, state in placed
                                 if state.report]] = True

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------
    def match_cycle(self, vector, cycle, start_boundary):
        """Steps 1-3; returns ``(active_vector, report_stall_cycles)``."""
        enabled = self.enable.copy()
        if cycle == 0:
            enabled |= self.start_of_data_vector
        if start_boundary:
            enabled |= self.all_input_vector
        match = self.match_array.match(vector)
        active = enabled & match
        self.active = active
        stall = 0
        # The reporting columns are the last m; unconfigured columns can
        # never match and non-reporting states cannot occupy them
        # (configure enforces both), so the slice alone decides
        # whether anything reported — no full-width mask AND needed.
        report_bits = active[self.report_column_base:]
        if report_bits.any():
            stall = self.reporting.append(report_bits, cycle)
        return active, stall

    def propagate(self):
        """Step 4: local crossbar propagation of the active vector."""
        return self.crossbar.propagate(self.active)

    def set_enable(self, enable_vector):
        """Install next cycle's enable vector (device layer)."""
        self.enable = np.asarray(enable_vector, dtype=bool)

    def decode_report_columns(self, report_vector):
        """Map an m-bit report vector back to reporting state ids."""
        base = self.report_column_base
        ids = []
        for offset, bit in enumerate(report_vector):
            if bit:
                state = self.state_of_column[base + offset]
                if state is None:
                    raise ArchitectureError(
                        "report bit %d set for an unconfigured column" % offset
                    )
                ids.append(state.id)
        return ids
