"""Sunder's in-place reporting region (paper Section 5.1.2).

Reports live in the *same* subarray that performs matching: the rows the
nibble transformation freed up.  Each report cycle appends one entry —
``m`` report bits (one per reporting-enabled column) plus ``n`` bits of
cycle metadata — at the position tracked by the local counter (Eq. 1).

Two operating strategies, matching Table 4's columns:

- **stop-and-flush** (``fifo=False``): when the region fills, matching
  stalls while the host drains every used row.
- **FIFO** (``fifo=True``): the host drains continuously from the head
  through Port 1 *while* Port 2 keeps matching; stalls only happen when
  the fill rate outruns the drain rate and the region is full.

The region also implements **report summarization**: a column-wise
wired-NOR over batches of report rows through Port 2 (stalling matching
for 1-2 cycles per batch), which answers "did anything report?" without
shipping the raw entries.
"""

import numpy as np

from ..errors import ArchitectureError
from .subarray import MAX_ACTIVATED_ROWS


class ReportEntry:
    """One decoded report-region entry."""

    __slots__ = ("cycle", "report_vector")

    def __init__(self, cycle, report_vector):
        self.cycle = cycle
        self.report_vector = report_vector

    def __repr__(self):
        bits = "".join("1" if b else "0" for b in self.report_vector)
        return "ReportEntry(cycle=%d, bits=%s)" % (self.cycle, bits)

    def __eq__(self, other):
        return (
            isinstance(other, ReportEntry)
            and self.cycle == other.cycle
            and list(self.report_vector) == list(other.report_vector)
        )


class ReportingRegion:
    """The reporting rows of one match/report subarray.

    Parameters
    ----------
    subarray:
        Shared :class:`~repro.core.subarray.SramSubarray`.
    config:
        The device :class:`~repro.core.config.SunderConfig` (supplies m,
        n, row budget, and drain strategy).
    """

    def __init__(self, subarray, config, sink=None):
        self.subarray = subarray
        self.config = config
        self.first_row = config.matching_rows
        self.rows = config.report_rows
        self.entries_per_row = config.entries_per_row
        self.capacity = config.report_capacity
        #: Optional callable receiving lists of :class:`ReportEntry` the
        #: moment they leave the region (flush or FIFO drain) — models the
        #: host side of the transfer.
        self.sink = sink
        if self.rows < 1:
            raise ArchitectureError("no rows left for the reporting region")
        self.reset_counters()

    def reset_counters(self):
        """Reset pointers and statistics (reconfiguration)."""
        self.write_index = 0     # local counter: next free entry slot
        self.read_index = 0      # FIFO head (entries drained by the host)
        self.count = 0           # entries currently buffered
        self.total_writes = 0
        self.flushes = 0
        self.stall_cycles = 0
        self.dropped = 0
        self._drain_credit = 0.0
        # Entry slots touched since the last flush: summarization must
        # cover drained-but-unflushed slots ("did X report since the last
        # flush"), and only a flush wipes them.
        self._high_water = 0

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def _locate(self, entry_index):
        """(row, start_col) of entry slot ``entry_index``."""
        row = self.first_row + (entry_index // self.entries_per_row)
        slot = entry_index % self.entries_per_row
        return row, slot * self.config.entry_bits

    @property
    def used_rows(self):
        """Rows currently holding at least one live entry."""
        return -(-self.count // self.entries_per_row)

    @property
    def is_full(self):
        return self.count >= self.capacity

    # ------------------------------------------------------------------
    # Automata-mode write path
    # ------------------------------------------------------------------
    def append(self, report_bits, cycle):
        """Write one entry (report vector + cycle metadata) via Port 1.

        ``report_bits`` is a length-m boolean sequence.  Returns the stall
        cycles charged to this append (0 unless a flush was needed).
        """
        report_bits = np.asarray(report_bits, dtype=bool)
        if report_bits.shape != (self.config.report_bits,):
            raise ArchitectureError(
                "report vector must have %d bits, got %s"
                % (self.config.report_bits, report_bits.shape)
            )
        stall = 0
        if self.is_full:
            stall = self.flush()
        row, start_col = self._locate(self.write_index % self.capacity)
        metadata = _encode_metadata(cycle, self.config.metadata_bits)
        entry = np.concatenate([report_bits, metadata])
        self.subarray.write_bits(row, start_col, entry)
        self._high_water = min(
            self.capacity, max(self._high_water, self.write_index + 1)
        )
        self.write_index = (self.write_index + 1) % self.capacity
        if self.write_index == 0:
            self._high_water = self.capacity
        self.count += 1
        self.total_writes += 1
        return stall

    def tick(self, max_entries=None):
        """Advance one matching cycle: background FIFO drain (if enabled).

        Port 1 is free while Port 2 matches, so the host can stream
        entries out from the head concurrently.  ``max_entries`` is the
        share of the host's global drain bandwidth granted this cycle
        (the device divides its budget across non-empty regions); when
        None, the region uses its own config rate (standalone use).
        Returns the number of entries drained.
        """
        if not self.config.fifo or self.count == 0:
            return 0
        if max_entries is None:
            self._drain_credit += (
                self.config.fifo_drain_rows_per_cycle * self.entries_per_row
            )
            drainable = int(self._drain_credit)
        else:
            drainable = int(max_entries)
        if drainable <= 0:
            return 0
        drained = min(drainable, self.count)
        if max_entries is None:
            # Only the fractional credit carries over: bandwidth the
            # host did not use this cycle is lost, not banked.
            self._drain_credit -= drainable
        if self.sink is not None:
            self.sink(self._decode_range(0, drained))
        self.read_index = (self.read_index + drained) % self.capacity
        self.count -= drained
        return drained

    def flush(self):
        """Stop-and-flush the whole used region; returns stall cycles.

        Matching halts while the used rows stream out over the wide
        on-chip path (``flush_rows_per_cycle`` rows per stalled cycle).
        """
        if self.count == 0:
            return 0
        rows_to_read = self.used_rows
        stall = max(1, -(-rows_to_read // self.config.flush_rows_per_cycle))
        self.flushes += 1
        self.stall_cycles += stall
        if self.sink is not None:
            self.sink(self._decode_range(0, self.count))
        # The flush leaves the region logically empty: clear every touched
        # row so a later summarization cannot observe stale slots.
        touched_rows = -(-self._high_water // self.entries_per_row)
        if touched_rows:
            self.subarray.cells[
                self.first_row:self.first_row + touched_rows, :
            ] = False
        self.read_index = 0
        self.write_index = 0
        self.count = 0
        self._drain_credit = 0.0
        self._high_water = 0
        return stall

    # ------------------------------------------------------------------
    # Host-side read paths
    # ------------------------------------------------------------------
    def _decode_range(self, start_offset, count):
        """Decode ``count`` live entries starting ``start_offset`` from head."""
        entries = []
        for offset in range(start_offset, start_offset + count):
            index = (self.read_index + offset) % self.capacity
            row, start_col = self._locate(index)
            data = self.subarray.read_row(row)
            bits = data[start_col:start_col + self.config.entry_bits]
            report_vector = bits[: self.config.report_bits].copy()
            cycle = _decode_metadata(bits[self.config.report_bits:])
            entries.append(ReportEntry(cycle, report_vector))
        return entries

    def read_entries(self):
        """Decode every live entry, oldest first (host Port-1 reads)."""
        return self._decode_range(0, self.count)

    def read_entry(self, offset):
        """Selective reporting: decode the entry at ``offset`` from head."""
        if not 0 <= offset < self.count:
            raise ArchitectureError(
                "entry offset %d out of range (%d live entries)"
                % (offset, self.count)
            )
        index = (self.read_index + offset) % self.capacity
        row, start_col = self._locate(index)
        data = self.subarray.read_row(row)
        bits = data[start_col:start_col + self.config.entry_bits]
        return ReportEntry(
            _decode_metadata(bits[self.config.report_bits:]),
            bits[: self.config.report_bits].copy(),
        )

    def summarize(self):
        """Column-wise OR over all touched report rows via multi-row NOR.

        Returns ``(summary_bits, stall_cycles)``: per-report-column "did
        this state report since the last flush", computed in batches of
        ``summarize_batch_rows`` rows.  Each batch borrows Port 2, so
        matching stalls ``summarize_stall_cycles`` per batch.  Rows are
        scanned up to the post-flush high-water mark, so FIFO-drained
        entries still count (they reported since the last flush) while
        flushed epochs never leak.
        """
        used = -(-self._high_water // self.entries_per_row)
        if used == 0:
            empty = np.zeros(self.config.report_bits, dtype=bool)
            return empty, 0
        batch = min(self.config.summarize_batch_rows, MAX_ACTIVATED_ROWS)
        summary = np.zeros(self.subarray.cols, dtype=bool)
        stall = 0
        start = self.first_row
        remaining = used
        while remaining > 0:
            span = min(batch, remaining)
            rows = list(range(start, start + span))
            summary |= self.subarray.wired_or(rows)
            stall += self.config.summarize_stall_cycles
            start += span
            remaining -= span
        self.stall_cycles += stall
        # Any slot of a row may hold report bits; fold slots together so
        # the result is per-report-column.
        folded = np.zeros(self.config.report_bits, dtype=bool)
        for slot in range(self.entries_per_row):
            base = slot * self.config.entry_bits
            folded |= summary[base:base + self.config.report_bits]
        return folded, stall


def _encode_metadata(cycle, bits):
    """Cycle count as an LSB-first bit vector, truncated to ``bits``."""
    return np.array([(cycle >> i) & 1 for i in range(bits)], dtype=bool)


def _decode_metadata(bit_vector):
    """Inverse of :func:`_encode_metadata`."""
    value = 0
    for index, bit in enumerate(bit_vector):
        if bit:
            value |= 1 << index
    return value
