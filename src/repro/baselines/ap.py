"""Micron Automata Processor reporting-architecture model (Section 2.2).

The AP routes every reporting STE to a *report region* of up to 1024
reporting STEs.  When any STE of a region fires, the full 1024-bit report
vector plus 64-bit metadata is offloaded to the region's L1 buffer; L1
buffers spill to shared L2 buffers, which export off-chip.  The design
cannot push and pop simultaneously, so once the buffers saturate the
device stalls at the export bandwidth.

This model replays the exact per-cycle report sets from the functional
simulator's report rows: each report cycle enqueues ``1088 * (#regions
hit)`` bits into a finite queue drained continuously at
``export_bits_per_cycle``; when the queue is full the device stalls
until space exists.  The export
bandwidth is the single calibration constant, set so the model's Snort
overhead lands at the published 46x (EXPERIMENTS.md records the value).

The RAD variant (Wadden et al., HPCA'18) divides the report vector into
small chunks, offloading only chunks that contain a set bit — helping
sparse reporters and doing nothing for dense ones (Table 4's last
column).
"""

from ..errors import ArchitectureError

#: Reporting STEs per AP report region.
REGION_SIZE = 1024
#: Offload size per triggered region: 1024-bit vector + 64-bit metadata.
REGION_VECTOR_BITS = 1024
REGION_METADATA_BITS = 64
#: L1 storage per region (481 Kb) and number of regions modelled; the
#: queue capacity is their product (the paper's "11.3MB L1 + 4MB L2"
#: scaled per active region).
L1_BITS_PER_REGION = 481 * 1024
#: Export bandwidth in bits per device cycle (calibration constant).
EXPORT_BITS_PER_CYCLE = 40.0

#: RAD parameters: chunk width plus per-chunk metadata.
RAD_CHUNK_BITS = 128
RAD_CHUNK_METADATA_BITS = 64


class ApPerfResult:
    """Outcome of an AP reporting-model evaluation."""

    def __init__(self, cycles, stall_cycles, offloaded_bits, regions):
        self.cycles = cycles
        self.stall_cycles = stall_cycles
        self.offloaded_bits = offloaded_bits
        self.regions = regions

    @property
    def slowdown(self):
        """Reporting overhead over the nominal kernel time."""
        if self.cycles == 0:
            return 1.0
        return (self.cycles + self.stall_cycles) / self.cycles

    def __repr__(self):
        return "ApPerfResult(cycles=%d, stalls=%d, slowdown=%.2fx)" % (
            self.cycles, self.stall_cycles, self.slowdown,
        )


class ApReportingModel:
    """AP (or AP+RAD) reporting-overhead model.

    Parameters
    ----------
    rad:
        Use the Report Aggregator Division chunked offload instead of
        whole-region vectors.
    export_bits_per_cycle:
        Off-chip export bandwidth (see module docstring).
    """

    def __init__(self, rad=False, export_bits_per_cycle=EXPORT_BITS_PER_CYCLE,
                 scale=1.0):
        self.rad = rad
        self.export_bits_per_cycle = export_bits_per_cycle
        if scale <= 0:
            raise ArchitectureError("scale must be positive")
        #: Workload scale factor.  Our synthetic benchmarks shrink the
        #: paper's automata and inputs by ``scale``; the AP's *fixed*
        #: hardware geometry (region size, buffer capacity) must shrink
        #: with them so saturation behaviour is preserved.
        self.scale = scale

    # ------------------------------------------------------------------
    @property
    def region_size(self):
        """Reporting STEs per region, at the configured scale."""
        return max(1, round(REGION_SIZE * self.scale))

    @property
    def chunk_size(self):
        """RAD chunk width in reporting STEs, at the configured scale."""
        return max(1, round(RAD_CHUNK_BITS * self.scale))

    def assign_regions(self, report_state_ids):
        """Assign reporting states to regions round-robin.

        The AP routes report STEs across its (6 per chip) regions, so
        co-firing rules typically land in *different* regions — the
        pessimistic routing that makes sparse reporting expensive.
        """
        count = len(report_state_ids)
        n_regions = max(1, -(-count // self.region_size))
        return {
            state_id: index % n_regions
            for index, state_id in enumerate(report_state_ids)
        }

    def _chunks(self, report_state_ids):
        """RAD: chunk index of each reporting state (contiguous ranges)."""
        return {
            state_id: index // self.chunk_size
            for index, state_id in enumerate(report_state_ids)
        }

    def offload_bits_per_cycle_map(self, recorder, report_state_ids):
        """Bits offloaded at each report cycle, in ascending cycle order.

        A cycle offloads each region (or RAD chunk) that its rows
        trigger, once however many rows trigger it
        (:meth:`~repro.sim.reports.ReportRecorder.units_by_cycle`).
        """
        if not report_state_ids:
            raise ArchitectureError("no reporting states")
        groups = (
            self._chunks(report_state_ids) if self.rad
            else self.assign_regions(report_state_ids)
        )
        payload = (
            RAD_CHUNK_BITS + RAD_CHUNK_METADATA_BITS if self.rad
            else REGION_VECTOR_BITS + REGION_METADATA_BITS
        )
        n_regions = max(groups.values()) + 1
        return (
            {cycle: len(groups_hit) * payload for cycle, groups_hit
             in recorder.units_by_cycle(groups.__getitem__).items()},
            n_regions,
        )

    def evaluate(self, recorder, report_state_ids, total_cycles):
        """Replay the report stream through the buffer queue.

        ``recorder`` is the functional simulator's
        :class:`~repro.sim.reports.ReportRecorder`;
        ``report_state_ids`` fixes the STE-to-region assignment order.
        Returns an :class:`ApPerfResult`.
        """
        offloads, n_regions = self.offload_bits_per_cycle_map(
            recorder, report_state_ids
        )
        queue_capacity = max(1.0, n_regions * L1_BITS_PER_REGION * self.scale)
        bandwidth = self.export_bits_per_cycle

        queue_bits = 0.0
        stall_cycles = 0.0
        previous = 0
        total_offloaded = 0
        for cycle, bits in offloads.items():
            gap = cycle - previous
            previous = cycle
            queue_bits = max(0.0, queue_bits - bandwidth * gap)
            queue_bits += bits
            total_offloaded += bits
            if queue_bits > queue_capacity:
                overflow = queue_bits - queue_capacity
                stall_cycles += overflow / bandwidth
                queue_bits = queue_capacity
        return ApPerfResult(
            total_cycles, stall_cycles, total_offloaded, n_regions
        )
