"""Analytic reporting-performance models (Table 4 and Figure 10).

The bit-faithful :class:`~repro.core.device.SunderDevice` is too slow for
million-cycle parameter sweeps, so the timing behaviour is factored out:

- :class:`ReportingPerfModel` replays the functional simulator's report
  rows, cycle by cycle, against the reporting-region counters only
  (capacity, FIFO drain, flush stalls): a placement maps each reporting
  state to its PU, and every PU a cycle's rows hit writes one region
  entry.  The inputs are exact; only the buffer timing is abstracted.
- :func:`sensitivity_slowdown` is the closed-form worst-case model behind
  Figure 10: a single subarray with ``m`` reporting states whose report
  probability per cycle is swept from 0 to 1, drained by a host reading
  ``host_bits_per_cycle`` (load-instruction path, Section 6).  The
  bandwidth default is calibrated so the paper's two published anchor
  points (7x at 100% without summarization, 1.4x with) are reproduced;
  see EXPERIMENTS.md.
"""

import numpy as np

from ..errors import ArchitectureError
from ..obs import trace_span

#: Host load-path bandwidth for the Figure 10 model, in bits per device
#: cycle.  Calibrated from the paper's anchor points (see module docs).
HOST_BITS_PER_CYCLE = 4.6
#: Row width of the report region in bits.
ROW_BITS = 256


class PerfResult:
    """Outcome of a reporting-performance evaluation."""

    def __init__(self, cycles, stall_cycles, flushes, fills):
        self.cycles = cycles
        self.stall_cycles = stall_cycles
        self.flushes = flushes
        self.fills = fills

    @property
    def slowdown(self):
        """Reporting overhead: (kernel + stalls) / kernel."""
        if self.cycles == 0:
            return 1.0
        return (self.cycles + self.stall_cycles) / self.cycles

    def __repr__(self):
        return "PerfResult(cycles=%d, stalls=%d, flushes=%d, slowdown=%.3fx)" % (
            self.cycles, self.stall_cycles, self.flushes, self.slowdown,
        )


class ReportingPerfModel:
    """Event-driven model of all reporting regions of a device.

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.SunderConfig`; ``fifo`` selects the
        Table 4 column (with or without the FIFO strategy).
    """

    def __init__(self, config):
        self.config = config

    def evaluate(self, recorder, placement, total_cycles, capacity_scale=1.0):
        """Replay a strided run's report rows; returns a :class:`PerfResult`.

        ``recorder`` is the run's
        :class:`~repro.sim.reports.ReportRecorder` and ``placement`` maps
        each reporting state to its PU (``report_pu_of``).  In every
        report cycle each PU the cycle's rows hit writes one region
        entry, which is the hardware's behaviour: one entry captures all
        of a PU's report bits for that cycle.

        FIFO draining is modelled as a fluid: the host's global drain
        bandwidth (``fifo_drain_rows_per_cycle`` rows/cycle) is shared
        proportionally among non-empty regions between report cycles.

        ``capacity_scale`` shrinks the fixed region geometry (capacity,
        per-flush cost, drain bandwidth) to match workloads generated at
        a reduced scale, preserving the fill/flush dynamics of a
        full-size 1MB run.
        """
        with trace_span("reporting.drain_model", fifo=self.config.fifo,
                        cycles=total_cycles) as span:
            return self._evaluate(recorder, placement, total_cycles,
                                  capacity_scale, span)

    def _evaluate(self, recorder, placement, total_cycles, capacity_scale,
                  span):
        config = self.config
        if capacity_scale <= 0:
            raise ArchitectureError("capacity_scale must be positive")
        rows = recorder.units_by_cycle(placement.report_pu_of)
        distinct = set(rows.values())
        keys = sorted(set().union(*distinct))
        span.set_attr(pus=len(keys))
        if not keys:
            return PerfResult(total_cycles, 0, 0, 0)
        last = next(reversed(rows))
        if last >= total_cycles:
            raise ArchitectureError(
                "fill at cycle %d beyond stream of %d cycles"
                % (last, total_cycles))
        index_of = {key: i for i, key in enumerate(keys)}
        indices = {units: np.array([index_of[key] for key in units])
                   for units in distinct}

        # Capacity is storage: it shrinks with the workload scale so the
        # fill/flush dynamics of a full-size run are preserved.  The
        # drain bandwidth is a physical per-cycle rate and stays fixed;
        # the per-flush stall is the full-size cost expressed in scaled
        # cycles (fractional), so slowdown figures remain comparable to
        # the paper's 1M-cycle runs.
        capacity = max(2, round(config.report_capacity * capacity_scale))
        full_flush_stall = max(
            1, -(-config.report_rows // config.flush_rows_per_cycle)
        )
        flush_stall = full_flush_stall * capacity_scale
        drain_rate = (
            config.fifo_drain_rows_per_cycle * config.entries_per_row
            if config.fifo else 0.0
        )

        counts = np.zeros(len(keys))
        stall_cycles = 0.0
        flushes = 0
        fills = 0
        previous_cycle = 0
        for cycle, units in rows.items():
            gap = cycle - previous_cycle
            previous_cycle = cycle
            if drain_rate > 0.0 and gap > 0:
                total = counts.sum()
                if total > 0.0:
                    drained = min(total, drain_rate * gap)
                    counts -= drained * counts / total
                    np.clip(counts, 0.0, None, out=counts)
            counts[indices[units]] += 1.0
            fills += len(units)
            over = counts > capacity
            if over.any():
                n_over = int(over.sum())
                flushes += n_over
                stall_cycles += n_over * flush_stall
                counts[over] = 1.0
        return PerfResult(total_cycles, stall_cycles, flushes, fills)


def sensitivity_slowdown(
    report_cycle_fraction,
    summarize=False,
    config=None,
    host_bits_per_cycle=HOST_BITS_PER_CYCLE,
):
    """Closed-form Figure 10 model for one subarray.

    The subarray accumulates one entry per reporting cycle; the host
    concurrently drains at ``host_bits_per_cycle``.  When accumulation
    outruns the drain, each region fill costs a stop-and-read of the used
    rows over the same host path.  With summarization the host reads one
    NOR-summary row per 16-row batch instead of the raw region.
    """
    from .config import SunderConfig

    if not 0.0 <= report_cycle_fraction <= 1.0:
        raise ArchitectureError("report-cycle fraction must be within [0, 1]")
    if config is None:
        config = SunderConfig()
    rate = report_cycle_fraction
    drain_entries_per_cycle = host_bits_per_cycle / config.entry_bits
    net_fill = max(0.0, rate - drain_entries_per_cycle)
    if net_fill == 0.0:
        return 1.0
    if summarize:
        rows_read = -(-config.report_rows // config.summarize_batch_rows)
        batches = rows_read
        extra_stall = batches * config.summarize_stall_cycles
    else:
        rows_read = config.report_rows
        extra_stall = 0
    flush_cost = rows_read * ROW_BITS / host_bits_per_cycle + extra_stall
    return 1.0 + net_fill * flush_cost / config.report_capacity
