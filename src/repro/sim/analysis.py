"""Report-stream analytics.

Table 1 summarizes reporting behaviour with a handful of aggregates; this
module provides the richer diagnostics used when calibrating workloads
and sizing reporting buffers: inter-report-cycle gaps, windowed report
density, burst-width distribution, and per-rule match counts.
"""

from collections import Counter

from ..errors import SimulationError


def inter_report_gaps(recorder):
    """Gaps (in cycles) between consecutive reporting cycles.

    The distribution that decides buffer pressure: dense reporters have
    small gaps (SPM ~30), sparse ones large (Fermi ~3000).
    """
    cycles = sorted(recorder.reports_per_cycle)
    return [b - a for a, b in zip(cycles, cycles[1:])]


def burst_widths(recorder):
    """Counter of per-report-cycle widths (reports in the same cycle).

    SPM's signature is a heavy tail here (paper: 1394-wide bursts).
    """
    return Counter(recorder.reports_per_cycle.values())


def per_code_counts(recorder):
    """Counter of report codes — which rules actually fire.

    Counts each distinct plan's codes once, weighted by the number of
    rows that use the plan.
    """
    table, column = recorder.plan_table()
    uses = Counter(column)
    counts = Counter()
    for index, plan in enumerate(table):
        for _, _, code in plan:
            counts[code] += uses[index]
    return counts


def density_timeline(recorder, total_cycles, windows=20):
    """Report counts over ``windows`` equal slices of the run.

    Reveals phase behaviour (e.g. a trace whose second half goes quiet)
    that the global aggregates hide.
    """
    if total_cycles <= 0:
        raise SimulationError("total_cycles must be positive")
    if windows <= 0:
        raise SimulationError("windows must be positive")
    width = max(1, -(-total_cycles // windows))
    timeline = [0] * windows
    for cycle, count in recorder.reports_per_cycle.items():
        index = min(windows - 1, cycle // width)
        timeline[index] += count
    return timeline


def buffer_pressure(recorder, capacity, total_cycles, drain_per_cycle=0.0):
    """Peak and final occupancy of a ``capacity``-entry report buffer.

    Replays the report-cycle stream against a single buffer with an
    optional continuous drain: the quick answer to "would this workload
    overflow an N-entry region?" without the full performance model.
    Returns ``(peak, overflows, final)``.
    """
    if capacity < 1:
        raise SimulationError("capacity must be positive")
    level = 0.0
    peak = 0.0
    overflows = 0
    previous = 0
    for cycle in sorted(recorder.reports_per_cycle):
        if cycle >= total_cycles:
            raise SimulationError("report beyond total_cycles")
        level = max(0.0, level - drain_per_cycle * (cycle - previous))
        previous = cycle
        level += 1.0  # one entry per reporting cycle
        if level > capacity:
            overflows += 1
            level = 1.0
        peak = max(peak, level)
    level = max(0.0, level - drain_per_cycle * (total_cycles - previous))
    return peak, overflows, level


def summarize_analysis(recorder, total_cycles):
    """One-stop dict of the analytics above."""
    gaps = inter_report_gaps(recorder)
    widths = burst_widths(recorder)
    result = {
        "report_cycles": recorder.report_cycles,
        "total_reports": recorder.total_reports,
        "min_gap": min(gaps) if gaps else None,
        "median_gap": sorted(gaps)[len(gaps) // 2] if gaps else None,
        "max_burst": max(widths) if widths else 0,
        "timeline": density_timeline(recorder, total_cycles)
        if total_cycles > 0 else [],
    }
    if recorder.total_reports:
        result["hot_codes"] = per_code_counts(recorder).most_common(5)
    return result
