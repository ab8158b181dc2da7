"""Reporting-behaviour statistics — the columns of the paper's Table 1.

Given an automaton and a simulated run, these helpers compute the static
columns (#states, #report states, report-state %) and dynamic columns
(#reports, #report cycles, reports/cycle, reports/report-cycle, and
report-cycle %) exactly as the paper defines them.
"""

from .engine import BitsetEngine, _normalize_stream
from .reports import ReportRecorder


def static_statistics(automaton):
    """Table 1 static columns for one automaton."""
    n_states = len(automaton)
    n_report = len(automaton.report_states())
    return {
        "states": n_states,
        "report_states": n_report,
        "report_state_pct": (100.0 * n_report / n_states) if n_states else 0.0,
    }


def dynamic_statistics(automaton, stream, position_limit=None):
    """Table 1 dynamic columns from actually simulating ``stream``.

    Returns the recorder summary plus ``cycles`` (the stream length in
    vector cycles) and the recorder itself for downstream models.
    """
    engine = BitsetEngine(automaton)
    recorder = ReportRecorder(position_limit=position_limit)
    codes = _normalize_stream(automaton, stream)
    engine.run(codes, recorder)
    cycles = len(codes)
    result = recorder.summary(cycles)
    result["cycles"] = cycles
    result["recorder"] = recorder
    tally = engine.active_count_tally()
    result["max_active_states"] = max(tally, default=0)
    result["avg_active_states"] = (
        sum(count * visits for count, visits in tally.items()) / cycles
        if cycles else 0.0
    )
    return result


def reporting_behavior(automaton, stream, position_limit=None):
    """Full Table 1 row (static + dynamic) for one automaton and stream."""
    row = {"benchmark": automaton.name}
    row.update(static_statistics(automaton))
    dynamic = dynamic_statistics(automaton, stream, position_limit=position_limit)
    recorder = dynamic.pop("recorder")
    row.update(dynamic)
    row["recorder"] = recorder
    return row
