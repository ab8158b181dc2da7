"""Reporting-behaviour statistics — the columns of the paper's Table 1.

Given an automaton and a simulated run, these helpers compute the static
columns (#states, #report states, report-state %) and dynamic columns
(#reports, #report cycles, reports/cycle, reports/report-cycle, and
report-cycle %) exactly as the paper defines them.
"""

from .engine import BitsetEngine
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
    stream = list(stream)
    engine.run(stream, recorder)
    cycles = len(stream)
    result = recorder.summary(cycles)
    result["cycles"] = cycles
    result["recorder"] = recorder
    result["max_active_states"] = (
        max(engine.active_count_history) if engine.active_count_history else 0
    )
    result["avg_active_states"] = (
        sum(engine.active_count_history) / cycles if cycles else 0.0
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
