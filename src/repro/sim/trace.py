"""Execution tracing: per-cycle visibility into a running automaton.

Wraps :class:`~repro.sim.engine.BitsetEngine` and records, per cycle, the
input vector, the active state ids, and any reports — the debugging view
VASim provides with its ``--debug`` flag.  Traces render as aligned text
or export as structured dicts for programmatic analysis.
"""

from .engine import BitsetEngine
from .reports import ReportRecorder


class CycleTrace:
    """One cycle of execution."""

    __slots__ = ("cycle", "vector", "active", "reports")

    def __init__(self, cycle, vector, active, reports):
        self.cycle = cycle
        self.vector = vector
        self.active = active
        self.reports = reports

    def as_dict(self):
        """Plain-dict form for JSON export."""
        return {
            "cycle": self.cycle,
            "vector": list(self.vector),
            "active": list(self.active),
            "reports": [
                {"state": state_id, "code": code}
                for state_id, code in self.reports
            ],
        }


class Tracer:
    """Run an automaton while capturing a full execution trace.

    Every cycle is stored (one record per cycle: a debugging view, not
    a benchmark path).
    """

    def __init__(self, automaton):
        self.automaton = automaton
        self.engine = BitsetEngine(automaton)
        self.cycles = []

    def run(self, stream, position_limit=None):
        """Execute ``stream``; returns the report recorder."""
        recorder = ReportRecorder(position_limit=position_limit)
        self.engine.reset()
        self.cycles = []
        for raw in stream:
            vector = (raw,) if isinstance(raw, int) else tuple(raw)
            rows_before = len(recorder.plans)
            self.engine.step(vector, recorder)
            self.cycles.append(CycleTrace(
                len(self.cycles),
                vector,
                self.engine.active_ids(),
                [(state_id, code)
                 for plan in recorder.plans[rows_before:]
                 for _, state_id, code in plan],
            ))
        return recorder

    # ------------------------------------------------------------------
    def render(self, max_cycles=None, symbol_renderer=None):
        """Aligned text rendering of the trace.

        ``symbol_renderer`` maps an input vector to display text (default:
        printable ASCII for byte automata, hex for nibbles).
        """
        if symbol_renderer is None:
            symbol_renderer = _default_symbol_renderer(self.automaton.bits)
        lines = ["cycle  input      active states"]
        stored = self.cycles
        shown = stored if max_cycles is None else stored[:max_cycles]
        for trace in shown:
            report_text = ""
            if trace.reports:
                report_text = "  REPORT " + ",".join(
                    str(code) for _, code in trace.reports
                )
            lines.append("%5d  %-9s  %s%s" % (
                trace.cycle,
                symbol_renderer(trace.vector),
                ",".join(map(str, trace.active)) or "-",
                report_text,
            ))
        if max_cycles is not None and len(stored) > max_cycles:
            lines.append("... %d more cycles" % (len(stored) - max_cycles))
        return "\n".join(lines)

    def active_counts(self):
        """Per-cycle active-state counts (enabled-set pressure)."""
        return [len(trace.active) for trace in self.cycles]

    def report_cycles(self):
        """Cycle indices at which at least one report fired."""
        return [trace.cycle for trace in self.cycles if trace.reports]


def _default_symbol_renderer(bits):
    def render(vector):
        if bits == 8 and len(vector) == 1 and 0x20 <= vector[0] <= 0x7E:
            return "%r" % chr(vector[0])
        return "/".join("%x" % value for value in vector)
    return render
