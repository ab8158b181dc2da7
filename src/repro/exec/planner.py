"""The planner: stream count -> execution plan.

:class:`Planner` picks how a :class:`~repro.exec.session.Session` runs
its streams from their count alone: several independent streams run as
lanes of one batched pass sharing one step table (``multi-stream``),
one stream runs serially (``single-stream``).  A device planner also
records the fidelity it picks.

Every choice carries a machine-readable reason; the selected plan is
counted on ``repro_plan_selected_total{strategy,reason}`` and traced on
an ``exec.plan`` span.
"""

from ..obs import OBS, trace_span
from .plan import TARGETS, ExecutionPlan


class Planner:
    """Auto-selects an :class:`ExecutionPlan` (see the module docstring).

    ``target`` fixes which compiled artifact the plans drive; the
    default plans for the functional engine.
    """

    def __init__(self, target="engine"):
        if target not in TARGETS:
            raise ValueError(
                "planner target must be one of %r, got %r"
                % (TARGETS, target))
        self.target = target

    def plan(self, automaton, stream_count=1):
        """The selected plan for ``automaton`` over ``stream_count``
        streams."""
        plan, _ = self.explain(automaton, stream_count=stream_count)
        return plan

    def explain(self, automaton, stream_count=1):
        """``(plan, choices)`` with one reason record per decision.

        ``choices`` is a list of ``{"choice", "value", "reason"}`` dicts
        (also attached to the plan as ``plan.reasons``); the first entry
        is always the headline strategy.  ``automaton`` only names the
        ``exec.plan`` span: the choice reads nothing from it.
        """
        if stream_count < 1:
            raise ValueError(
                "stream_count must be >= 1, got %r" % (stream_count,))
        if stream_count > 1:
            strategy, reason = "batch", "multi-stream"
        else:
            strategy, reason = "serial", "single-stream"
        choices = [{"choice": "strategy", "value": strategy,
                    "reason": reason}]
        if self.target == "device":
            choices.append({"choice": "fidelity", "value": "packed",
                            "reason": "the packed kernel is the "
                                      "benchmarked default"})
        plan = ExecutionPlan(target=self.target, reasons=choices)
        with trace_span("exec.plan", automaton=automaton.name,
                        target=self.target, strategy=strategy,
                        reason=reason, streams=stream_count):
            pass
        if OBS.active:
            OBS.instruments.plan_selected.labels(
                strategy=strategy, reason=reason).inc()
        return plan, choices
