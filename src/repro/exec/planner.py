"""The planner: automaton traits + stream shape -> execution plan.

Given one machine's memoized traits (:mod:`~repro.exec.traits`) and the
shape of the work (how many streams, how long), :class:`Planner` picks
the execution strategy the performance docs say wins that regime:

- several independent streams -> batched lanes sharing one step cache;
- a literal-extractable acyclic machine -> prefilter-gated windows
  (the kernel only wakes where the literal scan fires);
- one long acyclic stream -> ``shards="auto"`` overlap-replayed blocks
  (the engine itself falls back to serial below its threshold);
- everything else -> the serial benchmarked-default path.

Every choice carries a machine-readable reason; the selected plan is
counted on ``repro_plan_selected_total{strategy,reason}`` and traced on
an ``exec.plan`` span.  Planner output is always *executable*: it never
emits a combination :meth:`ExecutionPlan.validate_for` (or a run
variant) would reject — tests/test_exec.py holds this as a property
over random machines.
"""

from ..obs import OBS, trace_span
from ..sim.engine import AUTO_SHARD_MIN_CYCLES
from .plan import TARGETS, ExecutionPlan
from .traits import automaton_traits


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

    def plan(self, automaton, stream_count=1, stream_cycles=0):
        """The selected plan for ``automaton`` over the given shape."""
        plan, _ = self.explain(automaton, stream_count=stream_count,
                               stream_cycles=stream_cycles)
        return plan

    def explain(self, automaton, stream_count=1, stream_cycles=0):
        """``(plan, choices)`` with one reason record per decision.

        ``choices`` is a list of ``{"choice", "value", "reason"}`` dicts
        (also attached to the plan as ``plan.reasons``); the first entry
        is always the headline strategy.
        """
        if stream_count < 1:
            raise ValueError(
                "stream_count must be >= 1, got %r" % (stream_count,))
        traits = automaton_traits(automaton)
        fields, choices = self._choose(traits, stream_count, stream_cycles)
        plan = ExecutionPlan(target=self.target, reasons=choices, **fields)
        strategy = choices[0]["value"]
        reason = choices[0]["reason"]
        with trace_span("exec.plan", automaton=automaton.name,
                        target=self.target, strategy=strategy,
                        reason=reason, streams=stream_count,
                        cycles=stream_cycles):
            pass
        if OBS.active:
            OBS.instruments.plan_selected.labels(
                strategy=strategy, reason=reason).inc()
        return plan, choices

    def _choose(self, traits, stream_count, stream_cycles):
        """Strategy decision tree over (traits, shape); pure."""
        choices = []

        def choose(choice, value, reason):
            choices.append({"choice": choice, "value": value,
                            "reason": reason})

        fields = {}
        if stream_count > 1:
            choose("strategy", "batch", "multi-stream")
        elif traits.filterable and not traits.cyclic:
            choose("strategy", "gated", "filterable-acyclic")
            fields["prefilter"] = True
        elif (self.target == "engine" and not traits.cyclic
                and stream_cycles >= AUTO_SHARD_MIN_CYCLES):
            choose("strategy", "sharded", "long-acyclic-stream")
            fields["shards"] = "auto"
        elif traits.cyclic:
            choose("strategy", "serial", "cyclic")
        elif not traits.filterable:
            choose("strategy", "serial", "unfilterable-short-stream")
        else:
            choose("strategy", "serial", "short-stream")
        if self.target == "device":
            choose("fidelity", "auto",
                   "the packed kernel is the benchmarked default")
        return fields, choices
