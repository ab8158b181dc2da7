"""Unified execution planning: plan, planner, session.

The run-variant explosion of PRs 5-8 (serial, batched, sharded,
windowed, gated, multi-round, at two device fidelities) collapses here
into three composable pieces:

- :class:`~repro.exec.plan.ExecutionPlan` — one validated, versioned
  value naming a complete run strategy;
- :class:`~repro.exec.planner.Planner` — auto-selects a plan from
  memoized automaton traits (:mod:`~repro.exec.traits`) plus stream
  shape, with a machine-readable reason per choice;
- :class:`~repro.exec.session.Session` — binds a plan to a compiled
  engine/device and exposes ``execute(streams) -> results``.
"""

from .plan import (DEFAULT_PLAN, PLAN_FORMAT, PLAN_VERSION, TARGETS,
                   ExecutionPlan, resolve_plan)
from .planner import Planner
from .session import Session
from .traits import (TRAITS_CODEC, TRAITS_FORMAT, TRAITS_VERSION,
                     AutomatonTraits, TraitsCodec, automaton_traits)

__all__ = [
    "AutomatonTraits",
    "DEFAULT_PLAN",
    "ExecutionPlan",
    "PLAN_FORMAT",
    "PLAN_VERSION",
    "Planner",
    "Session",
    "TARGETS",
    "TRAITS_CODEC",
    "TRAITS_FORMAT",
    "TRAITS_VERSION",
    "TraitsCodec",
    "automaton_traits",
    "resolve_plan",
]
