"""Execution planning: plan, planner, session.

- :class:`~repro.exec.plan.ExecutionPlan` — one validated, versioned
  value naming the execution target and the device fidelity;
- :class:`~repro.exec.planner.Planner` — picks a plan from the stream
  count, with a machine-readable reason per choice;
- :class:`~repro.exec.session.Session` — binds a plan to a compiled
  engine/device and exposes ``execute(streams) -> results``.
"""

from .plan import (DEFAULT_PLAN, PLAN_FORMAT, PLAN_VERSION, TARGETS,
                   ExecutionPlan, resolve_plan)
from .planner import Planner
from .session import Session

__all__ = [
    "DEFAULT_PLAN",
    "ExecutionPlan",
    "PLAN_FORMAT",
    "PLAN_VERSION",
    "Planner",
    "Session",
    "TARGETS",
    "resolve_plan",
]
