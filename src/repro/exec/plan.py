"""The execution plan: which compiled artifact runs, at which fidelity.

:class:`ExecutionPlan` is one validated, serializable value with two
fields:

- **target** — which compiled artifact executes: the functional
  :class:`~repro.sim.engine.BitsetEngine` (``"engine"``) or the
  hardware-faithful :class:`~repro.core.device.SunderDevice`
  (``"device"``).
- **fidelity** — the device's execution fidelity (the engine target
  ignores it).

How the streams run follows from their count alone: one stream runs
serially, several run as lanes of one batched pass.  Construction
raises :class:`ValueError` for a bad value, so misconfiguration
surfaces at plan time with a clear message.

Serialization is canonical and versioned (:data:`PLAN_FORMAT` /
:data:`PLAN_VERSION`).  A document that names a field the plan does
not have fails on that field.
"""

import json

from ..core.packed import FIDELITIES

#: Serialization format tag and version; bump the version whenever plan
#: semantics change.
PLAN_FORMAT = "repro-exec-plan"
PLAN_VERSION = 1

#: Accepted execution targets.
TARGETS = ("engine", "device")

#: Field defaults, in canonical serialization order.
_DEFAULTS = (
    ("target", "engine"),
    ("fidelity", "packed"),
)


class ExecutionPlan:
    """One validated execution target (see the module docstring)."""

    __slots__ = ("target", "fidelity", "reasons")

    def __init__(self, target="engine", fidelity="packed", reasons=None):
        if target not in TARGETS:
            raise ValueError(
                "plan target must be one of %r, got %r" % (TARGETS, target))
        if fidelity not in FIDELITIES:
            raise ValueError(
                "plan fidelity must be one of %r, got %r"
                % (FIDELITIES, fidelity))
        self.target = target
        self.fidelity = fidelity
        #: Machine-readable ``{"choice", "value", "reason"}`` records set
        #: by the planner; advisory only — never serialized.
        self.reasons = list(reasons) if reasons else []

    # ------------------------------------------------------------------
    # Canonical serialization
    # ------------------------------------------------------------------
    def to_payload(self):
        """Full versioned payload (every field, canonical order)."""
        payload = {"format": PLAN_FORMAT, "version": PLAN_VERSION}
        for name, _ in _DEFAULTS:
            payload[name] = getattr(self, name)
        return payload

    @classmethod
    def from_payload(cls, payload):
        """Inverse of :meth:`to_payload`.

        Accepts the full form (with ``format``/``version`` envelope) and
        a bare dict of fields (optionally with ``v``, the version).
        """
        try:
            fields = dict(payload)
        except (TypeError, ValueError):
            raise ValueError("malformed plan payload: %r" % (payload,))
        if "format" in fields:
            if fields.pop("format") != PLAN_FORMAT:
                raise ValueError(
                    "unknown plan format %r" % (payload.get("format"),))
            if fields.pop("version", None) != PLAN_VERSION:
                raise ValueError(
                    "unsupported plan version %r" % (payload.get("version"),))
        else:
            version = fields.pop("v", PLAN_VERSION)
            if version != PLAN_VERSION:
                raise ValueError("unsupported plan version %r" % (version,))
        known = {name for name, _ in _DEFAULTS}
        unknown = set(fields) - known
        if unknown:
            raise ValueError(
                "unknown plan field(s): %s" % ", ".join(sorted(unknown)))
        return cls(**fields)

    def dumps(self):
        return json.dumps(self.to_payload(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def loads(cls, text):
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, TypeError) as error:
            raise ValueError("undecodable plan text: %s" % error)
        return cls.from_payload(payload)

    # ------------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, ExecutionPlan):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name, _ in _DEFAULTS)

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name, _ in _DEFAULTS))

    def __repr__(self):
        fields = ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name, default in _DEFAULTS
            if getattr(self, name) != default)
        return "ExecutionPlan(%s)" % (fields or "default")


#: The all-defaults plan (serial engine run).
DEFAULT_PLAN = ExecutionPlan()


def resolve_plan(value):
    """Coerce a user-facing plan value to an :class:`ExecutionPlan`.

    Accepts ``None``/``"auto"`` (returns None: the caller's default plan,
    or the planner's choice for a plan-free ``Session``), an
    :class:`ExecutionPlan`, a payload dict, or a JSON string.  Raises
    :class:`ValueError` on anything else.
    """
    if value is None or value == "auto":
        return None
    if isinstance(value, ExecutionPlan):
        return value
    if isinstance(value, dict):
        return ExecutionPlan.from_payload(value)
    if isinstance(value, str):
        return ExecutionPlan.loads(value)
    raise ValueError(
        "cannot interpret %r as an execution plan (expected 'auto', JSON, "
        "a payload dict, or an ExecutionPlan)" % (value,))
