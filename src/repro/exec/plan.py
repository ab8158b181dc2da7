"""The execution plan: one value naming a complete run strategy.

PRs 5-8 grew the kernels eight overlapping run variants (serial,
batched, sharded, windowed, gated, multi-round, at two device
fidelities), each selected by ad-hoc knobs threaded through stage
params and CLI flags.  :class:`ExecutionPlan` collapses that knob space
into a single validated, serializable value:

- **target** — which compiled artifact executes: the functional
  :class:`~repro.sim.engine.BitsetEngine` (``"engine"``) or the
  hardware-faithful :class:`~repro.core.device.SunderDevice`
  (``"device"``).
- **fidelity** — the device's execution fidelity (the engine target
  ignores it).
- **batch / shards** — the single-stream throughput axes:
  interleaved-lane count and shard count for one long stream.
- **prefilter** — two-stage literal gating.

Construction validates the whole combination up front — bad *values*
raise :class:`ValueError`, contradictory *combinations* raise
:class:`~repro.errors.ArchitectureError` — so misconfiguration
surfaces at plan time with a clear message instead of deep inside a
run variant.  Trait-dependent rules (sharding a cyclic machine) live
in :meth:`validate_for`, called when a plan is bound to a machine.

Serialization is canonical and versioned (:data:`PLAN_FORMAT` /
:data:`PLAN_VERSION`); :meth:`param_payload` emits only the
non-default fields, which is the key-salting rule the stage graph
relies on — a default plan adds *nothing* to a stage's params, so
pre-existing artifact keys (and warm stores) are untouched.
"""

import json

from ..core.packed import FIDELITIES
from ..errors import ArchitectureError

#: Serialization format tag and version; bump the version whenever plan
#: semantics change so salted artifact keys never alias across releases.
PLAN_FORMAT = "repro-exec-plan"
PLAN_VERSION = 1

#: Accepted execution targets.
TARGETS = ("engine", "device")

#: Field defaults, in canonical serialization order.  ``param_payload``
#: emits exactly the fields that differ from these.
_DEFAULTS = (
    ("target", "engine"),
    ("fidelity", "packed"),
    ("batch", 1),
    ("shards", 1),
    ("prefilter", False),
)


class ExecutionPlan:
    """One validated execution strategy (see the module docstring)."""

    __slots__ = ("target", "fidelity", "batch", "shards", "prefilter",
                 "reasons")

    def __init__(self, target="engine", fidelity="packed", batch=1, shards=1,
                 prefilter=False, reasons=None):
        # --- value validation (ValueError: the field itself is bad) ----
        if target not in TARGETS:
            raise ValueError(
                "plan target must be one of %r, got %r" % (TARGETS, target))
        if fidelity not in FIDELITIES:
            raise ValueError(
                "plan fidelity must be one of %r, got %r"
                % (FIDELITIES, fidelity))
        if not isinstance(batch, int) or isinstance(batch, bool) or batch < 1:
            raise ValueError(
                "plan batch must be an int >= 1, got %r" % (batch,))
        if shards != "auto" and (not isinstance(shards, int)
                                 or isinstance(shards, bool) or shards < 1):
            raise ValueError(
                "plan shards must be an int >= 1 or 'auto', got %r"
                % (shards,))
        if not isinstance(prefilter, bool):
            raise ValueError(
                "plan prefilter must be a bool, got %r" % (prefilter,))

        # --- combination validation (ArchitectureError: fields clash) --
        sharded = shards == "auto" or shards > 1
        if prefilter and fidelity == "literal":
            raise ArchitectureError(
                "prefilter gating requires the packed fidelity (the "
                "literal oracle has no window-replay form); drop "
                "fidelity='literal' or prefilter")
        if prefilter and (sharded or batch > 1):
            raise ArchitectureError(
                "prefilter gating plans its own replay windows; it cannot "
                "be combined with shards/batch lane splitting")
        if sharded and batch > 1:
            raise ArchitectureError(
                "shards and batch are competing single-stream strategies; "
                "set at most one of them above 1")
        if target == "device" and (sharded or batch > 1):
            raise ArchitectureError(
                "the device target has no sharded/interleaved single-"
                "stream path; shards/batch apply to the engine target")

        self.target = target
        self.fidelity = fidelity
        self.batch = batch
        self.shards = shards
        self.prefilter = prefilter
        #: Machine-readable ``{"choice", "value", "reason"}`` records set
        #: by the planner; advisory only — never serialized.
        self.reasons = list(reasons) if reasons else []

    # ------------------------------------------------------------------
    # Trait-dependent validation (plan x machine)
    # ------------------------------------------------------------------
    def validate_for(self, traits):
        """Check this plan against one machine's memoized traits.

        Raises :class:`~repro.errors.ArchitectureError` for combinations
        that are only wrong for *this* machine — most prominently an
        explicit shard count on a cyclic machine, whose unbounded
        history makes shard warm-up replay unsound.  ``shards="auto"``
        stays valid everywhere (the engine falls back to the serial
        path itself).  Returns the plan for chaining.
        """
        if (self.shards != "auto" and self.shards > 1
                and traits.depth_bound is None):
            raise ArchitectureError(
                "shards=%d is invalid for cyclic machine %r: shard warm-up "
                "replay needs a bounded depth (depth_bound() is None); use "
                "shards='auto' for a serial fallback" % (self.shards,
                                                         traits.name))
        if self.batch > 1 and traits.depth_bound is None:
            raise ArchitectureError(
                "batch=%d is invalid for cyclic machine %r: interleaved "
                "lanes replay shard warm-up prefixes, which need a bounded "
                "depth (depth_bound() is None)" % (self.batch, traits.name))
        return self

    # ------------------------------------------------------------------
    # Canonical serialization
    # ------------------------------------------------------------------
    @property
    def is_default(self):
        """True when every field holds its default value."""
        return all(getattr(self, name) == default
                   for name, default in _DEFAULTS)

    def param_payload(self):
        """Minimal dict of non-default fields (the key-salting form).

        Empty for a default plan — the stage layer then omits the
        ``plan`` param entirely, so default runs keep their pre-existing
        artifact keys (warm stores stay warm).  Non-empty payloads carry
        the plan version so a semantics bump re-salts every planned key.
        """
        payload = {name: getattr(self, name)
                   for name, default in _DEFAULTS
                   if getattr(self, name) != default}
        if payload:
            payload["v"] = PLAN_VERSION
        return payload

    def to_payload(self):
        """Full versioned payload (every field, canonical order)."""
        payload = {"format": PLAN_FORMAT, "version": PLAN_VERSION}
        for name, _ in _DEFAULTS:
            payload[name] = getattr(self, name)
        return payload

    @classmethod
    def from_payload(cls, payload):
        """Inverse of :meth:`to_payload` / :meth:`param_payload`.

        Accepts the full form (with ``format``/``version`` envelope) and
        the minimal param form (non-default fields only, with ``v``).
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
    @property
    def strategy(self):
        """Headline strategy name ("gated"/"sharded"/"batch"/"serial")."""
        if self.prefilter:
            return "gated"
        if self.shards == "auto" or self.shards > 1:
            return "sharded"
        if self.batch > 1:
            return "batch"
        return "serial"

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
