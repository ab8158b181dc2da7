"""Memoized automaton traits: the planner's structural inputs.

Every planning decision reads the same handful of machine facts — state
count, ``depth_bound()`` (and hence cyclicity), and the literal-
extractability verdict.  ``depth_bound()`` is an O(states) graph walk
and extractability a bounded graph search; both were recomputed per
planning/run call before this module.  :func:`automaton_traits` computes
them once per machine and memoizes the result twice over:

- a process-wide weak map keyed on the machine object (the common case:
  one machine, many streams), and
- a content-addressed ``traits`` artifact in the process-wide artifact
  store (key = fingerprint + :data:`TRAITS_VERSION`), shared across
  processes and runs like every other artifact.

Traits are derived facts, never mutated; the codec's inherited identity
``freeze`` serves the master object itself.
"""

import json
import weakref

from ..automata.indexed import IndexedAutomaton
from ..errors import ArtifactError
from ..prefilter.literals import extract_literals
from ..runtime.store import Codec, artifact_key, get_store

#: Version salt for memoized trait computations; bump it whenever trait
#: derivation semantics change.
TRAITS_VERSION = 1

TRAITS_FORMAT = "repro-exec-traits"


class AutomatonTraits:
    """Structural facts of one automaton (see the module docstring)."""

    __slots__ = ("name", "state_count", "depth_bound", "filterable",
                 "reason", "literal_count")

    def __init__(self, name, state_count, depth_bound, filterable,
                 reason=None, literal_count=0):
        self.name = name
        self.state_count = int(state_count)
        self.depth_bound = depth_bound if depth_bound is None \
            else int(depth_bound)
        self.filterable = bool(filterable)
        self.reason = reason
        self.literal_count = int(literal_count)

    @property
    def cyclic(self):
        """True when the machine has a reachable cycle (unbounded
        history; shard warm-up replay and gated windowing are unsound)."""
        return self.depth_bound is None

    # -- payload round-trip (for the content-addressed cache) ----------
    def to_payload(self):
        return {
            "format": TRAITS_FORMAT,
            "version": TRAITS_VERSION,
            "name": self.name,
            "state_count": self.state_count,
            "depth_bound": self.depth_bound,
            "filterable": self.filterable,
            "reason": self.reason,
            "literal_count": self.literal_count,
        }

    @classmethod
    def from_payload(cls, payload):
        try:
            if payload.get("format") != TRAITS_FORMAT:
                raise ValueError("unknown traits format %r"
                                 % (payload.get("format"),))
            if payload.get("version") != TRAITS_VERSION:
                raise ValueError("unsupported traits version %r"
                                 % (payload.get("version"),))
            return cls(payload["name"], payload["state_count"],
                       payload["depth_bound"], payload["filterable"],
                       payload.get("reason"),
                       payload.get("literal_count", 0))
        except (AttributeError, KeyError, TypeError) as error:
            raise ValueError("malformed traits payload: %s" % error)

    def __repr__(self):
        return ("AutomatonTraits(%r, states=%d, depth_bound=%r, "
                "filterable=%r)" % (self.name, self.state_count,
                                    self.depth_bound, self.filterable))


class TraitsCodec(Codec):
    """Artifact codec for memoized trait computations."""

    kind = "traits"

    def encode(self, traits):
        return json.dumps(traits.to_payload(), sort_keys=True,
                          separators=(",", ":"))

    def decode(self, text):
        try:
            return AutomatonTraits.from_payload(json.loads(text))
        except (json.JSONDecodeError, ValueError, TypeError) as error:
            raise ArtifactError("undecodable traits artifact: %s" % error)


TRAITS_CODEC = TraitsCodec()

#: Process-wide weak memo: machine object -> traits.  Weak keys so
#: transient machines do not pin memory; machines are not mutated once
#: they execute, so the memo is sound for the object's lifetime.
_TRAITS_MEMO = weakref.WeakKeyDictionary()


def _compute_traits(automaton):
    # The dense-integer view walks the graph without touching string
    # ids; its depth_bound is pinned bit-equal to Automaton.depth_bound
    # by tests/test_indexed.py.
    depth = IndexedAutomaton.from_automaton(automaton).depth_bound()
    if automaton.bits == 8 and automaton.arity == 1:
        extraction = extract_literals(automaton)
        filterable = extraction.filterable
        reason = extraction.reason
        literal_count = len(extraction.literals)
    else:
        # Literals are extracted from the 8-bit byte machine; rate-
        # transformed derivatives gate through their source instead.
        filterable = False
        reason = ("literals extract from the 8-bit source machine, not "
                  "a %d-bit arity-%d derivative"
                  % (automaton.bits, automaton.arity))
        literal_count = 0
    return AutomatonTraits(automaton.name, len(automaton), depth,
                           filterable, reason, literal_count)


def automaton_traits(automaton):
    """The (memoized) :class:`AutomatonTraits` of one machine.

    Checks the in-process weak memo, then the artifact store, and only
    then recomputes — mirroring
    :func:`repro.prefilter.gate.build_prefilter`'s tiering, so pool
    workers and repeated stage runs share one computation per
    fingerprint.
    """
    try:
        return _TRAITS_MEMO[automaton]
    except (KeyError, TypeError):
        pass
    traits, _ = get_store().fetch(
        artifact_key(TRAITS_CODEC.kind, automaton.fingerprint(),
                     TRAITS_VERSION),
        TRAITS_CODEC, lambda: _compute_traits(automaton))
    try:
        _TRAITS_MEMO[automaton] = traits
    except TypeError:  # pragma: no cover - unweakrefable machines
        pass
    return traits
