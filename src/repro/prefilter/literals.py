"""Required-literal extraction from homogeneous NFA graphs.

The two-stage prefilter (docs/performance.md, "Two-stage prefiltering")
only works if every report the full machine could emit is announced by a
cheap literal scan first.  This module derives that guarantee from the
automaton graph itself: for every report state it walks the predecessor
graph *backwards*, expanding symbol sets into concrete bytes, until each
path reaches a start state or the length cap.  The strings collected
this way are **required substrings**:

    any chain of activations ending in a report at byte position ``t``
    must have matched, byte for byte, one extracted literal whose last
    byte lies exactly at ``t``.

The argument is the same bounded-memory one :meth:`BitsetEngine.
run_sharded <repro.sim.engine.BitsetEngine.run_sharded>` uses for shard
replays: walking backwards from a report state, each step's symbol set
constrains the input byte at that relative offset *regardless of how the
earliest state in the window was enabled* — a longer history only
prepends bytes, so the extracted string is a suffix of every possible
history and stopping early (at a start state or at
:data:`MAX_LITERAL_LEN`) is sound.  Over-approximation is free (extra
literals only cost filter selectivity); missing one would break
bit-exactness, so any state whose backward walk cannot be enumerated
within budget (wide symbol sets like ``.`` or large counted ranges, or
simply too many expansions) marks the whole machine **unfilterable**
and the gate bypasses it.  Soundness over coverage.

The caps below are constants, not parameters: the memoized prefilter
build is keyed by the machine's fingerprint and
:data:`~repro.prefilter.gate.PREFILTER_VERSION` alone, so changing any
cap means bumping ``PREFILTER_VERSION``.
"""

from ..errors import PrefilterError

#: Longest literal kept per backward path; longer required strings are
#: truncated to their last ``MAX_LITERAL_LEN`` bytes (still sound — a
#: suffix of a required string is required).
MAX_LITERAL_LEN = 8
#: Widest symbol set expanded into concrete bytes.  Anything wider
#: (e.g. ``.``, ``[^\\n]``, large ranges) makes the machine unfilterable
#: rather than exploding the literal set.
MAX_SYMBOL_CHOICES = 16
#: Upper bound on distinct literals emitted per report state.
MAX_STATE_LITERALS = 64
#: Upper bound on backward-walk steps per report state (guards
#: combinatorial blowup before the literal caps trigger).
MAX_STATE_WORK = 4096
#: Upper bound on the machine-wide literal set.
MAX_TOTAL_LITERALS = 4096


class LiteralExtraction:
    """Result of one extraction: the literal set or the bypass verdict.

    ``filterable`` is the load-bearing bit: when False the gate must run
    the machine ungated (``reason`` says why, for spans and debugging).
    ``literals`` is a sorted tuple of ``bytes``; every possible report
    of the source machine ends exactly at the last byte of an occurrence
    of one of them.
    """

    __slots__ = ("literals", "filterable", "reason")

    def __init__(self, literals=(), filterable=True, reason=None):
        self.literals = tuple(sorted(set(bytes(lit) for lit in literals)))
        self.filterable = bool(filterable)
        self.reason = reason
        if self.filterable and any(not lit for lit in self.literals):
            raise PrefilterError("extracted an empty literal")

    def to_payload(self):
        return {
            "format": "repro-literal-extraction",
            "version": 1,
            "filterable": self.filterable,
            "reason": self.reason,
            "literals": [lit.hex() for lit in self.literals],
        }

    @classmethod
    def from_payload(cls, payload):
        try:
            if payload.get("format") != "repro-literal-extraction":
                raise PrefilterError("unknown literal-extraction format %r"
                                     % (payload.get("format"),))
            if payload.get("version") != 1:
                raise PrefilterError(
                    "unsupported literal-extraction version %r"
                    % (payload.get("version"),))
            return cls(
                literals=[bytes.fromhex(text) for text in payload["literals"]],
                filterable=payload["filterable"],
                reason=payload.get("reason"),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise PrefilterError(
                "malformed literal-extraction payload: %s" % error)

    def __repr__(self):
        if not self.filterable:
            return "LiteralExtraction(unfilterable: %s)" % (self.reason,)
        return "LiteralExtraction(%d literals)" % len(self.literals)


def _unfilterable(reason):
    return LiteralExtraction(filterable=False, reason=reason)


def _expand(symbol_set):
    """Concrete byte values of one symbol set, or None when too wide."""
    if len(symbol_set) > MAX_SYMBOL_CHOICES:
        return None
    return tuple(symbol_set)


def extract_literals(automaton):
    """Required literals of an 8-bit byte machine (or the bypass verdict).

    Returns a :class:`LiteralExtraction`.  Only plain byte machines
    (``bits == 8``, ``arity == 1``) are analyzable — nibble and strided
    machines are derived *from* one by rate transforms, so callers build
    the prefilter from the source machine and map byte hits onto the
    target machine's cycles (:func:`repro.prefilter.gate.plan_windows`).
    """
    if automaton.bits != 8 or automaton.arity != 1:
        return _unfilterable(
            "literal extraction analyzes 8-bit arity-1 machines "
            "(got %d-bit arity %d)" % (automaton.bits, automaton.arity))
    literals = set()
    for state in automaton.report_states():
        emitted = _state_literals(automaton, state)
        if emitted is None:
            return _unfilterable(
                "report state %r has no enumerable required literal"
                % (state.id,))
        literals |= emitted
        if len(literals) > MAX_TOTAL_LITERALS:
            return _unfilterable(
                "literal set exceeds %d entries" % MAX_TOTAL_LITERALS)
    return LiteralExtraction(literals=literals, filterable=True)


def _state_literals(automaton, state):
    """Backward walk from one report state; set of literals or None.

    Each frontier item is ``(state, suffix)``: ``suffix`` are the input
    bytes required at the last ``len(suffix)`` positions of any chain
    currently sitting at ``state``'s position.  A path terminates (and
    emits) at a start state — earlier history does not exist for chains
    born there, and for chains that instead entered it from a
    predecessor the emitted string is still a required suffix — or at
    :data:`MAX_LITERAL_LEN`.
    """
    first = _expand(state.symbols[0])
    if first is None:
        return None
    frontier = [(state, bytes([value])) for value in first]
    emitted = set()
    work = 0
    while frontier:
        work += 1
        if work > MAX_STATE_WORK:
            return None
        current, suffix = frontier.pop()
        if current.is_start or len(suffix) >= MAX_LITERAL_LEN:
            emitted.add(suffix)
            if len(emitted) > MAX_STATE_LITERALS:
                return None
            continue
        predecessors = automaton.predecessors(current.id)
        if not predecessors:
            # A non-start state with no predecessors can never activate;
            # validate() rules these out, but losing a path would be a
            # soundness bug, so refuse to filter rather than guess.
            return None
        for pred_id in sorted(predecessors):
            pred = automaton.state(pred_id)
            values = _expand(pred.symbols[0])
            if values is None:
                return None
            for value in values:
                frontier.append((pred, bytes([value]) + suffix))
    return emitted
