"""State Transition Elements (STEs) for homogeneous NFAs.

A homogeneous NFA attaches the matching rule to the *state* rather than the
edge: every transition entering a state fires on that state's symbol set
(Glushkov form).  This is the representation used by the Micron AP, Cache
Automaton, Impala, and Sunder, because a state then maps to exactly one
memory column.

An STE in this library is *vector-valued*: ``symbols`` is a tuple with one
:class:`~repro.automata.symbolset.SymbolSet` per stride position.  A plain
8-bit or 4-bit automaton uses arity-1 tuples; temporally strided automata
(Section 4 of the paper) use arity 2 or 4.
"""

import enum

from ..errors import AutomatonError
from .symbolset import SymbolSet


class StartKind(enum.Enum):
    """How a state may self-activate, mirroring ANML start attributes."""

    #: Never self-activates; only enabled by a predecessor.
    NONE = "none"
    #: Enabled only for the very first input symbol (ANML ``start-of-data``).
    START_OF_DATA = "start-of-data"
    #: Enabled on every symbol-cycle boundary (ANML ``all-input``).
    ALL_INPUT = "all-input"


class Ste:
    """One state of a homogeneous NFA.

    Parameters
    ----------
    state_id:
        Unique identifier within the automaton (any hashable string).
    symbols:
        One :class:`SymbolSet` per stride position; all positions must share
        the same symbol width.
    start:
        A :class:`StartKind` (or its string value).
    report:
        Whether reaching this state emits a report event.
    report_code:
        Stable identifier attached to report events.  Transformations
        propagate it, so reports from a nibble-transformed automaton can be
        matched against the original automaton's reports.
    report_offsets:
        For strided states: the positions within the vector at which the
        report fires (``0`` is the first sub-symbol).  Defaults to the last
        position, which is the only position for arity-1 states.
    """

    __slots__ = ("id", "symbols", "start", "report", "report_code", "report_offsets")

    def __init__(
        self,
        state_id,
        symbols,
        start=StartKind.NONE,
        report=False,
        report_code=None,
        report_offsets=None,
    ):
        if isinstance(symbols, SymbolSet):
            symbols = (symbols,)
        symbols = tuple(symbols)
        if not symbols:
            raise AutomatonError("STE %r needs at least one symbol set" % state_id)
        widths = {s.bits for s in symbols}
        if len(widths) != 1:
            raise AutomatonError(
                "STE %r mixes symbol widths %s" % (state_id, sorted(widths))
            )
        if isinstance(start, str):
            start = StartKind(start)
        if report_offsets is None:
            report_offsets = (len(symbols) - 1,) if report else ()
        report_offsets = tuple(sorted(set(report_offsets)))
        for offset in report_offsets:
            if not 0 <= offset < len(symbols):
                raise AutomatonError(
                    "report offset %d out of range for arity-%d STE %r"
                    % (offset, len(symbols), state_id)
                )
        if report and not report_offsets:
            raise AutomatonError("reporting STE %r has no report offsets" % state_id)
        if report_offsets and not report:
            raise AutomatonError(
                "STE %r has report offsets but report=False" % state_id
            )
        self.id = state_id
        self.symbols = symbols
        self.start = start
        self.report = bool(report)
        self.report_code = report_code if report else None
        self.report_offsets = report_offsets

    # ------------------------------------------------------------------
    @property
    def arity(self):
        """Number of sub-symbols this state consumes per cycle."""
        return len(self.symbols)

    @property
    def bits(self):
        """Width in bits of each sub-symbol."""
        return self.symbols[0].bits

    @property
    def is_start(self):
        """True for either start kind."""
        return self.start is not StartKind.NONE

    def matches(self, vector):
        """True when the input ``vector`` (tuple of ints) matches this state."""
        if len(vector) != len(self.symbols):
            raise AutomatonError(
                "arity mismatch: state %r expects %d sub-symbols, got %d"
                % (self.id, len(self.symbols), len(vector))
            )
        return all(value in sset for sset, value in zip(self.symbols, vector))

    def behavior_key(self):
        """Hashable key of everything except identity and connectivity.

        Two states with equal behaviour keys *and* equal successor (or
        predecessor) sets are mergeable; see
        :func:`repro.automata.ops.merge_equivalent_states`.
        """
        return (self.symbols, self.start, self.report, self.report_code,
                self.report_offsets)

    def clone(self, state_id=None):
        """Copy this STE, optionally renaming it.

        Every field of an existing STE is already canonical (validated
        at construction), so the copy skips ``__init__`` validation —
        cloning is the inner loop of ``Automaton.copy``, where
        re-validating hundreds of thousands of states per pipeline run
        was pure overhead.
        """
        return ste_from_canonical(
            state_id if state_id is not None else self.id,
            self.symbols, self.start, self.report,
            self.report_code, self.report_offsets,
        )

    def __repr__(self):
        flags = []
        if self.start is not StartKind.NONE:
            flags.append(self.start.value)
        if self.report:
            flags.append("report")
        label = "x".join(s.to_charclass() for s in self.symbols)
        suffix = (" " + ",".join(flags)) if flags else ""
        return "Ste(%r, %s%s)" % (self.id, label, suffix)


def ste_from_canonical(state_id, symbols, start, report, report_code,
                       report_offsets):
    """Build an :class:`Ste` from already-canonical fields, skipping
    ``__init__`` validation.

    Callers must guarantee the invariants ``__init__`` enforces:
    ``symbols`` is a non-empty uniform-width tuple, ``start`` is a
    :class:`StartKind`, ``report_offsets`` is a sorted deduplicated
    in-range tuple that is non-empty exactly when ``report`` is true,
    and ``report_code`` is ``None`` when ``report`` is false.  The
    indexed transform kernels and :meth:`Ste.clone` satisfy this by
    construction (their inputs come from validated STEs).
    """
    ste = object.__new__(Ste)
    ste.id = state_id
    ste.symbols = symbols
    ste.start = start
    ste.report = report
    ste.report_code = report_code
    ste.report_offsets = report_offsets
    return ste
