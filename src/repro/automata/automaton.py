"""Homogeneous NFA container.

The :class:`Automaton` owns a set of :class:`~repro.automata.ste.Ste`
states and a successor relation.  It is the common currency of the whole
library: the regex compiler produces automata, the transformation passes
rewrite them, the simulator executes them, and the architecture model maps
them onto subarrays.

A compiled machine is configured once and afterwards only read, so an
automaton can be :meth:`~Automaton.freeze`-d: transform results and
everything the artifact stores hold are frozen, shared read-only
masters.  Call :meth:`~Automaton.copy` for a mutable machine.

A mutable machine keeps its edges as two maps of id sets (successors
and predecessors), which builders grow and prune edge by edge.  A frozen
machine holds integer columns instead (:meth:`~Automaton.successor_columns`):
the state ids in insertion order and every state's successor row as
ascending state indices, in one flat ``targets`` array cut by
``offsets``.  Every frozen machine has that one row order, however it
was built: :meth:`~Automaton.freeze` sorts the rows of a mutable one,
and the squaring kernel and payload decoding write ascending rows
straight into a new frozen machine.  A frozen machine stores no
predecessors; readers that need them derive them from the rows.
"""

import hashlib
import json
from array import array
from bisect import bisect_right
from itertools import accumulate, chain, compress, count, islice
from operator import ge

from ..errors import AutomatonError, SymbolError
from ..obs import OBS
from .ste import StartKind, Ste, ste_from_canonical
from .symbolset import SymbolSet

#: Format tag + version written into (and required from) every payload
#: produced by :meth:`Automaton.to_payload`.  Bump the version whenever
#: the payload shape changes; old artifacts then deserialize as errors
#: (which the artifact store treats as misses).
PAYLOAD_FORMAT = "repro-automaton"
PAYLOAD_VERSION = 2

#: Start kinds by the code a payload's ``start`` column stores.
START_KINDS = (StartKind.NONE, StartKind.START_OF_DATA, StartKind.ALL_INPUT)
_START_CODES = {kind: code for code, kind in enumerate(START_KINDS)}


class Automaton:
    """A homogeneous NFA over a fixed-width, fixed-arity symbol vector.

    Parameters
    ----------
    name:
        Human-readable identifier (used in reports and experiment tables).
    bits:
        Sub-symbol width in bits (8 for byte automata, 4 after the nibble
        transformation).
    arity:
        Number of sub-symbols consumed per cycle (1, 2, or 4 in Sunder).
    start_period:
        ``ALL_INPUT`` start states self-enable only on cycles that are
        multiples of this value.  A byte automaton rewritten to nibbles has
        ``start_period == 2`` because patterns may only begin on byte
        boundaries; strided automata fold the period back to 1.

    :meth:`freeze` makes the machine read-only for good: its mutators
    and any attribute rebinding then raise :class:`AutomatonError`.
    """

    #: Instance defaults until :meth:`freeze`, a cached
    #: :meth:`fingerprint`, a passed :meth:`validate` or the first id
    #: lookup on a frozen machine set the object's own.
    _frozen = False
    _fingerprint = None
    _validated = False
    _index = None

    def __init__(self, name="automaton", bits=8, arity=1, start_period=1):
        if bits < 1:
            raise AutomatonError("bits must be positive")
        if arity < 1:
            raise AutomatonError("arity must be positive")
        if start_period < 1:
            raise AutomatonError("start_period must be positive")
        # One dict update instead of seven guarded __setattr__ calls.
        vars(self).update(name=name, bits=bits, arity=arity,
                          start_period=start_period,
                          _states={}, _succ={}, _pred={})

    def __setattr__(self, attr, value):
        if self._frozen:
            raise AutomatonError(
                "automaton %r is frozen; cannot rebind %r (use copy() or "
                "shallow_clone(name=...))" % (self.name, attr))
        object.__setattr__(self, attr, value)

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------
    def freeze(self):
        """Make this machine read-only for good; returns ``self``.

        Idempotent and one-way.  Afterwards :meth:`add_state`,
        :meth:`add_transition`, :meth:`remove_transition`,
        :meth:`remove_state`, :meth:`prune_unreachable`, :meth:`merge_in`,
        attribute rebinding (``name`` included) and
        :meth:`IndexedAutomaton.write_back
        <repro.automata.indexed.IndexedAutomaton.write_back>` into it raise
        :class:`AutomatonError`, and :meth:`fingerprint` hashes once.

        Freezing converts the edge sets into the integer columns of
        :meth:`successor_columns`, each row ascending, and drops both
        id-set maps: a frozen machine holds one small int per edge
        instead of two set entries.  The columns and the flag travel
        through pickling.  :meth:`copy` returns a mutable machine with
        its edge sets rebuilt, and freezing that copy gives the same
        columns again.
        """
        if not self._frozen:
            self._install_columns(self._states, *self.successor_columns())
        return self

    def _install_columns(self, states, ids, targets, offsets,
                         validated=False):
        """Make this machine frozen on the given states and columns.

        The one installer behind :meth:`freeze`, :meth:`shallow_clone`
        and :meth:`_from_columns`.  ``ids`` must list ``states``' keys
        in order and every row must ascend; nothing is checked here.
        """
        attrs = vars(self)
        del attrs["_succ"], attrs["_pred"]
        attrs.update(_states=states, _ids=ids, _targets=targets,
                     _offsets=offsets, _validated=validated, _frozen=True)
        return self

    @classmethod
    def _from_columns(cls, name, bits, arity, start_period, states,
                      targets, offsets):
        """Trusted constructor of a frozen machine from its columns.

        ``states`` maps ids to STEs in state order and ``targets`` cut
        by ``offsets`` holds each state's ascending successor row (see
        :meth:`successor_columns`).  Nothing is checked: the caller
        validates the result.
        """
        return cls(name=name, bits=bits, arity=arity,
                   start_period=start_period)._install_columns(
            states, list(states), targets, offsets)

    @property
    def frozen(self):
        """Whether :meth:`freeze` has been called."""
        return self._frozen

    def _frozen_error(self, operation):
        return AutomatonError(
            "automaton %r is frozen; %s needs a mutable copy() of it"
            % (self.name, operation))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_state(self, ste):
        """Insert an STE; returns it for chaining."""
        if self._frozen:
            raise self._frozen_error("add_state")
        if not isinstance(ste, Ste):
            raise AutomatonError("add_state expects an Ste, got %r" % (ste,))
        if ste.id in self._states:
            raise AutomatonError("duplicate state id %r" % (ste.id,))
        if ste.bits != self.bits:
            raise AutomatonError(
                "state %r has %d-bit symbols in a %d-bit automaton"
                % (ste.id, ste.bits, self.bits)
            )
        if ste.arity != self.arity:
            raise AutomatonError(
                "state %r has arity %d in an arity-%d automaton"
                % (ste.id, ste.arity, self.arity)
            )
        self._states[ste.id] = ste
        self._succ[ste.id] = set()
        self._pred[ste.id] = set()
        return ste

    def new_state(self, state_id, symbols, **kwargs):
        """Convenience wrapper: build and insert an :class:`Ste`."""
        return self.add_state(Ste(state_id, symbols, **kwargs))

    def add_transition(self, src, dst):
        """Add an edge ``src -> dst`` (idempotent)."""
        if self._frozen:
            raise self._frozen_error("add_transition")
        if src not in self._states:
            raise AutomatonError("unknown source state %r" % (src,))
        if dst not in self._states:
            raise AutomatonError("unknown destination state %r" % (dst,))
        self._succ[src].add(dst)
        self._pred[dst].add(src)

    def remove_transition(self, src, dst):
        """Remove the edge ``src -> dst`` if present."""
        if self._frozen:
            raise self._frozen_error("remove_transition")
        self._succ.get(src, set()).discard(dst)
        self._pred.get(dst, set()).discard(src)

    def remove_state(self, state_id):
        """Remove a state and all incident edges."""
        if self._frozen:
            raise self._frozen_error("remove_state")
        if state_id not in self._states:
            raise AutomatonError("unknown state %r" % (state_id,))
        for succ in self._succ.pop(state_id):
            self._pred[succ].discard(state_id)
        for pred in self._pred.pop(state_id):
            self._succ[pred].discard(state_id)
        del self._states[state_id]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, state_id):
        return state_id in self._states

    def __len__(self):
        return len(self._states)

    def __iter__(self):
        return iter(self._states.values())

    def state(self, state_id):
        """Look up one STE by id."""
        try:
            return self._states[state_id]
        except KeyError:
            raise AutomatonError("unknown state %r" % (state_id,)) from None

    def state_ids(self):
        """All state ids (insertion order)."""
        return list(self._states)

    def states(self):
        """All STEs (insertion order)."""
        return list(self._states.values())

    def successors(self, state_id):
        """Successor ids of a state.

        On a mutable machine this is the machine's own id set (do not
        mutate it).  On a frozen one it is a new tuple of the state's
        row, in state order.
        """
        if not self._frozen:
            return self._succ[state_id]
        i = self._index_of(state_id)
        return tuple(map(self._ids.__getitem__,
                         self._targets[self._offsets[i]:
                                       self._offsets[i + 1]]))

    def predecessors(self, state_id):
        """Predecessor ids of a state.

        On a mutable machine this is the machine's own id set (do not
        mutate it).  A frozen machine stores no predecessors: it returns
        a new tuple, in state order, found by one scan of its
        ``targets`` column per call.
        """
        if not self._frozen:
            return self._pred[state_id]
        i = self._index_of(state_id)
        offsets = self._offsets
        return tuple(self._ids[bisect_right(offsets, position) - 1]
                     for position in compress(count(),
                                              map(i.__eq__, self._targets)))

    def _index_of(self, state_id):
        """Index of ``state_id`` in a frozen machine's columns.

        The id-to-index map is built on the first lookup and kept.
        """
        index = self._index
        if index is None:
            index = {state_id: i for i, state_id in enumerate(self._ids)}
            object.__setattr__(self, "_index", index)
        return index[state_id]

    def successor_columns(self):
        """The successor rows as integer columns: ``(ids, targets, offsets)``.

        ``ids`` lists the state ids in insertion order, and state
        ``i``'s successors are ``ids[j]`` for every ``j`` in
        ``targets[offsets[i]:offsets[i + 1]]`` (``array("i")`` columns,
        ``len(offsets) == len(ids) + 1``), each row ascending.  A frozen
        machine returns its own columns, shared with its
        :meth:`shallow_clone`-s; do not mutate them.  A mutable one
        builds new columns from its edge sets on each call.
        """
        if self._frozen:
            return self._ids, self._targets, self._offsets
        ids = list(self._states)
        index_of = {state_id: i for i, state_id in enumerate(ids)}.__getitem__
        succ = self._succ
        targets = []
        offsets = [0]
        for state_id in ids:
            targets += sorted(map(index_of, succ[state_id]))
            offsets.append(len(targets))
        return ids, array("i", targets), array("i", offsets)

    def transitions(self):
        """Yield every ``(src, dst)`` edge, row by row in state order."""
        if not self._frozen:
            for src, dsts in self._succ.items():
                for dst in dsts:
                    yield (src, dst)
            return
        ids, targets, offsets = self._ids, self._targets, self._offsets
        for i, src in enumerate(ids):
            for dst in targets[offsets[i]:offsets[i + 1]]:
                yield (src, ids[dst])

    def num_transitions(self):
        """Total edge count."""
        if self._frozen:
            return len(self._targets)
        return sum(len(dsts) for dsts in self._succ.values())

    def start_states(self):
        """STEs with either start kind."""
        return [s for s in self._states.values() if s.is_start]

    def report_states(self):
        """STEs flagged as reporting."""
        return [s for s in self._states.values() if s.report]

    # ------------------------------------------------------------------
    # Validation & copying
    # ------------------------------------------------------------------
    def validate(self):
        """Check structural invariants; raises :class:`AutomatonError`.

        Invariants: symbol widths and arities are uniform; a mutable
        machine's successor and predecessor maps mirror each other (a
        frozen one has only its rows); every non-start state is
        reachable from some start state; no state has an empty symbol set at
        any position (such a state could never activate).

        A frozen machine cannot change, so once it passes it returns at
        once on every later call; an unfrozen one checks on every call.
        """
        if self._validated:
            return self
        for state in self:
            if state.bits != self.bits or state.arity != self.arity:
                raise AutomatonError("state %r shape mismatch" % (state.id,))
            for position, sset in enumerate(state.symbols):
                if sset.is_empty():
                    raise AutomatonError(
                        "state %r has an empty symbol set at position %d"
                        % (state.id, position)
                    )
        if not self._frozen:
            self._check_edge_maps()
        unreachable = self.unreachable_states()
        if unreachable:
            raise AutomatonError(
                "unreachable states: %s" % sorted(unreachable)[:8]
            )
        if self._frozen:
            object.__setattr__(self, "_validated", True)
        return self

    def _check_edge_maps(self):
        """A mutable machine's successor and predecessor maps must
        mirror each other; raises :class:`AutomatonError`."""
        for src, dsts in self._succ.items():
            for dst in dsts:
                if src not in self._pred[dst]:
                    raise AutomatonError(
                        "edge %r->%r missing from predecessor map"
                        % (src, dst))
        for dst, srcs in self._pred.items():
            for src in srcs:
                if dst not in self._succ[src]:
                    raise AutomatonError(
                        "edge %r->%r missing from successor map"
                        % (src, dst))

    def frozen_snapshot(self):
        """This machine as it is now, frozen and validated.

        A frozen machine validates (once) and returns itself.  A mutable
        one checks its edge maps, builds its successor columns once and
        returns a new frozen machine on them that shares its STEs; the
        snapshot's :meth:`validate` checks the rest on those columns and
        keeps the pass.  So a mutable machine gets one full check and
        one column build, and later changes to it do not reach the
        snapshot (in-place changes to its STEs do).
        """
        if self._frozen:
            return self.validate()
        self._check_edge_maps()
        _, targets, offsets = self.successor_columns()
        return Automaton._from_columns(
            self.name, self.bits, self.arity, self.start_period,
            dict(self._states), targets, offsets).validate()

    def unreachable_states(self):
        """Ids of states not reachable from any start state."""
        ids, targets, offsets = self.successor_columns()
        seen = bytearray(len(ids))
        frontier = [i for i, state in enumerate(self._states.values())
                    if state.is_start]
        for i in frontier:
            seen[i] = 1
        while frontier:
            current = frontier.pop()
            for succ in targets[offsets[current]:offsets[current + 1]]:
                if not seen[succ]:
                    seen[succ] = 1
                    frontier.append(succ)
        return {state_id for state_id, reached in zip(ids, seen)
                if not reached}

    def prune_unreachable(self):
        """Drop unreachable states in place; returns the number removed.

        A handful of dead states are unlinked individually; a large dead
        set (the common case right after ``square`` builds its pair
        states) switches to rebuilding the three dicts in one filtered
        pass — same surviving states in the same insertion order, same
        edge sets, so the result is identical either way
        (:meth:`unreachable_states` stays the oracle for both paths).
        """
        if self._frozen:
            raise self._frozen_error("prune_unreachable")
        dead = self.unreachable_states()
        if not dead:
            return 0
        if len(dead) * 8 < len(self._states):
            for state_id in dead:
                self.remove_state(state_id)
            return len(dead)
        # Successors of a reachable state are always reachable, so only
        # predecessor rows need filtering (dead -> live edges exist).
        states = {state_id: ste for state_id, ste in self._states.items()
                  if state_id not in dead}
        self._states = states
        self._succ = {state_id: self._succ[state_id] for state_id in states}
        pred = {}
        for state_id in states:
            row = self._pred[state_id]
            pred[state_id] = (row - dead) if row & dead else row
        self._pred = pred
        return len(dead)

    def copy(self, name=None):
        """Mutable deep-enough copy: STEs cloned, edges rebuilt as id sets.

        The copy of a frozen machine thaws its rows back into the two
        id-set maps a builder grows.
        """
        duplicate = Automaton(
            name=name if name is not None else self.name,
            bits=self.bits,
            arity=self.arity,
            start_period=self.start_period,
        )
        for state in self:
            duplicate.add_state(state.clone())
        for src, dst in self.transitions():
            duplicate.add_transition(src, dst)
        return duplicate

    def shallow_clone(self, name=None):
        """Copy sharing the (immutable-once-compiled) STE objects.

        This is how a frozen machine is renamed.  The clone of a frozen
        machine is frozen, shares its state dict and columns and keeps
        a passed :meth:`validate`: O(1), no per-state work.  An unfrozen
        source gets a fresh state dict and fresh edge sets, so graph
        mutations on the clone never touch the source.  Either way the
        STEs are shared; use :meth:`copy` when the caller may mutate STE
        fields in place.
        """
        duplicate = Automaton(
            name=name if name is not None else self.name,
            bits=self.bits,
            arity=self.arity,
            start_period=self.start_period,
        )
        if self._frozen:
            return duplicate._install_columns(
                self._states, self._ids, self._targets, self._offsets,
                self._validated)
        duplicate._states = dict(self._states)
        duplicate._succ = {src: set(dsts) for src, dsts in self._succ.items()}
        duplicate._pred = {dst: set(srcs) for dst, srcs in self._pred.items()}
        return duplicate

    def relabeled(self, prefix="q"):
        """Copy with dense integer ids ``<prefix><n>``; returns the copy."""
        mapping = {old: "%s%d" % (prefix, index)
                   for index, old in enumerate(self._states)}
        duplicate = Automaton(
            name=self.name, bits=self.bits, arity=self.arity,
            start_period=self.start_period,
        )
        for state in self:
            duplicate.add_state(state.clone(mapping[state.id]))
        for src, dst in self.transitions():
            duplicate.add_transition(mapping[src], mapping[dst])
        return duplicate

    # ------------------------------------------------------------------
    # Fingerprinting & serialization
    # ------------------------------------------------------------------
    def fingerprint(self):
        """Canonical structural hash (hex sha256), insertion-order free.

        Two automata that contain the same states (ids, symbol sets,
        start kinds, report metadata) and the same transitions hash
        identically regardless of the order states or edges were added.
        The shape header (name, bits, arity, start period) is included,
        so machines that differ only in name do not collide — transform
        results derive their names from their source's.

        Ids enter the hash as ``str(id)``, so a machine with integer
        ids hashes too.  A frozen machine hashes once and keeps the
        digest; an unfrozen one hashes on every call.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        digest = hashlib.sha256()
        digest.update(
            ("%s\x00%d\x00%d\x00%d" % (
                self.name, self.bits, self.arity, self.start_period,
            )).encode("utf-8", "surrogatepass")
        )
        ids, targets, offsets = self.successor_columns()
        names = list(map(str, ids))
        name_of = names.__getitem__
        states = list(self._states.values())
        for i in sorted(range(len(ids)), key=name_of):
            state = states[i]
            record = (
                names[i],
                "|".join("%x" % sset.mask for sset in state.symbols),
                state.start.value,
                "%d" % state.report,
                "" if state.report_code is None else str(state.report_code),
                ",".join("%d" % o for o in state.report_offsets),
                ";".join(sorted(map(name_of,
                                    targets[offsets[i]:offsets[i + 1]]))),
            )
            digest.update(("\x1e".join(record) + "\x1d").encode(
                "utf-8", "surrogatepass"))
        text = digest.hexdigest()
        if self._frozen:
            # Idempotent write: racing first calls store the same digest.
            object.__setattr__(self, "_fingerprint", text)
        return text

    def to_payload(self):
        """Versioned JSON-serializable dict (see :data:`PAYLOAD_FORMAT`).

        Every state id is written once, in insertion order (the bit
        order the simulators assign), and everything else names a state
        by its index in that list.  A strided state id runs to tens of
        characters, so naming it once per incoming edge would make ids
        most of the bytes to store and decode.  The columns, all aligned
        with ``ids``:

        - ``symbols`` — an index into ``symbol_sets``, where each
          distinct symbol-set tuple is written once as hex masks (they
          can exceed 64 bits for wide alphabets);
        - ``start`` — an index into :data:`START_KINDS`;
        - ``successors`` — ascending state indices (each row of
          :meth:`successor_columns`, as held).

        The reporting states are ``report`` (ascending state indices)
        with their ``report_code`` and ``report_offsets`` columns.  A
        round trip through :meth:`from_payload` reproduces the machine
        exactly, state order included.
        """
        states = self._states
        ids, targets, bounds = self.successor_columns()
        symbol_sets = {}
        symbols = []
        starts = []
        reports = []
        codes = []
        offsets = []
        for i, state in enumerate(states.values()):
            symbols.append(symbol_sets.setdefault(state.symbols,
                                                  len(symbol_sets)))
            starts.append(_START_CODES[state.start])
            if state.report:
                reports.append(i)
                codes.append(state.report_code)
                offsets.append(list(state.report_offsets))
        return {
            "format": PAYLOAD_FORMAT,
            "version": PAYLOAD_VERSION,
            "name": self.name,
            "bits": self.bits,
            "arity": self.arity,
            "start_period": self.start_period,
            "ids": list(ids),
            "symbol_sets": [["%x" % sset.mask for sset in key]
                            for key in symbol_sets],
            "symbols": symbols,
            "start": starts,
            "report": reports,
            "report_code": codes,
            "report_offsets": offsets,
            "successors": [targets[start:end].tolist() for start, end
                           in zip(bounds, bounds[1:])],
        }

    @classmethod
    def from_payload(cls, payload):
        """Rebuild a frozen automaton from a :meth:`to_payload` dict.

        The successor rows become the machine's columns directly, after
        the checks that :class:`~repro.automata.ste.Ste`,
        :meth:`add_state` and :meth:`add_transition` would make: columns
        as long as ``ids``, every index in range (a negative one too,
        which Python would otherwise wrap), unique ids, masks inside the
        alphabet, one symbol set per stride position, non-empty
        ascending report offsets below the arity, and successor rows
        that strictly ascend (a repeated index is an error, not a
        merged edge).  Raises :class:`AutomatonError` on any malformed
        or version-mismatched payload, so the artifact store can treat
        corruption as a recoverable miss.
        """
        try:
            if payload.get("format") != PAYLOAD_FORMAT:
                raise AutomatonError(
                    "unknown payload format %r" % (payload.get("format"),))
            if payload.get("version") != PAYLOAD_VERSION:
                raise AutomatonError(
                    "unsupported payload version %r" % (payload.get("version"),))
            automaton = cls(
                name=payload["name"],
                bits=payload["bits"],
                arity=payload["arity"],
                start_period=payload["start_period"],
            )
            bits = automaton.bits
            arity = automaton.arity
            ids = payload["ids"]
            n = len(ids)
            # One SymbolSet per distinct mask, shared by every tuple.
            sets = {mask: SymbolSet(bits, int(mask, 16)) for mask
                    in set(chain.from_iterable(payload["symbol_sets"]))}
            table = [tuple(map(sets.__getitem__, masks))
                     for masks in payload["symbol_sets"]]
            for position, entry in enumerate(table):
                if len(entry) != arity:
                    raise AutomatonError(
                        "symbol set %d has arity %d in an arity-%d automaton"
                        % (position, len(entry), arity))
            symbols = payload["symbols"]
            starts = payload["start"]
            rows = payload["successors"]
            reports = payload["report"]
            for column, values in (("symbols", symbols), ("start", starts),
                                   ("successors", rows)):
                if len(values) != n:
                    raise AutomatonError(
                        "column %r has %d entries for %d states"
                        % (column, len(values), n))
            flat = list(chain.from_iterable(rows))
            # A negative index must fail too: Python reads it from the end.
            for column, indices, bound in (
                    ("symbols", symbols, len(table)),
                    ("start", starts, len(START_KINDS)),
                    ("successors", flat, n),
                    ("report", reports, n)):
                if indices and (min(indices) < 0 or max(indices) >= bound):
                    raise AutomatonError(
                        "column %r has an index outside [0, %d)"
                        % (column, bound))
            codes = payload["report_code"]
            offsets = payload["report_offsets"]
            if not len(codes) == len(offsets) == len(reports):
                raise AutomatonError(
                    "report columns have %d, %d and %d entries"
                    % (len(reports), len(codes), len(offsets)))
            is_report = [False] * n
            report_code = [None] * n
            report_offsets = [()] * n
            previous = -1
            for index, code, offset_list in zip(reports, codes, offsets):
                if index <= previous:
                    raise AutomatonError(
                        "report indices must ascend: %d after %d"
                        % (index, previous))
                previous = index
                offset_row = tuple(offset_list)
                if not offset_row or offset_row[0] < 0 \
                        or offset_row[-1] >= arity or any(
                            low >= high for low, high
                            in zip(offset_row, offset_row[1:])):
                    raise AutomatonError(
                        "state %r has report offsets %r; they must ascend "
                        "within [0, %d)" % (ids[index], offset_row, arity))
                is_report[index] = True
                report_code[index] = code
                report_offsets[index] = offset_row
            states = dict(zip(ids, map(
                ste_from_canonical, ids, map(table.__getitem__, symbols),
                map(START_KINDS.__getitem__, starts), is_report,
                report_code, report_offsets)))
            if len(states) != n:
                seen = set()
                for state_id in ids:
                    if state_id in seen:
                        raise AutomatonError(
                            "duplicate state id %r" % (state_id,))
                    seen.add(state_id)
            targets = array("i", flat)
            bounds = array("i", [0])
            bounds.extend(accumulate(map(len, rows)))
            # Only neighbours that straddle two rows may fail to ascend:
            # the scan runs in C and yields the position of each failure.
            for position in compress(count(1),
                                     map(ge, flat, islice(flat, 1, None))):
                row = bisect_right(bounds, position) - 1
                if bounds[row] != position:
                    raise AutomatonError(
                        "successor row of state %r does not strictly "
                        "ascend" % (ids[row],))
            automaton._install_columns(states, list(states), targets,
                                       bounds)
        except AutomatonError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError,
                SymbolError) as error:
            raise AutomatonError("malformed automaton payload: %s" % error)
        return automaton

    def dumps(self):
        """Compact JSON text of :meth:`to_payload`."""
        return json.dumps(self.to_payload(), separators=(",", ":"))

    @classmethod
    def loads(cls, text):
        """Inverse of :meth:`dumps`; raises :class:`AutomatonError`."""
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, TypeError) as error:
            raise AutomatonError("undecodable automaton payload: %s" % error)
        return cls.from_payload(payload)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def merge_in(self, other, prefix):
        """Union ``other`` into this automaton, prefixing its state ids.

        Both automata must agree on bits, arity, and start period.  Used to
        pack many independent patterns (e.g. a whole ruleset) into a single
        machine, which is how the benchmark suites ship their automata.
        """
        if self._frozen:
            raise self._frozen_error("merge_in")
        if (other.bits, other.arity) != (self.bits, self.arity):
            raise AutomatonError("cannot merge automata of different shapes")
        if other.start_period != self.start_period:
            raise AutomatonError("cannot merge automata with different start periods")
        if other.frozen:
            other = other.copy()  # the loops below read id sets
        # Intern every prefixed id once up front; the edge loops below
        # then move whole rows through the mapping instead of going
        # through per-edge add_transition bookkeeping.
        states = self._states
        mapping = {}
        for state_id in other._states:
            new_id = "%s%s" % (prefix, state_id)
            if new_id in states:
                raise AutomatonError("duplicate state id %r" % (new_id,))
            mapping[state_id] = new_id
        succ = self._succ
        pred = self._pred
        for state in other:
            new_id = mapping[state.id]
            states[new_id] = state.clone(new_id)
            succ[new_id] = {mapping[dst] for dst in other._succ[state.id]}
            pred[new_id] = {mapping[src] for src in other._pred[state.id]}
        if OBS.active:
            OBS.instruments.transform_states.labels(op="merge_in").set(
                len(states))
        return mapping

    # ------------------------------------------------------------------
    def summary(self):
        """Dict of headline statistics (sizes, degrees, report density)."""
        n_states = len(self)
        n_report = len(self.report_states())
        return {
            "name": self.name,
            "bits": self.bits,
            "arity": self.arity,
            "states": n_states,
            "transitions": self.num_transitions(),
            "start_states": len(self.start_states()),
            "report_states": n_report,
            "report_state_pct": (100.0 * n_report / n_states) if n_states else 0.0,
        }

    def __repr__(self):
        return "Automaton(%r, bits=%d, arity=%d, states=%d, transitions=%d)" % (
            self.name, self.bits, self.arity, len(self), self.num_transitions(),
        )


def single_pattern(name, pattern, bits=8, report_code=None):
    """Build a linear automaton matching one literal ``pattern``.

    ``pattern`` is a sequence of symbol values (e.g. ``b"GET "``).  The
    first state is an ``ALL_INPUT`` start so the literal is found at every
    input offset; the last state reports.
    """
    if not pattern:
        raise AutomatonError("pattern must be non-empty")
    automaton = Automaton(name=name, bits=bits)
    previous = None
    last_index = len(pattern) - 1
    for index, value in enumerate(pattern):
        ste = automaton.new_state(
            "%s_%d" % (name, index),
            SymbolSet.single(bits, value),
            start=StartKind.ALL_INPUT if index == 0 else StartKind.NONE,
            report=index == last_index,
            report_code=report_code if index == last_index else None,
        )
        if previous is not None:
            automaton.add_transition(previous, ste.id)
        previous = ste.id
    return automaton
