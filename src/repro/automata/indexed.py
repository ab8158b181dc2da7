"""Indexed packed automaton view — the compile-side kernel substrate.

The transformation passes (``square``/``stride``/``minimize``/
``prune_unreachable``) historically walked :class:`~repro.automata
.automaton.Automaton` directly: string-keyed dicts, per-state
:class:`~repro.automata.ste.Ste` objects, and signature hashing over
frozensets of id strings.  At paper scale (tens of thousands of states
per machine, hundreds of thousands mid-transform) that representation
is exactly what dominates compile time once the execution kernels are
fast.

:class:`IndexedAutomaton` interns every state id to a dense integer
once and re-expresses the machine as flat arrays:

- ``succ``/``pred`` — per-state successor/predecessor rows of dense
  ints.  The successor rows are the source's
  :meth:`~repro.automata.automaton.Automaton.successor_columns`, so
  they ascend, and the predecessor rows are derived from them (they
  ascend too).  Rows may be shared between states (``square`` hands the
  same fan-out list to every pair state ending in the same source
  state, ``to_nibbles`` one exit row to every chain of a source state);
  kernels therefore never mutate a row in place without
  :meth:`make_mutable` first;
- ``behavior`` — :meth:`Ste.behavior_key` interned to small ints, so
  the minimizer's signature hashing compares ints instead of re-hashing
  symbol-set tuples per pass;
- ``alive`` — one byte per state; removal flips a flag instead of
  unlinking dict entries, and liveness scans are flat ``bytearray``
  reads rather than big-int bit walks (which go quadratic past ~10^5
  states).

Kernels mutate the indexed view and materialize an ``Automaton`` only
at the boundary (:meth:`write_back` for in-place passes; the nibble
decomposition and squaring kernels build their views with
:meth:`IndexedAutomaton.from_parts` and write frozen columns).  Every kernel
is bit-exact against the legacy implementation it replaces — the legacy
code paths survive as differential oracles
(:func:`repro.automata.ops.minimize_unindexed`,
:func:`repro.transform.striding.square_unindexed`) and
``tests/test_indexed.py`` pins equality over randomized machines.
"""

from ..obs import OBS, trace_span
from .ste import StartKind

__all__ = ["IndexedAutomaton"]

#: Round cap of every minimizer's merge loop.  Partition refinement
#: reaches its fixpoint in one or two rounds; only the one-shot merges
#: of ``minimize_legacy`` can run into the cap.
MINIMIZE_ROUNDS = 32


class IndexedAutomaton:
    """Dense-integer view of one :class:`Automaton` (see module docs).

    The view is a *snapshot*: it captures the source's states and edges
    at construction time.  In-place kernels mutate the view and then
    :meth:`write_back` the survivors; the source automaton must not be
    mutated independently while a view of it is live.
    """

    __slots__ = (
        "name", "bits", "arity", "start_period",
        "n", "ids", "stes", "succ", "pred",
        "behavior", "is_start", "start_kind", "alive",
        "_mutable",
    )

    def __init__(self):
        # Built via the classmethods below; nothing to do here.
        pass

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_automaton(cls, automaton):
        """Index ``automaton``: intern ids, behaviors, and adjacency.

        Emits a ``transform.indexed`` span when a collector is attached,
        so profiles show where compile passes pay the indexing cost.
        """
        if OBS.active:
            with trace_span("transform.indexed", automaton=automaton.name,
                            states=len(automaton)):
                return cls._build(automaton)
        return cls._build(automaton)

    @classmethod
    def _build(cls, automaton):
        self = cls()
        self.name = automaton.name
        self.bits = automaton.bits
        self.arity = automaton.arity
        self.start_period = automaton.start_period
        self._mutable = False

        ids, targets, offsets = automaton.successor_columns()
        n = len(ids)
        self.n = n
        self.ids = ids
        self.stes = automaton.states()
        flat = targets.tolist()
        succ = self.succ = [flat[start:end] for start, end
                            in zip(offsets, offsets[1:])]
        pred = self.pred = [[] for _ in range(n)]
        for i, row in enumerate(succ):
            for j in row:
                pred[j].append(i)
        self.start_kind = [ste.start for ste in self.stes]
        self.is_start = [kind is not StartKind.NONE
                         for kind in self.start_kind]
        self.alive = bytearray(b"\x01") * n if n else bytearray()
        interned = {}
        behavior = []
        for ste in self.stes:
            key = ste.behavior_key()
            bid = interned.get(key)
            if bid is None:
                bid = interned[key] = len(interned)
            behavior.append(bid)
        self.behavior = behavior
        return self

    @classmethod
    def from_parts(cls, name, bits, arity, start_period, succ, pred, alive,
                   behavior=None, is_start=None, stes=None, ids=None):
        """Assemble a view directly from pre-built arrays.

        The two transform kernels, nibble decomposition
        (:func:`~repro.transform.nibble.to_nibbles`) and squaring
        (:func:`~repro.transform.striding.square`), build their results
        in array form and never materialize intermediate ``Ste``
        objects; they hand the arrays here so minimization runs before
        any per-state object exists, and only survivors get one.
        ``succ`` rows may be shared list objects; ``alive`` is adopted
        (not copied).
        """
        self = cls()
        self.name = name
        self.bits = bits
        self.arity = arity
        self.start_period = start_period
        self.n = len(succ)
        self.ids = ids
        self.stes = stes
        self.succ = succ
        self.pred = pred
        self.behavior = behavior
        self.is_start = is_start
        self.start_kind = None
        self.alive = alive
        self._mutable = False
        return self

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def alive_indices(self):
        """Alive state indices in insertion order."""
        alive = self.alive
        return [i for i in range(self.n) if alive[i]]

    def alive_count(self):
        return sum(self.alive)

    def make_mutable(self):
        """Convert adjacency rows to private sets (kernels mutate them).

        Idempotent; required before any in-place edge mutation because
        rows may be shared list objects (see module docs).
        """
        if self._mutable:
            return
        self.succ = [set(row) for row in self.succ]
        self.pred = [set(row) for row in self.pred]
        self._mutable = True

    # ------------------------------------------------------------------
    # Reachability / pruning (flat-flag BFS)
    # ------------------------------------------------------------------
    def reachable(self):
        """Byte flags (1 per state) of states reachable from any start."""
        succ = self.succ
        alive = self.alive
        is_start = self.is_start
        seen = bytearray(self.n)
        work = []
        push = work.append
        for i in range(self.n):
            if alive[i] and is_start[i]:
                seen[i] = 1
                push(i)
        while work:
            for j in succ[work.pop()]:
                if not seen[j]:
                    seen[j] = 1
                    push(j)
        return seen

    def prune_unreachable(self):
        """Drop states unreachable from every start; returns removed count.

        Works on both row representations (list rows from
        :meth:`from_automaton`, set rows after :meth:`make_mutable`).
        Edges from a reachable state always target reachable states, so
        only predecessor rows of survivors need filtering.
        """
        seen = self.reachable()
        alive = self.alive
        dead = [i for i in range(self.n) if alive[i] and not seen[i]]
        if not dead:
            return 0
        succ = self.succ
        pred = self.pred
        for i in dead:
            succ[i] = type(succ[i])()
            pred[i] = type(pred[i])()
            alive[i] = 0
        for i in range(self.n):
            if alive[i]:
                row = pred[i]
                if row:
                    survivors = [p for p in row if seen[p]]
                    if len(survivors) != len(row):
                        pred[i] = type(row)(survivors)
        return len(dead)

    # ------------------------------------------------------------------
    # Screening merges (indexed replica of ops._merge_pass)
    # ------------------------------------------------------------------
    def _merge_pass(self, signature):
        """Collapse equal-signature states onto the first; returns removed.

        Exact indexed replica of :func:`repro.automata.ops._merge_pass`:
        same group order (first occurrence in insertion order), same
        survivor choice, same edge-redirection cascade — so the final
        edge sets match the legacy pass member-for-member.  Grouping
        happens before any mutation (as in the legacy pass), so when no
        group has two members the rows — possibly still shared/immutable
        — are never touched.
        """
        groups = {}
        merge = False
        for i in self.alive_indices():
            key = signature(i)
            row = groups.get(key)
            if row is None:
                groups[key] = [i]
            else:
                row.append(i)
                merge = True
        if not merge:
            return 0
        self.make_mutable()
        succ = self.succ
        pred = self.pred
        alive = self.alive
        removed = 0
        for members in groups.values():
            if len(members) < 2:
                continue
            survivor = members[0]
            for duplicate in members[1:]:
                for p in list(pred[duplicate]):
                    remapped = survivor if p == duplicate else p
                    succ[remapped].add(survivor)
                    pred[survivor].add(remapped)
                for s in list(succ[duplicate]):
                    remapped = survivor if s == duplicate else s
                    succ[survivor].add(remapped)
                    pred[remapped].add(survivor)
                for s in succ[duplicate]:
                    pred[s].discard(duplicate)
                for p in pred[duplicate]:
                    succ[p].discard(duplicate)
                succ[duplicate] = set()
                pred[duplicate] = set()
                alive[duplicate] = 0
                removed += 1
        return removed

    def merge_suffix_equivalent(self):
        """Indexed :func:`~repro.automata.ops.merge_suffix_equivalent`.

        Signature frozensets are cached per row *object*: ``square``
        shares one fan-out list across every pair state ending in the
        same source state, so the (immutable pre-mutation) grouping pass
        hashes each distinct row once instead of once per state.
        """
        succ = self.succ
        behavior = self.behavior
        frozen = {}

        def signature(i):
            row = succ[i]
            cached = frozen.get(id(row))
            if cached is None:
                cached = frozen[id(row)] = frozenset(row)
            if i in cached:
                return (behavior[i], cached - {i}, True)
            return (behavior[i], cached, False)
        return self._merge_pass(signature)

    def merge_prefix_equivalent(self):
        """Indexed :func:`~repro.automata.ops.merge_prefix_equivalent`."""
        pred = self.pred
        behavior = self.behavior
        is_start = self.is_start

        def signature(i):
            predecessors = frozenset(pred[i])
            loop = i in predecessors
            if loop:
                predecessors -= {i}
            if is_start[i] and not predecessors:
                return ("unmergeable-start", i)
            return (behavior[i], predecessors, loop)
        return self._merge_pass(signature)

    # ------------------------------------------------------------------
    # Partition refinement (indexed replica of ops._refine_partition)
    # ------------------------------------------------------------------
    def refine_partition(self, forward=True, protected=frozenset()):
        """Coarsest stable partition; returns ``state index -> block id``.

        Block numbering, split order, and the id-keeps-largest-sub-block
        rule all mirror :func:`repro.automata.ops._refine_partition`, so
        the resulting partition (and therefore the quotient machine) is
        identical to the legacy pass over the equivalent string graph.
        """
        neighbors = self.succ if forward else self.pred
        inverse = self.pred if forward else self.succ
        behavior = self.behavior
        block = {}
        members = {}
        blocks_seen = {}
        for i in self.alive_indices():
            if i in protected:
                key = ("protected", i)
            else:
                key = ("behavior", behavior[i])
            index = blocks_seen.get(key)
            if index is None:
                index = blocks_seen[key] = len(blocks_seen)
            block[i] = index
            row = members.get(index)
            if row is None:
                members[index] = [i]
            else:
                row.append(i)
        next_id = len(blocks_seen)
        pending = {index for index, mem in members.items() if len(mem) > 1}
        signatures = {}
        examined = set()
        dirty = set(block)
        while pending:
            touched, pending = pending, set()
            moved = []
            for index in touched:
                mem = members[index]
                if len(mem) < 2:
                    continue
                changed = index not in examined
                for i in mem:
                    if i in dirty:
                        dirty.discard(i)
                        signature = frozenset(
                            block[j] for j in neighbors[i])
                        if signatures.get(i) != signature:
                            signatures[i] = signature
                            changed = True
                if not changed:
                    continue
                examined.add(index)
                groups = {}
                for i in mem:
                    key = signatures[i]
                    row = groups.get(key)
                    if row is None:
                        groups[key] = [i]
                    else:
                        row.append(i)
                if len(groups) == 1:
                    continue
                ordered = sorted(groups.values(), key=len, reverse=True)
                members[index] = ordered[0]
                for sub in ordered[1:]:
                    for i in sub:
                        block[i] = next_id
                    members[next_id] = sub
                    examined.add(next_id)
                    moved.extend(sub)
                    next_id += 1
            for i in moved:
                for j in inverse[i]:
                    dirty.add(j)
                    neighbor_block = block[j]
                    if len(members[neighbor_block]) > 1:
                        pending.add(neighbor_block)
        return block

    def apply_partition(self, block):
        """Quotient onto first-member survivors; returns removed count.

        Builds each survivor's pooled edge rows directly (every original
        edge remapped through the survivor map), which lands on exactly
        the edge sets the legacy remap-then-remove loop produces.
        """
        ids_alive = self.alive_indices()
        members = {}
        for i in ids_alive:
            row = members.get(block[i])
            if row is None:
                members[block[i]] = [i]
            else:
                row.append(i)
        survivor = {i: members[block[i]][0] for i in ids_alive}
        removed = 0
        dead = [i for i in ids_alive if survivor[i] != i]
        if not dead:
            return 0
        self.make_mutable()
        succ = self.succ
        pred = self.pred
        alive = self.alive
        new_succ = {}
        for i in ids_alive:
            s = survivor[i]
            row = new_succ.get(s)
            if row is None:
                row = new_succ[s] = set()
            for d in succ[i]:
                row.add(survivor[d])
        for i in dead:
            succ[i] = set()
            pred[i] = set()
            alive[i] = 0
            removed += 1
        new_pred = {s: set() for s in new_succ}
        for s, row in new_succ.items():
            succ[s] = row
            for d in row:
                new_pred[d].add(s)
        for s, row in new_pred.items():
            pred[s] = row
        return removed

    def prefix_protected(self):
        """Alive start states with no predecessors (never merged)."""
        pred = self.pred
        return frozenset(
            i for i in self.alive_indices()
            if self.is_start[i] and not pred[i]
        )

    # ------------------------------------------------------------------
    # Minimization driver (indexed replica of ops.minimize)
    # ------------------------------------------------------------------
    def minimize(self):
        """Screen + alternating refinement; returns states removed.

        Mirrors :func:`repro.automata.ops.minimize_unindexed` exactly:
        one suffix + one prefix screening merge, early-out when neither
        fired, then alternating coarsest-partition quotients until a
        round removes nothing.
        """
        total = self.merge_suffix_equivalent()
        total += self.merge_prefix_equivalent()
        if total == 0:
            return 0
        for _ in range(MINIMIZE_ROUNDS):
            removed = self.apply_partition(
                self.refine_partition(forward=True))
            removed += self.apply_partition(
                self.refine_partition(forward=False,
                                      protected=self.prefix_protected()))
            total += removed
            if removed == 0:
                break
        return total

    # ------------------------------------------------------------------
    # Boundary materialization
    # ------------------------------------------------------------------
    def write_back(self, automaton):
        """Install the surviving graph into ``automaton`` in place.

        Survivors keep their original :class:`Ste` objects and their
        insertion order; edge rows convert back to string-id sets — the
        same final dict shapes the legacy in-place passes leave behind.
        A frozen ``automaton`` refuses the rebinding and raises
        :class:`~repro.errors.AutomatonError` untouched.
        """
        ids = self.ids
        stes = self.stes
        succ = self.succ
        pred = self.pred
        lookup = ids.__getitem__
        states = {}
        new_succ = {}
        new_pred = {}
        for i in self.alive_indices():
            state_id = ids[i]
            states[state_id] = stes[i]
            new_succ[state_id] = set(map(lookup, succ[i]))
            new_pred[state_id] = set(map(lookup, pred[i]))
        automaton._states = states
        automaton._succ = new_succ
        automaton._pred = new_pred
        return automaton
