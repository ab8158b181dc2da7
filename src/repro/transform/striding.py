"""Vectorized temporal striding — paper Section 4, after Impala.

Striding squares an automaton: the result consumes two of the source's
symbol vectors per cycle.  Applied once to a nibble automaton it yields
8-bit-per-cycle processing; applied twice, 16-bit.

Construction (homogeneous NFAs).  For a source automaton with arity ``a``:

- **pair states** ``(q1, q2)`` for every edge ``q1 -> q2``: label is the
  concatenation of both labels; the pair carries only ``q2``'s report
  offsets (shifted by ``a``) — ``q1``'s reports are hoisted into remnants
  so they cannot be suppressed by a failing second half;
- **remnant states** ``(q1, END)`` for every reporting ``q1``: label is
  ``q1``'s label padded with ``a`` wildcards, carrying ``q1``'s offsets,
  with *no* successors.  They fire ``q1``'s report regardless of what the
  second half of the vector holds, exactly as the unstrided machine would;
- **phase states** ``(ANY, q_s)`` when the source allows ``ALL_INPUT``
  starts every cycle (``start_period == 1``): a pattern may then begin in
  the *second* half of a strided vector, so a wildcard-prefixed copy of
  each start state is added.  When ``start_period == 2`` (a nibble machine
  derived from bytes) starts only align with vector boundaries and no
  phase states are needed.

Transitions: ``(x, s) -> (f, y)`` exists iff ``f in succ(s)``.  Reports
keep their *sub-symbol* positions: a state reporting at offset ``o`` in
cycle ``t`` reports at stream position ``t * arity + o``, so positions are
invariant across striding.

The key structural invariant (checked by :func:`verify_offset_invariant`)
is that every label position strictly after a report offset is a full
wildcard — which is what makes interior-offset reports independent of
future input, preserving the unstrided semantics.
"""

from array import array

from ..automata.automaton import Automaton
from ..automata.gcutil import gc_paused
from ..automata.indexed import IndexedAutomaton
from ..automata.ste import StartKind, ste_from_canonical
from ..automata.symbolset import SymbolSet
from ..errors import TransformError
from ..obs import ProgressReporter

#: Sentinel ids for wildcard halves in generated state names.
_END = "$end"
_ANY = "$any"


def square(automaton, minimized=True, name=None):
    """Stride ``automaton`` by 2: the result consumes two vectors per cycle.

    Start-period handling: an even period ``P`` means starts align with
    every ``P``-th source cycle, which is offset 0 of every ``P/2``-th
    strided cycle — no phase states needed.  Period 1 allows mid-vector
    starts, handled by wildcard-prefixed phase states.

    The result is frozen: call ``copy()`` on it before mutating.
    """
    if automaton.start_period != 1 and automaton.start_period % 2 != 0:
        raise TransformError(
            "cannot square an automaton with odd start period %d"
            % automaton.start_period
        )
    return _square(automaton, minimized, name).freeze().validate()


@gc_paused
def _square(automaton, minimized, name):
    """Indexed squaring kernel (see :func:`square_unindexed` for the
    construction walkthrough; this builds the same machine).

    The whole construction runs on dense integers, straight off the
    source's ascending successor rows
    (:meth:`~repro.automata.automaton.Automaton.successor_columns`).
    Pair/remnant/phase states are rows in flat parallel arrays —
    ``(first, second)`` source index pairs, nothing else: no id strings,
    no dict keys, no :class:`Ste` objects.  Creation never needs a dedup
    map because each row key occurs exactly once (pairs come off unique
    edges, remnants and phase states once per source state), and a
    source state's rows are consecutive, so its ``entry_points`` list is
    just a ``range``.  The transition fan-out list of each second half
    is *shared* (one list object per source state) rather than copied
    into per-row sets, pruning is a flat-flag BFS over those rows, and
    only the surviving states ever get an id string or an STE.
    Predecessor rows and behaviour signatures — needed only by
    minimization — are built only when it runs; the signatures are
    interned for survivors from the source halves' interned symbol
    tuples (equality of the ``(first-half, second-half)`` id pairs is
    exactly equality of the materialized ``Ste.behavior_key()``s, since
    the concatenation split point is fixed at ``arity``).

    States are created in source state order, each source state's pairs
    in ascending successor order, so the result's state order, like its
    ascending rows, depends on nothing but the source machine.  The
    survivors go out as the columns of a new frozen machine
    (:meth:`~repro.automata.automaton.Automaton._from_columns`), and
    ``tests/test_indexed.py`` pins ``dumps()`` equality with the oracle.
    """
    period = automaton.start_period
    arity = automaton.arity
    full = SymbolSet.full(automaton.bits)
    wildcard_half = (full,) * arity
    result_name = name if name is not None else automaton.name + ".x2"
    result_period = max(1, period // 2)

    src_ids, src_targets, src_offsets = automaton.successor_columns()
    src_stes = automaton.states()
    src_start_kind = [ste.start for ste in src_stes]
    src_is_start = [kind is not StartKind.NONE for kind in src_start_kind]
    n = len(src_ids)
    flat = src_targets.tolist()
    src_succ = [flat[start:end] for start, end
                in zip(src_offsets, src_offsets[1:])]

    # ------------------------------------------------------------------
    # Creation: parallel (first, second) arrays — pairs off each source
    # state's ascending successor row, then its remnant, then (period 1
    # only) one phase state per ALL_INPUT start.
    # ------------------------------------------------------------------
    r_first = []   # source index of the first half, -1 for $any
    r_second = []  # source index of the second half, -1 for $end
    entry_points = {}  # first-half source index -> row range, in order
    report_flags = [ste.report for ste in src_stes]
    row = 0
    for i in range(n):
        base = row
        edges = src_succ[i]
        if edges:
            row += len(edges)
            r_second += edges
        if report_flags[i]:
            r_second.append(-1)
            row += 1
        if row > base:
            r_first += (i,) * (row - base)
            entry_points[i] = range(base, row)
        # A start state with no successors and no report would be inert, but
        # a *start* state that only reports is covered by its remnant above.
    if period == 1:
        for i in range(n):
            if src_start_kind[i] is StartKind.ALL_INPUT:
                r_first.append(-1)
                r_second.append(i)
                row += 1
    m = row

    # Coarse progress: m units for the transition fan-out, m for the
    # pruning+minimization fixpoint, m for materialization.  Near-free
    # when no collector is attached and REPRO_PROGRESS is unset.
    progress = ProgressReporter("transform", 3 * m, detail=result_name)

    # ------------------------------------------------------------------
    # Transitions: (x, s) -> every state whose first half is in succ(s).
    # The flattened entry-point list of each second half is built once
    # and the *same list object* is every such row's successor row.
    # Followers ascend and each one's rows are a range of rows created
    # in source order, so every such list ascends.  One dict maps every
    # distinct second half to its list, so assigning all m rows is a
    # single C-level ``map``.
    # ------------------------------------------------------------------
    EMPTY = ()
    succ_entries = {-1: EMPTY}
    get_entries = entry_points.get
    for second in set(r_second):
        if second >= 0:
            succ_entries[second] = [
                t for follower in src_succ[second]
                for t in get_entries(follower, EMPTY)]
    succ_rows = list(map(succ_entries.__getitem__, r_second))
    progress.update(m // 2)

    # ------------------------------------------------------------------
    # Prune: forward reachability from start rows (phase states and rows
    # whose first half is a start state — the same start set the legacy
    # kernel's Automaton.prune_unreachable walks).
    # ------------------------------------------------------------------
    seen = bytearray(m)
    work = []
    push = work.append
    for r, f in enumerate(r_first):
        if f < 0 or src_is_start[f]:
            seen[r] = 1
            push(r)
    while work:
        for t in succ_rows[work.pop()]:
            if not seen[t]:
                seen[t] = 1
                push(t)
    alive_rows = [r for r in range(m) if seen[r]]
    progress.update(m)

    # Second-half payload — (arity-shifted report offsets, code-if-report,
    # report flag) — computed once per distinct source state on demand and
    # shared between behaviour interning and boundary materialization.
    sec_info = [None] * n
    ALL_INPUT_KIND = StartKind.ALL_INPUT

    alive_final = alive_rows
    if minimized:
        # Predecessor rows, survivors only (a survivor's successors are
        # all survivors, so dead rows never need unlinking).
        pred_rows = [EMPTY] * m
        for r in alive_rows:
            for t in succ_rows[r]:
                p = pred_rows[t]
                if p:
                    p.append(r)
                else:
                    pred_rows[t] = [r]

        # Behaviour ids for survivors (minimization's screen signature).
        # Two pair states have equal materialized behavior_key()s exactly
        # when their first halves agree on (symbols, start) and their
        # second halves agree on (symbols, shifted offsets, code): the
        # concatenation split point is fixed at ``arity``, and a
        # non-reporting STE carries code None by invariant.  So each
        # half is interned once per *source state* (hashing its symbol
        # tuple once, lazily) and every row's key is a pure int pair —
        # probed without Python hash/eq callbacks.  A phase state shares
        # the first-half entry ``(wildcard, ALL_INPUT)`` with any real
        # first half it would legally merge with.  Remnants live in
        # their own ``(-1, id)`` range: their report offsets are below
        # ``arity`` and non-empty, which no pair or phase state matches.
        f_intern = {}
        s_intern = {}
        rem_intern = {}
        bfirst = [None] * n
        bsec = [None] * n
        bf_any = None
        behavior_intern = {}
        behavior = [None] * m
        is_start_rows = bytearray(m)
        for r in alive_rows:
            f = r_first[r]
            s = r_second[r]
            if s >= 0:
                bs = bsec[s]
                if bs is None:
                    ste = src_stes[s]
                    offs = ste.report_offsets
                    info = sec_info[s] = (
                        (tuple(arity + o for o in offs),
                         ste.report_code, True)
                        if offs else (EMPTY, None, False))
                    key = (ste.symbols, info[0], info[1])
                    bs = s_intern.get(key)
                    if bs is None:
                        bs = s_intern[key] = len(s_intern)
                    bsec[s] = bs
                if f >= 0:
                    bf = bfirst[f]
                    if bf is None:
                        key = (src_stes[f].symbols, src_start_kind[f])
                        bf = f_intern.get(key)
                        if bf is None:
                            bf = f_intern[key] = len(f_intern)
                        bfirst[f] = bf
                    started = src_is_start[f]
                else:
                    if bf_any is None:
                        key = (wildcard_half, ALL_INPUT_KIND)
                        bf_any = f_intern.get(key)
                        if bf_any is None:
                            bf_any = f_intern[key] = len(f_intern)
                    bf = bf_any
                    started = True
                bkey = (bf, bs)
            else:
                ste = src_stes[f]
                key = (ste.symbols, ste.start, ste.report_code,
                       ste.report_offsets)
                br = rem_intern.get(key)
                if br is None:
                    br = rem_intern[key] = len(rem_intern)
                bkey = (-1, br)
                started = src_is_start[f]
            bid = behavior_intern.get(bkey)
            if bid is None:
                bid = behavior_intern[bkey] = len(behavior_intern)
            behavior[r] = bid
            if started:
                is_start_rows[r] = 1

        res = IndexedAutomaton.from_parts(
            result_name, automaton.bits, 2 * arity, result_period,
            succ_rows, pred_rows, seen,
            behavior=behavior, is_start=is_start_rows)
        if res.minimize():
            alive_final = res.alive_indices()
            succ_rows = res.succ  # sets, once merging has run
    progress.update(2 * m)

    # ------------------------------------------------------------------
    # Boundary materialization: id strings and STEs exist only for
    # surviving states, and each survivor's row is renumbered to the
    # survivors' dense indices and sorted.
    # ------------------------------------------------------------------
    new_index = [0] * m
    states = {}
    for k, r in enumerate(alive_final):
        new_index[r] = k
        f = r_first[r]
        s = r_second[r]
        state_id = "(%s|%s)" % (src_ids[f] if f >= 0 else _ANY,
                                src_ids[s] if s >= 0 else _END)
        if s >= 0:
            info = sec_info[s]
            if info is None:
                ste = src_stes[s]
                offs = ste.report_offsets
                info = sec_info[s] = (
                    (tuple(arity + o for o in offs), ste.report_code, True)
                    if offs else (EMPTY, None, False))
            offsets, code, report = info
            if f >= 0:
                label = src_stes[f].symbols + src_stes[s].symbols
                start = src_start_kind[f]
            else:
                label = wildcard_half + src_stes[s].symbols
                start = ALL_INPUT_KIND
        else:
            ste = src_stes[f]
            label = ste.symbols + wildcard_half
            offsets = ste.report_offsets
            code = ste.report_code
            start = ste.start
            report = True
        states[state_id] = ste_from_canonical(
            state_id, label, start, report, code, offsets)
    index_of = new_index.__getitem__
    targets = array("i")
    bounds = array("i", [0])
    for r in alive_final:
        targets.extend(sorted(map(index_of, succ_rows[r])))
        bounds.append(len(targets))
    result = Automaton._from_columns(
        result_name, automaton.bits, 2 * arity, result_period,
        states, targets, bounds)
    progress.finish()
    # No validate() here: every invariant it checks holds by construction
    # (canonical STEs from validated sources, freshly pruned
    # reachability), and the production entry (``square``) validates
    # each fresh build.  The differential suite pins the kernel's output
    # byte-identical to the oracle's.
    return result


@gc_paused
def square_unindexed(automaton, minimized=True, name=None):
    """The direct string-graph squaring kernel (differential oracle).

    Builds pair/remnant/phase states straight onto an
    :class:`Automaton` as the pre-indexed implementation did, walking
    each state's successors in ascending state order (a frozen
    machine's row order); :func:`square` routes through the indexed
    kernel and ``tests/test_indexed.py`` pins the two bit-identical.
    """
    from ..automata.ops import minimize_unindexed

    period = automaton.start_period
    arity = automaton.arity
    full = SymbolSet.full(automaton.bits)
    wildcard_half = (full,) * arity
    result = Automaton(
        name=name if name is not None else automaton.name + ".x2",
        bits=automaton.bits,
        arity=2 * arity,
        start_period=max(1, period // 2),
    )

    # ------------------------------------------------------------------
    # States.  Keyed by (first, second) where either may be a sentinel.
    # ------------------------------------------------------------------
    new_ids = {}
    entry_points = {}  # source id f -> list of new ids whose first half is f

    def add(first_state, second_state):
        """Create one strided state; returns its id."""
        first_id = first_state.id if first_state is not None else _ANY
        second_id = second_state.id if second_state is not None else _END
        key = (first_id, second_id)
        if key in new_ids:
            return new_ids[key]
        new_id = "(%s|%s)" % key

        if second_state is None:
            # Remnant: first half's reports, wildcard second half.
            label = first_state.symbols + wildcard_half
            offsets = first_state.report_offsets
            code = first_state.report_code
            start = first_state.start
        elif first_state is None:
            # Phase state: wildcard first half, real second half.
            label = wildcard_half + second_state.symbols
            offsets = tuple(arity + o for o in second_state.report_offsets)
            code = second_state.report_code
            start = StartKind.ALL_INPUT
        else:
            label = first_state.symbols + second_state.symbols
            offsets = tuple(arity + o for o in second_state.report_offsets)
            code = second_state.report_code
            start = first_state.start

        result.new_state(
            new_id,
            label,
            start=start,
            report=bool(offsets),
            report_code=code,
            report_offsets=offsets if offsets else None,
        )
        new_ids[key] = new_id
        if first_state is not None:
            entry_points.setdefault(first_state.id, []).append(new_id)
        return new_id

    order = {state_id: i for i, state_id in enumerate(automaton.state_ids())}
    for state in automaton:
        for successor_id in sorted(automaton.successors(state.id),
                                   key=order.__getitem__):
            add(state, automaton.state(successor_id))
        if state.report:
            add(state, None)
        # A start state with no successors and no report would be inert, but
        # a *start* state that only reports is covered by its remnant above.
    if period == 1:
        for state in automaton.start_states():
            if state.start is StartKind.ALL_INPUT:
                add(None, state)

    # ------------------------------------------------------------------
    # Transitions: (x, s) -> every state whose first half is in succ(s).
    # The flattened entry-point list of each second half is computed once
    # and shared by every pair state ending in it, instead of walking
    # successors() and probing entry_points per source edge.
    # ------------------------------------------------------------------
    succ_entries = {}  # source id s -> new ids entered from succ(s)
    for (first_id, second_id), new_src in new_ids.items():
        if second_id == _END:
            continue
        targets = succ_entries.get(second_id)
        if targets is None:
            targets = succ_entries[second_id] = [
                new_dst
                for follower in sorted(automaton.successors(second_id))
                for new_dst in entry_points.get(follower, ())
            ]
        for new_dst in targets:
            result.add_transition(new_src, new_dst)

    result.prune_unreachable()
    if minimized:
        minimize_unindexed(result)
    # Symmetric with the indexed kernel: neither validates, so timing one
    # against the other compares construction work only.
    return result


def stride(automaton, factor):
    """Stride by ``factor`` (a power of two) via repeated squaring.

    Every squaring is minimized, so ``stride(x, 4)`` builds the same
    machine as ``stride(stride(x, 2), 2)``: each doubling of the rate
    ladder (:func:`~repro.transform.pipeline.rate_ladder`) is one
    minimized squaring.  Squaring a minimized machine saves more than
    the extra minimization pass costs (measured in docs/performance.md,
    "Partition-refinement minimizer").  The result is frozen.
    """
    if factor < 1 or factor & (factor - 1):
        raise TransformError("stride factor must be a power of two, got %r" % factor)
    current = automaton
    applied = 1
    while applied < factor:
        applied *= 2
        current = square(current)
    # Rename a clone: ``current`` is the source (factor 1) or a frozen
    # ``square`` result, neither of which may change.
    return current.shallow_clone(
        name=automaton.name + (".x%d" % factor if factor > 1 else "")
    ).freeze()


def verify_offset_invariant(automaton):
    """Check that label positions after each report offset are wildcards.

    Raises :class:`TransformError` on violation.  This invariant is what
    guarantees interior-offset reports never depend on future input.
    """
    for state in automaton:
        if not state.report:
            continue
        for offset in state.report_offsets:
            for position in range(offset + 1, state.arity):
                if not state.symbols[position].is_full():
                    raise TransformError(
                        "state %r reports at offset %d but position %d is "
                        "not a wildcard" % (state.id, offset, position)
                    )
    return True
