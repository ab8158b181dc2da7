"""Graph algorithms over homogeneous NFAs.

These are the passes the transformation pipeline leans on: connected
components drive placement into processing units, and the two congruence
merges implement the FlexAmata-style state minimization that keeps the
nibble transformation's state overhead near the paper's Table 3 numbers.
"""

from collections import deque

from ..obs import OBS
from .automaton import Automaton
from .gcutil import gc_paused
from .indexed import MINIMIZE_ROUNDS, IndexedAutomaton


def connected_components(automaton):
    """Weakly connected components as lists of state ids.

    Placement treats one component as an indivisible automaton: all states
    of a component must land in processing units that can exchange
    activation signals (Section 5.2's local/global interconnect).
    """
    remaining = set(automaton.state_ids())
    components = []
    while remaining:
        seed = next(iter(remaining))
        queue = deque([seed])
        component = {seed}
        while queue:
            current = queue.popleft()
            for neighbor in automaton.successors(current) | automaton.predecessors(current):
                if neighbor not in component:
                    component.add(neighbor)
                    queue.append(neighbor)
        remaining -= component
        components.append(sorted(component))
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


def degree_statistics(automaton):
    """Fan-in/fan-out statistics used by the interconnect sizing analysis."""
    if len(automaton) == 0:
        return {"max_fan_in": 0, "max_fan_out": 0,
                "avg_fan_in": 0.0, "avg_fan_out": 0.0}
    fan_in = [len(automaton.predecessors(s)) for s in automaton.state_ids()]
    fan_out = [len(automaton.successors(s)) for s in automaton.state_ids()]
    return {
        "max_fan_in": max(fan_in),
        "max_fan_out": max(fan_out),
        "avg_fan_in": sum(fan_in) / len(fan_in),
        "avg_fan_out": sum(fan_out) / len(fan_out),
    }


def _merge_pass(automaton, signature):
    """Merge states sharing a signature; returns number of states removed.

    ``signature`` maps a state id to a hashable key; states with equal keys
    are collapsed into the first one (edges are unioned onto the survivor).
    """
    groups = {}
    for state in automaton:
        groups.setdefault(signature(state.id), []).append(state.id)
    removed = 0
    for members in groups.values():
        if len(members) < 2:
            continue
        survivor = members[0]
        for duplicate in members[1:]:
            for pred in list(automaton.predecessors(duplicate)):
                remapped = survivor if pred == duplicate else pred
                automaton.add_transition(remapped, survivor)
            for succ in list(automaton.successors(duplicate)):
                remapped = survivor if succ == duplicate else succ
                automaton.add_transition(survivor, remapped)
            automaton.remove_state(duplicate)
            removed += 1
    return removed


def merge_suffix_equivalent(automaton):
    """Merge states with identical behaviour and successor sets.

    Safe for NFAs: two states with the same symbol sets, flags, and exact
    successor sets are observationally identical going forward, so their
    incoming edges can be pooled.  Returns states removed.
    """
    def signature(state_id):
        state = automaton.state(state_id)
        return (state.behavior_key(), frozenset(
            s for s in automaton.successors(state_id) if s != state_id
        ), state_id in automaton.successors(state_id))
    return _merge_pass(automaton, signature)


def merge_prefix_equivalent(automaton):
    """Merge states with identical behaviour and predecessor sets.

    Two states with the same symbol sets, start kind, report behaviour, and
    exact predecessor sets are always co-active, so unioning their outgoing
    edges preserves the language.  Returns states removed.

    Start states with *no* predecessors are deliberately left unmerged:
    collapsing them is language-preserving but welds independent rules into
    one weakly-connected component, destroying the per-rule granularity the
    hardware placement needs (a component must fit one 1024-state cluster).
    """
    def signature(state_id):
        state = automaton.state(state_id)
        predecessors = frozenset(
            p for p in automaton.predecessors(state_id) if p != state_id
        )
        if state.is_start and not predecessors:
            return ("unmergeable-start", state_id)
        return (state.behavior_key(), predecessors,
                state_id in automaton.predecessors(state_id))
    return _merge_pass(automaton, signature)


def _refine_partition(automaton, neighbors, inverse, protected=frozenset()):
    """Coarsest partition stable under (behaviour, neighbour-block-set).

    Worklist signature refinement: start from the partition induced by
    :meth:`Ste.behavior_key` (``protected`` ids get singleton blocks) and
    split any block whose members see different *blocks* through
    ``neighbors``.  When a split moves states to a fresh block id, only
    the blocks holding their ``inverse`` neighbours are re-examined — the
    id stays with the largest sub-block, so work is proportional to the
    states that actually move, not to graph depth.  The coarsest stable
    partition is unique, so the processing order cannot change the
    result; no mutation happens until the merge is applied.

    Returns ``state id -> block index``; within each block the survivor
    chosen later is the member earliest in state insertion order.
    """
    block = {}
    members = {}
    blocks_seen = {}
    for state_id in automaton.state_ids():
        if state_id in protected:
            key = ("protected", state_id)
        else:
            key = ("behavior", automaton.state(state_id).behavior_key())
        index = blocks_seen.get(key)
        if index is None:
            index = blocks_seen[key] = len(blocks_seen)
        block[state_id] = index
        members.setdefault(index, []).append(state_id)
    next_id = len(blocks_seen)
    pending = {index for index, mem in members.items() if len(mem) > 1}
    signatures = {}  # state id -> cached sig; stale only for dirty states
    examined = set()  # blocks whose members are known sig-uniform
    dirty = set(block)
    while pending:
        touched, pending = pending, set()
        moved = []
        for index in touched:
            mem = members[index]
            if len(mem) < 2:
                continue
            # Refresh stale signatures; a block is sig-uniform after its
            # first examination, so if no refresh changed anything it
            # cannot split now and regrouping is skipped entirely.
            changed = index not in examined
            for state_id in mem:
                if state_id in dirty:
                    dirty.discard(state_id)
                    signature = frozenset(
                        block[n] for n in neighbors(state_id))
                    if signatures.get(state_id) != signature:
                        signatures[state_id] = signature
                        changed = True
            if not changed:
                continue
            examined.add(index)
            groups = {}
            for state_id in mem:
                groups.setdefault(signatures[state_id], []).append(state_id)
            if len(groups) == 1:
                continue
            ordered = sorted(groups.values(), key=len, reverse=True)
            members[index] = ordered[0]
            for sub in ordered[1:]:
                for state_id in sub:
                    block[state_id] = next_id
                members[next_id] = sub
                examined.add(next_id)
                moved.extend(sub)
                next_id += 1
        for state_id in moved:
            for neighbor in inverse(state_id):
                dirty.add(neighbor)
                neighbor_block = block[neighbor]
                if len(members[neighbor_block]) > 1:
                    pending.add(neighbor_block)
    return block


def _apply_partition(automaton, block):
    """Collapse each partition block onto its first member (quotient).

    All edges are remapped onto the survivors before any state is
    removed, so in/out edges of duplicates are pooled exactly as the
    one-shot merge passes do.  Returns states removed.
    """
    ids = automaton.state_ids()
    members = {}
    for state_id in ids:
        members.setdefault(block[state_id], []).append(state_id)
    survivor = {state_id: members[block[state_id]][0] for state_id in ids}
    for src, dst in list(automaton.transitions()):
        remapped = (survivor[src], survivor[dst])
        if remapped != (src, dst):
            automaton.add_transition(*remapped)
    removed = 0
    for state_id in ids:
        if survivor[state_id] != state_id:
            automaton.remove_state(state_id)
            removed += 1
    return removed


def _prefix_protected(automaton):
    """Start states with no predecessors — never merged (see
    :func:`merge_prefix_equivalent` for the placement rationale)."""
    return frozenset(
        state.id for state in automaton.start_states()
        if not automaton.predecessors(state.id)
    )


#: In-process memo of fingerprints whose machines are known minimal
#: (bounded FIFO); probed before any minimization work is done.
_MINIMAL_FINGERPRINTS = {}
_MINIMAL_LIMIT = 4096


def _is_known_minimal(fingerprint):
    """Whether ``fingerprint`` was recorded as a minimal machine."""
    return fingerprint in _MINIMAL_FINGERPRINTS


def _record_minimal(fingerprint):
    """Record ``fingerprint`` as a minimal machine in this process."""
    if len(_MINIMAL_FINGERPRINTS) >= _MINIMAL_LIMIT:
        _MINIMAL_FINGERPRINTS.pop(next(iter(_MINIMAL_FINGERPRINTS)))
    _MINIMAL_FINGERPRINTS[fingerprint] = True


@gc_paused
def minimize(automaton):
    """Partition-refinement minimization; returns states removed.

    This is the hardware-aware minimization FlexAmata applies after
    bitwise decomposition.  Semantics are documented on
    :func:`minimize_unindexed` (the direct string-graph implementation,
    kept as the differential oracle); this entry point runs the same
    screen-then-refine algorithm over the dense
    :class:`~repro.automata.indexed.IndexedAutomaton` view — interned
    behaviour ids, integer adjacency rows, bitmask liveness — and
    writes the surviving graph back in place.  Output is bit-exact
    against the oracle (``tests/test_indexed.py``).

    Machines whose fingerprint this process already recorded as minimal
    (a previous ``minimize`` left them unchanged or produced them, or
    ``square`` built them) are skipped outright: the fingerprint probe
    costs one canonical hash instead of a full screening pass.  A
    frozen machine returns 0 when it is already minimal and raises
    :class:`~repro.errors.AutomatonError` only if minimization would
    merge states.
    """
    fingerprint = automaton.fingerprint()
    if _is_known_minimal(fingerprint):
        return 0
    indexed = IndexedAutomaton.from_automaton(automaton)
    total = indexed.minimize()
    if total:
        indexed.write_back(automaton)
        _record_minimal(automaton.fingerprint())
    else:
        _record_minimal(fingerprint)
    if OBS.active:
        OBS.instruments.transform_states.labels(op="minimize").set(
            len(automaton))
    return total


@gc_paused
def minimize_unindexed(automaton):
    """Partition-refinement minimization on the string graph (oracle).

    One cheap exact-signature screening pass (one suffix + one prefix
    merge) runs first: on an already-minimal machine — the common case
    for compiled registry workloads — it removes nothing and
    minimization stops at the cost of a single scan.  When the screen
    does find merges, the full partition refinement takes over and
    computes each direction's coarsest stable partition in one pass
    over the static graph:

    - **suffix** — states in one block share behaviour and see the same
      successor blocks, hence the same right language, so their incoming
      edges can be pooled.  Unlike the one-shot exact-successor-set
      merge, this reaches equivalences through cycles and collapses a
      chain of ``L`` duplicate states in one pass instead of ``L``
      mutate-and-rescan rounds (which :func:`minimize_legacy` caps at
      ``MINIMIZE_ROUNDS``, leaving long duplicates unmerged);
    - **prefix** — states in one block share behaviour and the same
      predecessor blocks, hence are always co-active, so their outgoing
      edges can be pooled.  Start states with no predecessors stay
      singleton blocks (merging them would weld independent rules into
      one placement component).

    The two directions alternate until neither shrinks the machine —
    typically one refinement round plus one (much smaller) verification
    round.  :func:`minimize` runs this exact algorithm over the indexed
    view; this direct implementation is retained as its differential
    oracle (like :func:`minimize_legacy` before it).
    """
    total = merge_suffix_equivalent(automaton)
    total += merge_prefix_equivalent(automaton)
    if total == 0:
        return 0
    for _ in range(MINIMIZE_ROUNDS):
        removed = _apply_partition(
            automaton, _refine_partition(
                automaton, automaton.successors, automaton.predecessors))
        removed += _apply_partition(
            automaton, _refine_partition(
                automaton, automaton.predecessors, automaton.successors,
                protected=_prefix_protected(automaton)))
        total += removed
        if removed == 0:
            break
    return total


def minimize_legacy(automaton):
    """The pre-refinement minimizer: iterate one-shot merges to fixpoint.

    Each round rescans and mutates the whole graph, and a chain of ``L``
    equivalent states needs ``L`` rounds to collapse.  Kept as the
    reference ``tests/test_ops.py::TestPartitionRefinement`` checks
    :func:`minimize` against (it must merge at least as much); new code
    should call :func:`minimize`.
    """
    total = 0
    for _ in range(MINIMIZE_ROUNDS):
        removed = merge_suffix_equivalent(automaton)
        removed += merge_prefix_equivalent(automaton)
        total += removed
        if removed == 0:
            break
    return total


def union(automata, name="union", bits=None, arity=None):
    """Disjoint union of many automata into one machine.

    Each input keeps its behaviour; state ids are prefixed with the input's
    index.  All inputs must share shape (bits/arity/start period).
    """
    if not automata:
        raise ValueError("union() needs at least one automaton")
    first = automata[0]
    result = Automaton(
        name=name,
        bits=bits if bits is not None else first.bits,
        arity=arity if arity is not None else first.arity,
        start_period=first.start_period,
    )
    for index, machine in enumerate(automata):
        result.merge_in(machine, "u%d_" % index)
    if OBS.active:
        OBS.instruments.transform_states.labels(op="union").set(len(result))
    return result


def reachable_from(automaton, seeds):
    """Forward-reachable set of state ids from ``seeds``."""
    queue = deque(seeds)
    seen = set(seeds)
    while queue:
        current = queue.popleft()
        for succ in automaton.successors(current):
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return seen


def longest_simple_path_bound(automaton):
    """Cheap upper bound on pattern depth: BFS layering from start states.

    Used by workload generators to sanity-check that generated rules have
    the intended depth; exact longest-path is NP-hard on general graphs.
    """
    depth = {s.id: 0 for s in automaton.start_states()}
    queue = deque(depth)
    while queue:
        current = queue.popleft()
        for succ in automaton.successors(current):
            if succ not in depth:
                depth[succ] = depth[current] + 1
                queue.append(succ)
    return max(depth.values()) + 1 if depth else 0
