"""8-bit to 4-bit (nibble) automata transformation — paper Section 4.

Each byte-matching STE is decomposed into chains of two nibble-matching
STEs (high nibble first).  The decomposition groups the state's 256-symbol
charset by distinct low-nibble sets (:meth:`SymbolSet.split_nibbles`),
which is the minimal row-partition rectangle cover — a ``[a-z]``-style
class becomes 2–3 chains, a full ``.`` exactly one.

The resulting automaton has ``bits=4, arity=1, start_period=2``: patterns
may only begin on byte boundaries, so ``ALL_INPUT`` starts self-enable
only on even nibble cycles.  A report the byte automaton raises at byte
``t`` is raised by the nibble automaton at nibble position ``2t + 1``.

FlexAmata-style minimization (prefix/suffix congruence merging) runs after
decomposition and recovers most of the naive 2x state blowup; measured
overheads land near the paper's Table 3.
"""

from array import array
from itertools import chain

from ..automata.automaton import Automaton
from ..automata.gcutil import gc_paused
from ..automata.indexed import IndexedAutomaton
from ..automata.ste import StartKind, ste_from_canonical
from ..automata.symbolset import SymbolSet
from ..errors import TransformError


def _decompose_wide(symbol_set, nibbles):
    """Suffix-sharing decomposition of an m-bit set into nibble chains.

    Returns a list of nibble-set chains (tuples of 4-bit SymbolSets of
    length ``nibbles``) whose concatenated cross products partition the
    set — the multi-level generalization of
    :meth:`SymbolSet.split_nibbles`.  Grouping is by distinct suffix
    decomposition, which is the same minimal row-partition cover applied
    recursively.
    """
    if nibbles == 1:
        return [(SymbolSet.of(4, list(symbol_set)),)]
    shift = 4 * (nibbles - 1)
    by_high = {}
    for value in symbol_set:
        by_high.setdefault(value >> shift, set()).add(
            value & ((1 << shift) - 1)
        )
    # Group high nibbles whose suffix sets are identical, then recurse on
    # each distinct suffix set.
    by_suffix = {}
    for high, suffix in by_high.items():
        by_suffix.setdefault(frozenset(suffix), []).append(high)
    chains = []
    for suffix, highs in sorted(
        by_suffix.items(), key=lambda item: sorted(item[1])
    ):
        high_set = SymbolSet.of(4, highs)
        for tail in _decompose_wide(suffix, nibbles - 1):
            chains.append((high_set,) + tail)
    return chains


def to_nibbles(automaton, minimized=True, name=None):
    """Transform an 8- or 16-bit arity-1 automaton to 4-bit processing.

    Parameters
    ----------
    automaton:
        Source automaton (``bits in (8, 16), arity=1``).  16-bit symbols
        cover the paper's wide-alphabet applications (SPM's "millions of
        unique symbols"), decomposed into chains of four nibbles.
    minimized:
        Run congruence minimization after decomposition (on by default;
        disable to measure the naive decomposition overhead).
    name:
        Name of the produced automaton (default: ``<src>.nibble``).

    The decomposition kernel reads the source's integer rows, so a
    frozen source (every generated instance) is read as it is and a
    mutable one has its columns built once.  The result is frozen and
    validated once, on its rows: call ``copy()`` on it before mutating.
    """
    if automaton.arity != 1 or automaton.bits not in (8, 16):
        raise TransformError(
            "nibble transformation expects an 8- or 16-bit arity-1 "
            "automaton, got %d-bit arity-%d"
            % (automaton.bits, automaton.arity)
        )
    # The passed check is kept, so an engine built on the result does
    # not repeat it.
    return _decompose(automaton, minimized, name).validate()


@gc_paused
def _decompose(automaton, minimized, name):
    """Decomposition kernel: every source state becomes nibble chains.

    Built like the squaring kernel
    (:func:`~repro.transform.striding._square`): the machine is laid
    out as flat per-row arrays straight off the source's ascending
    successor rows, and only the states that survive minimization get
    an id string and an STE.

    - *Chain covers.*  Each distinct source symbol set is decomposed
      once (:meth:`~repro.automata.symbolset.SymbolSet.split_nibbles`
      at 8 bits, :func:`_decompose_wide` at 16), and every nibble label
      is interned by mask, so all states with one mask share one
      ``(SymbolSet,)`` tuple.
    - *Rows.*  Per source state, per chain, its positions (``h``, ``l``
      at 8 bits; ``c<chain>_<position>`` at 16).  A position's row is
      the next position of its chain.  A chain's last position gets one
      row, shared by every chain of that source state: the entry rows
      of its successors, which ascend because the source rows do.
      Entries carry the source's start kind, last positions its report.
    - *Minimization* runs on an
      :meth:`~repro.automata.indexed.IndexedAutomaton.from_parts` view
      whose behaviour ids are interned from (label mask, start,
      report, code), exactly the equality of the materialized
      ``Ste.behavior_key()``-s, with predecessor rows derived in row
      order as :meth:`IndexedAutomaton.from_automaton` would.

    The survivors go out as the columns of a new frozen machine
    (:meth:`~repro.automata.automaton.Automaton._from_columns`) with
    the ids, state order and rows the per-state builder produced, so
    ``dumps()`` is unchanged (pinned in ``tests/test_transform.py`` and
    ``tests/test_wide_symbols.py``).  No validation here:
    :func:`to_nibbles` validates the result once.
    """
    nibbles = automaton.bits // 4
    last = nibbles - 1
    result_name = name if name is not None else automaton.name + ".nibble"
    src_ids, src_targets, src_offsets = automaton.successor_columns()
    src_stes = automaton.states()
    n = len(src_ids)

    # ------------------------------------------------------------------
    # Chain covers, once per distinct source label: the labels of one
    # source state's rows in row order, and their masks.
    # ------------------------------------------------------------------
    labels = {}   # nibble mask -> shared (SymbolSet,) label
    covers = {}   # source label -> (row labels, row masks)
    r_label = []  # label of every row
    r_mask = []
    base = [0] * (n + 1)  # first row of each source state
    row = 0
    for i, ste in enumerate(src_stes):
        cover = covers.get(ste.symbols)
        if cover is None:
            sset = ste.symbols[0]
            chains = (sset.split_nibbles() if nibbles == 2
                      else _decompose_wide(sset, nibbles))
            if not chains:
                raise TransformError(
                    "state %r has an empty charset" % (ste.id,))
            parts = list(chain.from_iterable(chains))
            cover = covers[ste.symbols] = (
                [labels.setdefault(part.mask, (part,)) for part in parts],
                [part.mask for part in parts])
        r_label += cover[0]
        r_mask += cover[1]
        row += len(cover[0])
        base[i + 1] = row
    m = row

    # ------------------------------------------------------------------
    # Rows: the next position of the chain, or the shared exit row.
    # ------------------------------------------------------------------
    succ_rows = [[r] for r in range(1, m + 1)]
    flat = src_targets.tolist()
    entries = [range(base[i], base[i + 1], nibbles) for i in range(n)]
    for i in range(n):
        exits = range(base[i] + last, base[i + 1], nibbles)
        shared = [t for j in flat[src_offsets[i]:src_offsets[i + 1]]
                  for t in entries[j]]
        succ_rows[exits.start:exits.stop:nibbles] = [shared] * len(exits)

    alive = range(m)
    if minimized:
        pred_rows = [()] * m
        for r, targets in enumerate(succ_rows):
            for t in targets:
                preds = pred_rows[t]
                if preds:
                    preds.append(r)
                else:
                    pred_rows[t] = [r]
        # Behaviour ids: the label's mask plus the position's (start,
        # report, code), which an entry takes from the source's start
        # kind and a last position from its report; a middle position
        # (16 bits) has neither.
        middle = ((StartKind.NONE, False, None),) * (nibbles - 2)
        behavior_intern = {}
        behavior = [0] * m
        is_start = bytearray(m)
        for i, ste in enumerate(src_stes):
            flags = (((ste.start, False, None),) + middle
                     + ((StartKind.NONE, ste.report, ste.report_code),))
            for r in range(base[i], base[i + 1]):
                key = (r_mask[r],) + flags[(r - base[i]) % nibbles]
                bid = behavior_intern.get(key)
                if bid is None:
                    bid = behavior_intern[key] = len(behavior_intern)
                behavior[r] = bid
            if ste.start is not StartKind.NONE:
                is_start[base[i]:base[i + 1]:nibbles] = (
                    b"\x01" * len(entries[i]))
        view = IndexedAutomaton.from_parts(
            result_name, 4, 1, nibbles, succ_rows, pred_rows,
            bytearray(b"\x01") * m, behavior=behavior, is_start=is_start)
        if view.minimize():
            alive = view.alive_indices()
            succ_rows = view.succ  # sets, once merging has run

    # ------------------------------------------------------------------
    # Boundary materialization: ids and STEs for survivors only, rows
    # renumbered to the survivors' dense indices and sorted.
    # ------------------------------------------------------------------
    formats = (("%s.h%d", "%s.l%d") if nibbles == 2
               else tuple("%%s.c%%d_%d" % p for p in range(nibbles)))
    none = StartKind.NONE
    report_offsets = (0,)
    new_index = [0] * m
    states = {}
    i = 0
    for k, r in enumerate(alive):
        new_index[r] = k
        while r >= base[i + 1]:
            i += 1
        ste = src_stes[i]
        chain_index, position = divmod(r - base[i], nibbles)
        state_id = formats[position] % (src_ids[i], chain_index)
        report = position == last and ste.report
        states[state_id] = ste_from_canonical(
            state_id, r_label[r], ste.start if position == 0 else none,
            report, ste.report_code if report else None,
            report_offsets if report else ())
    index_of = new_index.__getitem__
    targets = array("i")
    bounds = array("i", [0])
    for r in alive:
        targets.extend(sorted(map(index_of, succ_rows[r])))
        bounds.append(len(targets))
    return Automaton._from_columns(result_name, 4, 1, nibbles, states,
                                   targets, bounds)


def wide_symbols_to_nibbles(symbols, bits=16):
    """Flatten a wide-symbol stream into nibbles, most significant first."""
    nibbles_per_symbol = bits // 4
    out = []
    for value in symbols:
        if not 0 <= value < (1 << bits):
            raise TransformError(
                "symbol %r out of range for %d-bit alphabet" % (value, bits)
            )
        for position in range(nibbles_per_symbol - 1, -1, -1):
            out.append((value >> (4 * position)) & 0xF)
    return out


def wide_report_position_to_symbol(position, bits=16):
    """Map a nibble report position back to its wide-symbol index.

    Reports land on the final nibble of a symbol; anything else is a
    transformation bug.
    """
    nibbles_per_symbol = bits // 4
    if position % nibbles_per_symbol != nibbles_per_symbol - 1:
        raise TransformError(
            "report at nibble position %d does not align with a %d-bit "
            "symbol boundary" % (position, bits)
        )
    return position // nibbles_per_symbol


def nibble_report_position_to_byte(position):
    """Map a nibble-domain report position to the originating byte index.

    Valid nibble-automaton reports always land on the low nibble (odd
    positions); raises :class:`TransformError` otherwise because an even
    position indicates a transformation bug.
    """
    if position % 2 != 1:
        raise TransformError(
            "nibble report at even position %d (must fire on the low nibble)"
            % position
        )
    return position // 2
