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

from ..automata.automaton import Automaton
from ..automata.ops import minimize
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

    The result is frozen: call ``copy()`` on it before mutating.
    """
    if automaton.bits == 16 and automaton.arity == 1:
        build = _to_nibbles_wide
    elif automaton.bits == 8 and automaton.arity == 1:
        build = _to_nibbles_bytes
    else:
        raise TransformError(
            "nibble transformation expects an 8- or 16-bit arity-1 "
            "automaton, got %d-bit arity-%d"
            % (automaton.bits, automaton.arity)
        )
    # Validated once frozen, on the integer rows; the passed check is
    # kept, so an engine built on the result does not repeat it.
    result = build(automaton, minimized=minimized, name=name)
    return result.freeze().validate()


def _to_nibbles_bytes(automaton, minimized=True, name=None):
    """8-bit -> 4-bit decomposition: (high, low) nibble chains."""
    result = Automaton(
        name=name if name is not None else automaton.name + ".nibble",
        bits=4,
        arity=1,
        start_period=2,
    )

    # Decompose each byte state into (high, low) nibble chains.
    low_ids = {}   # original id -> list of low-state ids (exit points)
    high_ids = {}  # original id -> list of high-state ids (entry points)
    for state in automaton:
        groups = state.symbols[0].split_nibbles()
        if not groups:
            raise TransformError("state %r has an empty charset" % (state.id,))
        entries, exits = [], []
        for group_index, (high_set, low_set) in enumerate(groups):
            high_id = "%s.h%d" % (state.id, group_index)
            low_id = "%s.l%d" % (state.id, group_index)
            result.new_state(high_id, high_set, start=state.start)
            result.new_state(
                low_id,
                low_set,
                report=state.report,
                report_code=state.report_code,
            )
            result.add_transition(high_id, low_id)
            entries.append(high_id)
            exits.append(low_id)
        high_ids[state.id] = entries
        low_ids[state.id] = exits

    for src, dst in automaton.transitions():
        for exit_id in low_ids[src]:
            for entry_id in high_ids[dst]:
                result.add_transition(exit_id, entry_id)

    if minimized:
        minimize(result)
    return result


def _to_nibbles_wide(automaton, minimized=True, name=None):
    """16-bit -> 4-bit decomposition: chains of four nibble states."""
    nibbles = automaton.bits // 4
    result = Automaton(
        name=name if name is not None else automaton.name + ".nibble",
        bits=4,
        arity=1,
        start_period=nibbles,
    )
    entry_ids = {}
    exit_ids = {}
    for state in automaton:
        chains = _decompose_wide(state.symbols[0], nibbles)
        if not chains:
            raise TransformError("state %r has an empty charset" % (state.id,))
        entries, exits = [], []
        for chain_index, chain in enumerate(chains):
            previous = None
            for position, nibble_set in enumerate(chain):
                node_id = "%s.c%d_%d" % (state.id, chain_index, position)
                last = position == nibbles - 1
                result.new_state(
                    node_id,
                    nibble_set,
                    start=state.start if position == 0 else "none",
                    report=state.report and last,
                    report_code=state.report_code if last else None,
                )
                if previous is not None:
                    result.add_transition(previous, node_id)
                previous = node_id
                if position == 0:
                    entries.append(node_id)
            exits.append(previous)
        entry_ids[state.id] = entries
        exit_ids[state.id] = exits
    for src, dst in automaton.transitions():
        for exit_id in exit_ids[src]:
            for entry_id in entry_ids[dst]:
                result.add_transition(exit_id, entry_id)
    if minimized:
        minimize(result)
    return result


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
