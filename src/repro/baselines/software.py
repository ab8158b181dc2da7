"""Software pattern-matching baseline: DFA determinization and costs.

The paper's motivation (Section 1, Related Work): software matchers on
von-Neumann machines either run NFAs (slow: every active state touches
memory per byte) or DFAs (fast but subject to exponential state blowup —
the reason Dotstar-style rulesets defeat them).  This module makes that
argument concrete:

- :func:`determinize` — subset construction over a homogeneous NFA, with
  a state limit so blowup is observable rather than fatal;
- :class:`DfaMatcher` — table-driven matcher equivalent to the NFA
  (differential-tested), with memory-footprint accounting;
- :func:`software_cost_model` — per-byte operation counts for NFA vs DFA
  execution, the crossover the accelerators sidestep.
"""

from ..automata.ste import StartKind
from ..errors import CapacityError
from ..sim.engine import BitsetEngine


class Dfa:
    """A determinized automaton (subset construction result).

    States are integers; state 0 is the start subset.  ``accepts`` maps a
    DFA state to the frozenset of report codes of the NFA reporting
    states inside its subset.
    """

    def __init__(self, alphabet_size):
        self.alphabet_size = alphabet_size
        self.transitions = []  # list of lists: state -> symbol -> state
        self.accepts = []      # state -> frozenset of report codes

    @property
    def num_states(self):
        return len(self.transitions)

    def table_bytes(self, entry_bytes=4):
        """Memory footprint of the flat transition table."""
        return self.num_states * self.alphabet_size * entry_bytes

    def step(self, state, symbol):
        return self.transitions[state][symbol]


def determinize(automaton, max_states=100_000):
    """Subset construction for a *streaming* homogeneous NFA.

    The subset always re-includes the ALL_INPUT start states (matches can
    begin at every offset), which is the streaming semantics the
    benchmarks use.  Raises :class:`CapacityError` past ``max_states`` —
    the observable "DFA blowup" outcome.
    """
    if automaton.arity != 1:
        raise CapacityError("determinization modelled for arity-1 automata")
    alphabet = 1 << automaton.bits
    engine = BitsetEngine(automaton)  # reuse its precomputed masks
    all_input = engine._all_input_mask
    start_of_data = engine._start_of_data_mask
    propagate = engine._propagate
    report_info = engine._report_info
    match_masks = engine._match_masks[0]

    def successors_of(subset_mask):
        return all_input | propagate(subset_mask)

    def codes_of(subset_mask):
        codes = set()
        mask = subset_mask
        while mask:
            low = mask & -mask
            index = low.bit_length() - 1
            if index in report_info:
                codes.add(report_info[index][1])
            mask ^= low
        return frozenset(codes)

    dfa = Dfa(alphabet)
    index_of = {}   # active-mask key -> DFA state index
    enabled_of = [] # DFA state index -> enabled mask for the next symbol
    worklist = []

    def intern(key, enabled_mask, accept_codes):
        if key in index_of:
            return index_of[key]
        if len(enabled_of) >= max_states:
            raise CapacityError(
                "DFA blowup: more than %d subset states" % max_states
            )
        index = len(enabled_of)
        index_of[key] = index
        dfa.transitions.append([0] * alphabet)
        dfa.accepts.append(accept_codes)
        enabled_of.append(enabled_mask)
        worklist.append(index)
        return index

    # State 0: before any input.  Its enabled set additionally contains
    # the start-of-data states, so it gets a distinguished key.
    intern(("init",), all_input | start_of_data, frozenset())
    while worklist:
        state_index = worklist.pop()
        enabled = enabled_of[state_index]
        for symbol in range(alphabet):
            next_active = enabled & match_masks[symbol]
            target = intern(
                next_active,
                successors_of(next_active),
                codes_of(next_active),
            )
            dfa.transitions[state_index][symbol] = target
    return dfa


class DfaMatcher:
    """Table-driven execution of a determinized automaton."""

    def __init__(self, dfa):
        self.dfa = dfa

    def run(self, data):
        """Return the set of (position, report_code) pairs."""
        state = 0
        hits = set()
        for position, symbol in enumerate(data):
            state = self.dfa.step(state, symbol)
            for code in self.dfa.accepts[state]:
                hits.add((position, code))
        return hits


def software_cost_model(automaton, avg_active_states, dfa=None):
    """Per-byte memory-operation counts for software execution.

    - NFA execution touches one successor list per active state per byte
      plus one match lookup: ``1 + avg_active_states`` random accesses.
    - DFA execution is exactly one table access per byte — *if* the
      table fits (``dfa.table_bytes()``); blowup is reported as None.
    """
    result = {
        "nfa_accesses_per_byte": 1.0 + avg_active_states,
        "nfa_memory_bytes": (
            len(automaton) * (1 << automaton.bits) // 8
            + automaton.num_transitions() * 8
        ),
        "dfa_accesses_per_byte": None,
        "dfa_memory_bytes": None,
    }
    if dfa is not None:
        result["dfa_accesses_per_byte"] = 1.0
        result["dfa_memory_bytes"] = dfa.table_bytes()
    return result
