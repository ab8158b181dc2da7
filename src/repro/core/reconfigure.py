"""Multi-round reconfiguration for automata exceeding device capacity.

When an application's automata do not fit on the device, spatial automata
processors re-run the input once per *round* of configurations (paper
Sections 1 and 5.1.1: "if device capacity is not enough ... multiple
rounds of reconfigurations are required").  This module partitions an
automaton's connected components into device-sized rounds, executes each
round, merges the report streams, and accounts the cost:

    total cycles = rounds x (configure + stream) + stalls

Configuration cost is the Port-1 writes needed to program the matching
rows and both crossbars of every used PU.
"""

from ..automata.automaton import Automaton
from ..automata.ops import connected_components
from ..errors import CapacityError
from ..sim.reports import ReportRecorder
from .config import PUS_PER_CLUSTER
from .device import SunderDevice
from .mapping import place


def partition_rounds(automaton, config, max_clusters):
    """Split an automaton into per-round automata that each fit.

    Components are packed first-fit-decreasing into rounds of at most
    ``max_clusters`` clusters.  Returns a list of Automaton objects.
    Raises :class:`CapacityError` if a single component cannot fit even
    alone (placement's per-cluster rule).
    """
    components = connected_components(automaton)
    rounds = []

    def new_round():
        machine = Automaton(
            name="%s.round%d" % (automaton.name, len(rounds)),
            bits=automaton.bits,
            arity=automaton.arity,
            start_period=automaton.start_period,
        )
        rounds.append(machine)
        return machine

    def fits(machine):
        try:
            place(machine, config, max_clusters=max_clusters)
        except CapacityError:
            return False
        return True

    for component in components:
        piece = _subautomaton(automaton, component)
        placed = False
        for machine in rounds:
            candidate = machine.copy()
            candidate.merge_in(piece, "")
            if fits(candidate):
                machine.merge_in(piece, "")
                placed = True
                break
        if not placed:
            machine = new_round()
            machine.merge_in(piece, "")
            if not fits(machine):
                raise CapacityError(
                    "a single component (%d states) exceeds the device "
                    "(%d clusters)" % (len(component), max_clusters)
                )
    return rounds


def _subautomaton(automaton, state_ids):
    """Extract the induced sub-automaton over ``state_ids``."""
    piece = Automaton(
        name=automaton.name + ".part",
        bits=automaton.bits,
        arity=automaton.arity,
        start_period=automaton.start_period,
    )
    chosen = set(state_ids)
    for state_id in state_ids:
        piece.add_state(automaton.state(state_id).clone())
    for state_id in state_ids:
        for successor in automaton.successors(state_id):
            if successor in chosen:
                piece.add_transition(state_id, successor)
    return piece


def configuration_write_cycles(placement, config):
    """Port-1 writes to program one round's PUs.

    Each used PU needs its matching rows (16 x rate), its 256-row local
    crossbar, and the cluster's global switch rows written once.
    """
    pus = len(placement.pus_used())
    matching_rows = config.matching_rows
    crossbar_rows = config.subarray_cols
    global_rows = placement.clusters_used * PUS_PER_CLUSTER * config.subarray_cols
    return pus * (matching_rows + crossbar_rows) + global_rows


class MultiRoundResult:
    """Outcome of a multi-round execution."""

    def __init__(self, rounds, stream_cycles, configure_cycles, stall_cycles,
                 recorder):
        self.rounds = rounds
        self.stream_cycles = stream_cycles
        self.configure_cycles = configure_cycles
        self.stall_cycles = stall_cycles
        self.recorder = recorder

    @property
    def total_cycles(self):
        """End-to-end cycles including reconfiguration and stalls."""
        return (self.rounds * self.stream_cycles
                + self.configure_cycles + self.stall_cycles)

    @property
    def slowdown_vs_single_round(self):
        """Cost relative to an infinitely large device."""
        if self.stream_cycles == 0:
            return 1.0
        return self.total_cycles / self.stream_cycles

    def __repr__(self):
        return ("MultiRoundResult(rounds=%d, total=%d cycles, %.2fx vs "
                "single round)" % (self.rounds, self.total_cycles,
                                   self.slowdown_vs_single_round))


def run_multi_round(automaton, vectors, config, max_clusters,
                    position_limit=None, fidelity="packed"):
    """Execute ``automaton`` over ``vectors`` in as many rounds as needed.

    Returns a :class:`MultiRoundResult` whose recorder holds the merged
    reports of every round (identical to a single-round run on unlimited
    hardware, which the tests verify).  ``fidelity`` selects each
    round's device execution path.
    """
    vectors = list(vectors)
    merged = ReportRecorder(position_limit=position_limit)
    rounds = partition_rounds(automaton, config, max_clusters)
    configure_cycles = 0
    stall_cycles = 0
    for machine in rounds:
        device = SunderDevice(config, max_clusters=max_clusters,
                              fidelity=fidelity)
        placement = device.configure(machine)
        configure_cycles += configuration_write_cycles(placement, config)
        result = device.run(vectors, position_limit=position_limit)
        stall_cycles += result.stall_cycles
        merged.absorb(result.reports())
    return MultiRoundResult(
        len(rounds), len(vectors), configure_cycles, stall_cycles, merged,
    )
