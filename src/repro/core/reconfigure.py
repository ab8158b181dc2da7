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
from ..errors import ArchitectureError, CapacityError
from ..sim.reports import ReportRecorder
from .config import PUS_PER_CLUSTER
from .device import SunderDevice
from .mapping import first_fit


def partition_rounds(automaton, config, max_clusters):
    """Split an automaton into per-round automata that each fit.

    Components are packed first-fit-decreasing into rounds of at most
    ``max_clusters`` clusters.  Returns a list of Automaton objects.
    Raises :class:`CapacityError` if a single component cannot fit even
    alone (placement's per-cluster rule).

    Whether a round fits is decided from per-component counts alone,
    by the first-fit rule :func:`~repro.core.mapping.place` applies
    (see :func:`_round_fits`), without building the round.
    """
    components = connected_components(automaton)
    if components and automaton.arity != config.rate_nibbles:
        raise ArchitectureError(
            "automaton arity %d does not match configured rate %d"
            % (automaton.arity, config.rate_nibbles)
        )
    rounds = []  # per round: [machine, component counts]
    for component in components:
        reporting = sum(1 for state_id in component
                        if automaton.state(state_id).report)
        # The round machine holds each id as its string (merge_in with
        # an empty prefix), and place() breaks size ties by those.
        counts = (len(component), min(map(str, component)),
                  len(component) - reporting, reporting)
        for members in rounds:
            if _round_fits(members[1] + [counts], config, max_clusters):
                break
        else:
            if not _round_fits([counts], config, max_clusters):
                raise CapacityError(
                    "a single component (%d states) exceeds the device "
                    "(%d clusters)" % (len(component), max_clusters)
                )
            members = [Automaton(
                name="%s.round%d" % (automaton.name, len(rounds)),
                bits=automaton.bits,
                arity=automaton.arity,
                start_period=automaton.start_period,
            ), []]
            rounds.append(members)
        members[0].merge_in(_subautomaton(automaton, component), "")
        members[1].append(counts)
    return [machine for machine, _ in rounds]


def _round_fits(components, config, max_clusters):
    """Whether :func:`~repro.core.mapping.place` fits these components.

    ``components`` holds ``(size, smallest id as a string, normal
    states, reporting states)`` per component; ``place`` takes them in
    ``connected_components`` order, largest first and ties by smallest
    id, through :func:`~repro.core.mapping.first_fit`.
    """
    ordered = sorted(components, key=lambda counts: (-counts[0], counts[1]))
    try:
        first_fit([(normal, reporting) for _, _, normal, reporting in ordered],
                  config, max_clusters)
    except CapacityError:
        return False
    return True


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
