"""Placement of automata onto Sunder processing units.

A processing unit (PU) is one 256-column match/report subarray plus its
local crossbar; four PUs share a global switch, so a weakly-connected
automaton component may span at most one 1024-state cluster.  Reporting
states must land in the last ``m`` (``config.report_bits``) columns of
their PU — the *reporting-enabled* columns whose activity feeds the OR
tree and the reporting region (paper Figure 5).

Placement is greedy first-fit-decreasing over components, which is the
classic spatial-architecture flow (components are indivisible, clusters
are bins).
"""

from ..automata.ops import connected_components
from ..errors import ArchitectureError, CapacityError
from .config import PUS_PER_CLUSTER


class StateSlot:
    """Physical location of one state: (cluster, pu, column)."""

    __slots__ = ("cluster", "pu", "column")

    def __init__(self, cluster, pu, column):
        self.cluster = cluster
        self.pu = pu
        self.column = column

    def __repr__(self):
        return "StateSlot(cluster=%d, pu=%d, col=%d)" % (
            self.cluster, self.pu, self.column,
        )

    def __eq__(self, other):
        return (
            isinstance(other, StateSlot)
            and (self.cluster, self.pu, self.column)
            == (other.cluster, other.pu, other.column)
        )


class Placement:
    """Result of mapping one automaton onto a device."""

    def __init__(self, automaton, config):
        self.automaton = automaton
        self.config = config
        self.slots = {}
        self.clusters_used = 0

    def slot_of(self, state_id):
        """Physical slot of a state."""
        try:
            return self.slots[state_id]
        except KeyError:
            raise ArchitectureError("state %r was not placed" % (state_id,)) from None

    def pus_used(self):
        """Distinct (cluster, pu) pairs that hold at least one state."""
        return sorted({(slot.cluster, slot.pu) for slot in self.slots.values()})

    def states_in_pu(self, cluster, pu):
        """State ids mapped to one PU."""
        return [
            state_id for state_id, slot in self.slots.items()
            if slot.cluster == cluster and slot.pu == pu
        ]

    def report_pu_of(self, state_id):
        """(cluster, pu) of a reporting state — used by the perf model."""
        slot = self.slot_of(state_id)
        return (slot.cluster, slot.pu)

    def summary(self):
        """Utilization statistics."""
        pus = self.pus_used()
        return {
            "states": len(self.slots),
            "clusters": self.clusters_used,
            "pus": len(pus),
            "avg_states_per_pu": len(self.slots) / len(pus) if pus else 0.0,
        }


class _PuBudget:
    """Free normal/report column slots of one PU during placement."""

    def __init__(self, config):
        self.normal_free = config.subarray_cols - config.report_bits
        self.report_free = config.report_bits
        self.next_normal = 0
        self.next_report = config.subarray_cols - config.report_bits

    def take_normal(self):
        if self.normal_free == 0:
            raise CapacityError("PU out of normal columns")
        column = self.next_normal
        self.next_normal += 1
        self.normal_free -= 1
        return column

    def take_report(self):
        if self.report_free == 0:
            raise CapacityError("PU out of reporting columns")
        column = self.next_report
        self.next_report += 1
        self.report_free -= 1
        return column


def place(automaton, config, max_clusters=None):
    """Map ``automaton`` onto PUs; returns a :class:`Placement`.

    Raises :class:`CapacityError` when a single component exceeds one
    cluster's capacity, or when ``max_clusters`` is given and the whole
    automaton does not fit (the multi-round reconfiguration case, which
    this model does not execute).
    """
    if automaton.arity != config.rate_nibbles:
        raise ArchitectureError(
            "automaton arity %d does not match configured rate %d"
            % (automaton.arity, config.rate_nibbles)
        )
    placement = Placement(automaton, config)
    split = []  # per component: (normal ids, reporting ids)
    for component in connected_components(automaton):
        split.append(([s for s in component if not automaton.state(s).report],
                      [s for s in component if automaton.state(s).report]))
    assignment = first_fit([(len(normal_ids), len(report_ids))
                            for normal_ids, report_ids in split],
                           config, max_clusters)
    clusters = [[_PuBudget(config) for _ in range(PUS_PER_CLUSTER)]
                for _ in range(max(assignment, default=-1) + 1)]
    for (normal_ids, report_ids), cluster_index in zip(split, assignment):
        target = clusters[cluster_index]
        for state_id in normal_ids:
            pu_index, column = _take(target, "normal")
            placement.slots[state_id] = StateSlot(cluster_index, pu_index, column)
        for state_id in report_ids:
            pu_index, column = _take(target, "report")
            placement.slots[state_id] = StateSlot(cluster_index, pu_index, column)

    placement.clusters_used = len(clusters)
    return placement


def first_fit(components, config, max_clusters=None):
    """Cluster index of each component under placement's first-fit rule.

    ``components`` holds ``(normal, reporting)`` state counts in
    placement order.  Each goes to the first cluster with enough free
    normal and reporting columns, or opens a new one.  Raises
    :class:`CapacityError` when one component outgrows a cluster, or
    when ``max_clusters`` is given and more clusters are needed.
    """
    normal_per_cluster = PUS_PER_CLUSTER * (config.subarray_cols - config.report_bits)
    report_per_cluster = PUS_PER_CLUSTER * config.report_bits
    free = []  # [normal, reporting] columns left per cluster
    assignment = []
    for normal, reporting in components:
        if normal > normal_per_cluster or reporting > report_per_cluster:
            raise CapacityError(
                "component with %d states (%d reporting) exceeds one cluster "
                "(%d normal + %d reporting columns); split the automaton or "
                "raise report_bits" % (
                    normal + reporting, reporting,
                    normal_per_cluster, report_per_cluster,
                )
            )
        for index, columns in enumerate(free):
            if columns[0] >= normal and columns[1] >= reporting:
                break
        else:
            if max_clusters is not None and len(free) >= max_clusters:
                raise CapacityError(
                    "automaton does not fit in %d clusters; multi-round "
                    "reconfiguration required" % max_clusters
                )
            index = len(free)
            free.append([normal_per_cluster, report_per_cluster])
        free[index][0] -= normal
        free[index][1] -= reporting
        assignment.append(index)
    return assignment


def _take(budgets, kind):
    """Allocate one column of ``kind`` from the least-loaded feasible PU."""
    for pu_index, budget in enumerate(budgets):
        try:
            if kind == "normal":
                return pu_index, budget.take_normal()
            return pu_index, budget.take_report()
        except CapacityError:
            continue
    raise CapacityError("cluster unexpectedly out of %s columns" % kind)
