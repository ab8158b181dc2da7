"""Deployment planning: from a ruleset to a device configuration.

Ties the whole library together for a downstream user: given an 8-bit
automaton and a device size, pick a processing rate, predict state
overheads, clusters, reconfiguration rounds, throughput, and reporting
headroom — the sizing exercise Section 5.1.1 describes qualitatively
("the processing rate can be determined by the user based on the
application size and requested throughput").
"""

from ..errors import CapacityError
from ..hwmodel.pipeline import SUNDER_PIPELINE
from ..transform.pipeline import SUPPORTED_RATES, rate_ladder
from .config import PUS_PER_CLUSTER, SunderConfig
from .mapping import place
from .reconfigure import partition_rounds


class RatePlan:
    """Deployment consequences of one processing rate."""

    def __init__(self, rate, states, clusters, rounds, gbps_nominal,
                 report_rows, report_capacity):
        self.rate = rate
        self.states = states
        self.clusters = clusters
        self.rounds = rounds
        self.gbps_nominal = gbps_nominal
        self.report_rows = report_rows
        self.report_capacity = report_capacity

    @property
    def effective_gbps(self):
        """Nominal throughput divided by the round count (input re-runs)."""
        return self.gbps_nominal / self.rounds

    def as_dict(self):
        return {
            "rate": self.rate,
            "states": self.states,
            "clusters": self.clusters,
            "rounds": self.rounds,
            "gbps_nominal": self.gbps_nominal,
            "effective_gbps": self.effective_gbps,
            "report_rows": self.report_rows,
            "report_capacity": self.report_capacity,
        }

    def __repr__(self):
        return ("RatePlan(rate=%d, states=%d, clusters=%d, rounds=%d, "
                "%.1f Gbps effective)" % (
                    self.rate, self.states, self.clusters, self.rounds,
                    self.effective_gbps))


def plan_rates(automaton, device_clusters, config_kwargs=None,
               rates=SUPPORTED_RATES):
    """Evaluate every processing rate for an 8-bit automaton.

    Returns ``{rate: RatePlan}``.  Rates whose transformed automaton has
    a component too large even for a dedicated cluster are omitted.  The
    rate ladder is built once for all ``rates``.
    """
    plans = {}
    for rate, machine in rate_ladder(automaton, rates).items():
        kwargs = dict(config_kwargs or {})
        kwargs["rate_nibbles"] = rate
        config = SunderConfig(**kwargs)
        try:
            placement = place(machine, config)
        except CapacityError:
            continue
        try:
            rounds = partition_rounds(machine, config, device_clusters)
        except CapacityError:
            continue
        plans[rate] = RatePlan(
            rate=rate,
            states=len(machine),
            clusters=placement.clusters_used,
            rounds=len(rounds),
            gbps_nominal=SUNDER_PIPELINE.operating_frequency_ghz * 4 * rate,
            report_rows=config.report_rows,
            report_capacity=config.report_capacity,
        )
    if not plans:
        raise CapacityError("no processing rate fits this automaton")
    return plans


def recommend_rate(automaton, device_clusters, config_kwargs=None):
    """Pick the rate with the highest effective throughput.

    Ties break toward the lower rate (more reporting rows, fewer states)
    — the paper's guidance: large applications favour lower rates to
    avoid extra-state overhead and reconfiguration rounds.
    """
    plans = plan_rates(automaton, device_clusters,
                       config_kwargs=config_kwargs)
    best = max(
        plans.values(),
        key=lambda plan: (plan.effective_gbps, -plan.rate),
    )
    return best, plans
