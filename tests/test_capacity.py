"""Capacity-planning tests."""

import hashlib

import pytest

from repro.core import SunderConfig
from repro.core.capacity import plan_rates, recommend_rate
from repro.core.reconfigure import partition_rounds
from repro.errors import CapacityError
from repro.regex import compile_ruleset
from repro.transform import to_rate


@pytest.fixture(scope="module")
def small_machine():
    return compile_ruleset(["alpha[0-9]", "beta.", "gamma+"])


@pytest.fixture(scope="module")
def big_machine():
    # Large enough to need multiple rounds on a 1-cluster device at
    # higher rates (reporting columns are the bottleneck: 12 per PU).
    return compile_ruleset(["pattern%03d[a-z]{8}" % i for i in range(120)])


class TestPlanRates:
    def test_all_rates_for_small_machine(self, small_machine):
        plans = plan_rates(small_machine, device_clusters=4)
        assert set(plans) == {1, 2, 4}
        for rate, plan in plans.items():
            assert plan.rounds == 1
            assert plan.gbps_nominal == pytest.approx(14.46 * rate, rel=0.01)
            assert plan.effective_gbps == plan.gbps_nominal

    def test_report_rows_shrink_with_rate(self, small_machine):
        plans = plan_rates(small_machine, device_clusters=4)
        assert plans[1].report_rows > plans[2].report_rows > plans[4].report_rows

    def test_rounds_appear_when_device_small(self, big_machine):
        plans = plan_rates(big_machine, device_clusters=1)
        assert any(plan.rounds > 1 for plan in plans.values())

    def test_plan_dict_roundtrip(self, small_machine):
        plans = plan_rates(small_machine, device_clusters=2)
        record = plans[4].as_dict()
        assert record["rate"] == 4
        assert record["effective_gbps"] == plans[4].effective_gbps


class TestRecommendation:
    def test_small_machine_prefers_fastest_rate(self, small_machine):
        best, _ = recommend_rate(small_machine, device_clusters=4)
        assert best.rate == 4  # no round penalty -> highest throughput

    def test_round_penalty_can_flip_the_choice(self, big_machine):
        best_large, plans_large = recommend_rate(big_machine,
                                                 device_clusters=32)
        best_small, plans_small = recommend_rate(big_machine,
                                                 device_clusters=1)
        # With a big device the fastest single-round rate wins; with a
        # tiny device the effective (round-divided) throughput decides.
        assert plans_large[best_large.rate].rounds == 1
        assert best_large.effective_gbps == max(
            plan.effective_gbps for plan in plans_large.values()
        )
        assert best_small.effective_gbps == max(
            plan.effective_gbps for plan in plans_small.values()
        )
        # The small device needs strictly more rounds at the highest rate.
        assert plans_small[4].rounds > plans_large[4].rounds

    def test_impossible_machine_rejected(self):
        # One gigantic connected component: no rate can place it.
        from repro.automata import Automaton, SymbolSet
        machine = Automaton(bits=8)
        previous = None
        for index in range(6000):
            state_id = "s%d" % index
            machine.new_state(
                state_id, SymbolSet.single(8, index % 256),
                start="all-input" if index == 0 else "none",
                report=index == 5999,
                report_code="end" if index == 5999 else None,
            )
            if previous:
                machine.add_transition(previous, state_id)
            previous = state_id
        with pytest.raises(CapacityError):
            plan_rates(machine, device_clusters=2)


class TestRounds:
    #: rate -> (state count per round, digest of every round's ordered
    #: state ids), as the copy-and-place partitioner computed them.
    PINNED = {
        1: ([988] * 6 + [312], "f0ed7088524c4a98"),
        2: ([624] * 5, "fb0d660848c4e18b"),
        4: ([504] * 5 + [252] * 10, "8e5b2aa2ae4fd365"),
    }

    @pytest.mark.parametrize("rate", [1, 2, 4])
    def test_round_state_ids_pinned(self, big_machine, rate):
        rounds = partition_rounds(to_rate(big_machine, rate),
                                  SunderConfig(rate_nibbles=rate), 1)
        text = "\n".join(" ".join(map(str, machine.state_ids()))
                         for machine in rounds)
        sizes, digest = self.PINNED[rate]
        assert [len(machine) for machine in rounds] == sizes
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_int_ids_tie_break_as_the_round_machine_does(self):
        """A round machine holds each id as a string, and place() breaks
        ties between equal-sized components by those: '10' < '9'.  By
        the integer order the four components below fit two clusters in
        one round, which place() then cannot do."""
        from repro.automata import Automaton, SymbolSet
        from repro.core.mapping import place
        machine = Automaton(bits=4, arity=1)
        for first, reporting in zip((9, 10, 11, 12), (3, 2, 1, 2)):
            ids = [first] + [first * 100 + index for index in range(12)]
            for position, state_id in enumerate(ids):
                report = position >= len(ids) - reporting
                machine.new_state(
                    state_id, SymbolSet.single(4, 1),
                    start="all-input" if position == 0 else "none",
                    report=report, report_code="r" if report else None,
                )
            for src, dst in zip(ids, ids[1:]):
                machine.add_transition(src, dst)
        config = SunderConfig(rate_nibbles=1, report_bits=1)
        rounds = partition_rounds(machine, config, 2)
        assert [len(part) for part in rounds] == [39, 13]
        for part in rounds:
            place(part, config, max_clusters=2)
