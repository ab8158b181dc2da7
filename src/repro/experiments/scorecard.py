"""Reproduction scorecard: machine-checked paper-vs-measured claims.

Runs every experiment, extracts the paper's headline claims, and grades
each within an explicit tolerance band.  The scorecard is the one-screen
answer to "does this reproduction hold?", and the benchmark suite asserts
that no claim regresses.
"""

import json

from ..obs import OBS, instrumented_experiment
from ..runtime import Runtime
from . import figure8, figure9, figure10, table1, table3, table4, table5
from .formatting import format_table


class Claim:
    """One checkable claim with an acceptance band."""

    def __init__(self, name, paper, measured, low, high):
        self.name = name
        self.paper = paper
        self.measured = measured
        self.low = low
        self.high = high

    @property
    def passed(self):
        return self.low <= self.measured <= self.high

    def as_dict(self):
        return {
            "claim": self.name,
            "paper": self.paper,
            "measured": self.measured,
            "band": "[%.2f, %.2f]" % (self.low, self.high),
            "verdict": "PASS" if self.passed else "FAIL",
        }


def build_scorecard(scale=0.01, seed=0, workers=1, runtime=None):
    """Run the evaluation and grade every headline claim.

    ``workers`` fans stage executions across processes.  Every
    experiment's stage graph runs through one shared runtime (and hence
    one artifact store), so the stages the tables have in common —
    Table 1's and Table 4's generate/simulate8, Table 3's and Table 4's
    to_rate machines — execute exactly once per scorecard, and a warm
    ``--artifact-dir`` store serves the result rows without reading them
    at all.
    """
    if runtime is None:
        runtime = Runtime(workers=workers)
    claims = []

    # Table 1: the workload generators must actually hit the published
    # dynamic profiles (spot-check the three behaviour classes).
    rows1 = table1.run(scale=scale, seed=seed,
                       names=["Snort", "SPM", "Brill"], runtime=runtime)
    t1 = {row["benchmark"]: row for row in rows1}
    claims.append(Claim("Snort reports on ~94.9% of cycles", 94.89,
                        t1["Snort"]["report_cycle_pct"], 90.0, 99.0))
    claims.append(Claim("SPM report cycles ~3.24%", 3.24,
                        t1["SPM"]["report_cycle_pct"], 2.2, 4.3))
    claims.append(Claim("Brill bursts ~9.19 reports/report-cycle", 9.19,
                        t1["Brill"]["reports_per_report_cycle"], 6.0, 12.0))

    rows5 = table5.run()
    freq = {row["architecture"]: row["operating_frequency_ghz"]
            for row in rows5}
    claims.append(Claim("Sunder operates at 3.6 GHz", 3.6,
                        freq["Sunder (14nm)"], 3.4, 3.8))
    claims.append(Claim("AP projects to 1.69 GHz at 14nm", 1.69,
                        freq["AP (14nm, projected)"], 1.6, 1.8))

    rows3, averages3 = table3.run(scale=scale, seed=seed, runtime=runtime)
    claims.append(Claim("1-nibble state overhead ~3.1x", 3.1,
                        averages3["states_1"], 1.5, 4.5))
    claims.append(Claim("2-nibble state overhead ~1.0x", 1.0,
                        averages3["states_2"], 0.8, 1.5))
    claims.append(Claim("4-nibble state overhead ~1.2x", 1.2,
                        averages3["states_4"], 0.9, 2.2))

    rows4, averages4 = table4.run(scale=scale, seed=seed, runtime=runtime)
    by_name = {row["benchmark"]: row for row in rows4}
    claims.append(Claim("Sunder avg reporting overhead ~1.0x", 1.0,
                        averages4["sunder_fifo_overhead"], 1.0, 1.1))
    claims.append(Claim("Snort AP-style overhead ~46x", 46.0,
                        by_name["Snort"]["ap_overhead"], 23.0, 69.0))
    claims.append(Claim("AP-style avg overhead ~4.69x", 4.69,
                        averages4["ap_overhead"], 2.5, 7.0))
    claims.append(Claim("RAD rescues Snort to ~9x", 9.0,
                        by_name["Snort"]["rad_overhead"], 4.0, 14.0))
    zero_overhead = sum(
        1 for row in rows4 if row["sunder_fifo_overhead"] < 1.005
    )
    claims.append(Claim("zero reporting stalls for ~95% of apps (19/20)",
                        0.95, zero_overhead / len(rows4), 0.9, 1.0))

    rows8 = figure8.run(table4_rows=rows4)
    speed = {row["architecture"]: row for row in rows8}
    claims.append(Claim("~280x throughput vs AP (50nm)", 280.0,
                        speed["AP (50nm)"]["sunder_speedup_ap"], 140.0, 420.0))
    claims.append(Claim("~10x throughput vs Cache Automaton", 10.0,
                        speed["CA"]["sunder_speedup_ap"], 5.0, 15.0))
    claims.append(Claim("~4x throughput vs Impala", 4.0,
                        speed["Impala"]["sunder_speedup_ap"], 2.0, 6.0))

    rows9 = figure9.run(runtime=runtime)
    area = {row["architecture"]: row for row in rows9}
    claims.append(Claim("~2.1x smaller than the AP", 2.1,
                        area["AP"]["ratio_to_sunder"], 1.9, 2.3))
    claims.append(Claim("Sunder reporting area ~2%", 0.02,
                        area["Sunder"]["reporting_mm2"]
                        / area["Sunder"]["total_mm2"], 0.0, 0.05))

    from ..hwmodel.area import throughput_per_area
    density = {row["architecture"]: row for row in throughput_per_area()}
    claims.append(Claim(
        "~3 orders of magnitude throughput/area vs the 50nm AP", 1000.0,
        density["AP (50nm silicon)"]["sunder_density_ratio"], 500.0, 3000.0,
    ))

    rows10 = figure10.run(runtime=runtime)
    worst = rows10[-1]
    claims.append(Claim("worst-case slowdown ~7x", 7.0,
                        worst["slowdown"], 5.5, 8.5))
    claims.append(Claim("summarization bounds worst case to ~1.4x", 1.4,
                        worst["slowdown_summarized"], 1.2, 1.6))

    return claims


COLUMNS = [
    ("claim", "Claim"),
    ("paper", "Paper"),
    ("measured", "Measured"),
    ("band", "Accept band"),
    ("verdict", "Verdict"),
]


def render(claims):
    """Text scorecard."""
    rows = [claim.as_dict() for claim in claims]
    passed = sum(1 for claim in claims if claim.passed)
    table = format_table(rows, COLUMNS, title="Reproduction scorecard")
    return "%s\n%d/%d claims reproduced" % (table, passed, len(claims))


def to_json(claims, indent=2, metrics=None):
    """Machine-readable scorecard.

    When a telemetry collector is attached (or ``metrics`` is passed
    explicitly), the metrics snapshot gathered while the claims were
    measured is embedded alongside them.
    """
    if metrics is None and OBS.active:
        metrics = OBS.registry.snapshot()
    payload = {
        "claims": [claim.as_dict() for claim in claims],
        "metrics": metrics,
    }
    return json.dumps(payload, indent=indent)


@instrumented_experiment("scorecard")
def main(scale=0.01, seed=0, workers=1):
    """Run and print."""
    claims = build_scorecard(scale=scale, seed=seed, workers=workers)
    print(render(claims))
    return claims
