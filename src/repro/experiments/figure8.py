"""Experiment F8 — Figure 8 (throughput of the automata accelerators).

Combines Table 5's frequencies with the average reporting overheads
measured by the Table 4 experiment:

    throughput = frequency x bits/cycle / reporting-overhead

Sunder keeps its own (near-1.0) overhead; Impala/CA/AP are charged the
AP-style (or AP+RAD) average, exactly as the paper's comparison does.
"""

from ..baselines.throughput import figure8_rows
from ..obs import instrumented_experiment
from .formatting import format_table
from . import table4

COLUMNS = [
    ("architecture", "Architecture"),
    ("kernel_gbps", "Kernel Gbps"),
    ("ap_reporting_gbps", "w/ AP reporting"),
    ("rad_reporting_gbps", "w/ RAD reporting"),
    ("sunder_speedup_ap", "Sunder speedup (AP rep.)"),
    ("sunder_speedup_rad", "Sunder speedup (RAD rep.)"),
]

#: The paper's headline speedups (AP-style reporting / RAD reporting).
PAPER_SPEEDUPS = {
    "AP (50nm)": (280.0, 133.0),
    "AP (14nm)": (22.0, 10.4),
    "CA": (10.0, 4.8),
    "Impala": (4.0, 1.9),
    "Sunder": (1.0, 1.0),
}


def run(scale=0.01, seed=0, names=None, table4_rows=None, runtime=None):
    """Compute Figure 8's bars (running Table 4 first if not supplied).

    When Table 4 runs here, its stage graph goes through ``runtime`` (or
    a fresh one), so a warm artifact store serves the expensive stages.
    """
    if table4_rows is None:
        table4_rows, _ = table4.run(scale=scale, seed=seed, names=names,
                                    runtime=runtime)
    count = len(table4_rows)
    sunder = sum(r["sunder_fifo_overhead"] for r in table4_rows) / count
    ap = sum(r["ap_overhead"] for r in table4_rows) / count
    rad = sum(r["rad_overhead"] for r in table4_rows) / count
    rows = figure8_rows(sunder, ap, rad)
    for row in rows:
        paper = PAPER_SPEEDUPS.get(row["architecture"])
        if paper:
            row["paper_speedup_ap"], row["paper_speedup_rad"] = paper
    return rows


def render(rows):
    """Format as the Figure 8 text table."""
    columns = COLUMNS + [
        ("paper_speedup_ap", "Paper (AP rep.)"),
        ("paper_speedup_rad", "Paper (RAD rep.)"),
    ]
    return format_table(rows, columns, title="Figure 8: throughput comparison")


@instrumented_experiment("figure8")
def main(scale=0.01, seed=0):
    """Run and print."""
    rows = run(scale=scale, seed=seed)
    print(render(rows))
    return rows
