"""Experiment F10 — Figure 10 (input-stream sensitivity analysis).

Sweeps the fraction of reporting cycles from 1% to 100% for a single
subarray with 12 reporting states and evaluates the closed-form slowdown
with and without report summarization (Section 5.1.2).

The paper's anchors: negligible below 5% reporting, 7x worst case
without summarization, 1.4x with 16-row-batch summarization.

Each sweep point is one ``figure10_point`` stage in the runtime graph
(closed-form, so uncached); the scheduler fans points across ``workers``
with rows in sweep order at any count.  No device runs, so the
experiment takes no execution plan.
"""

from ..core.config import SunderConfig
from ..runtime import Runtime, StageGraph
from ..obs import instrumented_experiment
from .formatting import format_table

#: The sweep points shown in the paper's figure.
SWEEP_PCTS = (1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)

COLUMNS = [
    ("report_cycle_pct", "Report cycles (%)"),
    ("slowdown", "Slowdown"),
    ("slowdown_summarized", "Slowdown (summarized)"),
]


def define(graph, sweep, config):
    """Declare one ``figure10_point`` task per sweep percentage."""
    return [graph.task("figure10_point", {"pct": pct, "config": config})
            for pct in sweep]


def run(sweep=SWEEP_PCTS, config=None, workers=1, runtime=None):
    """Evaluate the sweep; returns result rows.

    ``workers`` fans the sweep points out across a process pool
    (0 = all cores); rows stay in sweep order at any worker count.
    """
    if config is None:
        config = SunderConfig(report_bits=12)
    if runtime is None:
        runtime = Runtime(workers=workers)
    graph = StageGraph()
    tasks = define(graph, sweep, config)
    results = runtime.execute(graph, targets=tasks)
    return [results[task] for task in tasks]


def render(rows):
    """Format as the Figure 10 text table."""
    return format_table(
        rows, COLUMNS,
        title="Figure 10: slowdown vs reporting rate "
              "(paper anchors: 7x at 100%, 1.4x summarized)",
    )


@instrumented_experiment("figure10")
def main(workers=1):
    """Run and print."""
    rows = run(workers=workers)
    print(render(rows))
    return rows
