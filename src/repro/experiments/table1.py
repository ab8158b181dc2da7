"""Experiment T1 — reproduce Table 1 (reporting behaviour summary).

Simulates every synthetic benchmark on its generated input and reports
the static and dynamic columns next to the paper's published values.
The dynamic percentages should track the paper closely (they are the
generators' calibration targets); absolute counts scale with the input.

The experiment is declared as a stage graph (``generate -> simulate8 ->
table1_row`` per benchmark) executed by the runtime scheduler: the
expensive stages are content-addressed in the shared artifact store, so
they are shared with Table 4 (same generate/simulate8 artifacts) and
skipped entirely on warm runs.
"""

from ..runtime import Runtime, StageGraph
from ..workloads.registry import BENCHMARK_NAMES
from ..obs import instrumented_experiment
from .formatting import format_table

COLUMNS = [
    ("benchmark", "Benchmark"),
    ("family", "Family"),
    ("states", "#States"),
    ("report_states", "#RepStates"),
    ("report_state_pct", "Rep%"),
    ("paper_report_state_pct", "Rep%(paper)"),
    ("reports", "#Reports"),
    ("report_cycles", "#RepCycles"),
    ("reports_per_report_cycle", "R/RC"),
    ("paper_reports_per_report_cycle", "R/RC(paper)"),
    ("report_cycle_pct", "RC%"),
    ("paper_report_cycle_pct", "RC%(paper)"),
]


def select_names(names, experiment):
    """Validate a benchmark selection (shared by every table harness)."""
    chosen = list(names) if names is not None else list(BENCHMARK_NAMES)
    if not chosen:
        raise ValueError(
            "%s: empty benchmark selection (pass names=None for the full "
            "suite)" % experiment)
    return chosen


def define(graph, scale, seed, names):
    """Declare Table 1's stages; returns the per-benchmark row tasks."""
    rows = []
    for name in names:
        gen = graph.task("generate",
                         {"name": name, "scale": scale, "seed": seed})
        sim = graph.task("simulate8", {"name": name}, deps=[gen])
        rows.append(graph.task("table1_row", {"name": name},
                               deps=[gen, sim]))
    return rows


def run(scale=0.02, seed=0, names=None, runtime=None):
    """Simulate the suite; returns the list of result rows in suite order.

    Pass a shared ``runtime`` to deduplicate stages with other
    experiments.
    """
    chosen = select_names(names, "table1.run")
    if runtime is None:
        runtime = Runtime()
    graph = StageGraph()
    tasks = define(graph, scale, seed, chosen)
    results = runtime.execute(graph, targets=tasks)
    return [results[task] for task in tasks]


def render(rows):
    """Format result rows as the Table 1 text table."""
    return format_table(rows, COLUMNS, title="Table 1: reporting behaviour")


@instrumented_experiment("table1")
def main(scale=0.02, seed=0):
    """Run and print (entry point used by the benchmark harness)."""
    rows = run(scale=scale, seed=seed)
    print(render(rows))
    return rows
