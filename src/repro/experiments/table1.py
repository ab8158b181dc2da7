"""Experiment T1 — reproduce Table 1 (reporting behaviour summary).

Simulates every synthetic benchmark on its generated input and reports
the static and dynamic columns next to the paper's published values.
The dynamic percentages should track the paper closely (they are the
generators' calibration targets); absolute counts scale with the input.

The experiment is declared as a stage graph (``generate -> simulate8 ->
table1_row`` per benchmark) executed by the runtime scheduler: the
expensive stages are content-addressed in the shared artifact store, so
they are shared with Table 4 (same generate/simulate8 artifacts) and
skipped entirely on warm runs, and the scheduler fans stage executions
across ``workers`` processes with byte-identical output.  One
:class:`~repro.exec.ExecutionPlan` (``plan=``, or ``--plan`` on the
CLI) chooses how the simulate stages execute.
"""

from ..errors import ArchitectureError
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


def simulation_params(base, plan=None):
    """Simulate-stage params with the execution plan salted in.

    The plan's :meth:`~repro.exec.ExecutionPlan.param_payload` joins the
    params only when non-empty, so default runs keep their artifact keys
    (warm stores stay warm) while planned runs are content-addressed
    separately.  The simulate stages run on the functional engine, so a
    plan targeting the device or the literal device fidelity raises
    :class:`~repro.errors.ArchitectureError` instead of re-keying
    identical rows.
    """
    params = dict(base)
    if plan is None:
        return params
    if plan.target != "engine" or plan.fidelity != "packed":
        raise ArchitectureError(
            "the simulate stages run on the functional engine: a plan with "
            "target=%r, fidelity=%r would only re-key identical rows; use "
            "target 'engine' and fidelity 'packed'"
            % (plan.target, plan.fidelity))
    payload = plan.param_payload()
    if payload:
        params["plan"] = payload
    return params


def define(graph, scale, seed, names, plan=None):
    """Declare Table 1's stages; returns the per-benchmark row tasks."""
    rows = []
    for name in names:
        gen = graph.task("generate",
                         {"name": name, "scale": scale, "seed": seed})
        sim = graph.task("simulate8",
                         simulation_params({"name": name}, plan),
                         deps=[gen])
        rows.append(graph.task("table1_row", {"name": name},
                               deps=[gen, sim]))
    return rows


def run(scale=0.02, seed=0, names=None, workers=1, runtime=None, plan=None):
    """Simulate the suite; returns the list of result rows.

    ``workers`` fans the stage executions out across a process pool
    (0 = all cores); rows come back in suite order regardless.  Pass a
    shared ``runtime`` to deduplicate stages with other experiments.
    ``plan`` (:class:`~repro.exec.ExecutionPlan`) picks the simulate
    stages' engine strategy: batched or sharded runs are bit-exact, and
    a gating plan keeps reports bit-exact but skips active-state
    statistics on gated runs (see docs/performance.md).
    """
    chosen = select_names(names, "table1.run")
    if runtime is None:
        runtime = Runtime(workers=workers)
    graph = StageGraph()
    tasks = define(graph, scale, seed, chosen, plan=plan)
    results = runtime.execute(graph, targets=tasks)
    return [results[task] for task in tasks]


def render(rows):
    """Format result rows as the Table 1 text table."""
    return format_table(rows, COLUMNS, title="Table 1: reporting behaviour")


@instrumented_experiment("table1")
def main(scale=0.02, seed=0, workers=1, plan=None):
    """Run and print (entry point used by the benchmark harness)."""
    rows = run(scale=scale, seed=seed, workers=workers, plan=plan)
    print(render(rows))
    return rows
