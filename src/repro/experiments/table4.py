"""Experiment T4 — Table 4 (reporting overhead across architectures).

For every benchmark:

1. The 8-bit automaton runs in the functional simulator to produce the
   exact per-cycle report stream; the AP and AP+RAD queue models replay
   it (the AP is an 8-bit architecture, so its cycle base is bytes).
2. The automaton is transformed to 4-nibble (16-bit) processing, run
   again, placed onto Sunder PUs, and the per-PU report profile drives
   the Sunder reporting-region model twice — stop-and-flush and FIFO —
   giving #flushes and the reporting overhead on Sunder's cycle base.

Flush-count convention: we count flush *events summed over subarrays*
(the paper's counting convention is not fully specified; see
EXPERIMENTS.md for the comparison discussion).

Declared as a stage graph per benchmark::

    generate -> simulate8 ----------------------------\\
            \\-> to_rate x3 -> simulate_strided --------+-> report_drain
                          \\-----------------------------/

``to_rate x3`` is the benchmark's rate ladder up to 4 nibbles
(:func:`~repro.runtime.stages.declare_ladder`): rates 1, 2 and 4, each
built from the rung below.  ``report_drain`` places the strided machine
onto Sunder PUs and then replays both report streams; its row is cached
like every other stage here.  ``generate``/``simulate8`` are shared
with Table 1 and the ladder with Table 3 through the content-addressed
artifact store, so a scorecard run executes each only once, and a warm
``--artifact-dir`` serves the rows without demanding anything below
them.  No device runs here, because the overheads come from the
reporting models.
"""

from ..core.config import SunderConfig
from ..core.mapping import place
from ..runtime import Runtime, StageGraph, declare_ladder
from ..runtime.stages import drain_row
from ..runtime.artifacts import SimRun
from ..sim.engine import BitsetEngine
from ..sim.inputs import stream_for
from ..sim.reports import ReportRecorder
from ..transform.pipeline import to_rate
from ..obs import instrumented_experiment, trace_span
from .formatting import average_row, format_table
from .table1 import select_names

COLUMNS = [
    ("benchmark", "Benchmark"),
    ("sunder_flushes", "Flushes"),
    ("sunder_overhead", "Sunder"),
    ("paper_sunder", "(paper)"),
    ("sunder_fifo_flushes", "Flushes/FIFO"),
    ("sunder_fifo_overhead", "Sunder FIFO"),
    ("paper_sunder_fifo", "(paper)"),
    ("ap_overhead", "AP"),
    ("paper_ap", "(paper)"),
    ("rad_overhead", "AP+RAD"),
    ("paper_rad", "(paper)"),
]

#: Paper averages appended to the summary row.
PAPER_AVERAGES = {
    "paper_sunder": 1.0,
    "paper_sunder_fifo": 1.0,
    "paper_ap": 4.69,
    "paper_rad": 2.23,
}


def evaluate_benchmark(instance, rate=4, config=None, scale=1.0):
    """Full Table 4 row for one workload instance.

    This is the direct, graph-free path for *custom* instances (the
    registry-driven suite goes through :func:`define`); both call the
    same :func:`~repro.runtime.stages.drain_row` replay.  ``scale`` is
    the workload generation scale; the AP model shrinks its fixed buffer
    geometry by the same factor (see ApReportingModel).
    """
    automaton = instance.automaton
    data = instance.input_bytes

    # --- configure: transform + place onto Sunder PUs ------------------
    with trace_span("table4.configure", benchmark=instance.name):
        strided = to_rate(automaton, rate)
        if config is None:
            config = SunderConfig(rate_nibbles=rate)
        placement = place(strided, config)

    # --- run: exact report streams from the functional simulator -------
    with trace_span("table4.run", benchmark=instance.name):
        engine = BitsetEngine(automaton)
        recorder = ReportRecorder()
        engine.run(data, recorder)
        run8 = SimRun(recorder, len(data))
        vectors, limit = stream_for(strided, data)
        strided_recorder = ReportRecorder(position_limit=limit)
        BitsetEngine(strided).run(vectors, strided_recorder)
        strided_run = SimRun(strided_recorder, len(vectors))

    # --- report-drain: replay the profiles through the buffer models ---
    with trace_span("table4.report_drain", benchmark=instance.name):
        return drain_row(instance, run8, strided_run, placement,
                         rate=rate, scale=scale, config=config)


def define(graph, scale, seed, names, rate):
    """Declare Table 4's stages; returns the per-benchmark row tasks."""
    rows = []
    for name in names:
        gen = graph.task("generate",
                         {"name": name, "scale": scale, "seed": seed})
        sim8 = graph.task("simulate8", {"name": name}, deps=[gen])
        strided = declare_ladder(graph, gen, name, (rate,))[rate]
        sim_strided = graph.task("simulate_strided",
                                 {"name": name, "rate": rate},
                                 deps=[gen, strided])
        rows.append(graph.task(
            "report_drain",
            {"name": name, "rate": rate, "scale": scale},
            deps=[gen, sim8, sim_strided, strided]))
    return rows


def run(scale=0.01, seed=0, names=None, rate=4, runtime=None):
    """Evaluate the suite; returns (rows, averages).

    Rows are in suite order.  Pass a shared ``runtime`` to deduplicate
    stages with other experiments.
    """
    chosen = select_names(names, "table4.run")
    if runtime is None:
        runtime = Runtime()
    graph = StageGraph()
    tasks = define(graph, scale, seed, chosen, rate)
    results = runtime.execute(graph, targets=tasks)
    rows = [results[task] for task in tasks]
    averages = average_row(
        rows, ("sunder_overhead", "sunder_fifo_overhead", "ap_overhead",
               "rad_overhead"),
        extra=PAPER_AVERAGES)
    return rows, averages


def render(rows, averages):
    """Format as the Table 4 text table."""
    return format_table(
        rows + [averages], COLUMNS,
        title="Table 4: reporting overhead (4-nibble processing)",
    )


@instrumented_experiment("table4")
def main(scale=0.01, seed=0, names=None):
    """Run and print."""
    rows, averages = run(scale=scale, seed=seed, names=names)
    print(render(rows, averages))
    return rows, averages
