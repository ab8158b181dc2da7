"""Experiment T3 — Table 3 (state/transition overhead per processing rate).

For each benchmark, transform the 8-bit automaton to 1-, 2-, and 4-nibble
processing and report the state and transition counts normalized to the
original — the cost side of the throughput/density trade-off.

Declared as a stage graph: each benchmark's ``generate`` task feeds its
rate ladder (:func:`~repro.runtime.stages.declare_ladder`), a chain of
``to_rate`` tasks in which rate 1 is the nibble machine and rate 2r one
squaring of rate r, and a ``table3_row`` stage derives the ratios.  The
rungs are the same content-addressed machines Table 4 climbs to, so a
shared artifact store makes later runs — and sibling experiments in the
same scorecard — hit instead of re-transforming.
"""

from ..runtime import Runtime, StageGraph, declare_ladder
from ..obs import instrumented_experiment
from .formatting import average_row, format_table
from .table1 import select_names

COLUMNS = [
    ("benchmark", "Benchmark"),
    ("states_1", "States x1"),
    ("states_2", "States x2"),
    ("states_4", "States x4"),
    ("transitions_1", "Trans x1"),
    ("transitions_2", "Trans x2"),
    ("transitions_4", "Trans x4"),
]


def define(graph, scale, seed, names, rates):
    """Declare Table 3's stages; returns the per-benchmark row tasks."""
    rows = []
    for name in names:
        gen = graph.task("generate",
                         {"name": name, "scale": scale, "seed": seed})
        ladder = declare_ladder(graph, gen, name, rates)
        rows.append(graph.task("table3_row",
                               {"name": name, "rates": list(rates)},
                               deps=[gen] + [ladder[rate] for rate in rates]))
    return rows


def run(scale=0.01, seed=0, names=None, rates=(1, 2, 4), runtime=None):
    """Measure transformation overheads; returns (rows, averages).

    Rows are in suite order.  Pass a shared ``runtime`` to deduplicate
    stages with other experiments.
    """
    chosen = select_names(names, "table3.run")
    rates = tuple(rates)
    if runtime is None:
        runtime = Runtime()
    graph = StageGraph()
    tasks = define(graph, scale, seed, chosen, rates)
    results = runtime.execute(graph, targets=tasks)
    rows = [results[task] for task in tasks]
    keys = (["states_%d" % rate for rate in rates]
            + ["transitions_%d" % rate for rate in rates])
    return rows, average_row(rows, keys)


def render(rows, averages):
    """Format as the Table 3 text table."""
    return format_table(
        rows + [averages], COLUMNS,
        title="Table 3: transform overhead vs 8-bit original "
              "(paper averages: states 3.1x/1.0x/1.2x, transitions 4.5x/1.0x/1.8x)",
    )


@instrumented_experiment("table3")
def main(scale=0.01, seed=0, names=None):
    """Run and print."""
    rows, averages = run(scale=scale, seed=seed, names=names)
    print(render(rows, averages))
    return rows, averages
