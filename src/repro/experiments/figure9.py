"""Experiment F9 — Figure 9 (area for 32K STEs, per component).

Also derives the conclusion's throughput-density headline ("three orders
of magnitude higher throughput per unit area than the AP").

Each architecture's component-area evaluation is one ``figure9_arch``
stage in the runtime graph (closed-form, so uncached).
"""

from ..hwmodel.area import _AREA_MODELS, breakdown_table, throughput_per_area
from ..runtime import Runtime, StageGraph
from ..obs import instrumented_experiment
from .formatting import format_table

COLUMNS = [
    ("architecture", "Architecture"),
    ("matching_mm2", "Matching (mm2)"),
    ("interconnect_mm2", "Interconnect (mm2)"),
    ("reporting_mm2", "Reporting (mm2)"),
    ("total_mm2", "Total (mm2)"),
    ("ratio_to_sunder", "Ratio to Sunder"),
]

#: The paper's published total-area ratios relative to Sunder.
PAPER_RATIOS = {"Sunder": 1.0, "CA": 1.5, "Impala": 1.6, "AP": 2.1}


def define(graph, num_states):
    """Declare one ``figure9_arch`` task per architecture, in order."""
    return {name: graph.task("figure9_arch",
                             {"arch": name, "num_states": num_states})
            for name in _AREA_MODELS}


def run(num_states=32768, runtime=None):
    """Compute the per-architecture area breakdown."""
    if runtime is None:
        runtime = Runtime()
    graph = StageGraph()
    tasks = define(graph, num_states)
    results = runtime.execute(graph, targets=list(tasks.values()))
    rows = breakdown_table(
        {name: results[task] for name, task in tasks.items()})
    for row in rows:
        row["paper_ratio"] = PAPER_RATIOS.get(row["architecture"])
    return rows


DENSITY_COLUMNS = [
    ("architecture", "Architecture"),
    ("gbps", "Gbps"),
    ("area_mm2", "Area (mm2)"),
    ("gbps_per_mm2", "Gbps/mm2"),
    ("sunder_density_ratio", "Sunder density advantage"),
]


def render(rows):
    """Format as the Figure 9 text table plus the density headline."""
    columns = COLUMNS + [("paper_ratio", "Paper ratio")]
    text = format_table(
        rows, columns, title="Figure 9: area overhead for 32K STEs (14nm)",
        float_format="%.3f",
    )
    text += "\n\n" + format_table(
        throughput_per_area(), DENSITY_COLUMNS,
        title="Throughput density (paper: ~1000x vs the 50nm AP)",
        float_format="%.3f",
    )
    return text


@instrumented_experiment("figure9")
def main(num_states=32768):
    """Run and print."""
    rows = run(num_states)
    print(render(rows))
    return rows
