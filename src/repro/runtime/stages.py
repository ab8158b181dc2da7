"""The stage taxonomy: named, pure units of experiment work.

A *stage* is one step of an experiment pipeline — generate a workload,
simulate it, transform it to a processing rate, replay its report stream
through a buffer model, derive a result row.  Every stage function is
pure: its output is fully determined by its ``params`` dict
plus the values of its dependency stages, which is what lets the
scheduler (:mod:`repro.runtime.graph`)

- **content-address** cacheable stages in the shared
  :class:`~repro.runtime.store.ArtifactStore` (key = runtime salt +
  stage name + params + dependency keys),
- **deduplicate** identical stages across experiments (Table 1 and
  Table 4 share ``generate``/``simulate8``; Table 3 and Table 4 share
  ``to_rate``), and
- **run them in any topological order** with byte-identical results.

Cacheable stages name a codec.  Every result row is cacheable, so a
warm store serves a row without demanding anything below it.  Stages
without a codec (the figure points) re-run every time: they are closed
forms with no expensive inputs.
"""

import copy
from time import perf_counter

from ..baselines.ap import ApReportingModel
from ..core.config import SunderConfig
from ..core.mapping import place
from ..core.perfmodel import ReportingPerfModel, sensitivity_slowdown
from ..errors import StageGraphError
from ..hwmodel import area
from ..obs import stage_progress, trace_span
from ..sim.engine import BitsetEngine
from ..sim.inputs import stream_for
from ..sim.reports import ReportRecorder
from ..sim.stats import static_statistics
from ..transform.pipeline import check_rates, climb, to_rate
from ..workloads import registry as workloads
from .artifacts import (AUTOMATON_CODEC, INSTANCE_CODEC, JSON_CODEC,
                        SIMRUN_CODEC, SimRun)


class Stage:
    """One registered stage kind.

    ``codec`` names the artifact codec for cacheable stages (``None``
    means the stage re-runs every time); ``salt`` optionally derives
    extra key material from the params (the workload generator version)
    so bumping an upstream code version invalidates cached results.
    """

    def __init__(self, name, func, codec=None, salt=None):
        self.name = name
        self.func = func
        self.codec = codec
        self.salt = salt

    @property
    def cacheable(self):
        return self.codec is not None

    def __repr__(self):
        return "Stage(%s%s)" % (self.name,
                                ", cached" if self.cacheable else "")


#: All registered stages by name.
REGISTRY = {}


def stage(name, codec=None, salt=None):
    """Register a module-level function as the stage ``name``."""
    def register(func):
        if name in REGISTRY:
            raise StageGraphError("stage %r registered twice" % name)
        REGISTRY[name] = Stage(name, func, codec=codec, salt=salt)
        return func
    return register


def get_stage(name):
    """Look up a registered stage (raises StageGraphError if unknown)."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise StageGraphError(
            "unknown stage %r (registered: %s)"
            % (name, ", ".join(sorted(REGISTRY))))


def canonical(value):
    """Deterministic string form of a params value for keys/signatures.

    Dicts are sorted, sequences recursed, and objects carrying state in
    ``__dict__`` (e.g. :class:`~repro.core.config.SunderConfig`) are
    expanded field-by-field — two configs differing in any knob must
    never collide, and ``repr`` alone does not guarantee that.
    """
    if isinstance(value, dict):
        return "{%s}" % ",".join(
            "%s=%s" % (key, canonical(value[key])) for key in sorted(value))
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join(canonical(item) for item in value)
    if hasattr(value, "__dict__") and vars(value):
        return "%s%s" % (type(value).__name__, canonical(vars(value)))
    return repr(value)


def _execute_stage_job(entry, params, dep_values):
    """Run the stage ``entry`` on ``params`` and its dependency values.

    Returns ``(result, seconds)``; the scheduler observes the seconds in
    ``repro_runtime_stage_seconds``.
    """
    name = entry.name
    # "name" would collide with trace_span's positional argument; the
    # params slot it fills is always the benchmark name.
    attrs = {("benchmark" if key == "name" else key): value
             for key, value in params.items()
             if isinstance(value, (str, int, float, bool))}
    start = perf_counter()
    stage_progress(name, 0.0)
    with trace_span("stage." + name, **attrs):
        result = entry.func(params, *dep_values)
    stage_progress(name, 1.0)
    return result, perf_counter() - start


# ----------------------------------------------------------------------
# Cacheable stages (expensive, content-addressed)
# ----------------------------------------------------------------------

def _generator_salt(params):
    return workloads.instance_fingerprint(
        params["name"], params["scale"], params["seed"])


@stage("generate", codec=INSTANCE_CODEC, salt=_generator_salt)
def _generate(params):
    """Build one synthetic benchmark instance (automaton + input)."""
    return workloads.generate(params["name"], scale=params["scale"],
                              seed=params["seed"])


@stage("simulate8", codec=SIMRUN_CODEC)
def _simulate8(params, instance):
    """Functional simulation of the 8-bit machine over its input.

    Records the report rows (Table 4's AP replay needs them) and the
    active-state statistics (Table 1's dynamic columns need them).
    """
    engine = BitsetEngine(instance.automaton)
    recorder = ReportRecorder()
    vectors = stream_for(instance.automaton, instance.input_bytes)[0]
    engine.run(vectors, recorder)
    return SimRun.from_engine(engine, recorder, len(vectors))


@stage("to_rate", codec=AUTOMATON_CODEC)
def _to_rate(params, below):
    """One rung of the Section 4 rate ladder (see :func:`declare_ladder`).

    Rate 1 is the nibble machine of the ``generate`` instance ``below``;
    a higher rate is one minimized squaring of the rung ``below`` it.
    """
    if params["rate"] == 1:
        return to_rate(below.automaton, 1)
    return climb(below, params["rate"])


def declare_ladder(graph, gen, name, rates):
    """Declare benchmark ``name``'s ladder: ``{rate: to_rate task}``.

    Every rung from rate 1 up to ``max(rates)`` is declared once: rate 1
    depends on the ``generate`` task ``gen`` and each higher rate on the
    rate below it, so every graph that climbs one benchmark's ladder
    addresses each rung by the same chained key, and a stored rung
    removes the demand on every rung under it.
    """
    check_rates(rates)
    tasks = {}
    below = gen
    rate = 1
    while rate <= max(rates, default=0):
        below = tasks[rate] = graph.task(
            "to_rate", {"name": name, "rate": rate}, deps=[below])
        rate *= 2
    return {rate: tasks[rate] for rate in rates}


@stage("simulate_strided", codec=SIMRUN_CODEC)
def _simulate_strided(params, instance, strided):
    """Functional simulation of the strided machine over the same input."""
    vectors, limit = stream_for(strided, instance.input_bytes)
    recorder = ReportRecorder(position_limit=limit)
    BitsetEngine(strided).run(vectors, recorder)
    return SimRun(recorder, len(vectors))


@stage("table1_row", codec=JSON_CODEC)
def _table1_row(params, instance, run8):
    """Table 1 row: static + dynamic columns next to the paper's."""
    row = {}
    row.update(static_statistics(instance.automaton))
    row.update(run8.summary())
    row["benchmark"] = instance.name
    row["family"] = instance.family
    row["input_bytes"] = len(instance.input_bytes)
    row["paper_report_state_pct"] = instance.paper_row.get("report_state_pct")
    row["paper_report_cycle_pct"] = instance.paper_row.get("report_cycle_pct")
    row["paper_reports_per_report_cycle"] = instance.paper_row.get(
        "reports_per_report_cycle")
    return row


@stage("table3_row", codec=JSON_CODEC)
def _table3_row(params, instance, *machines):
    """Table 3 row: state/transition blowup per rate vs the 8-bit base."""
    base_states = len(instance.automaton)
    base_transitions = instance.automaton.num_transitions()
    row = {"benchmark": instance.name}
    for rate, machine in zip(params["rates"], machines):
        row["states_%d" % rate] = len(machine) / base_states
        row["transitions_%d" % rate] = (
            machine.num_transitions() / base_transitions
            if base_transitions else float("nan"))
    return row


def drain_row(instance, run8, strided_run, placement, rate, scale,
              config=None):
    """Table 4 row: replay both report streams through every buffer model.

    Shared by the ``report_drain`` stage and
    :func:`repro.experiments.table4.evaluate_benchmark` (the direct path
    for custom instances) so the two can never drift.
    """
    if config is None:
        config = SunderConfig(rate_nibbles=rate)
    report_ids = [state.id for state in instance.automaton.report_states()]
    byte_cycles = run8.cycles
    ap = ApReportingModel(rad=False, scale=scale).evaluate(
        run8.recorder, report_ids, byte_cycles)
    rad = ApReportingModel(rad=True, scale=scale).evaluate(
        run8.recorder, report_ids, byte_cycles)
    no_fifo = ReportingPerfModel(_with_fifo(config, False)).evaluate(
        strided_run.recorder, placement, strided_run.cycles,
        capacity_scale=scale)
    fifo = ReportingPerfModel(_with_fifo(config, True)).evaluate(
        strided_run.recorder, placement, strided_run.cycles,
        capacity_scale=scale)
    paper = (workloads.PAPER_TABLE4.get(instance.name, {})
             if instance.paper_row else {})
    return {
        "benchmark": instance.name,
        "sunder_flushes": no_fifo.flushes,
        "sunder_overhead": no_fifo.slowdown,
        "sunder_fifo_flushes": fifo.flushes,
        "sunder_fifo_overhead": fifo.slowdown,
        "ap_overhead": ap.slowdown,
        "rad_overhead": rad.slowdown,
        "paper_sunder": paper.get("sunder"),
        "paper_sunder_fifo": paper.get("sunder_fifo"),
        "paper_ap": paper.get("ap"),
        "paper_rad": paper.get("ap_rad"),
        "pus": len(placement.pus_used()),
        "byte_cycles": byte_cycles,
        "vector_cycles": strided_run.cycles,
    }


def _with_fifo(config, fifo):
    """Clone a config with the FIFO strategy toggled."""
    clone = copy.copy(config)
    clone.fifo = fifo
    return clone


@stage("report_drain", codec=JSON_CODEC)
def _report_drain(params, instance, run8, strided_run, strided):
    """Table 4 row for one benchmark (AP, AP+RAD, Sunder, Sunder+FIFO).

    Places the strided machine onto Sunder PUs first; the placement has
    no other reader, so it lives and dies inside the row.
    """
    placement = place(strided, SunderConfig(rate_nibbles=params["rate"]))
    return drain_row(instance, run8, strided_run, placement,
                     rate=params["rate"], scale=params["scale"])


# ----------------------------------------------------------------------
# Uncacheable stages (closed-form figure points)
# ----------------------------------------------------------------------

@stage("figure9_arch")
def _figure9_arch(params):
    """Component areas (um2) of one architecture at ``num_states``."""
    model = area._AREA_MODELS[params["arch"]]
    return model(params["num_states"])


@stage("figure10_point")
def _figure10_point(params):
    """One sensitivity-sweep point (slowdown with/without summarization)."""
    fraction = params["pct"] / 100.0
    config = params["config"]
    return {
        "report_cycle_pct": params["pct"],
        "slowdown": sensitivity_slowdown(fraction, summarize=False,
                                         config=config),
        "slowdown_summarized": sensitivity_slowdown(
            fraction, summarize=True, config=config),
    }
