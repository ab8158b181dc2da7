"""Profile-smoke check: run a profiled experiment, validate its exports.

Usage:  python scripts/check_metrics_schema.py [scale]

Runs ``python -m repro profile experiment table4 --metrics-out ...
--trace-out ...`` in-process, then validates

- the metrics JSON against the snapshot schema
  (:func:`repro.obs.validate_snapshot`), including the presence of the
  documented core metric families;
- the Chrome trace file's structure, including the runtime's
  generate -> simulate -> transform -> report-drain stage spans nested
  under the experiment span;
- a second observed mini-run exercising ``run_batch`` directly,
  pinning the batch metric family (the profiled table4 run simulates
  serially, so these instruments need their own exercise to record
  samples);
- an observed *planned* mini-run pinning the execution planner's
  ``repro_plan_selected_total`` counter plus ``exec.plan`` span.

Exits non-zero on any drift, so the exposition format is pinned in CI
(``make profile-smoke``).
"""

import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.cli import main as repro_main  # noqa: E402
from repro.obs import validate_snapshot  # noqa: E402
from repro.regex import compile_ruleset  # noqa: E402
from repro.runtime import store as runtime_store  # noqa: E402
from repro.sim import BitsetEngine, stream_for  # noqa: E402

#: Metric families the profiled table4 run must populate.
REQUIRED_METRICS = (
    "repro_engine_runs_total",
    "repro_engine_cycles_total",
    "repro_engine_active_states",
    "repro_transform_runs_total",
    "repro_transform_stage_seconds",
    "repro_runtime_stage_misses_total",
    "repro_runtime_stage_seconds",
    "repro_stage_progress",
    "repro_experiment_runs_total",
    "repro_experiment_seconds",
)
#: Batch instruments pinned by the observed mini-run below.
BATCH_REQUIRED_METRICS = (
    "repro_engine_batch_lanes",
    "repro_engine_batch_lane_cache_hits_total",
    "repro_engine_batch_lane_cache_misses_total",
)
#: Stage spans that must appear, nested under the experiment span.
REQUIRED_SPANS = (
    "experiment.table4",
    "stage.generate",
    "stage.simulate8",
    "stage.to_rate",
    "stage.report_drain",
    "engine.run",
    "reporting.drain_model",
    "transform.indexed",
)
#: Planner instruments pinned by the planned mini-run below.
PLAN_REQUIRED_METRICS = (
    "repro_plan_selected_total",
)
PLAN_REQUIRED_SPANS = (
    "exec.plan",
)


def fail(message):
    print("profile-smoke: FAIL: %s" % message, file=sys.stderr)
    return 1


def check_batch_metrics():
    """Observed mini-run over run_batch; returns 0 or fail()."""
    machine = compile_ruleset(["abc", "hello", "[0-9]{3}"])
    data = b"abc hello 123 " * 40
    vectors, limit = stream_for(machine, data)
    registry = obs.MetricsRegistry()
    with obs.collecting(registry=registry):
        engine = BitsetEngine(machine)
        engine.run_batch([vectors, vectors, vectors], position_limit=limit)
    snapshot = registry.snapshot()
    validate_snapshot(snapshot)
    by_name = {metric["name"]: metric for metric in snapshot["metrics"]}
    missing = [name for name in BATCH_REQUIRED_METRICS
               if name not in by_name]
    if missing:
        return fail("batch mini-run lacks metrics: %s" % missing)
    empty = [name for name in BATCH_REQUIRED_METRICS
             if not by_name[name]["samples"]]
    if empty:
        return fail("batch metrics recorded no samples: %s" % empty)
    return 0


def check_plan_metrics():
    """Observed planned execution; returns 0 or fail().

    Runs a plan-free :class:`~repro.exec.Session` so the planner picks
    the strategy, requiring the ``repro_plan_selected_total`` counter
    (with strategy/reason labels) and the ``exec.plan`` span.
    """
    from repro.exec import Session

    machine = compile_ruleset(["needle", "abc[0-9]"])
    data = b"x" * 200 + b"needle" + b"y" * 200
    registry = obs.MetricsRegistry()
    trace = obs.TraceCollector()
    with obs.collecting(registry=registry, trace=trace):
        results = Session(machine).execute([data])
    if results[0].total_reports != 1:
        return fail("planned mini-run expected 1 report, saw %d"
                    % results[0].total_reports)
    snapshot = registry.snapshot()
    validate_snapshot(snapshot)
    by_name = {metric["name"]: metric for metric in snapshot["metrics"]}
    missing = [name for name in PLAN_REQUIRED_METRICS if name not in by_name]
    if missing:
        return fail("planned mini-run lacks metrics: %s" % missing)
    samples = by_name["repro_plan_selected_total"]["samples"]
    if not samples:
        return fail("repro_plan_selected_total recorded no samples")
    labels = samples[0].get("labels", {})
    if not labels.get("strategy") or not labels.get("reason"):
        return fail("plan_selected sample lacks strategy/reason labels: %r"
                    % (labels,))
    span_names = {span.name for span in trace.spans}
    missing_spans = [name for name in PLAN_REQUIRED_SPANS
                     if name not in span_names]
    if missing_spans:
        return fail("planned mini-run lacks spans: %s" % missing_spans)
    return 0


def check(scale="0.002"):
    # A warm artifact store would serve every stage as a hit, which is
    # (correctly) excluded from the *_seconds histograms — pin the
    # cold-run exposition by starting from a fresh memory-only store.
    runtime_store.configure()
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path = pathlib.Path(tmp) / "metrics.json"
        trace_path = pathlib.Path(tmp) / "trace.json"
        code = repro_main([
            "profile", "experiment", "table4", "--scale", str(scale),
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ])
        if code != 0:
            return fail("profiled run exited %d" % code)

        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))
        validate_snapshot(snapshot)
        names = {metric["name"] for metric in snapshot["metrics"]}
        missing = [name for name in REQUIRED_METRICS if name not in names]
        if missing:
            return fail("snapshot lacks core metrics: %s" % missing)
        empty = [
            metric["name"] for metric in snapshot["metrics"]
            if metric["name"] in REQUIRED_METRICS and not metric["samples"]
        ]
        if empty:
            return fail("core metrics recorded no samples: %s" % empty)

        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        events = trace.get("traceEvents")
        if not isinstance(events, list) or not events:
            return fail("trace has no traceEvents")
        by_name = {}
        for event in events:
            if event.get("ph") != "X":
                return fail("unexpected event phase %r" % event.get("ph"))
            by_name.setdefault(event["name"], event)
        missing_spans = [n for n in REQUIRED_SPANS if n not in by_name]
        if missing_spans:
            return fail("trace lacks stage spans: %s" % missing_spans)
        experiment_depth = by_name["experiment.table4"]["args"]["depth"]
        for stage in ("stage.generate", "stage.simulate8",
                      "stage.to_rate", "stage.report_drain"):
            if by_name[stage]["args"]["depth"] <= experiment_depth:
                return fail("span %s is not nested under the experiment"
                            % stage)

    code = check_batch_metrics()
    if code:
        return code

    code = check_plan_metrics()
    if code:
        return code

    print("profile-smoke: OK (%d metrics, %d spans)"
          % (len(snapshot["metrics"]), len(events)))
    return 0


if __name__ == "__main__":
    sys.exit(check(*sys.argv[1:]))
