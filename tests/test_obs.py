"""Tests for the repro.obs telemetry subsystem.

Covers registry semantics (labels, histogram buckets, double
registration), span nesting and exception safety, both exposition
formats, the collector switchboard, and regression tests that the
simulator hooks emit the documented core metrics.
"""

import json
import pathlib
import re
import threading

import pytest

from repro import obs
from repro.errors import ObservabilityError


@pytest.fixture(autouse=True)
def _detached():
    """Every test starts and ends with no collector attached."""
    obs.detach()
    yield
    obs.detach()


def fresh():
    return obs.MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self):
        counter = fresh().counter("c_total", "help")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_inc_rejected(self):
        counter = fresh().counter("c_total")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_label_children_are_distinct_and_cached(self):
        counter = fresh().counter("c_total", "help", ("engine",))
        counter.labels(engine="bitset").inc(2)
        counter.labels(engine="naive").inc(3)
        assert counter.labels(engine="bitset").value == 2
        assert counter.labels(engine="naive").value == 3
        assert counter.labels(engine="bitset") is counter.labels(engine="bitset")

    def test_wrong_labels_rejected(self):
        counter = fresh().counter("c_total", "help", ("engine",))
        with pytest.raises(ObservabilityError):
            counter.labels(wrong="x")
        with pytest.raises(ObservabilityError):
            counter.labels()
        unlabeled = fresh().counter("plain_total")
        with pytest.raises(ObservabilityError):
            unlabeled.labels(engine="x")

    def test_bad_metric_name_rejected(self):
        with pytest.raises(ObservabilityError):
            fresh().counter("0bad")
        with pytest.raises(ObservabilityError):
            fresh().counter("has space")

    def test_bad_label_name_rejected(self):
        with pytest.raises(ObservabilityError):
            fresh().counter("ok_total", "", ("bad-label",))


class TestGauge:
    def test_set_inc_dec(self):
        gauge = fresh().gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper_bounds(self):
        histogram = fresh().histogram("h", buckets=(1, 5))
        for value in (0.5, 1.0, 3.0, 7.0):
            histogram.observe(value)
        # cumulative: <=1 -> 2, <=5 -> 3, +Inf -> 4
        assert histogram.bucket_counts() == [2, 3, 4]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(11.5)

    def test_buckets_must_increase(self):
        with pytest.raises(ObservabilityError):
            fresh().histogram("h", buckets=(1, 1))
        with pytest.raises(ObservabilityError):
            fresh().histogram("h", buckets=())

    def test_labeled_histogram_children_share_buckets(self):
        histogram = fresh().histogram("h", "help", ("stage",), buckets=(2,))
        histogram.labels(stage="a").observe(1)
        histogram.labels(stage="b").observe(3)
        assert histogram.labels(stage="a").bucket_counts() == [1, 1]
        assert histogram.labels(stage="b").bucket_counts() == [0, 1]


class TestRegistry:
    def test_double_registration_rejected(self):
        registry = fresh()
        registry.counter("dup_total")
        with pytest.raises(ObservabilityError):
            registry.counter("dup_total")
        with pytest.raises(ObservabilityError):
            registry.gauge("dup_total")

    def test_get_contains_unregister(self):
        registry = fresh()
        counter = registry.counter("c_total")
        assert registry.get("c_total") is counter
        assert "c_total" in registry
        assert len(registry) == 1
        registry.unregister("c_total")
        assert registry.get("c_total") is None

    def test_default_registry_is_process_global(self):
        assert obs.REGISTRY is obs.metrics.REGISTRY
        assert obs.attach() is obs.REGISTRY


class TestExposition:
    def build(self):
        registry = fresh()
        registry.counter("c_total", "a counter", ("kind",)) \
            .labels(kind="x").inc(3)
        registry.gauge("g", "a gauge").set(1.5)
        registry.histogram("h", "a histogram", buckets=(1.0,)).observe(0.5)
        return registry

    def test_text_format(self):
        text = self.build().render_text()
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{kind="x"} 3' in text
        assert "g 1.5" in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 0.5" in text
        assert "h_count 1" in text

    def test_label_value_escaping(self):
        registry = fresh()
        registry.counter("c_total", "", ("path",)) \
            .labels(path='a"b\\c\nd').inc()
        text = registry.render_text()
        assert r'path="a\"b\\c\nd"' in text

    def test_json_snapshot_round_trips_and_validates(self):
        registry = self.build()
        snapshot = json.loads(registry.render_json())
        assert obs.validate_snapshot(snapshot) is snapshot
        by_name = {m["name"]: m for m in snapshot["metrics"]}
        assert by_name["c_total"]["samples"][0] == {
            "labels": {"kind": "x"}, "value": 3}
        histogram = by_name["h"]["samples"][0]
        assert histogram["buckets"][-1] == {"le": "+Inf", "count": 1}

    def test_schema_rejects_drift(self):
        registry = self.build()
        good = registry.snapshot()
        bad = json.loads(json.dumps(good))
        bad["metrics"][0]["type"] = "summary"
        with pytest.raises(ObservabilityError):
            obs.validate_snapshot(bad)
        bad = json.loads(json.dumps(good))
        bad["version"] = 2
        with pytest.raises(ObservabilityError):
            obs.validate_snapshot(bad)
        bad = json.loads(json.dumps(good))
        for metric in bad["metrics"]:
            if metric["type"] == "histogram":
                metric["samples"][0]["buckets"][-1]["le"] = 99.0
        with pytest.raises(ObservabilityError):
            obs.validate_snapshot(bad)


class TestSpans:
    def test_nesting_depths_and_parents(self):
        trace = obs.TraceCollector()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
            with trace.span("sibling"):
                pass
        spans = {span.name: span for span in trace.finished()}
        assert spans["outer"].depth == 0
        assert spans["inner"].depth == 1
        assert spans["sibling"].depth == 1
        assert spans["inner"].parent == spans["outer"].index
        assert spans["sibling"].parent == spans["outer"].index
        assert spans["outer"].duration >= spans["inner"].duration

    def test_exception_safety(self):
        trace = obs.TraceCollector()
        with pytest.raises(RuntimeError):
            with trace.span("outer"):
                with trace.span("failing"):
                    raise RuntimeError("boom")
        spans = {span.name: span for span in trace.finished()}
        assert set(spans) == {"outer", "failing"}
        assert "boom" in spans["failing"].attrs["error"]
        # the stack unwound fully: a new span starts at depth 0 again
        with trace.span("after"):
            pass
        assert {s.name: s.depth for s in trace.finished()}["after"] == 0

    def test_thread_local_stacks(self):
        trace = obs.TraceCollector()
        seen = []

        def worker():
            with trace.span("worker"):
                seen.append(True)

        with trace.span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        spans = {span.name: span for span in trace.finished()}
        assert spans["worker"].depth == 0  # not nested under main's stack
        assert spans["worker"].thread_id != spans["main"].thread_id

    def test_jsonl_export(self):
        trace = obs.TraceCollector()
        with trace.span("a", key="value"):
            pass
        lines = trace.to_jsonl().strip().splitlines()
        record = json.loads(lines[0])
        assert record["name"] == "a"
        assert record["attrs"] == {"key": "value"}
        assert record["duration"] >= 0

    def test_chrome_trace_format(self, tmp_path):
        trace = obs.TraceCollector()
        with trace.span("outer"):
            with trace.span("inner", detail=1):
                pass
        doc = trace.chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["pid"], int)
        path = tmp_path / "trace.json"
        trace.write_chrome_trace(str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestCollectorSwitchboard:
    def test_trace_span_is_noop_when_detached(self):
        before = obs.OBS.active
        with obs.trace_span("anything", x=1) as span:
            assert span is obs.spans.NULL_SPAN
            span.set_attr(y=2)  # no-op, must not raise
        assert obs.OBS.active == before is False

    def test_attach_detach_cycle(self):
        registry = fresh()
        trace = obs.TraceCollector()
        obs.attach(registry=registry, trace=trace)
        assert obs.OBS.active
        assert obs.OBS.registry is registry
        with obs.trace_span("live"):
            pass
        obs.detach()
        assert not obs.OBS.active
        assert [span.name for span in trace.finished()] == ["live"]

    def test_double_attach_rejected(self):
        obs.attach(registry=fresh())
        with pytest.raises(ObservabilityError):
            obs.attach(registry=fresh())

    def test_collecting_context_manager_detaches_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.collecting(registry=fresh()):
                assert obs.OBS.active
                raise RuntimeError("boom")
        assert not obs.OBS.active

    def test_instruments_cached_per_registry(self):
        registry = fresh()
        assert obs.instruments_for(registry) is obs.instruments_for(registry)


class TestEngineHooks:
    def test_bitset_run_emits_core_metrics(self):
        from repro.regex import compile_ruleset
        from repro.sim import BitsetEngine

        machine = compile_ruleset(["ab"])
        engine = BitsetEngine(machine)
        registry = fresh()
        with obs.collecting(registry=registry):
            recorder = engine.run(list(b"abab"))
        labels = {"engine": "bitset"}

        def value(name):
            return registry.get(name).labels(**labels).value

        assert value("repro_engine_runs_total") == 1
        assert value("repro_engine_cycles_total") == 4
        assert value("repro_engine_reports_total") == recorder.total_reports == 2
        histogram = registry.get("repro_engine_active_states").labels(**labels)
        assert histogram.count == 4  # one observation per cycle
        seconds = registry.get("repro_engine_run_seconds").labels(**labels)
        assert seconds.count == 1

    def test_unattached_run_records_nothing(self):
        from repro.regex import compile_ruleset
        from repro.sim import BitsetEngine

        engine = BitsetEngine(compile_ruleset(["ab"]))
        recorder = engine.run(list(b"abab"))
        assert recorder.total_reports == 2
        # the default registry holds no engine sample for this run
        assert not obs.OBS.active


class TestDeviceHooks:
    def run_device(self, registry, trace=None):
        from repro.core import SunderConfig, SunderDevice
        from repro.regex import compile_ruleset
        from repro.sim import stream_for
        from repro.transform import to_rate

        machine = to_rate(compile_ruleset(["needle"]), 2)
        device = SunderDevice(SunderConfig(rate_nibbles=2, report_bits=16))
        with obs.collecting(registry=registry, trace=trace):
            device.configure(machine)
            vectors, limit = stream_for(machine, b"xx needle xx")
            result = device.run(vectors, position_limit=limit)
            result.reports()
        return device, result

    def test_run_emits_documented_core_metrics(self):
        registry = fresh()
        device, result = self.run_device(registry)
        assert registry.get("repro_device_reconfigurations_total").value == 1
        assert registry.get("repro_device_cycles_total").value == result.cycles
        assert (registry.get("repro_device_stall_cycles_total").value
                == result.stall_cycles)
        states = registry.get("repro_device_configured_states") \
            .labels(cluster="0").value
        assert states == len(device.automaton)
        utilization = registry.get("repro_device_cluster_utilization") \
            .labels(cluster="0").value
        assert 0 < utilization <= 1
        assert registry.get("repro_device_run_seconds").count == 1
        # flush/drain counters exist even when this tiny run never fills
        assert registry.get("repro_device_flushes_total").value >= 0
        assert registry.get("repro_device_fifo_drained_entries_total") \
            .value >= 0

    def test_run_emits_configure_run_drain_spans(self):
        trace = obs.TraceCollector()
        self.run_device(fresh(), trace=trace)
        names = [span.name for span in trace.finished()]
        assert "device.configure" in names
        assert "device.run" in names
        assert "device.report_drain" in names


class TestTransformHooks:
    def test_to_rate_records_both_stages(self):
        from repro.regex import compile_ruleset
        from repro.transform import to_rate

        registry = fresh()
        with obs.collecting(registry=registry):
            to_rate(compile_ruleset(["abc"]), 4)
        runs = registry.get("repro_transform_runs_total")
        assert runs.labels(stage="nibble").value == 1
        assert runs.labels(stage="stride").value == 1
        ratio = registry.get("repro_transform_state_ratio")
        assert ratio.labels(stage="nibble").count == 1
        seconds = registry.get("repro_transform_stage_seconds")
        assert seconds.labels(stage="stride").count == 1


class TestExperimentHooks:
    def test_entry_point_records_span_and_metrics(self, capsys):
        from repro.experiments import table5

        registry = fresh()
        trace = obs.TraceCollector()
        with obs.collecting(registry=registry, trace=trace):
            table5.main()
        capsys.readouterr()
        runs = registry.get("repro_experiment_runs_total")
        assert runs.labels(experiment="table5").value == 1
        seconds = registry.get("repro_experiment_seconds")
        assert seconds.labels(experiment="table5").count == 1
        assert "experiment.table5" in [s.name for s in trace.finished()]

    def test_scorecard_json_embeds_snapshot(self):
        from repro.experiments.scorecard import Claim, to_json

        claims = [Claim("x", 1.0, 1.0, 0.9, 1.1)]
        registry = fresh()
        registry.counter("c_total").inc()
        with obs.collecting(registry=registry):
            payload = json.loads(to_json(claims))
        assert payload["metrics"]["version"] == 1
        names = [m["name"] for m in payload["metrics"]["metrics"]]
        assert "c_total" in names
        # detached: metrics slot stays empty
        assert json.loads(to_json(claims))["metrics"] is None


def test_catalogue_matches_observability_doc():
    """Every registered instrument has a row in docs/observability.md's
    metric tables, and every row names a registered instrument."""
    registry = fresh()
    obs.instruments_for(registry)
    catalogue = {metric.name for metric in registry.collect()}
    doc = (pathlib.Path(__file__).resolve().parent.parent / "docs"
           / "observability.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"^\| `(repro_\w+)` \|", doc, re.MULTILINE))
    assert catalogue == documented
