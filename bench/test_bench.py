"""Smoke test of the end-to-end benchmark at a tiny scale.

Run with ``PYTHONPATH=src python -m pytest bench -q`` (outside tier 1's
test paths; it takes one to two minutes).
"""

import json
import os
import subprocess
import sys

import pytest

import layers
import run
from workloads import WORKLOADS

SMOKE_SCALE = 0.002


def _spec():
    with open(run.SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _run(tmp_path, workload, trace):
    out = tmp_path / ("%s-%d.json" % (workload, trace))
    process = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--scale", str(SMOKE_SCALE),
         "--out", str(out)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert process.returncode == 0, process.stderr
    last = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_lists_the_reported_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(run.E2E_UNITS))
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == layers.metric_units())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(tmp_path, workload):
    spec = _spec()
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        record = _run(tmp_path, workload, trace)
        result = record["result"]
        assert result["failed"] == 0, record["failures"]
        assert result["correct"] and result["attempted"] > 0
        metrics = {name: metric["value"]
                   for name, metric in result["metrics"].items()}
        assert [m["name"] for m in listed] == list(metrics)
        assert record["missing_entry_points"] == []
    wall = metrics["traced_wall_s"]
    attributed = sum(metrics["%s.self_s" % layer] for layer in layers.LAYERS)
    assert attributed + metrics["unattributed_s"] == pytest.approx(wall)
    assert metrics["unattributed_frac"] < 0.02


def test_missing_entry_point_is_reported():
    entries = layers.ENTRY_POINTS + (
        ("repro.sim.engine:BitsetEngine", "run_retired", "sim", "engine"),
        ("repro.no_such_module", "run", "sim", "engine"),
    )
    tracer = layers.LayerTracer(entries).install()
    try:
        assert tracer.missing == ["repro.sim.engine:BitsetEngine.run_retired",
                                  "repro.no_such_module.run"]
    finally:
        tracer.uninstall()
    from repro.sim.engine import BitsetEngine
    assert not hasattr(BitsetEngine.run, "__wrapped__")
