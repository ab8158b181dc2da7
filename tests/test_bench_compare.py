"""The end-to-end benchmark's regression verdict (``bench/run.py``).

``python3 bench/run.py compare PARENT.json... -- CHANGE.json...`` is the
repo's only performance gate: it judges every end-to-end metric against
its bound in ``BENCHMARK.json`` and exits 1 when any is worse.  These
tests feed it synthetic run records, so they run in milliseconds and
never start a benchmark.
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (needs bench/ on sys.path)


def _bounds():
    with open(run.SPEC_PATH, encoding="utf-8") as handle:
        return {m["name"]: m for m in json.load(handle)["end_to_end"]}


def _verdict(metric, parent, change):
    spec = _bounds()[metric]
    return run.verdict(parent, change, spec["bound"], spec["better"])


def _record(workload, **values):
    metrics = {name: {"value": value, "unit": "s"}
               for name, value in values.items()}
    return {"workload": workload, "result": {"metrics": metrics}}


def _write(tmp_path, label, records):
    paths = []
    for index, record in enumerate(records):
        path = tmp_path / ("%s%d.json" % (label, index))
        path.write_text(json.dumps(record), encoding="utf-8")
        paths.append(str(path))
    return paths


def _runs(workload, metric, values):
    return [_record(workload, **{metric: value}) for value in values]


def test_bounds_are_the_committed_ones():
    bounds = _bounds()
    assert bounds["norm_wall_s"]["bound"] == 0.25
    assert bounds["peak_rss_mb"]["bound"] == 0.1


def test_two_fold_slowdown_is_worse_and_fails_compare(tmp_path, capsys):
    assert _verdict("norm_wall_s", [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]) \
        == "worse"
    parent = (_runs("match", "norm_wall_s", [3.0, 3.1])
              + _runs("sessions", "norm_wall_s", [1.4]))
    change = (_runs("match", "norm_wall_s", [6.0, 6.2])
              + _runs("sessions", "norm_wall_s", [1.4]))
    code = run.main(["compare", *_write(tmp_path, "parent", parent), "--",
                     *_write(tmp_path, "change", change)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("match") and line.endswith("worse")
               for line in lines)
    assert any(line.startswith("sessions") and line.endswith("within")
               for line in lines)


def test_unchanged_runs_pass_compare(tmp_path):
    records = _runs("match", "norm_wall_s", [3.0, 3.1, 3.05])
    assert run.main(["compare", *_write(tmp_path, "parent", records), "--",
                     *_write(tmp_path, "change", records)]) == 0


def test_five_percent_move_is_within():
    assert _verdict("norm_wall_s", [1.0, 1.0, 1.0], [1.05, 1.05, 1.05]) \
        == "within"
    assert _verdict("norm_wall_s", [1.0, 1.0, 1.0], [0.95, 0.95, 0.95]) \
        == "within"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    parent = [1.0, 1.0, 1.0, 1.0, 1.0]
    # Quartile spread 50% of the median: wider than the 25% bound.
    assert _verdict("norm_wall_s", parent, [0.5, 1.0, 1.5, 1.0, 1.0]) \
        == "unresolved"
    assert _verdict("norm_wall_s", [0.5, 1.0, 1.5, 1.0, 1.0], parent) \
        == "unresolved"
    # Just as wide, but every change run beats every parent run.
    assert _verdict("norm_wall_s", parent, [0.3, 0.5, 0.7, 0.5, 0.4]) \
        == "better"


def test_peak_rss_has_its_own_tighter_bound(tmp_path):
    # +15% is inside norm_wall_s's 25% bound but outside peak_rss_mb's 10%.
    assert _verdict("norm_wall_s", [100.0] * 3, [115.0] * 3) == "within"
    assert _verdict("peak_rss_mb", [100.0] * 3, [115.0] * 3) == "worse"
    assert _verdict("peak_rss_mb", [100.0] * 3, [105.0] * 3) == "within"
    parent = _write(tmp_path, "parent", _runs("sessions", "peak_rss_mb",
                                              [100.0, 101.0, 100.0]))
    change = _write(tmp_path, "change", _runs("sessions", "peak_rss_mb",
                                              [115.0, 116.0, 115.0]))
    assert run.main(["compare", *parent, "--", *change]) == 1


@pytest.mark.parametrize("better, values", [
    ("lower", [0.5, 0.5, 0.5]), ("higher", [2.0, 2.0, 2.0])])
def test_direction_follows_the_metric(better, values):
    assert run.verdict([1.0, 1.0, 1.0], values, 0.25, better) == "better"
