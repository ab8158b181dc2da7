"""End-to-end benchmark of the reproduction, with per-layer timing.

Run one workload::

    python3 bench/run.py --workload match --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``BENCHMARK.json``; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``--workload`` every workload runs in both modes.

Each run sets up several times (``setup_s`` is the median), then runs
timed samples for ``--seconds`` (``norm_wall_s`` and ``peak_rss_mb`` are
medians).  ``setup_s`` and ``norm_wall_s`` are scaled to the baseline
host's speed, as a probe interleaved with the phase measures it (see
``HostProbe``).  Every set-up and every sample is a fresh interpreter
started from here, one at a time; see workloads.py.

Compare two sets of ``--out`` files against the bounds::

    python3 bench/run.py compare parent*.json -- change*.json

Rewrite ``golden.json`` (output digests at the default scale)::

    python3 bench/run.py golden --seeds 0 1
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import layers
from workloads import (DEFAULT_SCALES, GOLDEN_PATH, OPS_PER_SAMPLE,
                       WORKLOADS, artifact_dirs, generator_seeds,
                       scaled_seconds)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PHASE_SCRIPT = os.path.join(BENCH_DIR, "workloads.py")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")

#: Set-ups per untraced run (``setup_s`` is their median); short set-ups
#: repeat more often.  Traced runs report no set-up time and set up once.
SETUPS = {"scorecard-cold": 9, "match": 3, "sessions": 5}
#: Workloads that instead set up once per generator seed, every child
#: writing into one work directory (``setup_s`` is the median child).
SETUP_PER_SEED = ("scorecard-warm",)
#: Minimum timed samples per run, whatever ``--seconds`` says.
MIN_SAMPLES = {0: 3, 1: 4}
#: Stop starting samples this long after the run began, so a run ends
#: well inside three minutes.
DEADLINE_S = 165.0

E2E_UNITS = (("norm_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SCRUBBED_ENV = ("REPRO_ARTIFACT_DIR", "REPRO_TRANSFORM_CACHE", "REPRO_PROGRESS")
#: numpy's BLAS would otherwise start a thread per core at import time.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


class PhaseError(RuntimeError):
    """A set-up or timed phase exited nonzero or timed out."""


def _env(workload, workdir):
    env = dict(os.environ)
    for name in SCRUBBED_ENV:
        env.pop(name, None)
    env.update(SINGLE_THREAD_ENV, PYTHONHASHSEED="0")
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, env.get("PYTHONPATH")]))
    if workload == "scorecard-warm":
        env["REPRO_ARTIFACT_DIR"], env["REPRO_TRANSFORM_CACHE"] = (
            artifact_dirs(workdir))
    return env


def _phase(spec, deadline):
    """Run one phase in a fresh interpreter; returns its result dict."""
    result_path = os.path.join(os.path.dirname(spec["dir"]), "result.json")
    spec = dict(spec, result=result_path)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PhaseError("no time left before the run deadline")
    try:
        process = subprocess.run(
            [sys.executable, PHASE_SCRIPT, json.dumps(spec)], cwd=ROOT,
            env=_env(spec["workload"], spec["dir"]), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PhaseError("%s phase timed out" % spec["phase"])
    if process.returncode != 0:
        tail = process.stderr.decode(errors="replace").strip().splitlines()
        raise PhaseError("%s phase exited %d: %s" % (
            spec["phase"], process.returncode, " | ".join(tail[-3:])))
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(path) for name in names)


def run_workload(workload, seed, seconds, trace, scale=None,
                 write_golden=False):
    """One benchmark run; returns its record (see ``--out``)."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="%s-" % workload, dir=TMP_ROOT)
    seeds = generator_seeds(workload, seed)
    base = {"workload": workload, "seed": seed, "seeds": seeds,
            "scale": scale, "trace": False}
    if workload in SETUP_PER_SEED:
        units = [[one] for one in seeds]
    else:
        units = [seeds] * (1 if trace or write_golden else SETUPS[workload])
    try:
        setups = []
        workdir = None
        for index, unit in enumerate(units):
            if workdir is None or workload not in SETUP_PER_SEED:
                if workdir is not None:
                    shutil.rmtree(workdir)
                workdir = os.path.join(tmp, "setup%d" % index)
                os.makedirs(workdir)
            setups.append(_phase(dict(base, phase="setup", seeds=unit,
                                      dir=workdir), deadline))
        setup_bytes = _dir_bytes(artifact_dirs(workdir)[0])
        samples = []
        errors = []
        timed_ends = time.monotonic() + seconds
        last = 0.0
        while True:
            now = time.monotonic()
            # Stop before a sample that would end past the timed window.
            enough = (len(samples) + len(errors) >= MIN_SAMPLES[trace]
                      and now + last > timed_ends)
            if enough or write_golden and samples or now + last > deadline:
                break
            traced = bool(trace) and len(samples) % 2 == 1
            spec = dict(base, phase="timed", dir=workdir, trace=traced,
                        write_golden=write_golden)
            try:
                sample = _phase(spec, deadline)
            except PhaseError as error:
                errors.append(str(error))
                continue
            finally:
                last = time.monotonic() - now
            sample["traced"] = traced
            samples.append(sample)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    return _record(workload, seed, seconds, trace, scale, setups,
                   setup_bytes, samples, errors)


def _record(workload, seed, seconds, trace, scale, setups, setup_bytes,
            samples, errors):
    failures = list(errors)
    attempted = OPS_PER_SAMPLE[workload] * len(errors)
    failed = attempted
    for sample in samples:
        attempted += len(sample["ops"])
        for name, error, _ in sample["ops"]:
            if error is not None:
                failed += 1
                failures.append("%s: %s" % (name, error))
    missing = sorted({name for sample in samples
                      for name in sample.get("missing_entry_points", ())})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "scale": scale if scale is not None else DEFAULT_SCALES[workload],
        "setup_samples": setups,
        "timed_samples": [{key: sample[key] for key in
                           ("seconds", "probe_s", "rss_mb", "traced")}
                          for sample in samples],
        "failures": failures,
        "missing_entry_points": missing,
        "digests": {name: digest for sample in samples[:1]
                    for name, _, digest in sample["ops"]},
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": _metrics(trace, setups, setup_bytes, samples)},
    }
    return record


def _metrics(trace, setups, setup_bytes, samples):
    if not samples:
        return {}
    if not trace:
        values = {
            "norm_wall_s": statistics.median(map(scaled_seconds, samples)),
            "setup_s": statistics.median(map(scaled_seconds, setups)),
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in E2E_UNITS}
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    if not traced or not untraced:
        return {}
    values = layers.summarize([s["layers"] for s in traced],
                              [s["seconds"] for s in traced],
                              [s["seconds"] for s in untraced])
    values["runtime.setup_bytes_written"] = setup_bytes
    values["experiments.claims_passed"] = statistics.median(
        s.get("claims_passed", 0) for s in samples)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layers.metric_units()}


def _print_record(record, prefix=""):
    for line in record["failures"][:20]:
        print("%sFAILED %s" % (prefix, line))
    for name in record["missing_entry_points"]:
        print("%smissing entry point: %s" % (prefix, name))
    for name, metric in record["result"]["metrics"].items():
        print("%s%-36s %.6g %s" % (prefix, name, metric["value"],
                                   metric["unit"]))


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _load_records(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        records += loaded if isinstance(loaded, list) else [loaded]
    return records


def _values(records):
    """(workload, metric) -> measured values, in file order."""
    table = {}
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            table.setdefault((record["workload"], name), []).append(
                metric["value"])
    return table


def _spread(values):
    """Quartile distance as a share of the median (0 with one value)."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def verdict(parent, change, bound, better):
    """within / better / worse / unresolved for one metric and workload."""
    sign = -1.0 if better == "higher" else 1.0
    base = statistics.median(parent)
    worsening = sign * (statistics.median(change) - base) / abs(base)
    if max(_spread(parent), _spread(change)) > bound:
        if sign * max(change) < sign * min(parent):
            return "better"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within"


def compare(parent_paths, change_paths):
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parent = _values(_load_records(parent_paths))
    change = _values(_load_records(change_paths))
    print("%-16s %-36s %12s %12s %8s  %s" % (
        "workload", "metric", "parent", "change", "spread", "verdict"))
    worse = False
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        metric = bounds.get(name)
        outcome = "-"
        if metric is not None:
            outcome = verdict(parent[key], change[key], metric["bound"],
                              metric["better"])
            worse = worse or outcome == "worse"
        print("%-16s %-36s %12.6g %12.6g %7.1f%%  %s" % (
            workload, name, statistics.median(parent[key]),
            statistics.median(change[key]),
            100 * max(_spread(parent[key]), _spread(change[key])), outcome))
    return 1 if worse else 0


# ----------------------------------------------------------------------
# golden
# ----------------------------------------------------------------------

def write_golden(seeds):
    table = {}
    for workload in WORKLOADS:
        for seed in seeds:
            record = run_workload(workload, seed, 0, 0, write_golden=True)
            if record["failures"]:
                raise PhaseError("; ".join(record["failures"][:5]))
            table.setdefault(workload, {})[str(seed)] = record["digests"]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def _default_seconds():
    try:
        with open(SPEC_PATH, encoding="utf-8") as handle:
            return json.load(handle)["run_seconds"]
    except (OSError, ValueError, KeyError):
        return 15


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("bench: no repro package under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if args.workload is not None:
        try:
            record = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, args.scale)
        except PhaseError as error:
            print("bench: %s: %s" % (args.workload, error), file=sys.stderr)
            return 1
        if not record["result"]["metrics"]:
            print("bench: %s: no sample completed: %s" % (
                args.workload, "; ".join(record["failures"][:3])),
                file=sys.stderr)
            return 1
        records = [record]
        _print_record(record)
        summary = record["result"]
    else:
        records = []
        for workload in WORKLOADS:
            for trace in (0, 1):
                try:
                    record = run_workload(workload, args.seed, args.seconds,
                                          trace, args.scale)
                except PhaseError as error:
                    ops = OPS_PER_SAMPLE[workload]
                    record = {"workload": workload, "trace": trace,
                              "failures": [str(error)],
                              "missing_entry_points": [],
                              "result": {"correct": False, "attempted": ops,
                                         "failed": ops, "metrics": {}}}
                records.append(record)
                _print_record(record, prefix="%s: " % workload)
        summary = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {"%s/%s" % (r["workload"], name): metric
                        for r in records
                        for name, metric in r["result"]["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(records if args.workload is None else records[0],
                      handle, indent=1)
    print(json.dumps(summary))
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        if "--" not in argv:
            print("usage: run.py compare PARENT.json... -- CHANGE.json...",
                  file=sys.stderr)
            return 2
        split = argv.index("--")
        return compare(argv[1:split], argv[split + 1:])
    if argv[:1] == ["golden"]:
        parser = argparse.ArgumentParser(prog="run.py golden")
        parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
        return write_golden(parser.parse_args(argv[1:]).seeds)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_default_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the run record(s) as JSON")
    parser.add_argument("--scale", type=float,
                        help="generator scale for every workload (smoke "
                             "tests); golden digests apply only without it")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
