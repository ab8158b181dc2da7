"""Tier-2 check: a killed run resumes from its artifact store.

Starts ``repro --artifact-dir D experiment table4`` in a subprocess and
SIGKILLs it once the first artifact lands in ``D``.  A rerun against
``D`` must then print exactly what an uninterrupted run in a fresh
directory prints, be served partly from ``D`` (``generate`` stage hits)
and shrug off whatever the kill left behind, temporary files included.
A disk hit serves the frozen master the store decoded, so this covers
the disk tier end to end.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMAND = ["experiment", "table4", "--scale", "0.005"]


def _env():
    env = dict(os.environ)
    for name in ("REPRO_ARTIFACT_DIR", "REPRO_PROGRESS"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _argv(directory, *extra):
    return ([sys.executable, "-m", "repro", "--artifact-dir", str(directory)]
            + COMMAND + list(extra))


def _run(directory, *extra):
    return subprocess.run(_argv(directory, *extra), env=_env(),
                          capture_output=True, check=True, timeout=600).stdout


def _kill_after_first_artifact(directory, timeout=600):
    """Start a run, SIGKILL it at its first artifact; returns its stdout."""
    proc = subprocess.Popen(_argv(directory), env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + timeout
        while not list(directory.glob("*.json")):
            assert proc.poll() is None, "exited before writing an artifact"
            assert time.monotonic() < deadline, "no artifact appeared"
            time.sleep(0.005)
        assert proc.poll() is None, "finished before it could be killed"
        proc.send_signal(signal.SIGKILL)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == -signal.SIGKILL
    return out


def _stage_hits(snapshot, stage):
    for metric in snapshot["metrics"]:
        if metric["name"] == "repro_runtime_stage_hits_total":
            return sum(sample["value"] for sample in metric["samples"]
                       if sample["labels"].get("stage") == stage)
    return 0


def test_killed_run_resumes_from_its_store(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    assert _kill_after_first_artifact(store) == b""

    # A kill mid-write leaves a torn temporary file beside the artifacts.
    first = sorted(store.glob("*.json"))[0]
    torn = first.with_name(first.name + ".tmp.999999.1")
    torn.write_text(first.read_text(encoding="utf-8")[:40], encoding="utf-8")

    metrics = tmp_path / "metrics.json"
    resumed = _run(store, "--metrics-out", str(metrics))
    assert resumed == _run(tmp_path / "fresh")
    assert b"Table 4" in resumed
    snapshot = json.loads(metrics.read_text(encoding="utf-8"))
    assert _stage_hits(snapshot, "generate") > 0
