"""The benchmark's workloads: one set-up phase and one timed phase each.

Every phase runs in a fresh interpreter, so no in-process memo, cache or
heap state carries from one sample to the next::

    python3 bench/workloads.py '{"workload": "match", "phase": "timed", ...}'

The spec keys are ``workload``, ``phase`` (``setup`` or ``timed``),
``seed`` (the run's ``--seed``, which selects the golden digests),
``seeds`` (the generator seeds the phase builds or runs), ``scale``
(null = the workload's default), ``dir`` (the run's work directory,
written by set-up and read by the timed phase), ``trace`` and
``result`` (where the phase writes its JSON result).  ``run.py`` builds
the specs, runs the phases one at a time and reads the results.
``repro`` is imported only inside the phases, so the set-up clock
includes the package import.

Set-up and untraced timed phases run under a :class:`HostProbe`, which
measures how fast the host ran during the phase.
"""

import gc
import hashlib
import json
import math
import os
import pickle
import resource
import signal
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from functools import partial
from time import perf_counter

from layers import LayerTracer, import_owners

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")

#: Default generator scale of each workload (see README.md for why).
DEFAULT_SCALES = {
    "scorecard-cold": 0.005,
    "scorecard-warm": 0.005,
    "match": 0.3,
    "sessions": 0.01,
}
WORKLOADS = tuple(DEFAULT_SCALES)

#: A scorecard run covers this many generator seeds (see generator_seeds).
SCORECARD_SEEDS = 4

#: Checked operations per timed sample (a raising sample fails them all).
CLAIMS = 21
MATCH_BENCHMARKS = ("Snort",)
SESSION_RUNS = ("auto", "packets-engine", "packets-device")
BENCHMARK_COUNT = 19
OPS_PER_SAMPLE = {
    "scorecard-cold": CLAIMS * SCORECARD_SEEDS,
    "scorecard-warm": CLAIMS * SCORECARD_SEEDS,
    "match": 2 * len(MATCH_BENCHMARKS),
    "sessions": len(SESSION_RUNS) * BENCHMARK_COUNT,
}

PACKET_BYTES = 1500
MACHINES_FILE = "machines.pickle"

#: HostProbe: the probe period, the fewest probes a phase measures, and
#: the probe loop's mean time on the baseline host (2-core Intel Xeon
#: VM, Python 3.11).
PROBE_PERIOD_S = 0.02
MIN_PROBES = 10
PROBE_CALL_S = 0.0003


def generator_seeds(workload, seed):
    """The generator seeds one run of ``workload`` at ``seed`` uses.

    A scorecard's time depends on the seed in steps (SPM's report count
    is 1x, 2x or 3x the seed-0 count), so a scorecard run averages over
    SCORECARD_SEEDS consecutive seeds: ``seed`` 1 uses 4, 5, 6 and 7.
    """
    if workload.startswith("scorecard"):
        return list(range(seed * SCORECARD_SEEDS, (seed + 1) * SCORECARD_SEEDS))
    return [seed]


def _probe_call():
    table = {}
    for index in range(1500):
        key = (index & 63, index >> 6)
        table[key] = table.get(key, 0) + 1
    return len(table)


class HostProbe:
    """Samples the host's speed while a phase runs.

    On a shared host the same code runs up to 2x slower for seconds to
    minutes at a time.  While the probe is entered, a SIGALRM handler
    times one short fixed loop every PROBE_PERIOD_S (dict and tuple work
    that touches no ``repro`` code, with the collector off so that
    neither the heap nor the program's collector settings count).  The
    probes interleave with the phase, so they see the host as it was
    during the phase, not before or after it.
    """

    def __init__(self):
        self.times = []
        self.inside_s = 0.0
        self._previous = None

    def _probe(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _probe_call()
        self.times.append(perf_counter() - start)
        if enabled:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.inside_s = sum(self.times)
        # A short phase gets its remaining probes right after it.
        while len(self.times) < MIN_PROBES:
            self._probe()
        return False

    def result(self, wall):
        """``seconds`` (``wall`` minus the probes run inside it) and
        ``probe_s`` (the mean probe time) of a probed phase."""
        return {"seconds": wall - self.inside_s,
                "probe_s": sum(self.times) / len(self.times)}


def scaled_seconds(phase):
    """A probed phase's seconds at the baseline host's speed."""
    return phase["seconds"] * PROBE_CALL_S / phase["probe_s"]


def artifact_dirs(workdir):
    """``(artifact dir, transform-cache dir)`` a warm store lives in —
    the layout ``--artifact-dir D`` gives the CLI."""
    store = os.path.join(workdir, "store")
    return store, os.path.join(store, "transforms")


# ----------------------------------------------------------------------
# Set-up phases: build what the timed phase reads back
# ----------------------------------------------------------------------

def _setup_scorecard_cold(scale, seeds, workdir):
    from repro.experiments import scorecard  # noqa: F401  (import is the set-up)


def _setup_scorecard_warm(scale, seeds, workdir):
    # The parent points REPRO_ARTIFACT_DIR/REPRO_TRANSFORM_CACHE at the
    # work directory, so these cold runs write every cacheable artifact.
    _run_scorecard(scale, seeds, workdir, None)


def _build_machines(names, scale, seed):
    from repro.transform.pipeline import to_rate
    from repro.workloads import registry

    machines = []
    for name in names:
        instance = registry.generate(name, scale=scale, seed=seed)
        machines.append((name, instance.input_bytes, instance.automaton,
                         to_rate(instance.automaton, 4)))
    return machines


def _setup_match(scale, seeds, workdir):
    return _build_machines(MATCH_BENCHMARKS, scale, seeds[0])


def _setup_sessions(scale, seeds, workdir):
    from repro.workloads.registry import BENCHMARK_NAMES
    return _build_machines(BENCHMARK_NAMES, scale, seeds[0])


# ----------------------------------------------------------------------
# Timed phases: ``run`` is timed, ``check`` is not.  The runs return
# their sessions so that tearing them down happens after the clock stops.
# ----------------------------------------------------------------------

def _run_scorecard(scale, seeds, workdir, state):
    from repro.experiments import scorecard
    return [(seed, scorecard.main(scale=scale, seed=seed, workers=1))
            for seed in seeds]


def _import_scorecard(workdir):
    from repro.experiments import scorecard  # noqa: F401  (before the clock)


def _check_scorecard(outputs):
    """One op per claim and seed; its digest is the measured value."""
    ops = [("%d/%s" % (seed, claim.name),
            None if math.isfinite(claim.measured) else "value is not finite",
            partial(str, "%.10g" % claim.measured))
           for seed, claims in outputs for claim in claims]
    passed = sum(claim.passed for _, claims in outputs for claim in claims)
    return ops, {"claims_passed": passed}


def _run_match(scale, seeds, workdir, machines):
    from repro.exec import ExecutionPlan, Session

    outputs = []
    for name, data, byte_machine, nibble_machine in machines:
        byte_session = Session(byte_machine, plan=ExecutionPlan())
        nibble_session = Session(nibble_machine, plan=ExecutionPlan())
        outputs.append((name, byte_session.execute([data])[0],
                        nibble_session.execute([data])[0],
                        (byte_session, nibble_session)))
    return outputs


def _pairs(recorder):
    return [event.key() for event in recorder.events]


def _digest(pairs):
    """Order-free digest of a multiset of (position, report_code)."""
    lines = sorted("%s:%s" % pair for pair in pairs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _check_match(outputs):
    """8-bit and 4-nibble runs must report the same (byte, code) set."""
    from repro.transform.nibble import nibble_report_position_to_byte

    ops = []
    for name, byte_run, nibble_run, _ in outputs:
        byte_pairs = _pairs(byte_run)
        nibble_pairs = [(nibble_report_position_to_byte(position), code)
                        for position, code in _pairs(nibble_run)]
        # Sets, not lists: the 4-nibble machine may emit duplicate pairs.
        mismatch = (None if set(byte_pairs) == set(nibble_pairs) else
                    "8-bit and 4-nibble report sets differ")
        for label, pairs in (("8bit", byte_pairs), ("4nibble", nibble_pairs)):
            ops.append(("%s/%s" % (name, label), mismatch,
                        partial(_digest, pairs)))
    return ops, {}


def _run_sessions(scale, seeds, workdir, machines):
    from repro.exec import Planner, Session

    outputs = []
    for name, data, byte_machine, nibble_machine, packets in machines:
        sessions = (Session(byte_machine),
                    Session(nibble_machine, source=byte_machine),
                    Session(nibble_machine, source=byte_machine,
                            planner=Planner(target="device")))
        outputs.append((name, sessions[0].execute([data])[0],
                        sessions[1].execute(packets),
                        sessions[2].execute(packets), sessions))
    return outputs


def _check_sessions(outputs):
    """Engine and device packet runs must agree per packet as multisets.

    The device emits same-cycle reports in placement order, so only the
    sorted multiset, not the raw order, is compared.
    """
    ops = []
    for name, auto, engine, device, _ in outputs:
        mismatch = None
        for index, (left, right) in enumerate(zip(engine, device)):
            if Counter(_pairs(left)) != Counter(_pairs(right)):
                mismatch = "packet %d: engine and device reports differ" % index
                break
        if len(engine) != len(device):
            mismatch = "engine and device returned different packet counts"
        run_pairs = (_pairs(auto), _packet_pairs(engine), _packet_pairs(device))
        errors = (None, mismatch, mismatch)
        ops += [("%s/%s" % (name, label), error, partial(_digest, pairs))
                for label, pairs, error in zip(SESSION_RUNS, run_pairs, errors)]
    return ops, {}


def _packet_pairs(recorders):
    """(packet, position, code) pairs folded into (position, code) form."""
    return [("%d.%d" % (index, position), code)
            for index, recorder in enumerate(recorders)
            for position, code in _pairs(recorder)]


def _load_machines(workdir):
    with open(os.path.join(workdir, MACHINES_FILE), "rb") as handle:
        return pickle.load(handle)


def _packetize(machines):
    return [(name, data, byte_machine, nibble_machine,
             [data[start:start + PACKET_BYTES]
              for start in range(0, len(data), PACKET_BYTES)])
            for name, data, byte_machine, nibble_machine in machines]


#: workload -> (set-up, load for the timed phase, timed run, check)
PHASES = {
    "scorecard-cold": (_setup_scorecard_cold, _import_scorecard,
                       _run_scorecard, _check_scorecard),
    "scorecard-warm": (_setup_scorecard_warm, _import_scorecard,
                       _run_scorecard, _check_scorecard),
    "match": (_setup_match, _load_machines, _run_match, _check_match),
    "sessions": (_setup_sessions, lambda workdir: _packetize(
        _load_machines(workdir)), _run_sessions, _check_sessions),
}


def golden_for(workload, seed, scale):
    """The committed digests for this workload and seed, or None.

    Goldens exist only for the default scale; other seeds and scales
    rely on the cross-checks alone.
    """
    if scale is not None:
        return None
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        table = json.load(handle)
    return table.get(workload, {}).get(str(seed))


# ----------------------------------------------------------------------
# Running one phase
# ----------------------------------------------------------------------

def run_phase(spec):
    """Run one phase; returns its JSON-serializable result."""
    workload = spec["workload"]
    scale = spec["scale"] if spec["scale"] is not None else DEFAULT_SCALES[workload]
    seeds = spec["seeds"]
    workdir = spec["dir"]
    setup, load, run, check = PHASES[workload]
    if spec["phase"] == "setup":
        with HostProbe() as probe:
            start = perf_counter()
            built = setup(scale, seeds, workdir)
            seconds = perf_counter() - start
        if built is not None:
            with open(os.path.join(workdir, MACHINES_FILE), "wb") as handle:
                pickle.dump(built, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return probe.result(seconds)

    # Traced and untraced samples import the same modules before the
    # clock starts, so the two differ only by the wrappers.  Traced
    # samples are not probed: the probes would land in the layers.
    import_owners()
    state = load(workdir)
    tracer = LayerTracer().install() if spec["trace"] else None
    probe = None if tracer is not None else HostProbe()
    gc.collect()
    with probe or nullcontext():
        start = perf_counter()
        outputs = run(scale, seeds, workdir, state)
        seconds = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    try:
        ops, extra = check(outputs)
    except Exception as error:  # a crashing check fails every op it owns
        message = "check raised %s: %s" % (type(error).__name__, error)
        ops, extra = [("check", message, None)] * OPS_PER_SAMPLE[workload], {}
    write = spec.get("write_golden", False)
    golden = None if write else golden_for(workload, spec["seed"],
                                            spec["scale"])
    checked = []
    for name, error, digest in ops:
        value = digest() if digest and (write or golden is not None) else None
        if error is None and golden is not None and golden.get(name) != value:
            error = "golden mismatch: %s != %s" % (value, golden.get(name))
        checked.append((name, error, value))
    result = probe.result(seconds) if probe is not None else {
        "seconds": seconds, "probe_s": None}
    result.update(extra, rss_mb=rss_mb, ops=checked)
    if tracer is not None:
        result["layers"] = tracer.sample()
        result["missing_entry_points"] = tracer.missing
    return result


def main(argv):
    spec = json.loads(argv[1])
    try:
        result = run_phase(spec)
    except Exception:
        traceback.print_exc()
        return 1
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
