"""Per-layer self time, measured from outside the program.

``ENTRY_POINTS`` is the one table the traced pass reads: each row names a
public entry point *where its caller looks it up* (a module global such
as ``repro.runtime.stages.place``, or a class attribute such as
``BitsetEngine.run_batch``), the ``repro`` module it belongs to (the
layer), and the group its time is reported under.  :class:`LayerTracer`
replaces each of those attributes with a timing wrapper.

A wrapped call's *self time* is its duration minus the durations of the
wrapped calls made under it, so self times never double count and
``unattributed_s = wall - sum(self times)`` is the time spent outside
every listed entry point.  A row whose attribute no longer exists is
skipped and reported in :attr:`LayerTracer.missing`: when a later change
deletes a run variant, its time moves into the caller's self time and
the benchmark keeps working.

Nothing here imports ``repro`` at module level; :meth:`LayerTracer.install`
imports the owners it patches.
"""

import importlib
from collections import Counter, defaultdict
from functools import wraps
from statistics import median
from time import perf_counter

#: (owner, attribute, layer, group).  ``owner`` is ``"module"`` or
#: ``"module:Class"``; the layer is the ``repro`` subpackage the code
#: lives in.
ENTRY_POINTS = (
    ("repro.workloads.registry", "generate", "workloads", "generate"),

    ("repro.transform.pipeline", "to_nibbles", "transform", "to_nibbles"),
    ("repro.transform.pipeline", "stride", "transform", "stride"),
    ("repro.transform.striding", "square", "transform", "square"),

    ("repro.transform.nibble", "minimize", "automata", "minimize"),
    ("repro.automata.indexed:IndexedAutomaton", "minimize",
     "automata", "minimize"),
    ("repro.automata.indexed:IndexedAutomaton", "from_automaton",
     "automata", "index"),
    ("repro.automata.automaton:Automaton", "fingerprint",
     "automata", "fingerprint"),
    ("repro.automata.automaton:Automaton", "validate", "automata", "validate"),

    ("repro.sim.engine:BitsetEngine", "__init__", "sim", "engine_build"),
    ("repro.sim.engine:BitsetEngine", "run", "sim", "engine"),
    ("repro.sim.engine:BitsetEngine", "run_batch", "sim", "engine"),
    ("repro.sim.engine:BitsetEngine", "run_sharded", "sim", "engine"),
    ("repro.sim.engine:BitsetEngine", "run_windows", "sim", "engine"),
    ("repro.sim.engine:BitsetEngine", "run_window_lanes", "sim", "engine"),
    ("repro.exec.session", "stream_for", "sim", "stream_for"),
    ("repro.runtime.stages", "stream_for", "sim", "stream_for"),
    ("repro.prefilter.gate", "stream_for", "sim", "stream_for"),
    ("repro.prefilter.gate", "stream_slice", "sim", "stream_for"),

    ("repro.runtime.stages", "place", "core", "place"),
    ("repro.core.device", "place", "core", "place"),
    ("repro.core.device:SunderDevice", "configure", "core", "device_configure"),
    ("repro.core.packed:PackedKernel", "__init__", "core", "kernel_compile"),
    ("repro.core.device:SunderDevice", "run", "core", "device_run"),
    ("repro.core.device:SunderDevice", "run_batch", "core", "device_run"),
    ("repro.core.device:SunderDevice", "run_gated", "core", "device_run"),
    ("repro.core.device:SunderDevice", "run_gated_lanes", "core", "device_run"),
    ("repro.core.perfmodel:ReportingPerfModel", "evaluate", "core", "perfmodel"),
    ("repro.runtime.stages", "pu_fill_cycles_from_events", "core", "perfmodel"),
    ("repro.runtime.stages", "sensitivity_slowdown", "core", "perfmodel"),

    ("repro.baselines.ap:ApReportingModel", "evaluate", "baselines", "ap"),

    ("repro.runtime.graph:Runtime", "execute", "runtime", "scheduler_self"),
    ("repro.runtime.graph", "_execute_stage_job", "runtime", "stage_self"),
    ("repro.runtime.graph:StageGraph", "task", "runtime", "graph"),
    ("repro.runtime.store:ArtifactStore", "get", "runtime", "store_get"),
    ("repro.runtime.store:ArtifactStore", "put", "runtime", "store_put"),

    ("repro.exec.session:Session", "__init__", "exec", "session_self"),
    ("repro.exec.session:Session", "execute", "exec", "session_self"),
    ("repro.exec.planner:Planner", "explain", "exec", "plan"),
    ("repro.exec.session", "automaton_traits", "exec", "traits"),
    ("repro.exec.planner", "automaton_traits", "exec", "traits"),
    ("repro.exec.traits", "automaton_traits", "exec", "traits"),

    ("repro.exec.session", "build_prefilter", "prefilter", "build"),
    ("repro.prefilter.gate", "build_prefilter", "prefilter", "build"),
    ("repro.exec.session", "gated_simulation", "prefilter", "gated"),
    ("repro.exec.session", "gated_device_run", "prefilter", "gated"),
    ("repro.runtime.stages", "gated_simulation", "prefilter", "gated"),

    ("repro.experiments.table1", "run", "experiments", "tables"),
    ("repro.experiments.table3", "run", "experiments", "tables"),
    ("repro.experiments.table4", "run", "experiments", "tables"),
    ("repro.experiments.table5", "run", "experiments", "tables"),
    ("repro.experiments.figure8", "run", "experiments", "tables"),
    ("repro.experiments.figure9", "run", "experiments", "tables"),
    ("repro.experiments.figure10", "run", "experiments", "tables"),
    ("repro.hwmodel.area", "throughput_per_area", "experiments", "tables"),
)

#: The transform cache is an ArtifactStore subclass sharing get/put:
#: calls on a TransformCache instance are reported under the transform
#: layer, so folding the two stores together shows in the split.
SPLITS = {
    ("runtime", "store_get"): ("repro.transform.cache:TransformCache",
                               ("transform", "cache_get")),
    ("runtime", "store_put"): ("repro.transform.cache:TransformCache",
                               ("transform", "cache_put")),
}

LAYERS = ("workloads", "transform", "automata", "sim", "core", "baselines",
          "runtime", "exec", "prefilter", "experiments")

#: Counters gathered at the entry points, then summed over traced samples.
_LOOKUPS = {("runtime", "store_get"): "runtime.store",
            ("transform", "cache_get"): "transform.cache"}
_STEPPERS = {("sim", "engine"): "sim.engine",
             ("core", "device_run"): "core.device"}
_PRODUCERS = {("transform", "to_nibbles"), ("transform", "stride")}


def groups():
    """Every (layer, group) self-time key, in table order."""
    keys = []
    for _, _, layer, group in ENTRY_POINTS:
        if (layer, group) not in keys:
            keys.append((layer, group))
    for _, alternative in SPLITS.values():
        if alternative not in keys:
            keys.append(alternative)
    return keys


def metric_units():
    """``[(name, unit)]`` of every per-layer metric, in report order."""
    units = [("%s.%s_s" % key, "s") for key in groups()]
    for layer in LAYERS:
        units += [("%s.self_s" % layer, "s"), ("%s.calls" % layer, "count")]
    units += [
        ("transform.states_out", "count"),
        ("transform.cache_hit_ratio", "ratio"),
        ("runtime.store_hit_ratio", "ratio"),
        ("runtime.setup_bytes_written", "B"),
        ("sim.engine_cycles", "count"),
        ("sim.step_cache_hit_ratio", "ratio"),
        ("sim.engine_cycles_per_s", "cycles/s"),
        ("core.device_cycles", "count"),
        ("core.device_step_cache_hit_ratio", "ratio"),
        ("experiments.claims_passed", "count"),
        ("wall_s", "s"),
        ("traced_wall_s", "s"),
        ("unattributed_s", "s"),
        ("unattributed_frac", "ratio"),
        ("trace_overhead_frac", "ratio"),
    ]
    return units


def import_owners():
    """Import every module the table patches (missing ones are skipped)."""
    for owner, _, _, _ in ENTRY_POINTS:
        _resolve(owner)


def _resolve(owner):
    """The module or class named by ``owner``, or None if it is gone."""
    module_name, _, class_name = owner.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name:
        target = getattr(target, class_name, None)
    return target


class LayerTracer:
    """Installs the timing wrappers and accumulates one sample's numbers."""

    def __init__(self, entries=ENTRY_POINTS):
        self.entries = entries
        self.seconds = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._active = Counter()
        self._patched = []

    def install(self):
        for owner, attribute, layer, group in self.entries:
            target = _resolve(owner)
            raw = vars(target).get(attribute) if target is not None else None
            if raw is None:
                self.missing.append("%s.%s" % (owner, attribute))
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, (layer, group)))
            else:
                wrapped = self._wrap(raw, (layer, group))
            setattr(target, attribute, wrapped)
            self._patched.append((target, attribute, raw))
        return self

    def uninstall(self):
        while self._patched:
            target, attribute, raw = self._patched.pop()
            setattr(target, attribute, raw)

    def _wrap(self, func, key):
        split = SPLITS.get(key)
        split_class = _resolve(split[0]) if split is not None else None
        stack = self._stack
        seconds = self.seconds
        calls = self.calls

        @wraps(func)
        def timed(*args, **kwargs):
            bucket = key
            if split_class is not None and isinstance(args[0], split_class):
                bucket = split[1]
            before = self._before(bucket, args)
            frame = [0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                seconds[bucket] += elapsed - frame[0]
                calls[bucket] += 1
                if stack:
                    stack[-1][0] += elapsed
                self._after(bucket, args, result, before)

        return timed

    def _before(self, bucket, args):
        """Step-cache snapshot at the outermost engine/device call."""
        if bucket not in _STEPPERS:
            return None
        self._active[bucket] += 1
        if self._active[bucket] > 1:
            return None
        info = args[0].step_cache_info()
        return info["hits"], info["misses"]

    def _after(self, bucket, args, result, before):
        counts = self.counts
        prefix = _LOOKUPS.get(bucket)
        if prefix is not None:
            counts[prefix + "_lookups"] += 1
            counts[prefix + "_hits"] += result is not None
        prefix = _STEPPERS.get(bucket)
        if prefix is not None:
            self._active[bucket] -= 1
            if before is not None:
                info = args[0].step_cache_info()
                hits = info["hits"] - before[0]
                counts[prefix + "_cycles"] += hits + info["misses"] - before[1]
                counts[prefix + "_hits"] += hits
        if bucket in _PRODUCERS and result is not None:
            counts["transform.states_out"] += len(result)

    def sample(self):
        """This sample's raw numbers (JSON-serializable)."""
        return {
            "seconds": {"%s.%s" % key: value
                        for key, value in self.seconds.items()},
            "calls": {"%s.%s" % key: value
                      for key, value in self.calls.items()},
            "counts": dict(self.counts),
        }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def summarize(samples, traced_walls, untraced_walls):
    """Per-layer metrics from the traced samples of one run.

    Seconds and calls are means per sample, so the self times and
    ``unattributed_s`` add up to ``traced_wall_s`` exactly; ratios are
    taken over the summed counts.
    """
    n = len(samples)
    seconds = Counter()
    calls = Counter()
    counts = Counter()
    for sample in samples:
        seconds.update(sample["seconds"])
        calls.update(sample["calls"])
        counts.update(sample["counts"])
    wall = sum(traced_walls) / n
    metrics = {}
    for layer, group in groups():
        metrics["%s.%s_s" % (layer, group)] = seconds["%s.%s" % (layer, group)] / n
    for layer in LAYERS:
        prefix = layer + "."
        metrics[prefix + "self_s"] = sum(
            value for name, value in seconds.items()
            if name.startswith(prefix)) / n
        metrics[prefix + "calls"] = sum(
            value for name, value in calls.items()
            if name.startswith(prefix)) / n
    attributed = sum(seconds.values()) / n
    metrics.update({
        "transform.states_out": counts["transform.states_out"] / n,
        "transform.cache_hit_ratio": _ratio(counts["transform.cache_hits"],
                                            counts["transform.cache_lookups"]),
        "runtime.store_hit_ratio": _ratio(counts["runtime.store_hits"],
                                          counts["runtime.store_lookups"]),
        "sim.engine_cycles": counts["sim.engine_cycles"] / n,
        "sim.step_cache_hit_ratio": _ratio(counts["sim.engine_hits"],
                                           counts["sim.engine_cycles"]),
        "sim.engine_cycles_per_s": _ratio(counts["sim.engine_cycles"],
                                          seconds["sim.engine"]),
        "core.device_cycles": counts["core.device_cycles"] / n,
        "core.device_step_cache_hit_ratio": _ratio(
            counts["core.device_hits"], counts["core.device_cycles"]),
        "wall_s": median(untraced_walls),
        "traced_wall_s": wall,
        "unattributed_s": wall - attributed,
        "unattributed_frac": _ratio(wall - attributed, wall),
        "trace_overhead_frac": _ratio(median(traced_walls),
                                      median(untraced_walls)) - 1.0,
    })
    return metrics
