"""Stage-graph construction and execution.

Experiments declare their work as a DAG of :class:`Task` nodes — one per
(stage, params, dependencies) triple — and a :class:`Runtime` executes
the graph in this process:

1. **demand pruning** (reverse topological pass): starting from the
   requested targets, each demanded cacheable task is probed in the
   artifact store; a hit satisfies the task *and removes the demand on
   its dependencies*, so a warm store skips the expensive generate /
   simulate / transform stages entirely;
2. **execution** (forward pass): the remaining tasks run one at a time
   in graph order, which is topological by construction, so results
   are deterministic because every stage is pure;
3. **artifact write-back**: each cacheable value is stored under its
   content-addressed key as soon as its stage returns, for later tasks,
   experiments and (through the disk tier) processes to hit.

Task deduplication happens at construction: adding the same (stage,
params, deps) twice returns the same node, so one scorecard graph runs
each shared stage once even when several experiments declare it.
"""

from ..errors import StageGraphError
from ..obs import OBS
from .stages import _execute_stage_job, canonical, get_stage
from .store import artifact_key, get_store


class Task:
    """One node of a stage graph (identity = stage + params + deps)."""

    __slots__ = ("stage", "params", "deps", "signature", "key")

    def __init__(self, stage, params, deps, signature, key):
        self.stage = stage
        self.params = params
        self.deps = deps
        self.signature = signature
        self.key = key

    def __repr__(self):
        return "Task(%s, %s%s)" % (
            self.stage.name, canonical(self.params),
            ", key=%s..." % self.key[:16] if self.key else "")


class StageGraph:
    """A deduplicating DAG builder over the registered stages."""

    def __init__(self):
        self._by_signature = {}
        self.order = []  # insertion order; topological by construction

    def task(self, stage_name, params=None, deps=()):
        """Add (or reuse) the task for ``(stage, params, deps)``.

        Dependencies must already belong to this graph, which makes the
        insertion order a valid topological order for free.
        """
        entry = get_stage(stage_name)
        deps = tuple(deps)
        for dep in deps:
            if self._by_signature.get(dep.signature) is not dep:
                raise StageGraphError(
                    "dependency %r does not belong to this graph" % (dep,))
        params = dict(params or {})
        text = canonical(params)
        signature = "%s(%s)<-[%s]" % (
            stage_name, text, ",".join(dep.signature for dep in deps))
        found = self._by_signature.get(signature)
        if found is not None:
            return found
        key = self._key(entry, params, text, deps)
        task = Task(entry, params, deps, signature, key)
        self._by_signature[signature] = task
        self.order.append(task)
        return task

    @staticmethod
    def _key(entry, params, text, deps):
        """Content-addressed artifact key (None for uncacheable stages).

        ``text`` is ``canonical(params)``, computed once per task.

        The key chains through dependencies by *their* keys, so changing
        any upstream artifact (or salt) re-addresses everything below
        it.  A cacheable stage therefore may only depend on cacheable
        stages — an uncacheable value has no content address to chain.
        """
        if not entry.cacheable:
            return None
        chained = []
        for dep in deps:
            if dep.key is None:
                raise StageGraphError(
                    "cacheable stage %r cannot depend on uncached stage %r"
                    % (entry.name, dep.stage.name))
            chained.append(dep.key)
        parts = [entry.name, text]
        if entry.salt is not None:
            parts.append(entry.salt(params))
        return artifact_key(entry.codec.kind, *(parts + chained))

    def __len__(self):
        return len(self.order)


class Runtime:
    """Executes stage graphs in-process against an artifact store."""

    def __init__(self, store=None):
        self.store = store if store is not None else get_store()

    def execute(self, graph, targets=None):
        """Evaluate ``targets`` (default: every task); returns {task: value}.

        Cache accounting per stage lands in
        ``repro_runtime_stage_{hits,misses}_total`` and executed-stage
        timings in ``repro_runtime_stage_seconds`` when a collector is
        attached.
        """
        if targets is None:
            targets = list(graph.order)
        results = {}
        demanded = set()
        for task in targets:
            if graph._by_signature.get(task.signature) is not task:
                raise StageGraphError(
                    "target %r does not belong to this graph" % (task,))
            demanded.add(task)
        # Reverse pass: probe the store top-down so a cached target
        # removes the demand on its whole upstream subgraph.
        for task in reversed(graph.order):
            if task not in demanded:
                continue
            if task.key is not None:
                value = self.store.get(task.key, task.stage.codec)
                if value is not None:
                    results[task] = value
                    self._record_hit(task)
                    continue
            demanded.update(task.deps)
        # Forward pass: run what remains in graph order, storing each
        # value as soon as its stage returns.
        for task in graph.order:
            if task not in demanded or task in results:
                continue
            value, seconds = _execute_stage_job(
                task.stage, task.params, [results[dep] for dep in task.deps])
            if task.key is not None:
                self.store.put(task.key, value, task.stage.codec)
            results[task] = value
            self._record_miss(task, seconds)
        return results

    @staticmethod
    def _record_hit(task):
        if OBS.active:
            OBS.instruments.runtime_stage_hits.labels(
                stage=task.stage.name).inc()

    @staticmethod
    def _record_miss(task, seconds):
        if not OBS.active:
            return
        instruments = OBS.instruments
        instruments.runtime_stage_misses.labels(stage=task.stage.name).inc()
        instruments.runtime_stage_seconds.labels(
            stage=task.stage.name).observe(seconds)
