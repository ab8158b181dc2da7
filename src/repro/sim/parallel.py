"""Parallel experiment fan-out built on :mod:`concurrent.futures`.

The experiment harnesses (Table 1/3/4, Figures 8-10) evaluate one
benchmark or sweep point at a time, and every evaluation is a pure
function of a small picklable job spec (benchmark name, scale, seed,
...).  :class:`ParallelRunner` fans those jobs out across a process
pool while keeping the contract the tables rely on:

- **deterministic ordering** — results come back in job order
  regardless of completion order, so rendered tables are byte-identical
  at any worker count;
- **picklable job specs** — workers regenerate workloads from the spec,
  so nothing heavyweight crosses the process boundary;
- **graceful serial fallback** — ``workers=1`` (the default), an
  unpicklable function/job, or a broken/unavailable pool all degrade to
  an in-process loop with identical results.

Telemetry: when a collector is attached in the *parent* process the
runner records ``repro_parallel_jobs_total{mode=serial|process}``,
``repro_parallel_job_seconds{mode}`` (per-job wall time, so pool
imbalance is visible), and ``repro_parallel_workers``.  On the pool
path each job additionally runs under :mod:`repro.obs.fleet` capture:
workers snapshot their own registry and span buffer per job and ship
them back in result envelopes, which the parent merges in job order —
so a ``--workers N`` profile aggregates worker-side engine/device/
transform metrics and stitches worker spans under the ``parallel.map``
span (see docs/observability.md for the merge semantics).
"""

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter

from ..errors import SimulationError
from ..obs import OBS, fleet, trace_span

#: Errors that mean "the pool cannot run this", not "the job failed".
_FALLBACK_ERRORS = (pickle.PicklingError, AttributeError, TypeError,
                    BrokenProcessPool, OSError, RuntimeError)


def default_workers():
    """Worker count used for ``workers=0`` ("all cores")."""
    return os.cpu_count() or 1


def _initialize_worker(artifact_directory):
    """Process-pool initializer: point the worker's artifact store at the
    parent's directory so workers share compiled automata and stage
    artifacts through the disk tier instead of recomputing per
    process."""
    from ..obs import OBS, detach
    from ..runtime.store import configure

    configure(directory=artifact_directory)
    # Under fork the child inherits the parent's attached collector; a
    # worker recording into that forked copy would lose every sample, so
    # start blind and let fleet capture attach per job.
    if OBS.active:
        detach()


class ParallelRunner:
    """Deterministic-order parallel ``map`` with serial fallback.

    Parameters
    ----------
    workers:
        ``1`` runs serially in-process (no pool, no pickling), ``N > 1``
        uses a process pool of up to ``N`` workers, and ``0`` means
        "one worker per CPU core".
    chunksize:
        Forwarded to ``ProcessPoolExecutor.map``; raise it for many
        tiny jobs to amortize IPC.  ``None`` (the default) picks
        ``max(1, jobs // (4 * workers))`` per map call — about four
        chunks per worker, enough slack for the pool to rebalance
        uneven jobs while still batching tiny ones.
    """

    def __init__(self, workers=1, chunksize=None):
        if workers is None:
            workers = 1
        if workers < 0:
            raise SimulationError("workers must be >= 0 (0 = all cores)")
        if chunksize is not None and chunksize < 1:
            raise SimulationError("chunksize must be >= 1 (None = auto)")
        self.workers = default_workers() if workers == 0 else workers
        self.chunksize = chunksize

    def _resolve_chunksize(self, jobs, pool_workers):
        """The explicit chunksize, or the auto heuristic for this map."""
        if self.chunksize is not None:
            return self.chunksize
        return max(1, jobs // (4 * pool_workers))

    def map(self, func, jobs):
        """``[func(job) for job in jobs]``, possibly across processes.

        ``func`` must be a module-level callable and each job spec
        picklable for the pool path; anything else silently degrades to
        the serial path.  Results preserve job order.  Exceptions raised
        by ``func`` itself propagate (after at most one serial retry
        when they surfaced through the pool machinery).
        """
        jobs = list(jobs)
        mode = "serial"
        results = None
        pool_workers = min(self.workers, len(jobs)) if jobs else 1
        if pool_workers > 1:
            from ..runtime.store import get_store
            artifact_directory = get_store().directory
            chunksize = self._resolve_chunksize(len(jobs), pool_workers)
            with trace_span("parallel.map", workers=pool_workers,
                            jobs=len(jobs), chunksize=chunksize) as span:
                capture = OBS.active
                try:
                    with ProcessPoolExecutor(
                            max_workers=pool_workers,
                            initializer=_initialize_worker,
                            initargs=(artifact_directory,)) as pool:
                        if capture:
                            payloads = fleet.observed_jobs(
                                func, jobs, context=span.context,
                                capture_spans=OBS.trace is not None)
                            outcomes = list(pool.map(
                                fleet.run_observed_job, payloads,
                                chunksize=chunksize))
                            results = [result for result, _ in outcomes]
                            fleet.merge_envelopes(
                                envelope for _, envelope in outcomes)
                        else:
                            results = list(pool.map(
                                func, jobs, chunksize=chunksize))
                    mode = "process"
                except _FALLBACK_ERRORS:
                    results = None  # degrade to the serial path below
        if results is None:
            with trace_span("parallel.map", workers=1, jobs=len(jobs)):
                results = self._run_serial(func, jobs)
        self._record(mode, len(jobs), pool_workers if mode == "process" else 1)
        return results

    @staticmethod
    def _run_serial(func, jobs):
        """In-process loop; times each job when a collector is attached."""
        if not OBS.active:
            return [func(job) for job in jobs]
        observe = OBS.instruments.parallel_job_seconds.labels(
            mode="serial").observe
        results = []
        for job in jobs:
            start = perf_counter()
            results.append(func(job))
            observe(perf_counter() - start)
        return results

    @staticmethod
    def _record(mode, jobs, workers):
        if not OBS.active:
            return
        instruments = OBS.instruments
        instruments.parallel_jobs.labels(mode=mode).inc(jobs)
        instruments.parallel_workers.set(workers)


def parallel_map(func, jobs, workers=1, chunksize=None):
    """One-shot convenience wrapper around :class:`ParallelRunner`."""
    return ParallelRunner(workers=workers, chunksize=chunksize).map(func, jobs)
