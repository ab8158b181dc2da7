"""The metric catalogue: every hot-path instrument, pre-registered.

One :class:`Instruments` bundle is built per registry the first time a
collector is attached to it, so hook sites grab ready-made handles
instead of doing name lookups per call.  The catalogue below is the
documented contract (see ``docs/observability.md``); the schema smoke
check and ``tests/test_obs.py`` both pin it.
"""

#: Buckets for per-cycle active-state counts (powers of two up to one
#: full subarray's 256 states).
ACTIVE_STATE_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
#: Buckets for wall-time stage/run durations, in seconds.
SECONDS_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
                   10.0, 30.0, 60.0)
#: Buckets for transform blow-up ratios (output/input states).
RATIO_BUCKETS = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0)
#: Buckets for run_batch lane counts (powers of two up to 256 lanes).
BATCH_LANE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Instruments:
    """Handles for every metric the built-in hooks record."""

    def __init__(self, registry):
        counter = registry.counter
        gauge = registry.gauge
        histogram = registry.histogram

        # --- functional engine (repro.sim.engine) ---------------------
        self.engine_runs = counter(
            "repro_engine_runs_total",
            "Completed BitsetEngine.run invocations.", ("engine",))
        self.engine_cycles = counter(
            "repro_engine_cycles_total",
            "Vector cycles executed by the functional engine.", ("engine",))
        self.engine_reports = counter(
            "repro_engine_reports_total",
            "Report events recorded by the functional engine.", ("engine",))
        self.engine_active_states = histogram(
            "repro_engine_active_states",
            "Active states per executed cycle.", ("engine",),
            buckets=ACTIVE_STATE_BUCKETS)
        self.engine_run_seconds = histogram(
            "repro_engine_run_seconds",
            "Wall time of one engine run.", ("engine",),
            buckets=SECONDS_BUCKETS)
        self.engine_batch_lanes = histogram(
            "repro_engine_batch_lanes",
            "Lane count per run_batch invocation.", ("engine",),
            buckets=BATCH_LANE_BUCKETS)
        self.engine_batch_lane_cache_hits = counter(
            "repro_engine_batch_lane_cache_hits_total",
            "Step-cache hits inside batched lanes (summed per-lane counts "
            "of every run_batch).", ("engine",))
        self.engine_batch_lane_cache_misses = counter(
            "repro_engine_batch_lane_cache_misses_total",
            "Step-cache misses inside batched lanes (summed per-lane "
            "counts of every run_batch).", ("engine",))
        self._engine_handles = {}

        # --- Sunder device (repro.core.device) ------------------------
        self.device_reconfigurations = counter(
            "repro_device_reconfigurations_total",
            "SunderDevice.configure calls (automaton programmings).")
        self.device_cycles = counter(
            "repro_device_cycles_total",
            "Vector cycles streamed through SunderDevice.run.")
        self.device_stall_cycles = counter(
            "repro_device_stall_cycles_total",
            "Reporting stall cycles charged during SunderDevice.run.")
        self.device_fifo_drained = counter(
            "repro_device_fifo_drained_entries_total",
            "Report entries drained in the background by the FIFO strategy.")
        self.device_flushes = counter(
            "repro_device_flushes_total",
            "Stop-and-flush events across all reporting regions.")
        self.device_run_seconds = histogram(
            "repro_device_run_seconds",
            "Wall time of one SunderDevice.run.", buckets=SECONDS_BUCKETS)
        self.device_kernel_compile_seconds = histogram(
            "repro_device_kernel_compile_seconds",
            "Wall time to compile the packed device kernel.",
            buckets=SECONDS_BUCKETS)
        self.device_configured_states = gauge(
            "repro_device_configured_states",
            "States placed on each cluster by the last configure().",
            ("cluster",))
        self.device_cluster_utilization = gauge(
            "repro_device_cluster_utilization",
            "Fraction of each cluster's state columns in use.", ("cluster",))

        # --- transform pipeline (repro.transform) ---------------------
        self.transform_runs = counter(
            "repro_transform_runs_total",
            "Completed transformation stages.", ("stage",))
        self.transform_stage_seconds = histogram(
            "repro_transform_stage_seconds",
            "Wall time per transformation stage.", ("stage",),
            buckets=SECONDS_BUCKETS)
        self.transform_state_ratio = histogram(
            "repro_transform_state_ratio",
            "Output/input state ratio per transformation stage.", ("stage",),
            buckets=RATIO_BUCKETS)

        # --- stage-graph runtime (repro.runtime) ----------------------
        self.runtime_stage_hits = counter(
            "repro_runtime_stage_hits_total",
            "Stage executions served from the artifact store.", ("stage",))
        self.runtime_stage_misses = counter(
            "repro_runtime_stage_misses_total",
            "Stage executions that actually ran (artifact-store misses "
            "plus uncacheable stages).", ("stage",))
        self.runtime_stage_seconds = histogram(
            "repro_runtime_stage_seconds",
            "Wall time per executed (non-cached) stage.", ("stage",),
            buckets=SECONDS_BUCKETS)
        self.runtime_artifact_corrupt = counter(
            "repro_runtime_artifact_corrupt_total",
            "On-disk artifacts of any kind that failed to decode (served "
            "as misses).")
        self.stage_progress = gauge(
            "repro_stage_progress",
            "Completion fraction (0..1) of the most recent execution of "
            "each long-running stage; long kernels update it "
            "periodically so paper-scale runs are observable mid-stage.",
            ("stage",))

        # --- execution planner (repro.exec) ---------------------------
        self.plan_selected = counter(
            "repro_plan_selected_total",
            "Plans auto-selected by the execution planner, by strategy "
            "and machine-readable reason.", ("strategy", "reason"))

        # --- experiment harnesses (repro.experiments) -----------------
        self.experiment_runs = counter(
            "repro_experiment_runs_total",
            "Experiment entry-point invocations.", ("experiment",))
        self.experiment_seconds = histogram(
            "repro_experiment_seconds",
            "Wall time per experiment entry point.", ("experiment",),
            buckets=SECONDS_BUCKETS)


    def engine_handles(self, engine):
        """Pre-resolved label children of every per-engine metric.

        Resolving a metric's ``labels(...)`` child costs a dict build
        and lookup; run hot paths used to pay it per run (and a batched
        run would pay it per lane).  Hoisting the resolution here — once
        per process per engine tag — is the run-setup micro-fix
        documented in docs/performance.md.
        """
        handles = self._engine_handles.get(engine)
        if handles is None:
            handles = EngineHandles(self, engine)
            self._engine_handles[engine] = handles
        return handles


class EngineHandles:
    """One engine tag's label children, resolved once (see
    :meth:`Instruments.engine_handles`)."""

    __slots__ = ("runs", "cycles", "reports", "run_seconds",
                 "active_states", "batch_lanes", "batch_lane_cache_hits",
                 "batch_lane_cache_misses")

    def __init__(self, instruments, engine):
        self.runs = instruments.engine_runs.labels(engine=engine)
        self.cycles = instruments.engine_cycles.labels(engine=engine)
        self.reports = instruments.engine_reports.labels(engine=engine)
        self.run_seconds = instruments.engine_run_seconds.labels(
            engine=engine)
        self.active_states = instruments.engine_active_states.labels(
            engine=engine)
        self.batch_lanes = instruments.engine_batch_lanes.labels(
            engine=engine)
        self.batch_lane_cache_hits = \
            instruments.engine_batch_lane_cache_hits.labels(engine=engine)
        self.batch_lane_cache_misses = \
            instruments.engine_batch_lane_cache_misses.labels(engine=engine)


def instruments_for(registry):
    """The (cached) :class:`Instruments` bundle of one registry."""
    bundle = getattr(registry, "_repro_instruments", None)
    if bundle is None:
        bundle = Instruments(registry)
        registry._repro_instruments = bundle
    return bundle
