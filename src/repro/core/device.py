"""The Sunder device: clusters of processing units executing an automaton.

This is the hardware-faithful execution path — every match goes through a
bit-level subarray model, every report is physically written into (and
later decoded back out of) the reporting rows.  It is differential-tested
against :class:`~repro.sim.engine.BitsetEngine`, which is the point: the
architecture provably computes the same language as the abstract NFA.

Two execution fidelities share this interface (the ``fidelity`` knob):

- ``"literal"`` — the original bit-level loop, kept as the differential
  oracle: numpy wired-NORs, crossbar row activations, the works.
- ``"packed"`` (the default) — the programmed subarrays are
  compiled once into integer bitmasks (:mod:`repro.core.packed`) and
  cycles execute as int arithmetic with an LRU step cache and idle-PU
  skipping.  Reporting stays literal; matching-side access counters are
  derived analytically, so results, statistics, and energy are
  bit-identical across fidelities.

For large parameter sweeps use :mod:`repro.core.perfmodel`, which
reproduces only the timing behaviour from a report profile.
"""

from time import perf_counter

from ..errors import ArchitectureError
from ..obs import OBS, trace_span
from ..sim.reports import ReportRecorder
from .config import PUS_PER_CLUSTER, SunderConfig
from .interconnect import GlobalSwitch
from .mapping import place
from .packed import DEFAULT_DEVICE_STEP_CACHE, FIDELITIES, PackedKernel
from .pu import ProcessingUnit


class HostArchive:
    """Host-side store of report entries shipped off a PU's region."""

    def __init__(self):
        self.batches = []

    def __call__(self, entries):
        self.batches.append(entries)

    def entries(self):
        """All received entries in arrival order."""
        return [entry for batch in self.batches for entry in batch]


class _Cluster:
    """Four PUs plus their global switch."""

    def __init__(self, config):
        self.pus = []
        self.archives = []
        for _ in range(PUS_PER_CLUSTER):
            archive = HostArchive()
            self.pus.append(ProcessingUnit(config, sink=archive))
            self.archives.append(archive)
        self.global_switch = GlobalSwitch(PUS_PER_CLUSTER, config.subarray_cols)


class SunderDevice:
    """A configured Sunder device ready to stream input.

    Typical use::

        device = SunderDevice(config)
        device.configure(strided_automaton)
        result = device.run(vectors, position_limit=...)
    """

    def __init__(self, config=None, max_clusters=None, fidelity="packed"):
        self.config = config if config is not None else SunderConfig()
        self.max_clusters = max_clusters
        self.clusters = []
        self.placement = None
        self.automaton = None
        self.global_cycle = 0
        #: "automata" (AM) or "normal" (NM) — paper Section 5.1: in NM the
        #: subarrays behave as ordinary cache storage and matching halts.
        self.mode = "automata"
        if fidelity not in FIDELITIES:
            raise ArchitectureError(
                "fidelity must be one of %r, got %r" % (FIDELITIES, fidelity))
        #: Execution fidelity ("literal" or "packed").
        self.fidelity = fidelity
        self._kernel = None
        self._regions = []
        # Host drain bandwidth not yet spent, in entries; only its
        # fractional part carries from one cycle to the next.
        self._drain_credit = 0.0
        # FIFO-drain accounting: the cycle loops accumulate a plain int
        # and the run boundaries flush the delta to the instrument, so
        # the per-cycle paths never touch OBS (run-setup hoist; see
        # docs/performance.md).
        self._fifo_drained_total = 0
        self._fifo_drained_reported = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(self, automaton):
        """Place and program ``automaton``; returns the placement."""
        if automaton.bits != 4:
            raise ArchitectureError(
                "Sunder matches 4-bit nibbles; transform the automaton first "
                "(repro.transform.to_rate)"
            )
        with trace_span("device.configure", automaton=automaton.name,
                        states=len(automaton)):
            placement = self._configure(automaton)
        if OBS.active:
            self._record_configure_metrics(placement)
        return placement

    def _configure(self, automaton):
        placement = place(automaton, self.config, max_clusters=self.max_clusters)
        self.clusters = [_Cluster(self.config) for _ in range(placement.clusters_used)]
        for state in automaton:
            slot = placement.slot_of(state.id)
            self.clusters[slot.cluster].pus[slot.pu].configure_state(
                slot.column, state
            )
        for src, dst in automaton.transitions():
            src_slot = placement.slot_of(src)
            dst_slot = placement.slot_of(dst)
            if src_slot.cluster != dst_slot.cluster:
                raise ArchitectureError(
                    "placement split a component across clusters"
                )
            cluster = self.clusters[src_slot.cluster]
            if src_slot.pu == dst_slot.pu:
                cluster.pus[src_slot.pu].program_edge(
                    src_slot.column, dst_slot.column
                )
            else:
                cluster.global_switch.program_edge(
                    src_slot.pu, src_slot.column, dst_slot.pu, dst_slot.column
                )
        self.placement = placement
        self.automaton = automaton
        self.global_cycle = 0
        self._kernel = None
        self._regions = [pu.reporting for _, _, pu in self.iter_pus()]
        self._drain_credit = 0.0
        return placement

    def _record_configure_metrics(self, placement):
        instruments = OBS.instruments
        instruments.device_reconfigurations.inc()
        columns_per_cluster = PUS_PER_CLUSTER * self.config.subarray_cols
        per_cluster = [0] * placement.clusters_used
        for slot in placement.slots.values():
            per_cluster[slot.cluster] += 1
        for cluster_index, states in enumerate(per_cluster):
            label = str(cluster_index)
            instruments.device_configured_states.labels(
                cluster=label).set(states)
            instruments.device_cluster_utilization.labels(
                cluster=label).set(states / columns_per_cluster)

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------
    def set_mode(self, mode):
        """Switch between Automata Mode and Normal (cache) Mode."""
        if mode not in ("automata", "normal"):
            raise ArchitectureError("mode must be 'automata' or 'normal'")
        self.mode = mode

    def step(self, vector):
        """Execute one vector cycle; returns stall cycles charged."""
        self._check_runnable()
        if isinstance(vector, int):
            vector = (vector,)
        else:
            vector = tuple(vector)
        if self.fidelity == "packed":
            stall = self._packed_step(vector)
            # Single-step callers may read pu.enable/pu.active between
            # cycles, so packed state is materialized eagerly here; the
            # bulk run() path syncs once at the end instead.
            self._sync_kernel()
        else:
            stall = self._literal_step(vector)
        self._flush_fifo_drained()
        return stall

    def _check_runnable(self):
        if self.placement is None:
            raise ArchitectureError("configure() must run before step()")
        if self.mode != "automata":
            raise ArchitectureError(
                "device is in Normal Mode; call set_mode('automata') first"
            )

    def _literal_step(self, vector):
        cycle = self.global_cycle
        start_boundary = cycle % self.automaton.start_period == 0
        stall = 0
        for cluster in self.clusters:
            actives = []
            for pu in cluster.pus:
                _, pu_stall = pu.match_cycle(vector, cycle, start_boundary)
                stall += pu_stall
            for pu in cluster.pus:
                actives.append(pu.active)
            remote = cluster.global_switch.propagate(actives)
            for index, pu in enumerate(cluster.pus):
                pu.set_enable(pu.propagate() | remote[index])
        self._fifo_drain(self._regions)
        self.global_cycle += 1
        return stall

    def _packed_step(self, vector):
        kernel = self._kernel
        if kernel is None:
            kernel = self._compile_kernel()
        cycle = self.global_cycle
        stall = kernel.step(
            vector, cycle, cycle % self.automaton.start_period == 0
        )
        self._fifo_drain(self._regions)
        self.global_cycle += 1
        return stall

    def _compile_kernel(self):
        """Compile the programmed subarrays into the packed kernel."""
        with trace_span("device.compile_kernel"):
            kernel = PackedKernel(self)
        self._kernel = kernel
        if OBS.active:
            OBS.instruments.device_kernel_compile_seconds.observe(
                kernel.compile_seconds)
        return kernel

    def _sync_kernel(self):
        kernel = self._kernel
        if kernel is not None:
            kernel.sync()

    def sync_dynamic_state(self):
        """Materialize packed state into the literal arrays and counters.

        A no-op under the literal fidelity (and when no kernel has been
        compiled yet).  Called by anything that reads ``pu.enable`` /
        ``pu.active`` or the matching-side subarray access counters
        directly — snapshots, the energy model, host-side inspection.
        """
        self._sync_kernel()

    def invalidate_kernel(self):
        """Drop the compiled kernel after out-of-band subarray writes.

        Host stores (:meth:`~repro.core.host.HostInterface.store_row`)
        can rewrite matching rows or crossbar cells behind the compiled
        masks; the next packed step recompiles from the subarrays.
        """
        self._sync_kernel()
        self._kernel = None

    def step_cache_info(self):
        """Device step-cache statistics (all zero before the first
        packed step, and under the literal fidelity)."""
        kernel = self._kernel
        if kernel is None:
            return {"hits": 0, "misses": 0, "hit_rate": 0.0, "size": 0,
                    "limit": DEFAULT_DEVICE_STEP_CACHE}
        return kernel.cache_info()

    def _fifo_drain(self, regions):
        """Share the host's drain bandwidth across non-empty regions.

        Whole entries of budget that no region drains this cycle are
        lost: the host link does not bank idle bandwidth.
        """
        if not self.config.fifo:
            return
        credit = self._drain_credit + (
            self.config.fifo_drain_rows_per_cycle * self.config.entries_per_row
        )
        budget = int(credit)
        self._drain_credit = credit - budget
        if budget <= 0:
            return
        drained_total = 0
        for region in regions:
            if budget <= 0:
                break
            if region.count > 0:
                drained = region.tick(max_entries=budget)
                budget -= drained
                drained_total += drained
        self._fifo_drained_total += drained_total

    def _flush_fifo_drained(self):
        """Ship accumulated FIFO-drain counts to the instrument."""
        if not OBS.active:
            return
        pending = self._fifo_drained_total - self._fifo_drained_reported
        if pending:
            OBS.instruments.device_fifo_drained.inc(pending)
            self._fifo_drained_reported = self._fifo_drained_total

    def run(self, vectors, position_limit=None):
        """Stream a whole input; returns a :class:`RunResult`."""
        # Normalize the stream to tuples once at ingestion; the cycle
        # loop and the step cache then reuse them without per-cycle
        # re-conversion (same micro-fix BitsetEngine.run got).
        vectors = [(vector,) if isinstance(vector, int) else tuple(vector)
                   for vector in vectors]
        if OBS.active:  # single attribute check when no collector attached
            return self._run_observed(vectors, position_limit)
        total_stall = self._execute(vectors)
        return RunResult(self, len(vectors), total_stall, position_limit)

    def _execute(self, vectors):
        """The fidelity-dispatched cycle loop over a normalized stream."""
        self._check_runnable()
        total_stall = 0
        if self.fidelity == "packed":
            kernel = self._kernel
            if kernel is None:
                kernel = self._compile_kernel()
            step = kernel.step
            drain = self._fifo_drain
            regions = self._regions
            period = self.automaton.start_period
            cycle = self.global_cycle
            for vector in vectors:
                total_stall += step(vector, cycle, cycle % period == 0)
                drain(regions)
                cycle += 1
            self.global_cycle = cycle
            self._sync_kernel()
            self._flush_fifo_drained()
            return total_stall
        step = self._literal_step
        for vector in vectors:
            total_stall += step(vector)
        self._flush_fifo_drained()
        return total_stall

    def _run_observed(self, vectors, position_limit):
        """`run` with the telemetry hooks live (collector attached)."""
        instruments = OBS.instruments
        flushes_before = sum(pu.reporting.flushes for _, _, pu in self.iter_pus())
        kernel_before = self._kernel_counters()
        with trace_span("device.run", cycles=len(vectors)) as span:
            start = perf_counter()
            total_stall = self._execute(vectors)
            elapsed = perf_counter() - start
            span.set_attr(stall_cycles=total_stall)
        instruments.device_cycles.inc(len(vectors))
        instruments.device_stall_cycles.inc(total_stall)
        instruments.device_flushes.inc(
            sum(pu.reporting.flushes for _, _, pu in self.iter_pus())
            - flushes_before)
        instruments.device_run_seconds.observe(elapsed)
        self._record_kernel_metrics(instruments, kernel_before)
        return RunResult(self, len(vectors), total_stall, position_limit)

    # ------------------------------------------------------------------
    # Batched multi-stream execution
    # ------------------------------------------------------------------
    def run_batch(self, streams, position_limit=None, recorders=None):
        """Drive N independent streams through the configured automaton.

        The aggregate-throughput fast path: every lane behaves as a
        fresh stream over the programmed machine (reset dynamic state,
        cycle 0 start semantics) and all lanes share the packed kernel's
        step cache, so identical transitions are computed once per
        batch.  Reports decode straight into per-lane recorders — the
        reporting-region hardware model (row writes, stalls, flushes,
        FIFO drains) is bypassed, and the device's own streaming state
        (``global_cycle``, enables, access counters, regions) is left
        untouched; use :meth:`run` when those figures matter.  Returns
        the list of per-lane :class:`ReportRecorder`\\ s — callers with
        per-lane position limits pass their own via ``recorders``.

        Packed fidelity only: the literal oracle has no lane-sharable
        compiled form.
        """
        self._check_runnable()
        if self.fidelity != "packed":
            raise ArchitectureError(
                "run_batch requires the packed fidelity (the literal "
                "oracle executes one stream at a time)")
        lane_vectors = [
            [(vector,) if isinstance(vector, int) else tuple(vector)
             for vector in stream]
            for stream in streams]
        if recorders is None:
            recorders = [ReportRecorder(position_limit=position_limit)
                         for _ in lane_vectors]
        elif len(recorders) != len(lane_vectors):
            raise ArchitectureError(
                "run_batch got %d recorders for %d streams"
                % (len(recorders), len(lane_vectors)))
        kernel = self._kernel
        if kernel is None:
            kernel = self._compile_kernel()
        period = self.automaton.start_period
        if OBS.active:
            self._run_batch_observed(kernel, lane_vectors, period, recorders)
        else:
            kernel.run_batch(lane_vectors, period, recorders)
        return recorders

    def _run_batch_observed(self, kernel, lane_vectors, period, recorders):
        """`run_batch` with the telemetry hooks live."""
        instruments = OBS.instruments
        before = self._kernel_counters()
        total_cycles = sum(len(vectors) for vectors in lane_vectors)
        with trace_span("device.run_batch", lanes=len(lane_vectors),
                        cycles=total_cycles):
            start = perf_counter()
            lane_hits, lane_misses = kernel.run_batch(
                lane_vectors, period, recorders)
            elapsed = perf_counter() - start
        instruments.device_cycles.inc(total_cycles)
        instruments.device_run_seconds.observe(elapsed)
        self._record_kernel_metrics(instruments, before)
        handles = instruments.engine_handles("device")
        handles.batch_lanes.observe(len(lane_vectors))
        handles.batch_lane_cache_hits.inc(sum(lane_hits))
        handles.batch_lane_cache_misses.inc(sum(lane_misses))

    # ------------------------------------------------------------------
    # Prefilter-gated execution
    # ------------------------------------------------------------------
    def run_gated(self, vectors, windows, position_limit=None):
        """Execute only the prefilter's replay windows of one stream.

        ``windows`` are the ascending ``(start, record_from, end)``
        cycle triples from :func:`repro.prefilter.gate.plan_windows`;
        ``None`` means the gate was bypassed (unfilterable or cyclic
        machine) and the full stream runs as a one-lane
        :meth:`run_batch`.  Either way the result is one stitched
        :class:`ReportRecorder` with ``run_batch``'s direct-decode
        report semantics (reporting-region hardware bypassed, device
        streaming state untouched) — events are bit-exact with the
        ungated run's reports.  Packed fidelity only.
        """
        if windows is None:
            self._check_runnable()
            if self.fidelity != "packed":
                raise ArchitectureError(
                    "run_gated requires the packed fidelity (the literal "
                    "oracle has no window-replay form)")
            return self.run_batch([vectors], position_limit=position_limit)[0]
        if not windows:
            return ReportRecorder(position_limit=position_limit)
        vectors = [(vector,) if isinstance(vector, int) else tuple(vector)
                   for vector in vectors]
        lane_vectors = [vectors[start:end] for start, _, end in windows]
        starts = [start for start, _, _ in windows]
        record_from = [record for _, record, _ in windows]
        return self.run_gated_lanes(lane_vectors, starts, record_from,
                                    position_limit=position_limit,
                                    total_cycles=len(vectors))

    def run_gated_lanes(self, lane_vectors, start_cycles, record_from,
                        position_limit=None, total_cycles=None):
        """The lane-level form of :meth:`run_gated`.

        The gate calls this directly with window slices built by
        :func:`~repro.sim.inputs.stream_slice`, so a gated device run
        never materializes the full vector stream.
        """
        self._check_runnable()
        if self.fidelity != "packed":
            raise ArchitectureError(
                "run_gated requires the packed fidelity (the literal "
                "oracle has no window-replay form)")
        recorder = ReportRecorder(position_limit=position_limit)
        if not lane_vectors:
            return recorder
        lane_vectors = [
            [(vector,) if isinstance(vector, int) else tuple(vector)
             for vector in lane]
            for lane in lane_vectors]
        parts = [ReportRecorder(position_limit=position_limit)
                 for _ in lane_vectors]
        kernel = self._kernel
        if kernel is None:
            kernel = self._compile_kernel()
        period = self.automaton.start_period
        if OBS.active:
            self._run_gated_observed(kernel, lane_vectors, period, parts,
                                     start_cycles, record_from,
                                     total_cycles)
        else:
            kernel.run_windows(lane_vectors, period, parts, start_cycles,
                               record_from)
        for part in parts:
            recorder.absorb(part)
        return recorder

    def _run_gated_observed(self, kernel, lane_vectors, period, parts,
                            starts, record_from, total_cycles):
        """`run_gated` with the telemetry hooks live."""
        instruments = OBS.instruments
        before = self._kernel_counters()
        executed = sum(len(vectors) for vectors in lane_vectors)
        with trace_span("device.run_gated", windows=len(lane_vectors),
                        cycles=executed, total_cycles=total_cycles):
            start = perf_counter()
            kernel.run_windows(lane_vectors, period, parts, starts,
                               record_from)
        instruments.device_cycles.inc(executed)
        instruments.device_run_seconds.observe(perf_counter() - start)
        self._record_kernel_metrics(instruments, before)

    def _kernel_counters(self):
        kernel = self._kernel
        if kernel is None:
            return (0, 0, 0)
        return (kernel.cache_hits, kernel.cache_misses, kernel.pus_skipped)

    def _record_kernel_metrics(self, instruments, before):
        kernel = self._kernel
        if kernel is None:
            return
        hits, misses, skipped = before
        instruments.device_kernel_step_cache_hits.inc(
            kernel.cache_hits - hits)
        instruments.device_kernel_step_cache_misses.inc(
            kernel.cache_misses - misses)
        instruments.device_kernel_pus_skipped.inc(
            kernel.pus_skipped - skipped)

    # ------------------------------------------------------------------
    # Host interface (Section 5.1.2's access mechanisms)
    # ------------------------------------------------------------------
    def iter_pus(self):
        """Yield ``(cluster_index, pu_index, pu)`` for every PU."""
        for cluster_index, cluster in enumerate(self.clusters):
            for pu_index, pu in enumerate(cluster.pus):
                yield cluster_index, pu_index, pu

    def report_events(self, position_limit=None):
        """Reconstruct every report as a recorder, from the hardware state.

        Combines entries the host already received (flushes + FIFO drains)
        with entries still resident in the reporting regions, then decodes
        report bits back to state identities.  Cycle metadata is unwrapped
        modulo ``2**metadata_bits`` assuming in-order arrival.
        """
        with trace_span("device.report_drain"):
            return self._report_events(position_limit)

    def _report_events(self, position_limit):
        recorder = ReportRecorder(position_limit=position_limit)
        modulus = 1 << self.config.metadata_bits
        arity = self.config.rate_nibbles
        for cluster_index, cluster in enumerate(self.clusters):
            for pu_index, pu in enumerate(cluster.pus):
                archive = cluster.archives[pu_index]
                entries = archive.entries() + pu.reporting.read_entries()
                last_cycle = 0
                for entry in entries:
                    cycle = _unwrap(entry.cycle, last_cycle, modulus)
                    last_cycle = cycle
                    for state_id in pu.decode_report_columns(entry.report_vector):
                        state = self.automaton.state(state_id)
                        for offset in state.report_offsets:
                            recorder.record(
                                cycle * arity + offset, cycle, state_id,
                                state.report_code,
                            )
        return recorder

    def save_context(self):
        """Snapshot the dynamic matching state (per-flow context switch).

        Network processing interleaves flows; each flow needs its own
        automata state.  The dynamic state is tiny — one enable vector and
        the cycle counter per PU — so contexts swap in O(PUs) row writes.
        Report-region contents stay put (reports already belong to the
        flow that generated them and carry cycle metadata).
        """
        self._sync_kernel()
        return {
            "global_cycle": self.global_cycle,
            "enables": [
                (cluster_index, pu_index, pu.enable.copy(), pu.active.copy())
                for cluster_index, pu_index, pu in self.iter_pus()
            ],
        }

    def load_context(self, context):
        """Restore a snapshot taken by :meth:`save_context`."""
        if self.placement is None:
            raise ArchitectureError("configure() must run before load_context()")
        self.global_cycle = context["global_cycle"]
        for cluster_index, pu_index, enable, active in context["enables"]:
            pu = self.clusters[cluster_index].pus[pu_index]
            pu.enable = enable.copy()
            pu.active = active.copy()
        if self._kernel is not None:
            self._kernel.reload_dynamic()

    def reset_matching_state(self):
        """Clear all dynamic matching state (start a fresh stream)."""
        for _, _, pu in self.iter_pus():
            pu.enable = pu.enable & False
            pu.active = pu.active & False
        self.global_cycle = 0
        if self._kernel is not None:
            self._kernel.reload_dynamic()

    def describe(self):
        """Text description of the configured layout (debug aid)."""
        if self.placement is None:
            return "SunderDevice (unconfigured)"
        lines = [
            "SunderDevice: rate=%d nibbles (%d bits/cycle), %d cluster(s)" % (
                self.config.rate_nibbles, self.config.bits_per_cycle,
                len(self.clusters),
            ),
            "subarray: rows 0-%d matching, rows %d-%d reporting "
            "(%d entries of %db+%db)" % (
                self.config.matching_rows - 1, self.config.matching_rows,
                self.config.subarray_rows - 1, self.config.report_capacity,
                self.config.report_bits, self.config.metadata_bits,
            ),
        ]
        for cluster_index, pu_index, pu in self.iter_pus():
            configured = sum(
                1 for state in pu.state_of_column if state is not None
            )
            if configured == 0:
                continue
            reporting = int(pu.report_column_mask.sum())
            lines.append(
                "  cluster %d PU %d: %d states (%d reporting), "
                "%d report entries buffered" % (
                    cluster_index, pu_index, configured, reporting,
                    pu.reporting.count,
                )
            )
        return "\n".join(lines)

    def live_report_status(self):
        """Selective reporting: which reporting states are active *now*.

        The paper's Section 5.1.2 highlight — the host can read any
        state's report status at any cycle in constant time, because the
        reporting-enabled columns of the active-state vector are directly
        addressable.  Returns ``{state_id: True}`` for currently-active
        reporting states.
        """
        self._sync_kernel()
        status = {}
        for _, _, pu in self.iter_pus():
            active_reports = pu.active & pu.report_column_mask
            for state_id in pu.decode_report_columns(
                active_reports[pu.report_column_base:]
            ):
                status[state_id] = True
        return status

    def summarize_all(self):
        """Report summarization across every PU.

        Returns ``(summary, stall_cycles)`` where ``summary`` maps state
        ids to True if that state reported since the last flush.
        """
        summary = {}
        stall = 0
        for _, _, pu in self.iter_pus():
            bits, pu_stall = pu.reporting.summarize()
            stall += pu_stall
            for state_id in pu.decode_report_columns(bits):
                summary[state_id] = True
        return summary, stall

    # ------------------------------------------------------------------
    def statistics(self):
        """Aggregate device counters."""
        self._sync_kernel()
        flushes = 0
        stall_cycles = 0
        buffered = 0
        for _, _, pu in self.iter_pus():
            flushes += pu.reporting.flushes
            stall_cycles += pu.reporting.stall_cycles
            buffered += pu.reporting.count
        return {
            "cycles": self.global_cycle,
            "flushes": flushes,
            "stall_cycles": stall_cycles,
            "buffered_entries": buffered,
            "pus": sum(1 for _ in self.iter_pus()),
        }


class RunResult:
    """Outcome of :meth:`SunderDevice.run`."""

    def __init__(self, device, cycles, stall_cycles, position_limit):
        self.device = device
        self.cycles = cycles
        self.stall_cycles = stall_cycles
        self.position_limit = position_limit

    @property
    def slowdown(self):
        """(kernel + stall cycles) / kernel cycles — Table 4's overhead."""
        if self.cycles == 0:
            return 1.0
        return (self.cycles + self.stall_cycles) / self.cycles

    def reports(self):
        """Reconstructed report recorder (see ``report_events``)."""
        return self.device.report_events(position_limit=self.position_limit)


def _unwrap(value, last, modulus):
    """Unwrap a truncated counter to the epoch nearest the previous value.

    Entries are *usually* monotone (one stream), but context switching
    interleaves flows whose flow-local cycles may step backward by small
    amounts; choosing the non-negative candidate closest to ``last``
    handles both that and genuine wraparound.
    """
    base = (last // modulus) * modulus
    candidates = [base - modulus + value, base + value, base + modulus + value]
    feasible = [c for c in candidates if c >= 0]
    return min(feasible, key=lambda c: abs(c - last))
