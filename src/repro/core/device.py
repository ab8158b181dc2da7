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
  compiled once into the engine's form over device slots
  (:mod:`repro.core.packed`) and cycles step on the engine's transition
  table over interned active sets.  Reporting stays literal;
  matching-side access counters are derived analytically, so results,
  statistics, and energy are bit-identical across fidelities.

For large parameter sweeps use :mod:`repro.core.perfmodel`, which
reproduces only the timing behaviour from a report profile.
"""

from functools import partial
from time import perf_counter

import numpy as np

from ..errors import ArchitectureError, SimulationError
from ..obs import OBS, trace_span
from ..sim.engine import DEFAULT_STEP_CACHE, _normalize_stream
from ..sim.inputs import code_vectors
from ..sim.reports import ReportRecorder
from .config import PUS_PER_CLUSTER, SunderConfig
from .interconnect import GlobalSwitch
from .mapping import place
from .packed import FIDELITIES, PackedKernel
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
        return self.program(automaton, placement)

    def program(self, automaton, placement):
        """Program ``automaton`` into fresh clusters at ``placement``.

        The one programming path: :meth:`configure` places and calls it,
        and a snapshot restore calls it with the saved placement.  Each
        state is one column write, each edge one crossbar cell.  A slot
        off the device (cluster, PU or column out of range), two states
        on one slot, or an edge whose ends sit in different clusters
        raises :class:`ArchitectureError`.  Returns the placement.
        """
        clusters = [_Cluster(self.config) for _ in range(placement.clusters_used)]
        self.clusters = clusters
        cols = self.config.subarray_cols
        for state in automaton:
            slot = placement.slot_of(state.id)
            if not (0 <= slot.cluster < len(clusters)
                    and 0 <= slot.pu < PUS_PER_CLUSTER
                    and 0 <= slot.column < cols):
                raise ArchitectureError(
                    "state %r placed at %r, off a %d-cluster device"
                    % (state.id, slot, len(clusters))
                )
            pu = clusters[slot.cluster].pus[slot.pu]
            if pu.state_of_column[slot.column] is not None:
                raise ArchitectureError(
                    "states %r and %r placed on one slot %r"
                    % (pu.state_of_column[slot.column].id, state.id, slot)
                )
            pu.configure_state(slot.column, state)
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
        codes = self._normalize((vector,))
        if self.fidelity == "packed":
            stall = self._packed_run(codes)
            # Single-step callers may read pu.enable/pu.active between
            # cycles, so packed state is materialized eagerly here; the
            # bulk run() path syncs once at the end instead.
            self._sync_kernel()
        else:
            stall = self._literal_step(self._vectors(codes)[0])
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

    def _packed_run(self, codes):
        """Step normalized ``codes`` on the packed kernel."""
        kernel = self._kernel
        if kernel is None:
            kernel = self._compile_kernel()
        stall = kernel.run(codes, self.global_cycle,
                           partial(self._fifo_drain, self._regions))
        self.global_cycle += len(codes)
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
        can rewrite matching rows behind the compiled masks; the next
        packed step recompiles from the subarrays.
        """
        self._sync_kernel()
        self._kernel = None

    def step_cache_info(self):
        """Packed-kernel transition-table statistics (all zero before
        the first packed step, and under the literal fidelity)."""
        kernel = self._kernel
        if kernel is None:
            return {"hits": 0, "misses": 0, "hit_rate": 0.0, "size": 0,
                    "limit": DEFAULT_STEP_CACHE}
        return kernel.step_cache_info()

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
        """Stream a whole input; returns a :class:`RunResult`.

        ``vectors`` may be codes (what :func:`~repro.sim.inputs.
        stream_for` returns; at rate 1 these are the flat nibbles) or
        vectors.
        """
        self._check_runnable()
        codes = self._normalize(vectors)
        if OBS.active:  # single attribute check when no collector attached
            return self._run_observed(codes, position_limit)
        total_stall = self._execute(codes)
        return RunResult(self, len(codes), total_stall, position_limit)

    def _normalize(self, stream):
        """The engine's stream normalization into codes, raising
        ArchitectureError."""
        try:
            return _normalize_stream(self.automaton, stream)
        except SimulationError as error:
            raise ArchitectureError(str(error)) from None

    def _vectors(self, codes):
        """Normalized codes decoded back into the literal loop's vectors."""
        return code_vectors(codes, self.automaton.bits, self.automaton.arity)

    def _execute(self, codes):
        """The fidelity-dispatched cycle loop over normalized codes."""
        if self.fidelity == "packed":
            total_stall = self._packed_run(codes)
            self._sync_kernel()
        else:
            total_stall = 0
            step = self._literal_step
            for vector in self._vectors(codes):
                total_stall += step(vector)
        self._flush_fifo_drained()
        return total_stall

    def _run_observed(self, codes, position_limit):
        """`run` with the telemetry hooks live (collector attached)."""
        instruments = OBS.instruments
        flushes_before = sum(pu.reporting.flushes for _, _, pu in self.iter_pus())
        with trace_span("device.run", cycles=len(codes)) as span:
            start = perf_counter()
            total_stall = self._execute(codes)
            elapsed = perf_counter() - start
            span.set_attr(stall_cycles=total_stall)
        instruments.device_cycles.inc(len(codes))
        instruments.device_stall_cycles.inc(total_stall)
        instruments.device_flushes.inc(
            sum(pu.reporting.flushes for _, _, pu in self.iter_pus())
            - flushes_before)
        instruments.device_run_seconds.observe(elapsed)
        return RunResult(self, len(codes), total_stall, position_limit)

    # ------------------------------------------------------------------
    # Batched multi-stream execution
    # ------------------------------------------------------------------
    def run_batch(self, streams, position_limit=None, recorders=None):
        """Drive N independent streams through the configured automaton.

        The aggregate-throughput fast path: every lane behaves as a
        fresh stream over the programmed machine (reset dynamic state,
        cycle 0 start semantics) and all lanes share the packed kernel's
        transition table, so identical transitions are computed once per
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
        lane_codes = [self._normalize(stream) for stream in streams]
        if recorders is None:
            recorders = [ReportRecorder(position_limit=position_limit)
                         for _ in lane_codes]
        elif len(recorders) != len(lane_codes):
            raise ArchitectureError(
                "run_batch got %d recorders for %d streams"
                % (len(recorders), len(lane_codes)))
        kernel = self._kernel
        if kernel is None:
            kernel = self._compile_kernel()
        if OBS.active:
            self._run_batch_observed(kernel, lane_codes, recorders)
        else:
            kernel.run_lanes(lane_codes, recorders)
        return recorders

    def _run_batch_observed(self, kernel, lane_codes, recorders):
        """`run_batch` with the telemetry hooks live."""
        instruments = OBS.instruments
        total_cycles = sum(len(codes) for codes in lane_codes)
        with trace_span("device.run_batch", lanes=len(lane_codes),
                        cycles=total_cycles):
            start = perf_counter()
            lane_hits, lane_misses = kernel.run_lanes(
                lane_codes, recorders)
            elapsed = perf_counter() - start
        instruments.device_cycles.inc(total_cycles)
        instruments.device_run_seconds.observe(elapsed)
        handles = instruments.engine_handles("device")
        handles.batch_lanes.observe(len(lane_codes))
        handles.batch_lane_cache_hits.inc(sum(lane_hits))
        handles.batch_lane_cache_misses.inc(sum(lane_misses))

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
        report bits back to state identities, one row per entry.  Cycle
        metadata is unwrapped modulo ``2**metadata_bits`` assuming
        in-order arrival.
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
                    plan = []
                    for state_id in pu.decode_report_columns(entry.report_vector):
                        state = self.automaton.state(state_id)
                        for offset in state.report_offsets:
                            plan.append((offset, state_id, state.report_code))
                    recorder.record_cycle(cycle, plan, arity)
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
        """Restore a snapshot taken by :meth:`save_context`.

        A context is outside input, checked before anything changes.
        Each restored ``enable`` must be the propagation of the restored
        active set, as every step leaves it: the literal fidelity steps
        from ``pu.enable`` and the packed kernel from ``pu.active``, so
        any other pair would make them disagree.  That, a PU off the
        device or a vector of the wrong width raises
        :class:`ArchitectureError`.
        """
        if self.placement is None:
            raise ArchitectureError("configure() must run before load_context()")
        self._sync_kernel()
        cols = self.config.subarray_cols
        restored = {}
        for cluster_index, pu_index, enable, active in context["enables"]:
            if not (0 <= cluster_index < len(self.clusters)
                    and 0 <= pu_index < PUS_PER_CLUSTER):
                raise ArchitectureError(
                    "context names PU %r of cluster %r, off a %d-cluster "
                    "device" % (pu_index, cluster_index, len(self.clusters))
                )
            enable = np.array(enable, dtype=bool)
            active = np.array(active, dtype=bool)
            if enable.shape != (cols,) or active.shape != (cols,):
                raise ArchitectureError(
                    "context vectors must have %d bits" % cols)
            restored[cluster_index, pu_index] = (enable, active)
        for cluster_index, cluster in enumerate(self.clusters):
            states = [restored.get((cluster_index, index), (pu.enable, pu.active))
                      for index, pu in enumerate(cluster.pus)]
            remote = _reached(cluster.global_switch.crossbar,
                              np.concatenate([active for _, active in states]))
            for index, (pu, (enable, active)) in enumerate(
                    zip(cluster.pus, states)):
                reached = (_reached(pu.crossbar, active)
                           | remote[index * cols:(index + 1) * cols])
                if not np.array_equal(enable, reached):
                    raise ArchitectureError(
                        "context enable of cluster %d PU %d is not the "
                        "propagation of its active set"
                        % (cluster_index, index)
                    )
        self.global_cycle = context["global_cycle"]
        for (cluster_index, pu_index), (enable, active) in restored.items():
            pu = self.clusters[cluster_index].pus[pu_index]
            pu.enable = enable
            pu.active = active
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


def _reached(crossbar, active):
    """Columns ``active`` drives through ``crossbar``, as ``propagate``
    computes them but without counting a Port-2 read."""
    return crossbar.subarray.cells[np.flatnonzero(active)].any(axis=0)
