"""Packed execution kernel: the bitmask-compiled SunderDevice fast path.

The literal device model pays numpy-array work per PU per cycle (a
wired-NOR in :class:`~repro.core.match_array.MatchArray`, fancy indexing
in every crossbar ``propagate``).  This module compiles the *programmed
subarray contents* into plain Python integers once, at first use, and
then executes cycles as integer arithmetic:

- per-(position, nibble-value) **match masks** — bit ``c`` set iff the
  state in column ``c`` accepts that value at that position, so a cycle's
  match vector is one table lookup + AND per position;
- per-column **local-crossbar successor masks** — propagation OR-folds
  the masks of the set bits of the active vector;
- **global-switch successor masks** for programmed slots only (a sparse
  dict keyed by ``pu * cols + column``);
- start/report column masks, so enables and report bits are single ORs
  and shifts.

The reporting region stays fully literal — report writes, drains,
flushes, and stalls are the paper's contribution and keep their
row-level behaviour.  Matching-side access counters are instead derived
analytically (they are a pure function of how many cycles ran and which
PUs were active) and flushed back into the :class:`SramSubarray`
counters on :meth:`PackedKernel.sync`, so ``statistics()``, energy, and
stall figures are identical in both fidelities.

A device-level LRU step cache keyed ``(enables, vector, phase)`` mirrors
:class:`~repro.sim.engine.BitsetEngine`'s step memoization; idle PUs
(zero enable bits and no start boundary) are skipped entirely.
"""

from time import perf_counter

import numpy as np

from ..errors import ArchitectureError
from .config import PUS_PER_CLUSTER

#: Accepted values for the device's ``fidelity`` knob.
FIDELITIES = ("literal", "packed")
#: LRU capacity of the device step cache (mirrors the engine's), read
#: when a kernel is compiled.
DEFAULT_DEVICE_STEP_CACHE = 1 << 16


def pack_bits(array):
    """Bool array -> int with bit ``i`` mirroring element ``i``."""
    packed = np.packbits(np.asarray(array, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def unpack_bits(value, length):
    """Inverse of :func:`pack_bits` (lowest ``length`` bits)."""
    raw = np.frombuffer(value.to_bytes((length + 7) // 8, "little"),
                        dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:length].astype(bool)


class PackedKernel:
    """Compiled form of one configured :class:`SunderDevice`.

    Owns the packed dynamic state (per-PU enable/active integers) while
    it is live; :meth:`sync` materializes it back into the literal
    ``ProcessingUnit`` arrays and flushes the analytically-derived
    access counters.
    """

    def __init__(self, device):
        config = device.config
        self.config = config
        self.arity = config.rate_nibbles
        cols = config.subarray_cols
        self.cols = cols
        self.report_base = cols - config.report_bits
        self.pu_mask = (1 << cols) - 1
        self.clusters = device.clusters
        self.pus = [pu for _, _, pu in device.iter_pus()]
        self.regions = [pu.reporting for pu in self.pus]

        started = perf_counter()
        self.match_tables = []
        self.local_succ = []
        self.all_input = []
        self.start_all = []  # cycle-0 mask: start-of-data | all-input
        for pu in self.pus:
            self.match_tables.append(pu.match_array.packed_match_tables())
            self.local_succ.append(pu.crossbar.packed_successors())
            all_input = pack_bits(pu.all_input_vector)
            self.all_input.append(all_input)
            self.start_all.append(
                all_input | pack_bits(pu.start_of_data_vector)
            )
        self.gs_succ = [cluster.global_switch.packed_successors()
                        for cluster in self.clusters]
        self.compile_seconds = perf_counter() - started

        # Packed dynamic state, seeded from the literal arrays.
        self.enables = tuple(pack_bits(pu.enable) for pu in self.pus)
        self.actives = tuple(pack_bits(pu.active) for pu in self.pus)
        self.dirty = False

        self._cache = {}
        self._cache_limit = DEFAULT_DEVICE_STEP_CACHE
        # Lazy LRU: skip the move-to-end churn until the cache is at
        # least half full (same policy as the engine's step cache).
        self._touch_floor = self._cache_limit >> 1
        self.cache_hits = 0
        self.cache_misses = 0
        self.pus_skipped = 0

        # Analytic access counters, flushed on sync():
        # - matching Port-2 reads accrue once per PU per cycle (the
        #   literal loop matches every PU unconditionally),
        # - a local crossbar counts one Port-2 read per cycle its PU's
        #   active vector is non-zero (propagate early-outs otherwise),
        # - a global switch counts one per cycle any PU in its cluster
        #   is active.
        self._pending_cycles = 0
        self._pending_crossbar = [0] * len(self.pus)
        self._pending_gs = [0] * len(self.clusters)
        self._report_arrays = {}
        self._batch_plans = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, vector, cycle, start_boundary):
        """One packed cycle; returns the stall cycles charged.

        The caller (the device) owns the cycle counter and the FIFO
        drain; this method owns matching, propagation, and the literal
        report append.
        """
        phase = 2 if cycle == 0 else (1 if start_boundary else 0)
        cache = self._cache
        key = (self.enables, vector, phase)
        value = cache.get(key)
        if value is None:
            self.cache_misses += 1
            value = self._compute(key)
            cache[key] = value
            if len(cache) > self._cache_limit:
                del cache[next(iter(cache))]
        else:
            self.cache_hits += 1
            if len(cache) > self._touch_floor:
                del cache[key]
                cache[key] = value
        next_enables, actives, plan, crossbar_pus, gs_clusters, skipped = value
        stall = 0
        regions = self.regions
        for index, _, bits in plan:
            stall += regions[index].append(bits, cycle)
        self.enables = next_enables
        self.actives = actives
        self.dirty = True
        self._pending_cycles += 1
        pending_crossbar = self._pending_crossbar
        for index in crossbar_pus:
            pending_crossbar[index] += 1
        pending_gs = self._pending_gs
        for index in gs_clusters:
            pending_gs[index] += 1
        self.pus_skipped += skipped
        return stall

    def _compute(self, key):
        """The uncached transition for one ``(enables, vector, phase)``."""
        enables, vector, phase = key
        if len(vector) != self.arity:
            raise ArchitectureError(
                "input vector arity %d does not match rate %d"
                % (len(vector), self.arity)
            )
        for value in vector:
            if not 0 <= value < 16:
                raise ArchitectureError(
                    "nibble value %r out of range" % (value,)
                )
        cols = self.cols
        arity = self.arity
        report_base = self.report_base
        pu_mask = self.pu_mask
        next_enables = []
        actives = []
        plan = []
        crossbar_pus = []
        gs_clusters = []
        skipped = 0
        for cluster_index in range(len(self.clusters)):
            base = cluster_index * PUS_PER_CLUSTER
            gdict = self.gs_succ[cluster_index]
            remote = 0
            local_out = [0] * PUS_PER_CLUSTER
            cluster_active = False
            for pu_index in range(PUS_PER_CLUSTER):
                index = base + pu_index
                enabled = enables[index]
                if phase == 2:
                    enabled |= self.start_all[index]
                elif phase == 1:
                    enabled |= self.all_input[index]
                if not enabled:
                    skipped += 1
                    actives.append(0)
                    continue
                tables = self.match_tables[index]
                match = tables[0][vector[0]]
                for position in range(1, arity):
                    match &= tables[position][vector[position]]
                active = enabled & match
                actives.append(active)
                if not active:
                    continue
                crossbar_pus.append(index)
                cluster_active = True
                report = active >> report_base
                if report:
                    # Plan entries carry both forms of the report bits:
                    # the bool array feeds the literal region append on
                    # the step() path, the packed int keys the decoded
                    # per-lane plan on the run_batch path.
                    plan.append((index, report, self._report_array(report)))
                succ = self.local_succ[index]
                slot_base = pu_index * cols
                out = 0
                bits = active
                while bits:
                    low = bits & -bits
                    column = low.bit_length() - 1
                    out |= succ[column]
                    hop = gdict.get(slot_base + column)
                    if hop is not None:
                        remote |= hop
                    bits ^= low
                local_out[pu_index] = out
            if cluster_active:
                gs_clusters.append(cluster_index)
            for pu_index in range(PUS_PER_CLUSTER):
                next_enables.append(
                    local_out[pu_index]
                    | ((remote >> (pu_index * cols)) & pu_mask)
                )
        return (tuple(next_enables), tuple(actives), tuple(plan),
                tuple(crossbar_pus), tuple(gs_clusters), skipped)

    def _report_array(self, report):
        """Memoized bool-array form of one packed report-bit pattern."""
        array = self._report_arrays.get(report)
        if array is None:
            array = unpack_bits(report, self.config.report_bits)
            array.setflags(write=False)
            self._report_arrays[report] = array
        return array

    # ------------------------------------------------------------------
    # Batched multi-stream execution
    # ------------------------------------------------------------------
    def _batch_report_plan(self, index, report):
        """Memoized decode of one PU's packed report pattern.

        Maps the report bits straight to ``(offset, state_id, code)``
        triples — the same decode :meth:`ProcessingUnit.
        decode_report_columns` performs entry-by-entry on the literal
        path, hoisted to once per distinct pattern so batched lanes
        skip the reporting region and its numpy row writes entirely.
        """
        key = (index, report)
        plan = self._batch_plans.get(key)
        if plan is None:
            pu = self.pus[index]
            base = self.report_base
            entries = []
            bits = report
            while bits:
                low = bits & -bits
                state = pu.state_of_column[base + low.bit_length() - 1]
                if state is None:
                    raise ArchitectureError(
                        "report bit set for an unconfigured column")
                for offset in state.report_offsets:
                    entries.append((offset, state.id, state.report_code))
                bits ^= low
            plan = tuple(entries)
            self._batch_plans[key] = plan
        return plan

    def run_lanes(self, lane_vectors, period, recorders, start_cycles=None,
                  record_from=None):
        """The shared lane executor: N lanes, one step cache.

        Each lane is an independent normalized stream (or a replay
        window of one stream) starting from the reset dynamic state
        (zero enables).  ``start_cycles`` gives each lane's absolute
        first cycle (window replays start mid-stream; phases derive
        from absolute cycles so ``ALL_INPUT`` start-period boundaries
        line up with the serial run) and ``record_from`` suppresses
        reports before a lane's true block start — warm-up cycles exist
        only to rebuild the enable state (the shard-replay warm-up
        argument).  Omitting both runs every lane as a fresh stream
        from cycle 0 with nothing suppressed.

        Lanes share the step cache, so identical ``(enables, vector,
        phase)`` transitions are computed once per call.  Reports
        decode straight into the per-lane recorders via
        :meth:`_batch_report_plan` — the reporting-region hardware
        model (row writes, stalls, flushes, FIFO drains) is bypassed,
        and the kernel's own dynamic state, pending access counters,
        and regions are untouched.  Returns per-lane ``(hits, misses)``
        lists.
        """
        cache = self._cache
        cache_limit = self._cache_limit
        touch_floor = self._touch_floor
        compute = self._compute
        batch_plan = self._batch_report_plan
        arity = self.arity
        lanes = len(lane_vectors)
        if start_cycles is None:
            start_cycles = (0,) * lanes
        if record_from is None:
            record_from = start_cycles
        reset_enables = (0,) * len(self.pus)
        enables = [reset_enables] * lanes
        lane_hits = [0] * lanes
        lane_misses = [0] * lanes
        lane_lengths = [len(vectors) for vectors in lane_vectors]
        skipped = 0
        for index in range(max(lane_lengths, default=0)):
            for lane in range(lanes):
                if index >= lane_lengths[lane]:
                    continue
                cycle = start_cycles[lane] + index
                phase = 2 if cycle == 0 else (
                    1 if cycle % period == 0 else 0)
                key = (enables[lane], lane_vectors[lane][index], phase)
                value = cache.get(key)
                if value is None:
                    lane_misses[lane] += 1
                    value = compute(key)
                    cache[key] = value
                    if len(cache) > cache_limit:
                        del cache[next(iter(cache))]
                else:
                    lane_hits[lane] += 1
                    if len(cache) > touch_floor:
                        del cache[key]
                        cache[key] = value
                enables[lane] = value[0]
                if cycle >= record_from[lane]:
                    plan = value[2]
                    if plan:
                        record = recorders[lane].record
                        base = cycle * arity
                        for pu_index, report, _ in plan:
                            for offset, state_id, code in batch_plan(
                                    pu_index, report):
                                record(base + offset, cycle, state_id, code)
                skipped += value[5]
        self.pus_skipped += skipped
        self.cache_hits += sum(lane_hits)
        self.cache_misses += sum(lane_misses)
        return lane_hits, lane_misses

    def run_batch(self, lane_vectors, period, recorders):
        """Drive N independent normalized streams through the kernel.

        Thin delegate over :meth:`run_lanes` with every lane a fresh
        stream from cycle 0 and nothing suppressed.
        """
        return self.run_lanes(lane_vectors, period, recorders)

    # ------------------------------------------------------------------
    # Prefilter-gated window execution
    # ------------------------------------------------------------------
    def run_windows(self, lane_vectors, period, recorders, start_cycles,
                    record_from):
        """Replay windows of one stream at absolute cycle offsets.

        Thin delegate over :meth:`run_lanes`; see there for the
        warm-up-replay and suppression semantics.
        """
        return self.run_lanes(lane_vectors, period, recorders,
                              start_cycles=start_cycles,
                              record_from=record_from)

    # ------------------------------------------------------------------
    # Synchronization with the literal model
    # ------------------------------------------------------------------
    def sync(self):
        """Write packed dynamic state + pending counters back out."""
        if not self.dirty:
            return
        cols = self.cols
        for index, pu in enumerate(self.pus):
            pu.enable = unpack_bits(self.enables[index], cols)
            pu.active = unpack_bits(self.actives[index], cols)
        self._flush_counters()
        self.dirty = False

    def reload_dynamic(self):
        """Re-seed packed state from the literal arrays (host mutation)."""
        self._flush_counters()
        self.enables = tuple(pack_bits(pu.enable) for pu in self.pus)
        self.actives = tuple(pack_bits(pu.active) for pu in self.pus)
        self.dirty = False

    def _flush_counters(self):
        cycles = self._pending_cycles
        if cycles:
            for pu in self.pus:
                pu.subarray.port2_reads += cycles
            self._pending_cycles = 0
        pending_crossbar = self._pending_crossbar
        for index, count in enumerate(pending_crossbar):
            if count:
                self.pus[index].crossbar.subarray.port2_reads += count
                pending_crossbar[index] = 0
        pending_gs = self._pending_gs
        for index, count in enumerate(pending_gs):
            if count:
                self.clusters[index].global_switch.crossbar.subarray \
                    .port2_reads += count
                pending_gs[index] = 0

    # ------------------------------------------------------------------
    def cache_info(self):
        """Step-cache statistics (same shape as the engine's)."""
        total = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": self.cache_hits / total if total else 0.0,
            "size": len(self._cache),
            "limit": self._cache_limit,
        }
