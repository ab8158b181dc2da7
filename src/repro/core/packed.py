"""Packed execution kernel: the SunderDevice fast path.

The literal device model pays numpy-array work per PU per cycle (a
wired-NOR in :class:`~repro.core.match_array.MatchArray`, fancy indexing
in every crossbar ``propagate``).  This module compiles the *programmed
subarray contents* into the form :class:`~repro.sim.engine.BitsetEngine`
steps, over device slots ``(cluster * 4 + pu) * cols + column``:

- per-(position, nibble-value) **match masks** from the matching rows;
- **successor rows** (``_targets``/``_offsets``) from every local
  crossbar and global switch;
- **start masks** from the PUs' start vectors;
- **report info** from each PU's ``state_of_column``.

It then steps on the engine's own table
(:class:`~repro.sim.engine.TransitionTable`): symbol classes, interned
active sets, block-sliced propagation, one budget
(``DEFAULT_STEP_CACHE``) and one lanes loop.  Its input is the
normalized code stream (:mod:`repro.sim.inputs`), translated to class
ids once per run, so a nibble code reads its match mask only the first
time the kernel sees it.  Because the compile reads the subarrays, not
the automaton, the packed path is also a check of the layout.

The reporting region stays fully literal — report writes, drains,
flushes, and stalls are the paper's contribution and keep their
row-level behaviour.  Matching-side access counters are instead derived
analytically (they are a pure function of how many cycles ran and which
PUs were active) and flushed back into the :class:`SramSubarray`
counters on :meth:`PackedKernel.sync`, so ``statistics()``, energy, and
stall figures are identical in both fidelities.
"""

from time import perf_counter

import numpy as np

from ..errors import ArchitectureError
from ..sim.engine import TransitionTable
from .config import PUS_PER_CLUSTER

#: Accepted values for the device's ``fidelity`` knob.
FIDELITIES = ("literal", "packed")


def pack_bits(array):
    """Bool array -> int with bit ``i`` mirroring element ``i``."""
    packed = np.packbits(np.asarray(array, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def unpack_bits(value, length):
    """Inverse of :func:`pack_bits` (lowest ``length`` bits)."""
    raw = np.frombuffer(value.to_bytes((length + 7) // 8, "little"),
                        dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:length].astype(bool)


class PackedKernel(TransitionTable):
    """Compiled form of one configured :class:`SunderDevice`.

    Owns the device's active set (one mask over every slot) while it is
    live; :meth:`sync` materializes it back into the literal
    ``ProcessingUnit`` arrays and flushes the analytically-derived
    access counters.  Every path that seeds a kernel leaves each
    ``pu.enable`` equal to the propagation of ``pu.active`` (a restore
    that would not is rejected), so the active set is the whole dynamic
    state.
    """

    def __init__(self, device):
        config = device.config
        cols = config.subarray_cols
        self.cols = cols
        self.report_base = cols - config.report_bits
        self.clusters = device.clusters
        self.pus = [pu for _, _, pu in device.iter_pus()]
        self.regions = [pu.reporting for pu in self.pus]

        started = perf_counter()
        self._size = len(self.pus) * cols
        self._bits = 4
        self._arity = config.rate_nibbles
        self._start_period = device.automaton.start_period
        rows = config.matching_rows
        accepts = np.packbits(
            ~self._slots([pu.subarray.cells[:rows] for pu in self.pus],
                         (rows,)),
            axis=1, bitorder="little")
        flat = [int.from_bytes(row.tobytes(), "little") for row in accepts]
        self._match_masks = [flat[position * 16:(position + 1) * 16]
                             for position in range(self._arity)]
        self._compile_successors()
        self._all_input_mask = pack_bits(
            self._slots([pu.all_input_vector for pu in self.pus]))
        self._start_of_data_mask = pack_bits(
            self._slots([pu.start_of_data_vector for pu in self.pus]))
        report_columns = np.zeros((len(self.pus), cols), dtype=bool)
        report_columns[:, self.report_base:] = True
        self._report_mask = pack_bits(report_columns)
        self._report_arrays = {}
        self._batch_plans = {}
        # Per interned set: its report rows (one per reporting PU) and,
        # once a literal step reaches it, its step facts.
        self._set_plans = []
        self._set_steps = []
        self._init_table((self._set_plans, self._set_steps))
        self.compile_seconds = perf_counter() - started

        self._active = pack_bits(self._slots([pu.active for pu in self.pus]))
        self.dirty = False

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

    @staticmethod
    def _slots(per_pu, rows=()):
        """Per-PU column arrays side by side along the slot axis."""
        return np.concatenate([np.zeros(rows + (0,), dtype=bool)] + per_pu,
                              axis=-1)

    def _compile_successors(self):
        """Successor rows from every programmed crossbar cell."""
        sources = [np.zeros(0, dtype=np.int64)]
        targets = [np.zeros(0, dtype=np.int64)]
        switches = [(pu.crossbar, index * self.cols)
                    for index, pu in enumerate(self.pus)]
        switches += [(cluster.global_switch.crossbar,
                      index * PUS_PER_CLUSTER * self.cols)
                     for index, cluster in enumerate(self.clusters)]
        for crossbar, base in switches:
            # One flat scan split by divmod: a 2-D np.nonzero is 7-17x
            # slower on 256- and 1024-wide crossbars.
            src, dst = np.divmod(np.flatnonzero(crossbar.subarray.cells),
                                 crossbar.size)
            sources.append(src + base)
            targets.append(dst + base)
        sources = np.concatenate(sources)
        order = np.argsort(sources, kind="stable")
        self._targets = np.concatenate(targets)[order].tolist()
        self._offsets = [0] + np.cumsum(
            np.bincount(sources, minlength=self._size)).tolist()

    # ------------------------------------------------------------------
    # Per-set facts
    # ------------------------------------------------------------------
    def _describe(self, mask):
        """Report rows of a new set: one decoded plan per reporting PU."""
        cols = self.cols
        width = cols - self.report_base
        reporting = mask & self._report_mask
        rows = []
        while reporting:
            unit = ((reporting & -reporting).bit_length() - 1) // cols
            shift = unit * cols + self.report_base
            report = (reporting >> shift) & ((1 << width) - 1)
            rows.append(self._batch_report_plan(unit, report))
            reporting ^= report << shift
        return tuple(rows), None

    def _step_facts(self, mask):
        """What a literal step into ``mask`` touches, computed once per set.

        Returns ``(appends, units, clusters)``: each reporting PU with
        its report bits as a bool array (the region append), the PUs
        with an active column (their local crossbar reads), and the
        clusters holding one (their global switch reads).
        """
        cols = self.cols
        unit_mask = (1 << cols) - 1
        appends = []
        units = []
        clusters = []
        while mask:
            unit = ((mask & -mask).bit_length() - 1) // cols
            bits = (mask >> (unit * cols)) & unit_mask
            units.append(unit)
            cluster = unit // PUS_PER_CLUSTER
            if not clusters or clusters[-1] != cluster:
                clusters.append(cluster)
            report = bits >> self.report_base
            if report:
                appends.append((unit, self._report_array(report)))
            mask ^= bits << (unit * cols)
        return tuple(appends), tuple(units), tuple(clusters)

    def _report_array(self, report):
        """Memoized bool-array form of one packed report-bit pattern."""
        array = self._report_arrays.get(report)
        if array is None:
            array = unpack_bits(report, self.cols - self.report_base)
            array.setflags(write=False)
            self._report_arrays[report] = array
        return array

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

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, codes, cycle, drain):
        """Step normalized ``codes`` from ``cycle`` on the device's
        active set.

        Each cycle appends its report bits to the literal reporting
        regions, then calls ``drain()`` (the device's FIFO drain).
        Returns the stall cycles charged.
        """
        [classes] = self._class_streams([codes])
        period = self._start_period
        rows = self._rows
        steps = self._set_steps
        regions = self.regions
        pending_crossbar = self._pending_crossbar
        pending_gs = self._pending_gs
        set_id = self._intern(self._active)
        misses = stall = 0
        for class_id in classes:
            phase = 2 if cycle == 0 else (1 if cycle % period == 0 else 0)
            try:
                nxt = rows[phase][set_id][class_id]
            except IndexError:
                nxt = None
            if nxt is None:
                misses += 1
                nxt = self._miss([set_id], 0, class_id, phase)
            set_id = nxt
            facts = steps[set_id]
            if facts is None:
                facts = steps[set_id] = self._step_facts(
                    self._set_masks[set_id])
            appends, units, clusters = facts
            for unit, bits in appends:
                stall += regions[unit].append(bits, cycle)
            for unit in units:
                pending_crossbar[unit] += 1
            for cluster in clusters:
                pending_gs[cluster] += 1
            drain()
            cycle += 1
        self._active = self._set_masks[set_id]
        self._pending_cycles += len(classes)
        self._cache_hits += len(classes) - misses
        self._cache_misses += misses
        self.dirty = True
        return stall

    def run_lanes(self, lane_codes, recorders):
        """The device's lane executor: the engine's lanes loop.

        Each lane is an independent normalized code stream starting
        from the reset dynamic state at cycle 0; lanes share the table,
        so identical ``(active, class, phase)`` transitions are computed
        once per call.  Reports decode straight into the per-lane
        recorders, one row per reporting PU holding
        :meth:`_batch_report_plan`'s shared tuple — the reporting-region
        hardware model (row writes, stalls, flushes, FIFO drains) is
        bypassed, and the kernel's own active set, pending access
        counters, and regions are untouched.  Returns per-lane
        ``(hits, misses)`` lists.
        """
        return self._execute_lanes(self._class_streams(lane_codes),
                                   recorders)

    # ------------------------------------------------------------------
    # Synchronization with the literal model
    # ------------------------------------------------------------------
    def sync(self):
        """Write the active set, its enables and pending counters back."""
        if not self.dirty:
            return
        shape = (len(self.pus), self.cols)
        actives = unpack_bits(self._active, self._size).reshape(shape)
        enables = unpack_bits(self._propagate(self._active),
                              self._size).reshape(shape)
        for index, pu in enumerate(self.pus):
            pu.enable = enables[index]
            pu.active = actives[index]
        self._flush_counters()
        self.dirty = False

    def reload_dynamic(self):
        """Re-seed the active set from the literal arrays (host mutation)."""
        self._flush_counters()
        self._active = pack_bits(self._slots([pu.active for pu in self.pus]))
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
