"""Functional NFA execution engines.

Two engines with identical semantics:

- :class:`BitsetEngine` — production engine.  The active-state set is a
  Python int used as a bitmask and per-(position, symbol) match masks
  are precomputed.  Successor propagation is block-sliced: the state
  space is sliced into 8-bit *blocks*, and for each (block, byte-value)
  pair the OR of that block's successor masks is table-driven, so one
  lookup covers up to eight active states at once (the CAMA-style
  compaction argument: iterate table entries, not states).

  On top of the kernel sits a lazily built *transition table* over
  interned active sets: each distinct active mask gets a dense id the
  first time it appears, with its popcount and report plan computed
  once, and ``rows[id][start-phase]`` maps an input vector to the next
  id (DFA-style subset caching, stepped by table entries as in CAMA).
  The calibrated benchmark streams revisit the same subset-construction
  states constantly, so most cycles collapse into one dictionary hit,
  and each reporting cycle is recorded as one row.
- :class:`NaiveEngine` — direct set-of-states implementation kept as a
  differential-testing oracle.

On top of the single-stream path sit two aggregate-throughput modes:

- :meth:`BitsetEngine.run_batch` drives N independent streams through
  the compiled automaton in one pass (per-lane active sets, per-lane
  recorders, one shared transition table — identical ``(active,
  vector, phase)`` work is paid once per batch instead of once per
  stream);
- :meth:`BitsetEngine.run_sharded` splits one long stream into blocks
  whose warm-up overlap is bounded by
  :meth:`~repro.automata.automaton.Automaton.depth_bound` and stitches
  the block results bit-exact with the single-pass run (cyclic
  machines, whose history is unbounded, fall back to the serial path).

Cycle semantics (matching VASim and the paper's Figure 1):

1. ``enabled(t) = successors(active(t-1)) | all-input starts (if t is a
   start-period boundary) | start-of-data starts (if t == 0)``
2. ``active(t) = {q in enabled(t) : input(t) matches q.symbols}``
3. every active reporting state emits one report per report offset.
"""

from collections import deque
from time import perf_counter

from ..errors import SimulationError
from ..automata.gcutil import gc_paused
from ..automata.ste import StartKind
from ..obs import OBS, ProgressReporter, trace_span
from .reports import ReportRecorder

#: Vectors per hot-loop slice between progress updates in observed runs.
#: Large enough that the loop overhead of slicing is invisible (<0.1%),
#: small enough that paper-scale streams report every few seconds.
_PROGRESS_CHUNK = 65536

#: Transition budget of the step table.
DEFAULT_STEP_CACHE = 1 << 16

#: Automata at or below this many states get their (block, byte) tables
#: filled eagerly at construction; larger ones fill entries on first use
#: so construction cost and memory stay proportional to what the stream
#: actually exercises.
EAGER_SLICE_STATES = 512

#: ``run_sharded(shards="auto")`` falls back to the serial path below
#: this stream length (in vector cycles): the documented pathological
#: pool case (0.05-0.15x at scale 0.01, docs/performance.md) is exactly
#: short streams, where per-shard warm-up replay and pool shipping
#: dwarf the work being split.
AUTO_SHARD_MIN_CYCLES = 1 << 16

#: Shard count ``"auto"`` picks for in-process (no runner) sharding of
#: streams above the threshold.
AUTO_SHARD_DEFAULT = 4


class BitsetEngine:
    """Bitmask-based cycle-accurate simulator for one automaton.

    The engine is reusable: call :meth:`run` for whole streams, or
    :meth:`reset` + :meth:`step` for streaming use.

    The step table holds at most :data:`DEFAULT_STEP_CACHE` transitions
    (read at construction).  When a new transition would exceed the
    budget the whole table is cleared and rebuilt from the lanes'
    current active sets.  The table survives :meth:`reset` — entries
    are pure functions of the automaton, so reuse across runs is sound
    and is where repeated-stream workloads win the most.

    Parameters
    ----------
    history_limit:
        ``None`` (default) keeps the full per-cycle
        ``active_count_history`` list as before; ``N > 0`` keeps a ring
        buffer of the most recent ``N`` counts; ``0`` disables history
        bookkeeping entirely (recommended for unbounded streaming use).
    """

    def __init__(self, automaton, history_limit=None):
        automaton.validate()
        if history_limit is not None and history_limit < 0:
            raise SimulationError("history_limit must be None or >= 0")
        self.automaton = automaton
        self._ids = automaton.state_ids()
        self._index = {state_id: i for i, state_id in enumerate(self._ids)}
        size = len(self._ids)
        self._size = size
        self._start_period = automaton.start_period

        self._succ_mask = [0] * size
        for src, dst in automaton.transitions():
            self._succ_mask[self._index[src]] |= 1 << self._index[dst]

        self._all_input_mask = 0
        self._start_of_data_mask = 0
        self._report_mask = 0
        self._report_info = {}
        for state in automaton:
            bit = 1 << self._index[state.id]
            if state.start is StartKind.ALL_INPUT:
                self._all_input_mask |= bit
            elif state.start is StartKind.START_OF_DATA:
                self._start_of_data_mask |= bit
            if state.report:
                self._report_mask |= bit
                self._report_info[self._index[state.id]] = (
                    state.id, state.report_code, state.report_offsets,
                )

        alphabet = 1 << automaton.bits
        self._match_masks = [[0] * alphabet for _ in range(automaton.arity)]
        for state in automaton:
            bit = 1 << self._index[state.id]
            for position, sset in enumerate(state.symbols):
                column = self._match_masks[position]
                for value in sset:
                    column[value] |= bit

        self._build_block_tables()

        self._step_cache_limit = DEFAULT_STEP_CACHE
        self._cache_hits = 0
        self._cache_misses = 0
        # The transition table: interned active sets (mask <-> dense
        # id, with each set's popcount and report plan) and, per id,
        # one {vector: next id} row per start phase.
        self._set_index = {}
        self._set_masks = []
        self._set_counts = []
        self._set_plans = []
        self._rows = []
        self._transitions = 0
        self._history_limit = history_limit
        #: Per-lane active-count histories of the last :meth:`run_batch`
        #: (or in-process :meth:`run_sharded`) call; empty otherwise.
        self.lane_histories = []
        self.reset()

    def _build_block_tables(self):
        """Slice the state space into 8-bit blocks of successor ORs.

        ``_block_tables[b][v]`` is the OR of the successor masks of the
        states in block ``b`` whose bit is set in byte-value ``v``.
        Small automata are filled eagerly (with the subset-doubling
        recurrence ``table[v] = table[v without lowest bit] | succ``);
        large ones leave entries as ``None`` to be filled on first use.
        """
        succ = self._succ_mask
        n_blocks = (self._size + 7) >> 3
        self._block_clear = [~(0xFF << (b << 3)) for b in range(n_blocks)]
        tables = []
        if self._size <= EAGER_SLICE_STATES:
            for block in range(n_blocks):
                base = block << 3
                width = min(8, self._size - base)
                table = [0] * 256
                for value in range(1, 1 << width):
                    low = value & -value
                    table[value] = (table[value ^ low]
                                    | succ[base + low.bit_length() - 1])
                if width < 8:  # bits beyond the state space never occur
                    for value in range(1 << width, 256):
                        table[value] = table[value & ((1 << width) - 1)]
                tables.append(table)
        else:
            tables = [[None] * 256 for _ in range(n_blocks)]
        self._block_tables = tables

    def _fill_block_entry(self, block, value):
        """Lazily compute and store one (block, byte-value) table entry."""
        succ = self._succ_mask
        base = block << 3
        entry = 0
        bits = value
        while bits:
            low = bits & -bits
            entry |= succ[base + low.bit_length() - 1]
            bits ^= low
        self._block_tables[block][value] = entry
        return entry

    # ------------------------------------------------------------------
    def reset(self):
        """Return to the pre-input state (cycle 0 next).

        The transition table is deliberately *not* cleared: its
        entries depend only on the automaton, never on stream position.
        """
        self._active = 0
        self._cycle = 0
        self.active_count_history = self._new_history()

    def _new_history(self):
        """Fresh history container honoring ``history_limit``."""
        limit = self._history_limit
        return [] if limit is None else deque(maxlen=limit)

    @property
    def cycle(self):
        """Next cycle index to be executed."""
        return self._cycle

    def active_ids(self):
        """Ids of currently active states (after the last step)."""
        return [self._ids[i] for i in _iter_bits(self._active)]

    def step_cache_info(self):
        """Table statistics: hits/misses since construction, size, limit.

        A hit is a transition found in the table; ``size`` is the
        number of stored transitions and ``limit`` the budget.
        """
        lookups = self._cache_hits + self._cache_misses
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "hit_rate": self._cache_hits / lookups if lookups else 0.0,
            "size": self._transitions,
            "limit": self._step_cache_limit,
        }

    def _propagate(self, active):
        """Successor-union of an active mask (start states excluded)."""
        enabled = 0
        tables = self._block_tables
        clear = self._block_clear
        while active:
            low = active & -active
            block = (low.bit_length() - 1) >> 3
            value = (active >> (block << 3)) & 0xFF
            entry = tables[block][value]
            if entry is None:
                entry = self._fill_block_entry(block, value)
            enabled |= entry
            active &= clear[block]
        return enabled

    def _enabled_from(self, active, phase):
        """Enabled mask as a pure function of ``(active, phase)``.

        ``phase`` is the step-key phase: 2 = start-of-data cycle (both
        start kinds self-enable), 1 = start-period boundary (all-input
        starts only), 0 = mid-period.  Pure in its arguments so batch
        lanes and shard replays — which never own ``self._cycle`` —
        share one transition function with the streaming path.
        """
        enabled = self._propagate(active)
        if phase:
            enabled |= self._all_input_mask
            if phase == 2:
                enabled |= self._start_of_data_mask
        return enabled

    def match_mask(self, vector):
        """Bitmask of states whose symbols match ``vector``.

        Raises :class:`~repro.errors.SimulationError` for a value outside
        ``[0, 2**bits)`` or a vector longer than the arity.
        """
        masks = self._match_masks
        try:
            if min(vector) < 0:  # a negative index would wrap silently
                raise IndexError
            result = masks[0][vector[0]]
            for position in range(1, len(vector)):
                result &= masks[position][vector[position]]
        except (IndexError, ValueError):
            raise SimulationError(
                "input vector %r out of range for %d-bit arity-%d automaton"
                % (vector, self.automaton.bits, self.automaton.arity)
            ) from None
        return result

    def _report_plan(self, reporting):
        """Decode a reporting mask into ((offset, state_id, code), ...)."""
        plan = []
        for index in _iter_bits(reporting):
            state_id, code, offsets = self._report_info[index]
            for offset in offsets:
                plan.append((offset, state_id, code))
        return tuple(plan)

    # ------------------------------------------------------------------
    # Transition table over interned active sets
    # ------------------------------------------------------------------
    def _intern(self, mask):
        """Dense id of the active set ``mask``, interned on first sight.

        Interning computes the set's popcount and report plan once, so
        the run loops read both by id on every later visit.
        """
        set_id = self._set_index.get(mask)
        if set_id is None:
            set_id = len(self._set_masks)
            self._set_index[mask] = set_id
            self._set_masks.append(mask)
            self._set_counts.append(_popcount(mask))
            self._set_plans.append(self._report_plan(mask & self._report_mask))
            self._rows.append(({}, {}, {}))
        return set_id

    def _miss(self, lanes, lane, vector, phase):
        """Compute and store the transition of ``lanes[lane]`` on ``vector``.

        ``lanes`` holds the set id of every lane the caller still
        steps.  When the table already holds its budget of
        transitions, it is cleared and each lane's active set is
        re-interned in place (the RE2-style cache reset), so the
        caller's ids stay valid.  The table's lists are cleared in
        place too, so loops holding them keep working.  Returns the
        next set id.
        """
        masks = self._set_masks
        nxt = (self._enabled_from(masks[lanes[lane]], phase)
               & self.match_mask(vector))
        if self._transitions >= self._step_cache_limit:
            held = [masks[set_id] for set_id in lanes]
            self._set_index.clear()
            masks.clear()
            self._set_counts.clear()
            self._set_plans.clear()
            self._rows.clear()
            self._transitions = 0
            lanes[:] = [self._intern(mask) for mask in held]
        target = self._intern(nxt)
        self._rows[lanes[lane]][phase][vector] = target
        self._transitions += 1
        return target

    def step(self, vector, recorder=None):
        """Advance one cycle on ``vector``; returns the active bitmask."""
        self._execute(
            (vector if type(vector) is tuple else tuple(vector),), recorder)
        return self._active

    @gc_paused
    def _execute(self, vectors, recorder):
        """The serial run loop behind :meth:`run` and :meth:`step`.

        Continues from ``self._active`` at ``self._cycle``, so slicing
        a stream across calls is bit-exact with one call.  The loop
        holds the active set as an interned id: a hit is one row
        lookup, and only a miss touches masks.  The collector is
        paused — the loop allocates report events but no reference
        cycles.
        """
        period = self._start_period
        arity = self.automaton.arity
        history = (self.active_count_history
                   if self._history_limit != 0 else None)
        record = recorder.record_cycle if recorder is not None else None
        cycle = self._cycle
        rows = self._rows
        plans = self._set_plans
        counts = self._set_counts
        single_period = period == 1
        set_id = self._intern(self._active)
        hits = misses = 0
        for vector in vectors:
            phase = (2 if cycle == 0 else
                     1 if single_period or cycle % period == 0 else 0)
            nxt = rows[set_id][phase].get(vector)
            if nxt is None:
                misses += 1
                nxt = self._miss([set_id], 0, vector, phase)
            else:
                hits += 1
            set_id = nxt
            plan = plans[set_id]
            if plan and record is not None:
                record(cycle, plan, arity)
            if history is not None:
                history.append(counts[set_id])
            cycle += 1
        self._active = self._set_masks[set_id]
        self._cycle = cycle
        self._cache_hits += hits
        self._cache_misses += misses

    def run(self, stream, recorder=None, position_limit=None):
        """Execute a whole stream; returns the :class:`ReportRecorder` used.

        ``stream`` may be flat ints (arity 1) or vectors.  When ``recorder``
        is None a fresh one (with ``position_limit``) is created.
        """
        if recorder is None:
            recorder = ReportRecorder(position_limit=position_limit)
        if OBS.active:  # single attribute check when no collector attached
            return self._run_observed(stream, recorder)
        self.reset()
        self._execute(_normalize_stream(self.automaton, stream), recorder)
        return recorder

    def _run_observed(self, stream, recorder):
        """`run` with the telemetry hooks live (collector attached).

        Label children are pre-resolved once per process via
        ``engine_handles`` (the run-setup hoist): run hot paths never
        pay per-run ``labels(...)`` dictionary work again.
        """
        handles = OBS.instruments.engine_handles("bitset")
        reports_before = recorder.total_reports
        hits_before = self._cache_hits
        misses_before = self._cache_misses
        vectors = _normalize_stream(self.automaton, stream)
        with trace_span("engine.run", engine="bitset",
                        automaton=self.automaton.name,
                        cycles=len(vectors)):
            start = perf_counter()
            self.reset()
            # _execute keeps self._active/self._cycle across calls, so
            # slicing the stream is bit-exact with one big call; the
            # chunk boundary is where paper-scale runs report progress.
            total = len(vectors)
            if total > _PROGRESS_CHUNK:
                progress = ProgressReporter(
                    "simulate", total, detail=self.automaton.name)
                for begin in range(0, total, _PROGRESS_CHUNK):
                    self._execute(
                        vectors[begin:begin + _PROGRESS_CHUNK], recorder)
                    progress.update(begin + _PROGRESS_CHUNK)
                progress.finish()
            else:
                self._execute(vectors, recorder)
            elapsed = perf_counter() - start
        handles.runs.inc()
        handles.cycles.inc(len(vectors))
        handles.reports.inc(recorder.total_reports - reports_before)
        handles.run_seconds.observe(elapsed)
        handles.cache_hits.inc(self._cache_hits - hits_before)
        handles.cache_misses.inc(self._cache_misses - misses_before)
        observe_active = handles.active_states.observe
        for count in self.active_count_history:
            observe_active(count)
        return recorder

    # ------------------------------------------------------------------
    # Batched multi-stream execution
    # ------------------------------------------------------------------
    def run_batch(self, streams, recorders=None, position_limit=None):
        """Drive N independent streams through the automaton in one pass.

        Each lane behaves exactly as a fresh :meth:`run` over its stream
        (the differential suite pins bit-exactness); lanes may have
        different lengths — exhausted lanes freeze while the rest
        continue.  The transition table is shared across lanes, so
        identical ``(active, vector, phase)`` work is paid once per
        batch instead of once per stream.  Returns the list of per-lane
        recorders; per-lane active-count histories land in
        ``self.lane_histories`` and the engine's own streaming state is
        reset afterwards.
        """
        lane_vectors = [_normalize_stream(self.automaton, stream)
                        for stream in streams]
        if recorders is None:
            recorders = [ReportRecorder(position_limit=position_limit)
                         for _ in lane_vectors]
        elif len(recorders) != len(lane_vectors):
            raise SimulationError(
                "run_batch got %d recorders for %d streams"
                % (len(recorders), len(lane_vectors)))
        histories = (None if self._history_limit == 0
                     else [self._new_history() for _ in lane_vectors])
        if OBS.active:
            self._run_batch_observed(lane_vectors, recorders, histories)
        else:
            self._execute_lanes(lane_vectors, recorders, histories=histories)
        self.lane_histories = histories if histories is not None else []
        self.reset()
        return recorders

    def _run_batch_observed(self, lane_vectors, recorders, histories):
        """`run_batch` with the telemetry hooks live."""
        handles = OBS.instruments.engine_handles("bitset")
        reports_before = sum(r.total_reports for r in recorders)
        total_cycles = sum(len(vectors) for vectors in lane_vectors)
        with trace_span("engine.run_batch", engine="bitset",
                        automaton=self.automaton.name,
                        lanes=len(lane_vectors), cycles=total_cycles):
            start = perf_counter()
            lane_hits, lane_misses = self._execute_lanes(
                lane_vectors, recorders, histories=histories)
            elapsed = perf_counter() - start
        # Lane-for-lane parity with N serial runs: counters move by the
        # same amounts a loop of run() calls would move them.
        handles.runs.inc(len(lane_vectors))
        handles.cycles.inc(total_cycles)
        handles.reports.inc(
            sum(r.total_reports for r in recorders) - reports_before)
        handles.run_seconds.observe(elapsed)
        handles.cache_hits.inc(sum(lane_hits))
        handles.cache_misses.inc(sum(lane_misses))
        handles.batch_lanes.observe(len(lane_vectors))
        handles.batch_lane_cache_hits.inc(sum(lane_hits))
        handles.batch_lane_cache_misses.inc(sum(lane_misses))
        if histories is not None:
            observe_active = handles.active_states.observe
            for history in histories:
                for count in history:
                    observe_active(count)

    @gc_paused
    def _execute_lanes(self, lane_vectors, recorders, start_cycles=None,
                       record_from=None, histories=None):
        """The batched hot loop: N lanes, one shared transition table.

        Each lane keeps its own active set as an interned id; lanes
        share the table but no other work (each consumes its own input
        vector).

        ``start_cycles`` gives each lane's absolute first cycle (shard
        replays start mid-stream; phases derive from absolute cycles so
        start-period boundaries line up with the serial run) and
        ``record_from`` suppresses reports/history before a lane's true
        block start (warm-up cycles exist only to rebuild the active
        mask).  Returns per-lane ``(hits, misses)`` lists.
        """
        count = len(lane_vectors)
        if start_cycles is None:
            start_cycles = (0,) * count
        if record_from is None:
            record_from = start_cycles
        period = self._start_period
        arity = self.automaton.arity
        rows = self._rows
        plans = self._set_plans
        counts = self._set_counts
        miss = self._miss
        actives = [self._intern(0)] * count
        lane_hits = [0] * count
        lane_misses = [0] * count
        lane_lengths = [len(vectors) for vectors in lane_vectors]
        for index in range(max(lane_lengths, default=0)):
            for lane in range(count):
                if index >= lane_lengths[lane]:
                    continue
                vector = lane_vectors[lane][index]
                cycle = start_cycles[lane] + index
                phase = (2 if cycle == 0 else
                         1 if cycle % period == 0 else 0)
                nxt = rows[actives[lane]][phase].get(vector)
                if nxt is None:
                    lane_misses[lane] += 1
                    nxt = miss(actives, lane, vector, phase)
                else:
                    lane_hits[lane] += 1
                actives[lane] = nxt
                if cycle >= record_from[lane]:
                    plan = plans[nxt]
                    if plan:
                        recorder = recorders[lane]
                        if recorder is not None:
                            recorder.record_cycle(cycle, plan, arity)
                    if histories is not None:
                        histories[lane].append(counts[nxt])
        self._cache_hits += sum(lane_hits)
        self._cache_misses += sum(lane_misses)
        return lane_hits, lane_misses

    # ------------------------------------------------------------------
    # Sharded single-stream execution
    # ------------------------------------------------------------------
    def run_sharded(self, stream, shards, recorder=None, position_limit=None,
                    runner=None, interleave=True):
        """Split one stream into ``shards`` blocks and stitch the results.

        Every block after the first replays an *overlap prefix* of
        ``depth_bound()`` vectors from an empty active mask before its
        own range: a state at edge-distance ``d`` from a start only
        remembers ``d`` cycles of history, so the replayed active mask
        is exact by the block's first true cycle, and reports inside the
        overlap window are suppressed (they belong to the previous
        block).  The stitched recorder and active-count history are
        bit-exact with :meth:`run` — cyclic machines (``depth_bound()``
        is None) and degenerate splits fall back to it outright.

        ``runner`` fans blocks across a
        :class:`~repro.sim.parallel.ParallelRunner` pool (workers
        rebuild the engine from the pickled automaton); without one the
        blocks run in-process — ``interleave=True`` drives them as lanes
        of one batched pass sharing this engine's transition table,
        ``interleave=False`` replays them sequentially.

        ``shards="auto"`` sizes the split itself: the pool's worker
        count (or :data:`AUTO_SHARD_DEFAULT` in-process), falling back
        to the serial path outright below
        :data:`AUTO_SHARD_MIN_CYCLES` vectors — the regime where
        sharding is a documented pessimization.  The threshold is
        recorded on the ``engine.run_sharded`` span either way.
        """
        vectors = _normalize_stream(self.automaton, stream)
        if recorder is None:
            recorder = ReportRecorder(position_limit=position_limit)
        auto = shards == "auto"
        if auto:
            shards = self._auto_shards(len(vectors), runner)
        shards = max(1, min(int(shards), len(vectors)))
        depth = self.automaton.depth_bound()
        if shards <= 1 or depth is None:
            if auto:
                with trace_span("engine.run_sharded", engine="bitset",
                                automaton=self.automaton.name, shards=1,
                                depth_bound=depth, cycles=len(vectors),
                                auto_threshold=AUTO_SHARD_MIN_CYCLES,
                                fallback="serial"):
                    return self.run(vectors, recorder)
            return self.run(vectors, recorder)
        spans = _shard_spans(len(vectors), shards)
        blocks = [(vectors[max(0, start - depth):end],
                   max(0, start - depth), start)
                  for start, end in spans]
        if OBS.active:
            arity = self.automaton.arity
            overlap = OBS.instruments.shard_overlap_bytes
            for _, warm_start, start in blocks[1:]:
                overlap.observe((start - warm_start) * arity)
        with trace_span("engine.run_sharded", engine="bitset",
                        automaton=self.automaton.name, shards=shards,
                        depth_bound=depth, cycles=len(vectors),
                        auto_threshold=AUTO_SHARD_MIN_CYCLES):
            parts, histories = self._run_shard_blocks(
                blocks, recorder, runner, interleave)
        for part in parts:
            recorder.absorb(part)
        self.reset()
        if histories is not None:
            stitched = self.active_count_history
            for history in histories:
                stitched.extend(history)
        return recorder

    def _run_shard_blocks(self, blocks, recorder, runner, interleave):
        """Execute shard blocks; returns (part recorders, histories)."""
        keep_history = self._history_limit != 0
        if runner is not None and runner.workers > 1:
            jobs = [(self.automaton, block_vectors, start_cycle, record_from,
                     recorder.keep_events, recorder.position_limit,
                     keep_history)
                    for block_vectors, start_cycle, record_from in blocks]
            outcomes = runner.map(_shard_job, jobs)
            parts = [ReportRecorder.from_payload(payload)
                     for payload, _ in outcomes]
            histories = ([history for _, history in outcomes]
                         if keep_history else None)
            return parts, histories
        parts = [ReportRecorder(keep_events=recorder.keep_events,
                                position_limit=recorder.position_limit)
                 for _ in blocks]
        histories = [[] for _ in blocks] if keep_history else None
        lane_vectors = [block_vectors for block_vectors, _, _ in blocks]
        start_cycles = [start_cycle for _, start_cycle, _ in blocks]
        record_from = [record for _, _, record in blocks]
        if interleave:
            self._execute_lanes(lane_vectors, parts,
                                start_cycles=start_cycles,
                                record_from=record_from,
                                histories=histories)
        else:
            for index in range(len(blocks)):
                self._execute_lanes(
                    [lane_vectors[index]], [parts[index]],
                    start_cycles=[start_cycles[index]],
                    record_from=[record_from[index]],
                    histories=[histories[index]] if histories else None)
        return parts, histories

    @staticmethod
    def _auto_shards(cycle_count, runner):
        """Shard count for ``shards="auto"`` (1 means run serial)."""
        if cycle_count < AUTO_SHARD_MIN_CYCLES:
            return 1
        if runner is not None and runner.workers > 1:
            return runner.workers
        return AUTO_SHARD_DEFAULT

    # ------------------------------------------------------------------
    # Prefilter-gated window execution
    # ------------------------------------------------------------------
    def run_windows(self, vectors, windows, recorder=None,
                    position_limit=None):
        """Execute only the given windows of one stream; returns the recorder.

        ``windows`` are ascending, disjoint ``(start, record_from,
        end)`` cycle triples from :func:`repro.prefilter.gate.
        plan_windows`: each runs as a lane from an empty active mask at
        absolute cycle ``start`` (phases align with the serial run) and
        suppresses reports before ``record_from`` — the same warm-up
        replay :meth:`run_sharded` uses, so provided ``record_from -
        start >= depth_bound()`` (or ``start == 0``) the recorded
        events are bit-exact with the corresponding slice of
        :meth:`run`.  Parts are stitched in window order, which is
        cycle order.  No active-count history is kept: a gated run
        skips most cycles, so per-cycle statistics would not be
        comparable with an ungated run's.
        """
        vectors = _normalize_stream(self.automaton, vectors)
        if recorder is None:
            recorder = ReportRecorder(position_limit=position_limit)
        if not windows:
            return recorder
        lane_vectors = [vectors[start:end] for start, _, end in windows]
        starts = [start for start, _, _ in windows]
        record_from = [record for _, record, _ in windows]
        return self.run_window_lanes(lane_vectors, starts, record_from,
                                     recorder, total_cycles=len(vectors))

    def run_window_lanes(self, lane_vectors, start_cycles, record_from,
                         recorder, total_cycles=None):
        """The lane-level form of :meth:`run_windows`.

        The gate calls this directly with window slices built by
        :func:`~repro.sim.inputs.stream_slice`, so a gated run never
        materializes the full vector stream — its Python-level work
        stays proportional to the windows, not the input length.
        """
        parts = [ReportRecorder(keep_events=recorder.keep_events,
                                position_limit=recorder.position_limit)
                 for _ in lane_vectors]
        if OBS.active:
            self._run_windows_observed(lane_vectors, parts, start_cycles,
                                       record_from, total_cycles)
        else:
            self._execute_lanes(lane_vectors, parts,
                                start_cycles=start_cycles,
                                record_from=record_from)
        for part in parts:
            recorder.absorb(part)
        self.reset()
        return recorder

    def _run_windows_observed(self, lane_vectors, parts, starts,
                              record_from, total_cycles):
        """`run_windows` with the telemetry hooks live."""
        handles = OBS.instruments.engine_handles("bitset")
        executed = sum(len(vectors) for vectors in lane_vectors)
        if total_cycles is None:
            total_cycles = executed
        with trace_span("engine.run_windows", engine="bitset",
                        automaton=self.automaton.name,
                        windows=len(lane_vectors), cycles=executed,
                        total_cycles=total_cycles):
            start = perf_counter()
            lane_hits, lane_misses = self._execute_lanes(
                lane_vectors, parts, start_cycles=starts,
                record_from=record_from)
            elapsed = perf_counter() - start
        handles.runs.inc()
        handles.cycles.inc(executed)
        handles.reports.inc(sum(part.total_reports for part in parts))
        handles.run_seconds.observe(elapsed)
        handles.cache_hits.inc(sum(lane_hits))
        handles.cache_misses.inc(sum(lane_misses))


class NaiveEngine:
    """Reference set-based simulator (slow, obviously-correct)."""

    def __init__(self, automaton):
        automaton.validate()
        self.automaton = automaton
        self.reset()

    def reset(self):
        """Return to the pre-input state (cycle 0 next)."""
        self._active = set()
        self._cycle = 0

    def active_ids(self):
        """Ids of currently active states (after the last step)."""
        return sorted(self._active)

    def step(self, vector, recorder=None):
        """Advance one cycle on ``vector``; returns the active id set."""
        automaton = self.automaton
        enabled = set()
        for state_id in self._active:
            enabled |= automaton.successors(state_id)
        for state in automaton:
            if state.start is StartKind.ALL_INPUT:
                if self._cycle % automaton.start_period == 0:
                    enabled.add(state.id)
            elif state.start is StartKind.START_OF_DATA and self._cycle == 0:
                enabled.add(state.id)
        active = {
            state_id for state_id in enabled
            if automaton.state(state_id).matches(vector)
        }
        if recorder is not None:
            base = self._cycle * automaton.arity
            for state_id in active:
                state = automaton.state(state_id)
                if state.report:
                    for offset in state.report_offsets:
                        recorder.record(
                            base + offset, self._cycle, state_id, state.report_code
                        )
        self._active = active
        self._cycle += 1
        return active

    def run(self, stream, recorder=None, position_limit=None):
        """Execute a whole stream; mirrors :meth:`BitsetEngine.run`."""
        if recorder is None:
            recorder = ReportRecorder(position_limit=position_limit)
        self.reset()
        for vector in _normalize_stream(self.automaton, stream):
            self.step(vector, recorder)
        return recorder


def _shard_spans(total, shards):
    """Near-equal ``[start, end)`` block boundaries covering ``total``."""
    return [(index * total // shards, (index + 1) * total // shards)
            for index in range(shards)]


def _shard_job(job):
    """Replay one shard block in a pool worker.

    Module-level so :class:`~repro.sim.parallel.ParallelRunner` can
    pickle it; the worker rebuilds a private engine from the shipped
    automaton (transition-table state does not cross processes).  Returns
    ``(recorder_payload, history_list)``.
    """
    (automaton, vectors, start_cycle, record_from,
     keep_events, position_limit, keep_history) = job
    engine = BitsetEngine(automaton, history_limit=0)
    part = ReportRecorder(keep_events=keep_events,
                          position_limit=position_limit)
    history = [] if keep_history else None
    engine._execute_lanes(
        [vectors], [part],
        start_cycles=[start_cycle], record_from=[record_from],
        histories=[history] if keep_history else None)
    return part.to_payload(), history


def _normalize_stream(automaton, stream):
    """Turn a flat or vector stream into tuples of the automaton's arity."""
    vectors = []
    for item in stream:
        if isinstance(item, int):
            item = (item,)
        else:
            item = tuple(item)
        if len(item) != automaton.arity:
            raise SimulationError(
                "input vector %r does not match automaton arity %d"
                % (item, automaton.arity)
            )
        vectors.append(item)
    return vectors


def _iter_bits(mask):
    """Yield the indices of set bits in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


try:
    _popcount = int.bit_count  # Python >= 3.10: C-speed population count
except AttributeError:  # pragma: no cover - exercised on older interpreters
    def _popcount(mask):
        return bin(mask).count("1")
