"""Functional NFA execution engines.

Two engines with identical semantics:

- :class:`BitsetEngine` — production engine.  The active-state set is a
  Python int used as a bitmask and per-(position, symbol) match masks
  are precomputed.  Successor propagation is block-sliced: the state
  space is sliced into 8-bit *blocks*, and for each (block, byte-value)
  pair the OR of that block's successor masks is table-driven, so one
  lookup covers up to eight active states at once (the CAMA-style
  compaction argument: iterate table entries, not states).  Successors
  are the machine's own compressed integer rows, sized by edges, and a
  block entry is ORed from them the first time the stream needs it.

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

Beside the single-stream path, :meth:`BitsetEngine.run_batch` drives N
independent streams through the compiled automaton in one pass
(per-lane active sets, per-lane recorders, one shared transition table
— identical ``(active, vector, phase)`` work is paid once per batch
instead of once per stream).

The table, its kernel and its lanes loop live in :class:`TransitionTable`,
which :class:`BitsetEngine` compiles from an automaton and the packed
device kernel (:class:`~repro.core.packed.PackedKernel`) compiles from a
programmed device, with one state slot per subarray column.

Cycle semantics (matching VASim and the paper's Figure 1):

1. ``enabled(t) = successors(active(t-1)) | all-input starts (if t is a
   start-period boundary) | start-of-data starts (if t == 0)``
2. ``active(t) = {q in enabled(t) : input(t) matches q.symbols}``
3. every active reporting state emits one report per report offset.
"""

from time import perf_counter

from ..errors import SimulationError
from ..automata.gcutil import gc_paused
from ..automata.ste import StartKind
from ..obs import OBS, ProgressReporter, trace_span
from ..obs.progress import enabled as progress_enabled
from .reports import ReportRecorder, open_rows

#: Vectors per hot-loop slice between progress updates (observed runs,
#: or ``REPRO_PROGRESS`` set).
#: Large enough that the loop overhead of slicing is invisible (<0.1%),
#: small enough that paper-scale streams report every few seconds.
_PROGRESS_CHUNK = 65536

#: Transition budget of the step table.
DEFAULT_STEP_CACHE = 1 << 16

#: The block list every block starts on; a block gets its own list when
#: its first entry is filled, so this one stays all None.
_UNFILLED_BLOCK = [None] * 256


class TransitionTable:
    """The step kernel and transition table a compiled machine runs on.

    A subclass compiles its machine into slots ``0 .. _size - 1`` and
    sets the engine form:

    - ``_targets``/``_offsets``: slot ``i``'s successors are
      ``_targets[_offsets[i]:_offsets[i + 1]]``;
    - ``_match_masks[position][value]``: the slots accepting ``value``
      at ``position``;
    - ``_all_input_mask``, ``_start_of_data_mask`` and ``_report_mask``;
    - ``_arity`` and ``_start_period``;

    then calls :meth:`_init_table`.  It also supplies :meth:`_describe`,
    the facts a newly interned active set carries, and
    :meth:`_vector_error`.  The base class owns everything from there:
    block-sliced propagation, interning, the budgeted table and its
    lanes loop, so :class:`BitsetEngine` and the packed device kernel
    step through one implementation.
    """

    def _init_table(self, set_facts):
        """Build the block tables and an empty transition table.

        ``set_facts`` holds one list per fact :meth:`_describe` returns;
        ``_set_plans``, the report rows of each set, must be among them.
        The budget is :data:`DEFAULT_STEP_CACHE`, read here.

        The state space is sliced into 8-bit blocks:
        ``_block_tables[b][v]`` is the OR of the successor masks of the
        states in block ``b`` whose bit is set in byte-value ``v``.
        Every block starts on one shared all-``None`` list and gets its
        own list when its first entry is filled, so their memory is the
        rows, one list per block the stream touches and the entries it
        needs.
        """
        self._block_tables = [_UNFILLED_BLOCK] * ((self._size + 7) >> 3)
        self._step_cache_limit = DEFAULT_STEP_CACHE
        self._cache_hits = 0
        self._cache_misses = 0
        # The transition table: interned active sets (mask <-> dense
        # id, with each set's enabled mask per start phase once needed
        # and the subclass's facts) and, per id, one {vector: next id}
        # row per start phase.
        self._set_index = {}
        self._set_masks = []
        self._set_enabled = []
        self._rows = []
        self._set_facts = set_facts
        self._set_lists = (self._set_masks, self._set_enabled,
                           self._rows) + tuple(set_facts)
        self._transitions = 0

    def _describe(self, mask):
        """Per-set facts of a newly interned ``mask``, one per list."""
        raise NotImplementedError

    def _successor_mask(self, state):
        """OR of ``1 << j`` over state index ``state``'s successor row."""
        mask = 0
        for target in self._targets[self._offsets[state]:
                                    self._offsets[state + 1]]:
            mask |= 1 << target
        return mask

    def _fill_block_entry(self, block, value):
        """Lazily compute and store one (block, byte-value) table entry."""
        base = block << 3
        entry = 0
        bits = value
        while bits:
            low = bits & -bits
            entry |= self._successor_mask(base + low.bit_length() - 1)
            bits ^= low
        table = self._block_tables[block]
        if table is _UNFILLED_BLOCK:
            table = self._block_tables[block] = [None] * 256
        table[value] = entry
        return entry

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
        while active:
            low = active & -active
            block = (low.bit_length() - 1) >> 3
            shift = block << 3
            value = (active >> shift) & 0xFF
            entry = tables[block][value]
            if entry is None:
                entry = self._fill_block_entry(block, value)
            enabled |= entry
            active ^= value << shift  # clear the block just read
        return enabled

    def _enabled_from(self, active, phase):
        """Enabled mask as a pure function of ``(active, phase)``.

        ``phase`` is the step-key phase: 2 = start-of-data cycle (both
        start kinds self-enable), 1 = start-period boundary (all-input
        starts only), 0 = mid-period.  Pure in its arguments so batch
        lanes, which never own a cycle counter, share one transition
        function with the streaming path.
        """
        enabled = self._propagate(active)
        if phase:
            enabled |= self._all_input_mask
            if phase == 2:
                enabled |= self._start_of_data_mask
        return enabled

    def match_mask(self, vector):
        """Bitmask of states whose symbols match ``vector``.

        Raises :meth:`_vector_error`'s error for a value outside the
        alphabet or a vector whose length is not the arity.
        """
        masks = self._match_masks
        try:
            # A negative index would wrap silently, a short vector would
            # leave positions unchecked.
            if min(vector) < 0 or len(vector) != len(masks):
                raise IndexError
            result = masks[0][vector[0]]
            for position in range(1, len(vector)):
                result &= masks[position][vector[position]]
        except (IndexError, ValueError):
            raise self._vector_error(vector) from None
        return result

    def _vector_error(self, vector):
        """The error :meth:`match_mask` raises for a bad ``vector``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Transition table over interned active sets
    # ------------------------------------------------------------------
    def _intern(self, mask):
        """Dense id of the active set ``mask``, interned on first sight.

        Interning computes the set's facts (:meth:`_describe`) once, so
        the run loops read them by id on every later visit.
        """
        set_id = self._set_index.get(mask)
        if set_id is None:
            set_id = len(self._set_masks)
            self._set_index[mask] = set_id
            self._set_masks.append(mask)
            self._set_enabled.append([None, None, None])
            self._rows.append(({}, {}, {}))
            for facts, fact in zip(self._set_facts, self._describe(mask)):
                facts.append(fact)
        return set_id

    def _miss(self, lanes, lane, vector, phase):
        """Compute and store the transition of ``lanes[lane]`` on ``vector``.

        ``lanes`` holds the set id of every lane the caller still
        steps.  The set's enabled mask for ``phase`` is computed on its
        first miss in that phase and kept with its other facts.  When
        the table already holds its budget of transitions, it is
        cleared and each lane's active set is re-interned in place (the
        RE2-style cache reset), so the caller's ids stay valid.  The
        table's lists are cleared in place too, so loops holding them
        keep working.  Returns the next set id.
        """
        set_id = lanes[lane]
        enabled = self._set_enabled[set_id]
        if enabled[phase] is None:
            enabled[phase] = self._enabled_from(self._set_masks[set_id],
                                                phase)
        nxt = enabled[phase] & self.match_mask(vector)
        if self._transitions >= self._step_cache_limit:
            held = [self._set_masks[held_id] for held_id in lanes]
            self._set_index.clear()
            for facts in self._set_lists:
                facts.clear()
            self._transitions = 0
            lanes[:] = [self._intern(mask) for mask in held]
        target = self._intern(nxt)
        self._rows[lanes[lane]][phase][vector] = target
        self._transitions += 1
        return target

    @gc_paused
    def _execute_lanes(self, lane_vectors, recorders, histories=None):
        """The batched hot loop: N lanes, one shared transition table.

        Every lane starts from the empty active set at cycle 0, so all
        lanes share one cycle index and one start phase per step.  Each
        lane keeps its own active set as an interned id; lanes share the
        table but no other work (each consumes its own input vector).
        A reporting set writes its report rows (``_set_plans``) into
        the lane's recorder, each row this cycle's.  ``histories``,
        when given, receives each lane's per-cycle active-state counts
        (``_set_counts``).  Returns per-lane ``(hits, misses)`` lists.
        """
        count = len(lane_vectors)
        period = self._start_period
        rows = self._rows
        plans = self._set_plans
        counts = self._set_counts if histories is not None else None
        miss = self._miss
        actives = [self._intern(0)] * count
        lane_hits = [0] * count
        lane_misses = [0] * count
        lane_lengths = [len(vectors) for vectors in lane_vectors]
        with open_rows(recorders, self._arity) as sinks:
            for cycle in range(max(lane_lengths, default=0)):
                phase = (2 if cycle == 0 else
                         1 if cycle % period == 0 else 0)
                for lane in range(count):
                    if cycle >= lane_lengths[lane]:
                        continue
                    vector = lane_vectors[lane][cycle]
                    nxt = rows[actives[lane]][phase].get(vector)
                    if nxt is None:
                        lane_misses[lane] += 1
                        nxt = miss(actives, lane, vector, phase)
                    else:
                        lane_hits[lane] += 1
                    actives[lane] = nxt
                    report_rows = plans[nxt]
                    if report_rows:
                        sink = sinks[lane]
                        if sink is not None:
                            add_cycle, add_plan = sink
                            for plan in report_rows:
                                add_cycle(cycle)
                                add_plan(plan)
                    if histories is not None:
                        histories[lane].append(counts[nxt])
        self._cache_hits += sum(lane_hits)
        self._cache_misses += sum(lane_misses)
        return lane_hits, lane_misses


class BitsetEngine(TransitionTable):
    """Bitmask-based cycle-accurate simulator for one automaton.

    The engine is reusable: call :meth:`run` for whole streams, or
    :meth:`reset` + :meth:`step` for streaming use.

    The step table holds at most :data:`DEFAULT_STEP_CACHE` transitions
    (read at construction).  When a new transition would exceed the
    budget the whole table is cleared and rebuilt from the lanes'
    current active sets.  The table survives :meth:`reset` — entries
    are pure functions of the automaton, so reuse across runs is sound
    and is where repeated-stream workloads win the most.
    """

    def __init__(self, automaton):
        automaton.validate()
        self.automaton = automaton
        # Successor rows, compressed: state i's successors are
        # _targets[_offsets[i]:_offsets[i + 1]].  A frozen machine's own
        # columns are adopted as they are; a mutable one builds them.
        self._ids, self._targets, self._offsets = \
            automaton.successor_columns()
        size = len(self._ids)
        self._size = size
        self._arity = automaton.arity
        self._start_period = automaton.start_period

        all_input = []
        start_of_data = []
        reporting = []
        self._report_info = {}
        # States grouped by (position, symbol-set mask): each group's
        # wide mask is built once, however many values its set holds.
        groups = {}
        for i, state in enumerate(automaton):
            if state.start is StartKind.ALL_INPUT:
                all_input.append(i)
            elif state.start is StartKind.START_OF_DATA:
                start_of_data.append(i)
            if state.report:
                reporting.append(i)
                self._report_info[i] = (
                    state.id, state.report_code, state.report_offsets,
                )
            for position, sset in enumerate(state.symbols):
                groups.setdefault((position, sset.mask), []).append(i)
        self._all_input_mask = _mask_of(all_input, size)
        self._start_of_data_mask = _mask_of(start_of_data, size)
        self._report_mask = _mask_of(reporting, size)

        alphabet = 1 << automaton.bits
        self._match_masks = [[0] * alphabet for _ in range(automaton.arity)]
        for (position, values), members in groups.items():
            column = self._match_masks[position]
            wide = _mask_of(members, size)
            while values:
                low = values & -values
                column[low.bit_length() - 1] |= wide
                values ^= low

        # Per interned set: its popcount and its report rows — one row,
        # the set's decoded plan, when it reports.
        self._set_counts = []
        self._set_plans = []
        self._init_table((self._set_counts, self._set_plans))
        self.reset()

    def _describe(self, mask):
        plan = self._report_plan(mask & self._report_mask)
        return _popcount(mask), (plan,) if plan else ()

    def _vector_error(self, vector):
        return SimulationError(
            "input vector %r out of range for %d-bit arity-%d automaton"
            % (vector, self.automaton.bits, self.automaton.arity))

    # ------------------------------------------------------------------
    def reset(self):
        """Return to the pre-input state (cycle 0 next).

        The transition table is deliberately *not* cleared: its
        entries depend only on the automaton, never on stream position.
        """
        self._active = 0
        self._cycle = 0
        #: Active-state count of every cycle since the last reset.
        self.active_count_history = []

    @property
    def cycle(self):
        """Next cycle index to be executed."""
        return self._cycle

    def active_ids(self):
        """Ids of currently active states (after the last step)."""
        return [self._ids[i] for i in _iter_bits(self._active)]

    def _report_plan(self, reporting):
        """Decode a reporting mask into ((offset, state_id, code), ...)."""
        plan = []
        for index in _iter_bits(reporting):
            state_id, code, offsets = self._report_info[index]
            for offset in offsets:
                plan.append((offset, state_id, code))
        return tuple(plan)

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
        lookup, and only a miss touches masks.  A reporting cycle
        appends the set's one report row — its cycle and the set's
        interned plan — onto the recorder's columns.  The collector is
        paused — the loop allocates no reference cycles.
        """
        period = self._start_period
        add_count = self.active_count_history.append
        cycle = self._cycle
        rows = self._rows
        plans = self._set_plans
        counts = self._set_counts
        single_period = period == 1
        set_id = self._intern(self._active)
        hits = misses = 0
        with open_rows((recorder,), self._arity) as (sink,):
            add_cycle, add_plan = sink if sink is not None else (None, None)
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
                report_rows = plans[set_id]
                if report_rows and add_plan is not None:
                    for plan in report_rows:
                        add_cycle(cycle)
                        add_plan(plan)
                add_count(counts[set_id])
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
        self._execute_stream(_normalize_stream(self.automaton, stream),
                             recorder)
        return recorder

    def _execute_stream(self, vectors, recorder):
        """:meth:`_execute` over a whole stream, reporting progress.

        When a collector is attached or ``REPRO_PROGRESS`` is set, a
        stream longer than one chunk runs chunk by chunk: _execute keeps
        self._active/self._cycle across calls, so slicing the stream is
        bit-exact with one big call, and the chunk boundary is where
        paper-scale runs report progress.  Otherwise it is one call.
        """
        total = len(vectors)
        if total <= _PROGRESS_CHUNK or not (OBS.active or progress_enabled()):
            self._execute(vectors, recorder)
            return
        progress = ProgressReporter("simulate", total,
                                    detail=self.automaton.name)
        for begin in range(0, total, _PROGRESS_CHUNK):
            self._execute(vectors[begin:begin + _PROGRESS_CHUNK], recorder)
            progress.update(begin + _PROGRESS_CHUNK)
        progress.finish()

    def _run_observed(self, stream, recorder):
        """`run` with the telemetry hooks live (collector attached).

        Label children are pre-resolved once per process via
        ``engine_handles`` (the run-setup hoist): run hot paths never
        pay per-run ``labels(...)`` dictionary work again.
        """
        handles = OBS.instruments.engine_handles("bitset")
        reports_before = recorder.total_reports
        vectors = _normalize_stream(self.automaton, stream)
        with trace_span("engine.run", engine="bitset",
                        automaton=self.automaton.name,
                        cycles=len(vectors)):
            start = perf_counter()
            self.reset()
            self._execute_stream(vectors, recorder)
            elapsed = perf_counter() - start
        handles.runs.inc()
        handles.cycles.inc(len(vectors))
        handles.reports.inc(recorder.total_reports - reports_before)
        handles.run_seconds.observe(elapsed)
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
        recorders; the engine's own streaming state is reset afterwards.
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
        if OBS.active:
            self._run_batch_observed(lane_vectors, recorders)
        else:
            self._execute_lanes(lane_vectors, recorders)
        self.reset()
        return recorders

    def _run_batch_observed(self, lane_vectors, recorders):
        """`run_batch` with the telemetry hooks live.

        Only here does each lane keep its active-count history: the
        ``active_states`` histogram is its one reader.
        """
        handles = OBS.instruments.engine_handles("bitset")
        reports_before = sum(r.total_reports for r in recorders)
        total_cycles = sum(len(vectors) for vectors in lane_vectors)
        histories = [[] for _ in lane_vectors]
        with trace_span("engine.run_batch", engine="bitset",
                        automaton=self.automaton.name,
                        lanes=len(lane_vectors), cycles=total_cycles):
            start = perf_counter()
            lane_hits, lane_misses = self._execute_lanes(
                lane_vectors, recorders, histories)
            elapsed = perf_counter() - start
        # Lane-for-lane parity with N serial runs: counters move by the
        # same amounts a loop of run() calls would move them.
        handles.runs.inc(len(lane_vectors))
        handles.cycles.inc(total_cycles)
        handles.reports.inc(
            sum(r.total_reports for r in recorders) - reports_before)
        handles.run_seconds.observe(elapsed)
        handles.batch_lanes.observe(len(lane_vectors))
        handles.batch_lane_cache_hits.inc(sum(lane_hits))
        handles.batch_lane_cache_misses.inc(sum(lane_misses))
        observe_active = handles.active_states.observe
        for history in histories:
            for count in history:
                observe_active(count)


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
            enabled.update(automaton.successors(state_id))
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
            plan = []
            for state_id in active:
                state = automaton.state(state_id)
                if state.report:
                    for offset in state.report_offsets:
                        plan.append((offset, state_id, state.report_code))
            recorder.record_cycle(self._cycle, plan, automaton.arity)
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


def _normalize_stream(automaton, stream):
    """Turn a flat or vector stream into tuples of the automaton's arity.

    A list that already holds only tuples of the right arity (what
    :func:`~repro.sim.inputs.stream_for` builds) is returned as it is;
    both checks run in C.
    """
    if (type(stream) is list and set(map(type, stream)) <= {tuple}
            and set(map(len, stream)) <= {automaton.arity}):
        return stream
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


def _mask_of(indices, size):
    """Bitmask with bit ``i`` set for each ``i`` in ``indices``.

    Bits go into a ``size``-bit byte buffer and become an int in one
    conversion: ORing ``1 << i`` per index would cost one wide int per
    index.
    """
    buffer = bytearray((size + 7) >> 3)
    for i in indices:
        buffer[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buffer, "little")


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
