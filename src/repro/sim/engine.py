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
  interned active sets and *symbol classes*.  A machine sees an input
  only through its match mask, so every input code (see
  :mod:`repro.sim.inputs`) is interned, the first time a stream holds
  it, into the class of codes with the same match mask, a small dense
  id (RE2's byte classes, for an NFA's subset states).  Each distinct
  active mask likewise gets a dense id the first time it appears, with
  its report plan computed once, and ``_rows[phase][set][class]`` holds
  the next set id (DFA-style subset caching, stepped by table entries
  as in CAMA).  A run translates its code stream to class ids in one
  C-level pass; the calibrated benchmark streams revisit the same
  subset-construction states constantly, so most cycles collapse into
  two list subscripts, and each reporting cycle is recorded as one row.
  The engine counts the cycles spent in each interned set, which is
  all its active-state statistics (:meth:`BitsetEngine.active_count_tally`)
  need.
- :class:`NaiveEngine` — direct set-of-states implementation kept as a
  differential-testing oracle; it decodes codes back into vectors.

Beside the single-stream path, :meth:`BitsetEngine.run_batch` drives N
independent streams through the compiled automaton in one pass
(per-lane active sets, per-lane recorders, one shared transition table
— identical ``(active, class, phase)`` work is paid once per batch
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

from array import array
from itertools import repeat
from operator import lshift, or_
from time import perf_counter

from ..errors import SimulationError
from ..automata.gcutil import gc_paused
from ..automata.ste import StartKind
from ..obs import OBS, ProgressReporter, trace_span
from ..obs.progress import enabled as progress_enabled
from .inputs import code_array, code_vectors
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
      ``_targets[_offsets[i]:_offsets[i + 1]]`` (or it overrides
      :meth:`_successor_mask`, as the packed device kernel does);
    - ``_match_masks[position][value]``: the slots accepting ``value``
      at ``position``;
    - ``_all_input_mask``, ``_start_of_data_mask`` and ``_report_mask``;
    - ``_bits`` (the width of one value), ``_arity`` and
      ``_start_period``;

    then calls :meth:`_init_table`.  It also supplies :meth:`_describe`,
    the facts a newly interned active set carries.  The base class owns
    everything from there: symbol classes, block-sliced propagation,
    interning, the budgeted table and its lanes loop, so
    :class:`BitsetEngine` and the packed device kernel step through one
    implementation.  Its run loops take class-id streams from
    :meth:`_class_streams`, which takes normalized code streams
    (:func:`_normalize_stream`).
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
        # Symbol classes: each code seen maps to a dense class id, one
        # per distinct match mask.  Classes depend only on the machine,
        # so they survive the budget reset; there are at most as many
        # as the distinct codes the streams held.  With at most 256
        # codes, _class_bytes is the same map as a translate table.
        self._class_of = {}
        self._class_ids = {}
        self._class_masks = []
        width = self._bits * self._arity
        self._class_bytes = bytearray(256) if width <= 8 else None
        # The transition table: interned active sets (mask <-> dense
        # id, with each set's enabled mask per start phase once needed,
        # the cycles spent in it and the subclass's facts) and, per
        # start phase and id, a list of next ids indexed by class id
        # (None: not computed yet), grown when a miss needs it.
        self._set_index = {}
        self._set_masks = []
        self._set_enabled = []
        self._set_visits = []
        self._rows = ([], [], [])
        self._active_tally = {}
        self._set_facts = set_facts
        self._set_lists = (self._set_masks, self._set_enabled,
                           self._set_visits) + self._rows + tuple(set_facts)
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

    # ------------------------------------------------------------------
    # Symbol classes
    # ------------------------------------------------------------------
    def _class_code(self, code):
        """Intern ``code`` into the class of its match mask."""
        bits = self._bits
        value_mask = (1 << bits) - 1
        shift = bits * self._arity
        mask = -1
        for column in self._match_masks:
            shift -= bits
            mask &= column[(code >> shift) & value_mask]
        class_id = self._class_ids.get(mask)
        if class_id is None:
            class_id = self._class_ids[mask] = len(self._class_masks)
            self._class_masks.append(mask)
        self._class_of[code] = class_id
        if self._class_bytes is not None:
            self._class_bytes[code] = class_id

    def _class_streams(self, code_streams):
        """Translate normalized code streams into class-id streams.

        Each stream is translated in one C-level pass:
        ``bytes.translate`` when the alphabet has at most 256 codes, a
        ``map`` over the code-to-class dict otherwise, into ``bytes``
        while there are at most 256 classes.  The codes no earlier
        stream held are classed first, in ascending order (a ``map``
        meets the first of them as a ``KeyError``).
        """
        class_of = self._class_of
        if self._class_bytes is not None:
            classed = bytes(class_of)
            new = set()
            for codes in code_streams:
                new.update(codes.translate(None, classed))
            for code in sorted(new):
                self._class_code(code)
            table = bytes(self._class_bytes)
            return [codes.translate(table) for codes in code_streams]
        lookup = class_of.__getitem__
        streams = []
        for codes in code_streams:
            while True:
                try:
                    streams.append(bytes(map(lookup, codes))
                                   if len(self._class_masks) <= 256
                                   else list(map(lookup, codes)))
                    break
                except KeyError:  # the stream holds codes not seen yet
                    for code in sorted(set(codes).difference(class_of)):
                        self._class_code(code)
        return streams

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
            self._set_visits.append(0)
            for rows in self._rows:
                rows.append([])
            for facts, fact in zip(self._set_facts, self._describe(mask)):
                facts.append(fact)
        return set_id

    def _fold_visits(self):
        """Add the per-set visit counts into ``_active_tally`` and zero
        them, so the counts outlive the sets' ids."""
        tally = self._active_tally
        masks = self._set_masks
        visits = self._set_visits
        for set_id, cycles in enumerate(visits):
            if cycles:
                count = _popcount(masks[set_id])
                tally[count] = tally.get(count, 0) + cycles
        visits[:] = repeat(0, len(visits))

    def _miss(self, lanes, lane, class_id, phase):
        """Compute and store the transition of ``lanes[lane]`` on a class.

        ``lanes`` holds the set id of every lane the caller still
        steps.  The set's enabled mask for ``phase`` is computed on its
        first miss in that phase and kept with its other facts; the
        next set is that mask ANDed with the class's match mask.  When
        the table already holds its budget of transitions, the visit
        counts are folded out, the table is cleared and each lane's
        active set is re-interned in place (the RE2-style cache reset),
        so the caller's ids stay valid.  The table's lists are cleared
        in place too, so loops holding them keep working.  Returns the
        next set id.
        """
        set_id = lanes[lane]
        enabled = self._set_enabled[set_id]
        if enabled[phase] is None:
            enabled[phase] = self._enabled_from(self._set_masks[set_id],
                                                phase)
        nxt = enabled[phase] & self._class_masks[class_id]
        if self._transitions >= self._step_cache_limit:
            held = [self._set_masks[held_id] for held_id in lanes]
            self._fold_visits()
            self._set_index.clear()
            for facts in self._set_lists:
                facts.clear()
            self._transitions = 0
            lanes[:] = [self._intern(mask) for mask in held]
        target = self._intern(nxt)
        row = self._rows[phase][lanes[lane]]
        if len(row) <= class_id:
            row.extend(repeat(None, len(self._class_masks) - len(row)))
        row[class_id] = target
        self._transitions += 1
        return target

    @gc_paused
    def _execute_lanes(self, lane_classes, recorders, count_visits=False):
        """The batched hot loop: N lanes, one shared transition table.

        Every lane starts from the empty active set at cycle 0, so all
        lanes share one cycle index and one start phase per step.  Each
        lane keeps its own active set as an interned id; lanes share the
        table but no other work (each consumes its own class stream).
        A reporting set writes its report rows (``_set_plans``) into
        the lane's recorder, each row this cycle's.  With
        ``count_visits`` every lane's cycles are added to the sets'
        visit counts.  Returns per-lane ``(hits, misses)`` lists.
        """
        count = len(lane_classes)
        period = self._start_period
        rows = self._rows
        plans = self._set_plans
        visits = self._set_visits
        miss = self._miss
        actives = [self._intern(0)] * count
        lane_misses = [0] * count
        lane_lengths = [len(classes) for classes in lane_classes]
        with open_rows(recorders, self._arity) as sinks:
            for cycle in range(max(lane_lengths, default=0)):
                phase = (2 if cycle == 0 else
                         1 if cycle % period == 0 else 0)
                table = rows[phase]
                for lane in range(count):
                    if cycle >= lane_lengths[lane]:
                        continue
                    class_id = lane_classes[lane][cycle]
                    try:
                        nxt = table[actives[lane]][class_id]
                    except IndexError:
                        nxt = None
                    if nxt is None:
                        lane_misses[lane] += 1
                        nxt = miss(actives, lane, class_id, phase)
                    actives[lane] = nxt
                    report_rows = plans[nxt]
                    if report_rows:
                        sink = sinks[lane]
                        if sink is not None:
                            add_cycle, add_plan = sink
                            for plan in report_rows:
                                add_cycle(cycle)
                                add_plan(plan)
                    if count_visits:
                        visits[nxt] += 1
        lane_hits = [length - misses
                     for length, misses in zip(lane_lengths, lane_misses)]
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
        self._bits = automaton.bits
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

        # Per interned set: its report rows — one row, the set's
        # decoded plan, when it reports.
        self._set_plans = []
        self._init_table((self._set_plans,))
        self.reset()

    def _describe(self, mask):
        plan = self._report_plan(mask & self._report_mask)
        return ((plan,) if plan else (),)

    # ------------------------------------------------------------------
    def reset(self):
        """Return to the pre-input state (cycle 0 next).

        The transition table is deliberately *not* cleared: its
        entries depend only on the automaton, never on stream position.
        The active-state statistics restart.
        """
        self._active = 0
        self._cycle = 0
        self._active_tally.clear()
        visits = self._set_visits
        visits[:] = repeat(0, len(visits))

    @property
    def cycle(self):
        """Next cycle index to be executed."""
        return self._cycle

    def active_ids(self):
        """Ids of currently active states (after the last step)."""
        return [self._ids[i] for i in _iter_bits(self._active)]

    def active_count_tally(self):
        """``{active-state count: cycles}`` since the last :meth:`reset`.

        Every cycle stepped since then (a whole :meth:`run`, or the
        :meth:`step` calls) counts once, under the popcount of the
        active set it ended in.  The maximum and the mean of the
        per-cycle counts, and their distribution, follow from it.
        """
        self._fold_visits()
        return dict(self._active_tally)

    def _report_plan(self, reporting):
        """Decode a reporting mask into ((offset, state_id, code), ...)."""
        plan = []
        for index in _iter_bits(reporting):
            state_id, code, offsets = self._report_info[index]
            for offset in offsets:
                plan.append((offset, state_id, code))
        return tuple(plan)

    def step(self, vector, recorder=None):
        """Advance one cycle on ``vector``; returns the active bitmask.

        ``vector`` is a tuple of the automaton's arity, or its code.
        """
        codes = _normalize_stream(self.automaton, (vector,))
        self._execute(self._class_streams([codes])[0], recorder)
        return self._active

    @gc_paused
    def _execute(self, classes, recorder):
        """The serial run loop behind :meth:`run` and :meth:`step`.

        Continues from ``self._active`` at ``self._cycle``, so slicing
        a class stream across calls is bit-exact with one call.  Cycle 0
        (the start-of-data phase) is stepped on its own, so that under
        start period 1 every later cycle shares one phase and the loop
        never computes it.  The collector is paused — the loop
        allocates no reference cycles.
        """
        with open_rows((recorder,), self._arity) as (sink,):
            if self._cycle == 0 and classes:
                self._step_classes(classes[:1], 2, sink)
                classes = classes[1:]
            self._step_classes(
                classes, 1 if self._start_period == 1 else None, sink)

    def _step_classes(self, classes, phase, sink):
        """Step ``classes`` from ``self._active`` at ``self._cycle``.

        ``phase`` is every cycle's start phase, or None to compute it
        per cycle (from the start period).  The loop holds the active
        set as an interned id: a hit is two list subscripts, and only a
        miss touches masks.  Each cycle counts a visit to the set it
        ends in; a reporting cycle appends the set's one report row —
        its cycle and the set's interned plan — onto the recorder's
        columns.
        """
        period = self._start_period
        rows = self._rows
        fixed = phase is not None
        table = rows[phase] if fixed else None
        plans = self._set_plans
        visits = self._set_visits
        miss = self._miss
        # Without a recorder the rows go to throwaway lists.
        add_cycle, add_plan = sink or ([].append, [].append)
        set_id = self._intern(self._active)
        misses = 0
        cycle = self._cycle - 1
        for cycle, class_id in enumerate(classes, self._cycle):
            if not fixed:
                phase = 0 if cycle % period else 1
                table = rows[phase]
            try:
                nxt = table[set_id][class_id]
            except IndexError:
                nxt = None
            if nxt is None:
                misses += 1
                nxt = miss([set_id], 0, class_id, phase)
            set_id = nxt
            report_rows = plans[set_id]
            if report_rows:  # a set has one report row (_describe)
                add_cycle(cycle)
                add_plan(report_rows[0])
            visits[set_id] += 1
        self._active = self._set_masks[set_id]
        self._cycle = cycle + 1
        self._cache_hits += len(classes) - misses
        self._cache_misses += misses

    def run(self, stream, recorder=None, position_limit=None):
        """Execute a whole stream; returns the :class:`ReportRecorder` used.

        ``stream`` may be codes (what :func:`~repro.sim.inputs.stream_for`
        returns; at arity 1 these are the flat values) or vectors.  When
        ``recorder`` is None a fresh one (with ``position_limit``) is
        created.
        """
        if recorder is None:
            recorder = ReportRecorder(position_limit=position_limit)
        codes = _normalize_stream(self.automaton, stream)
        if OBS.active:  # single attribute check when no collector attached
            return self._run_observed(codes, recorder)
        self.reset()
        self._execute_stream(self._class_streams([codes])[0], recorder)
        return recorder

    def _execute_stream(self, classes, recorder):
        """:meth:`_execute` over a whole stream, reporting progress.

        When a collector is attached or ``REPRO_PROGRESS`` is set, a
        stream longer than one chunk runs chunk by chunk: _execute keeps
        self._active/self._cycle across calls, so slicing the stream is
        bit-exact with one big call, and the chunk boundary is where
        paper-scale runs report progress.  Otherwise it is one call.
        """
        total = len(classes)
        if total <= _PROGRESS_CHUNK or not (OBS.active or progress_enabled()):
            self._execute(classes, recorder)
            return
        progress = ProgressReporter("simulate", total,
                                    detail=self.automaton.name)
        for begin in range(0, total, _PROGRESS_CHUNK):
            self._execute(classes[begin:begin + _PROGRESS_CHUNK], recorder)
            progress.update(begin + _PROGRESS_CHUNK)
        progress.finish()

    def _run_observed(self, codes, recorder):
        """`run` with the telemetry hooks live (collector attached).

        Label children are pre-resolved once per process via
        ``engine_handles`` (the run-setup hoist): run hot paths never
        pay per-run ``labels(...)`` dictionary work again.
        """
        handles = OBS.instruments.engine_handles("bitset")
        reports_before = recorder.total_reports
        with trace_span("engine.run", engine="bitset",
                        automaton=self.automaton.name,
                        cycles=len(codes)):
            start = perf_counter()
            self.reset()
            self._execute_stream(self._class_streams([codes])[0], recorder)
            elapsed = perf_counter() - start
        handles.runs.inc()
        handles.cycles.inc(len(codes))
        handles.reports.inc(recorder.total_reports - reports_before)
        handles.run_seconds.observe(elapsed)
        self._observe_active_counts(handles)
        return recorder

    def _observe_active_counts(self, handles):
        """Feed :meth:`active_count_tally` to the ``active_states``
        histogram, one observation per cycle."""
        observe_active = handles.active_states.observe
        for count, cycles in sorted(self.active_count_tally().items()):
            observe_active(count, cycles)

    # ------------------------------------------------------------------
    # Batched multi-stream execution
    # ------------------------------------------------------------------
    def run_batch(self, streams, recorders=None, position_limit=None):
        """Drive N independent streams through the automaton in one pass.

        Each lane behaves exactly as a fresh :meth:`run` over its stream
        (the differential suite pins bit-exactness); lanes may have
        different lengths — exhausted lanes freeze while the rest
        continue.  The transition table is shared across lanes, so
        identical ``(active, class, phase)`` work is paid once per
        batch instead of once per stream.  Returns the list of per-lane
        recorders; the engine's own streaming state is reset afterwards.
        """
        lane_codes = [_normalize_stream(self.automaton, stream)
                      for stream in streams]
        if recorders is None:
            recorders = [ReportRecorder(position_limit=position_limit)
                         for _ in lane_codes]
        elif len(recorders) != len(lane_codes):
            raise SimulationError(
                "run_batch got %d recorders for %d streams"
                % (len(recorders), len(lane_codes)))
        lane_classes = self._class_streams(lane_codes)
        if OBS.active:
            self._run_batch_observed(lane_classes, recorders)
        else:
            self._execute_lanes(lane_classes, recorders)
        self.reset()
        return recorders

    def _run_batch_observed(self, lane_classes, recorders):
        """`run_batch` with the telemetry hooks live.

        Only here do the lanes count their visits: the
        ``active_states`` histogram is their one reader.
        """
        handles = OBS.instruments.engine_handles("bitset")
        reports_before = sum(r.total_reports for r in recorders)
        total_cycles = sum(len(classes) for classes in lane_classes)
        self.reset()
        with trace_span("engine.run_batch", engine="bitset",
                        automaton=self.automaton.name,
                        lanes=len(lane_classes), cycles=total_cycles):
            start = perf_counter()
            lane_hits, lane_misses = self._execute_lanes(
                lane_classes, recorders, count_visits=True)
            elapsed = perf_counter() - start
        # Lane-for-lane parity with N serial runs: counters move by the
        # same amounts a loop of run() calls would move them.
        handles.runs.inc(len(lane_classes))
        handles.cycles.inc(total_cycles)
        handles.reports.inc(
            sum(r.total_reports for r in recorders) - reports_before)
        handles.run_seconds.observe(elapsed)
        handles.batch_lanes.observe(len(lane_classes))
        handles.batch_lane_cache_hits.inc(sum(lane_hits))
        handles.batch_lane_cache_misses.inc(sum(lane_misses))
        self._observe_active_counts(handles)


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
        """Execute a whole stream; mirrors :meth:`BitsetEngine.run`.

        The stream is normalized into codes as the engine's is, then
        decoded back into one vector per cycle.
        """
        if recorder is None:
            recorder = ReportRecorder(position_limit=position_limit)
        self.reset()
        automaton = self.automaton
        codes = _normalize_stream(automaton, stream)
        for vector in code_vectors(codes, automaton.bits, automaton.arity):
            self.step(vector, recorder)
        return recorder


#: Streams taken as codes already (see :mod:`repro.sim.inputs`).
_CODE_STREAMS = (bytes, bytearray, array)


def _normalize_stream(automaton, stream):
    """The input codes of ``stream`` for ``automaton``, range-checked.

    A ``bytes``, ``bytearray`` or ``array`` stream holds codes (what
    :func:`~repro.sim.inputs.stream_for` builds), and so does any other
    iterable of ints: at arity 1 a value is its own code, so these are
    the flat streams.  Any other iterable holds vectors of the
    automaton's arity, which are packed here: the vectors are
    transposed into per-position columns, each column is
    range-checked, and the columns are shifted together, all in C-level
    passes.  A vector of another arity or a value outside the alphabet
    raises :class:`SimulationError`.  Returns the codes in the compact
    container for their width (:func:`~repro.sim.inputs.code_array`).
    """
    bits, arity = automaton.bits, automaton.arity
    width = bits * arity
    if isinstance(stream, _CODE_STREAMS):
        codes = stream
    else:
        items = stream if type(stream) is list else list(stream)
        if set(map(type, items)) <= {int}:
            codes = items
        else:
            codes = _pack_vectors(items, bits, arity)
    if not _codes_in_range(codes, width):
        code = next(code for code in codes if code < 0 or code >> width)
        raise SimulationError(
            "input code %r out of range for %d-bit arity-%d automaton"
            % (code, bits, arity))
    if isinstance(codes, (bytes, bytearray)) or (
            type(codes) is array and width > 8):
        return codes
    return code_array(codes.tolist() if type(codes) is array else codes,
                      width)


def _codes_in_range(codes, width):
    """Whether every code lies in ``[0, 2 ** width)``, in C-level passes."""
    if isinstance(codes, (bytes, bytearray)):
        return width >= 8 or not codes.translate(None, bytes(range(1 << width)))
    if (type(codes) is array and codes.typecode in "BHILQ"
            and codes.itemsize * 8 <= width):
        return True  # an unsigned array no wider than a code
    return not codes or (min(codes) >= 0 and not max(codes) >> width)


def _pack_vectors(items, bits, arity):
    """Big-endian codes of ``items``' vectors (see :func:`_normalize_stream`)."""
    if set(map(type, items)) <= {tuple}:
        vectors = items
    else:
        vectors = [(item,) if isinstance(item, int) else tuple(item)
                   for item in items]
    if set(map(len, vectors)) - {arity}:
        vector = next(vector for vector in vectors if len(vector) != arity)
        raise SimulationError(
            "input vector %r does not match automaton arity %d"
            % (vector, arity))
    columns = list(zip(*vectors))
    limit = 1 << bits
    for column in columns:
        if min(column) < 0 or max(column) >= limit:
            vector = next(vector for vector in vectors
                          if not all(0 <= value < limit for value in vector))
            raise SimulationError(
                "input vector %r out of range for %d-bit arity-%d automaton"
                % (vector, bits, arity))
    if not columns:
        return []
    codes = columns[0]
    for column in columns[1:]:
        codes = map(or_, map(lshift, codes, repeat(bits)), column)
    return list(codes)


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
