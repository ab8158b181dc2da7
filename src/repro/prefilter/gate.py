"""Gated execution: wake the fast kernels only where the prefilter fires.

The tie between the two prefilter stages (:mod:`~repro.prefilter.
literals`, :mod:`~repro.prefilter.direct_filter`) and the execution
engines.  The contract chain:

1. extraction guarantees every possible report ends exactly at the last
   byte of some extracted literal occurrence (or marks the machine
   unfilterable);
2. the direct filter's ``scan`` finds every such occurrence end;
3. :func:`plan_windows` maps each end byte onto the target machine's
   cycles and prepends a warm-up prefix of ``depth_bound()`` cycles —
   the same replay-from-empty-mask argument
   :meth:`~repro.sim.engine.BitsetEngine.run_sharded` uses: a state at
   edge-distance ``d`` from a start remembers only ``d`` cycles of
   history, so by the first recorded cycle the replayed active mask is
   exact;
4. :meth:`BitsetEngine.run_windows <repro.sim.engine.BitsetEngine.
   run_windows>` / :meth:`SunderDevice.run_gated
   <repro.core.device.SunderDevice.run_gated>` execute only those
   windows, suppressing reports during warm-up.

Gated results are therefore bit-exact with the ungated run (pinned by
tests/test_prefilter.py) — on every path: unfilterable or cyclic
machines bypass the gate outright (soundness over coverage), and a scan
with no hits returns without ever *building* the engine, which is the
hot/cold fusion: with most states cold (see
:func:`record_hotcold_savings`), nothing is loaded until the prefilter
fires.

Prefilter builds are memoized in the process-wide artifact store
(:class:`PrefilterCodec`), so a ruleset's literal set is extracted once
per corpus, not once per stream.
"""

import json
from time import perf_counter

from ..errors import ArtifactError, PrefilterError
from ..extensions.hotcold import split_hot_cold
from ..obs import OBS, trace_span
from ..runtime.store import Codec, artifact_key, get_store
from ..sim.engine import BitsetEngine
from ..sim.inputs import stream_for, stream_shape, stream_slice
from .direct_filter import DirectFilter
from .literals import LiteralExtraction, extract_literals

#: Version salt for memoized prefilter builds; bump it whenever
#: extraction or filter semantics change.
PREFILTER_VERSION = 1

#: Input prefix profiled by :func:`record_hotcold_savings` — enough to
#: rank state activity without replaying the whole stream.
HOTCOLD_SAMPLE_BYTES = 4096


class Prefilter:
    """One ruleset's compiled prefilter: extraction verdict + scanner."""

    __slots__ = ("extraction", "filter")

    def __init__(self, extraction):
        if not isinstance(extraction, LiteralExtraction):
            raise PrefilterError("Prefilter wraps a LiteralExtraction, got %r"
                                 % type(extraction).__name__)
        self.extraction = extraction
        self.filter = (DirectFilter(extraction.literals)
                       if extraction.filterable else None)

    @property
    def filterable(self):
        return self.extraction.filterable

    @property
    def literals(self):
        return self.extraction.literals

    def scan(self, data):
        """Verified literal-occurrence scan (see DirectFilter.scan)."""
        if self.filter is None:
            raise PrefilterError(
                "cannot scan with an unfilterable prefilter (%s)"
                % (self.extraction.reason,))
        data = bytes(data)
        with trace_span("prefilter.scan", bytes=len(data),
                        literals=len(self.literals)) as span:
            start = perf_counter()
            result = self.filter.scan(data)
            elapsed = perf_counter() - start
            span.set_attr(candidates=result.candidates,
                          verified=result.verified, ends=len(result.ends))
        if OBS.active:
            instruments = OBS.instruments
            instruments.prefilter_scan_bytes.inc(len(data))
            instruments.prefilter_scan_seconds.observe(elapsed)
            instruments.prefilter_candidate_windows.inc(result.candidates)
            instruments.prefilter_verified_windows.inc(result.verified)
        return result

    # -- payload round-trip (for the content-addressed cache) ----------
    def to_payload(self):
        return {
            "format": "repro-prefilter",
            "version": PREFILTER_VERSION,
            "extraction": self.extraction.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload):
        try:
            if payload.get("format") != "repro-prefilter":
                raise PrefilterError("unknown prefilter format %r"
                                     % (payload.get("format"),))
            if payload.get("version") != PREFILTER_VERSION:
                raise PrefilterError("unsupported prefilter version %r"
                                     % (payload.get("version"),))
            extraction = payload["extraction"]
        except (AttributeError, KeyError, TypeError) as error:
            raise PrefilterError("malformed prefilter payload: %s" % error)
        return cls(LiteralExtraction.from_payload(extraction))

    def dumps(self):
        return json.dumps(self.to_payload(), separators=(",", ":"))

    @classmethod
    def loads(cls, text):
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, TypeError) as error:
            raise PrefilterError("undecodable prefilter text: %s" % error)
        return cls.from_payload(payload)

    def __repr__(self):
        if not self.filterable:
            return "Prefilter(unfilterable: %s)" % (self.extraction.reason,)
        return "Prefilter(%d literals)" % len(self.literals)


class PrefilterCodec(Codec):
    """Artifact codec for memoized prefilter builds.

    The inherited identity ``freeze`` serves the master object itself: a
    built prefilter is immutable apart from private scan-time caches,
    and cache sharing is the point of memoizing the build.
    """

    kind = "prefilter"

    def encode(self, prefilter):
        return prefilter.dumps()

    def decode(self, text):
        try:
            return Prefilter.loads(text)
        except PrefilterError as error:
            raise ArtifactError("undecodable prefilter artifact: %s" % error)


PREFILTER_CODEC = PrefilterCodec()


def build_prefilter(automaton):
    """Build (or fetch) the prefilter of one 8-bit source machine.

    Memoized in the process-wide artifact store under a
    content-addressed key (fingerprint + :data:`PREFILTER_VERSION`), so
    repeated stage runs and pool workers share one build.  The
    ``prefilter.build`` span and build instruments fire only on misses.
    """
    def build():
        with trace_span("prefilter.build", automaton=automaton.name) as span:
            start = perf_counter()
            prefilter = Prefilter(extract_literals(automaton))
            elapsed = perf_counter() - start
            span.set_attr(filterable=prefilter.filterable,
                          literals=len(prefilter.literals))
        if OBS.active:
            instruments = OBS.instruments
            instruments.prefilter_builds.labels(
                result="filterable" if prefilter.filterable
                else "unfilterable").inc()
            instruments.prefilter_build_seconds.observe(elapsed)
            if prefilter.filterable:
                instruments.prefilter_literals.observe(
                    len(prefilter.literals))
        return prefilter

    prefilter, _ = get_store().fetch(
        artifact_key(PREFILTER_CODEC.kind, automaton.fingerprint(),
                     PREFILTER_VERSION),
        PREFILTER_CODEC, build)
    return prefilter


def _depth_bound(machine):
    """Memoized ``depth_bound()`` — an O(states) graph walk that would
    otherwise dominate gated runs on quiet streams.  Served from the
    exec layer's trait artifacts (weak in-process memo + the artifact
    store), so gated callers, the planner, and pool workers all share
    one walk per machine fingerprint.
    """
    # Imported lazily: repro.exec imports this module for its prefilter
    # bindings, so a top-level import would cycle.
    from ..exec.traits import automaton_traits
    return automaton_traits(machine).depth_bound


def plan_windows(ends, machine, cycle_count, depth=None):
    """Map literal end *byte* positions onto ``machine`` replay windows.

    Returns merged, ascending ``(start, record_from, end)`` cycle
    triples — or None when the machine is cyclic (``depth_bound()`` is
    None) and must run ungated.  A byte position ``e`` covers the
    ``8 // bits`` sub-symbols of that byte; their cycles are recorded
    and a ``depth_bound()`` warm-up prefix is prepended.  Recording a
    few extra cycles inside a merged window is sound — by construction
    every recorded cycle is past its window's warm-up, so the engine
    state there is exact and only *true* reports can be emitted.
    """
    if depth is None:
        depth = _depth_bound(machine)
    if depth is None:
        return None
    per_byte = 8 // machine.bits
    arity = machine.arity
    raw = []
    for end_byte in ends:
        record_lo = (per_byte * end_byte) // arity
        if record_lo >= cycle_count:
            continue
        record_hi = (per_byte * end_byte + per_byte - 1) // arity
        raw.append((max(0, record_lo - depth), record_lo,
                    min(cycle_count, record_hi + 1)))
    raw.sort()
    merged = []
    for start, record_from, end in raw:
        if merged and start <= merged[-1][2]:
            previous = merged[-1]
            merged[-1] = (previous[0], min(previous[1], record_from),
                          max(previous[2], end))
        else:
            merged.append((start, record_from, end))
    return merged


def _count_bypass(reason):
    if OBS.active:
        OBS.instruments.prefilter_bypass.labels(reason=reason).inc()


def scan_windows(prefilter, data, machine, cycle_count):
    """Scan ``data`` and plan ``machine``'s replay windows.

    Returns the merged window list (possibly empty — the gate stays
    cold), or None when gating must be bypassed (unfilterable machine
    or unbounded depth); bypasses are counted per reason.
    """
    if not prefilter.filterable:
        _count_bypass("unfilterable")
        return None
    depth = _depth_bound(machine)
    if depth is None:
        _count_bypass("cyclic")
        return None
    result = prefilter.scan(data)
    windows = plan_windows(result.ends, machine, cycle_count, depth=depth)
    if OBS.active:
        executed = sum(end - start for start, _, end in windows)
        OBS.instruments.prefilter_gated_cycles.inc(executed)
        OBS.instruments.prefilter_skipped_cycles.inc(
            max(0, cycle_count - executed))
    return windows


def record_hotcold_savings(automaton, data, coverage):
    """Hot/cold split of the source machine; returns the split.

    Profiles a bounded sample prefix (:data:`HOTCOLD_SAMPLE_BYTES`) of
    the stream, records ``HotColdSplit.state_savings`` on the
    ``repro_hotcold_state_savings`` gauge, and reports the split on the
    ``prefilter.hotcold`` span.  Under gating the savings are realized
    literally: the full machine is only instantiated when a window
    passes the prefilter, so the cold fraction of states stays unloaded
    on quiet streams.
    """
    sample = bytes(data[:HOTCOLD_SAMPLE_BYTES])
    with trace_span("prefilter.hotcold", automaton=automaton.name,
                    coverage=float(coverage)) as span:
        split = split_hot_cold(automaton, sample,
                               activity_coverage=float(coverage))
        span.set_attr(state_savings=split.state_savings,
                      hot_states=len(split.hot_ids))
    if OBS.active:
        OBS.instruments.hotcold_state_savings.set(split.state_savings)
    return split


def _gate_stream(machine, data, source, prefilter, hotcold_coverage):
    """The shared gate skeleton both execution targets run.

    Builds (or takes) the prefilter, records the optional hot/cold
    split, sizes the stream without materializing it, and plans the
    replay windows.  Returns ``(cycle_count, position_limit, windows)``
    with ``windows`` as :func:`scan_windows` produced them (None =
    bypass, empty = gate stays cold).
    """
    source_machine = machine if source is None else source
    if prefilter is None:
        prefilter = build_prefilter(source_machine)
    if hotcold_coverage is not None:
        record_hotcold_savings(source_machine, data, hotcold_coverage)
    cycle_count, limit = stream_shape(machine, data)
    windows = scan_windows(prefilter, data, machine, cycle_count)
    return cycle_count, limit, windows


def _window_lanes(machine, data, windows):
    """Materialize only the windowed slices of ``data`` as lanes.

    A quiet stream never pays the per-byte vector build — lane work
    stays proportional to the windows, not the input length.  Returns
    ``(lanes, start_cycles, record_from)``.
    """
    lanes = [stream_slice(machine, data, start, end)
             for start, _, end in windows]
    starts = [start for start, _, _ in windows]
    record_from = [record for _, record, _ in windows]
    return lanes, starts, record_from


def gated_simulation(machine, data, recorder, *, source=None,
                     prefilter=None, hotcold_coverage=None, engine=None):
    """Prefilter-gated engine run of ``machine`` over byte stream ``data``.

    ``machine`` may be the 8-bit source itself or any rate-transformed
    derivative of ``source`` (literals are extracted from the byte
    machine; windows are mapped onto the target's cycles).  Events land
    in the caller's ``recorder`` bit-exact with an ungated
    ``BitsetEngine(machine).run`` over the same stream.  A caller
    running many streams passes its own ``engine`` (compiled for
    ``machine``) so window replays share one step cache across calls.

    Returns ``(engine, gated)``: ``gated`` is False when the gate was
    bypassed (unfilterable/cyclic); ``engine`` is None when the gate
    stayed cold and no engine was passed or built (the hot/cold
    payoff).
    """
    data = bytes(data)
    cycle_count, _, windows = _gate_stream(machine, data, source, prefilter,
                                           hotcold_coverage)
    if windows is None:
        if engine is None:
            engine = BitsetEngine(machine)
        vectors, _ = stream_for(machine, data)
        engine.run(vectors, recorder)
        return engine, False
    if not windows:
        return engine, True
    lanes, starts, record_from = _window_lanes(machine, data, windows)
    if engine is None:
        engine = BitsetEngine(machine)
    engine.run_window_lanes(lanes, starts, record_from, recorder,
                            total_cycles=cycle_count)
    return engine, True


def gated_device_run(device, machine, data, *, source=None, prefilter=None,
                     hotcold_coverage=None, position_limit=None):
    """Prefilter-gated :class:`~repro.core.device.SunderDevice` run.

    ``device`` must already be configured with ``machine`` (a 4-bit
    rate machine); ``source`` is the 8-bit machine the rate transform
    started from.  Returns a :class:`~repro.sim.reports.ReportRecorder`
    with the same direct-decode report semantics as ``run_batch`` —
    bit-exact with the ungated device run's reports.
    """
    data = bytes(data)
    cycle_count, limit, windows = _gate_stream(machine, data, source,
                                               prefilter, hotcold_coverage)
    if position_limit is None:
        position_limit = limit
    if windows is None:
        vectors, _ = stream_for(machine, data)
        return device.run_gated(vectors, None, position_limit=position_limit)
    lanes, starts, record_from = _window_lanes(machine, data, windows)
    return device.run_gated_lanes(lanes, starts, record_from,
                                  position_limit=position_limit,
                                  total_cycles=cycle_count)
