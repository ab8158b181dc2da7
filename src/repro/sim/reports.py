"""Report events and recorders for automata simulation.

A *report* is the architectural event the whole paper is about: a reporting
STE matched, and (position, which-state) must reach the host.  The recorder
keeps both the raw event list and the per-cycle aggregates that drive the
reporting-architecture models (Table 1's dynamic columns, the AP buffer
model, and Sunder's in-subarray reporting region).
"""

from collections import Counter
from itertools import chain

from ..errors import ArtifactError, SimulationError

#: Versioned serialization identifiers for recorder payloads (consumed
#: by the stage-graph runtime's artifact store).
PAYLOAD_FORMAT = "repro-report-stream"
PAYLOAD_VERSION = 2


class ReportEvent:
    """One report occurrence.

    Attributes
    ----------
    position:
        Index in *sub-symbol* units from the start of the stream (for a
        nibble automaton this counts nibbles, for a byte automaton bytes).
    cycle:
        The vector cycle in which the event fired (``position // arity``).
    state_id / report_code:
        Identity of the reporting STE and its stable report code.
    """

    __slots__ = ("position", "cycle", "state_id", "report_code")

    def __init__(self, position, cycle, state_id, report_code):
        self.position = position
        self.cycle = cycle
        self.state_id = state_id
        self.report_code = report_code

    def key(self):
        """(position, report_code) pair used for equivalence checking."""
        return (self.position, self.report_code)

    def __repr__(self):
        return "ReportEvent(pos=%d, cycle=%d, state=%r, code=%r)" % (
            self.position, self.cycle, self.state_id, self.report_code,
        )

    def __eq__(self, other):
        return (
            isinstance(other, ReportEvent)
            and self.position == other.position
            and self.state_id == other.state_id
            and self.report_code == other.report_code
        )

    def __hash__(self):
        return hash((self.position, self.state_id, self.report_code))


class ReportRecorder:
    """Accumulates report events and per-cycle statistics.

    Parameters
    ----------
    keep_events:
        When False, only aggregates are kept — useful for long streams where
        the event list itself would dominate memory.
    position_limit:
        Events at or beyond this sub-symbol position are dropped.  The
        striding transformation pads the final input vector; reports that
        fire on pad positions are artifacts and must be filtered.

    A recorder the artifact store holds is frozen (:meth:`freeze`) and
    shared by every reader.
    """

    #: Instance default until :meth:`freeze` sets the object's own.
    _frozen = False

    def __init__(self, keep_events=True, position_limit=None):
        self.keep_events = keep_events
        self.position_limit = position_limit
        self.events = []
        self.reports_per_cycle = Counter()
        self.total_reports = 0

    def freeze(self):
        """Make the recorder read-only for good; returns ``self``.

        :meth:`record`, :meth:`record_cycle` and :meth:`absorb` raise
        :class:`~repro.errors.SimulationError` afterwards.  ``events``
        and ``reports_per_cycle`` stay plain containers that readers
        must not mutate.
        """
        self._frozen = True
        return self

    def _frozen_error(self):
        return SimulationError("cannot record into a frozen ReportRecorder")

    def record(self, position, cycle, state_id, report_code):
        """Log one report occurrence."""
        if self._frozen:
            raise self._frozen_error()
        if self.position_limit is not None and position >= self.position_limit:
            return
        self.total_reports += 1
        self.reports_per_cycle[cycle] += 1
        if self.keep_events:
            self.events.append(ReportEvent(position, cycle, state_id, report_code))

    def record_cycle(self, cycle, plan, arity):
        """Log all of one cycle's reports in one call.

        ``plan`` holds ``(offset, state_id, report_code)`` triples with
        ``0 <= offset < arity``; each fires at position ``cycle * arity
        + offset``.  The result is exactly that of calling :meth:`record`
        for each triple in order — the whole cycle is one row, as in
        Sunder's in-place reporting — but the position limit is only
        checked on a cycle that reaches it.
        """
        if self._frozen:
            raise self._frozen_error()
        base = cycle * arity
        limit = self.position_limit
        if limit is not None and base + arity > limit:
            plan = [entry for entry in plan if base + entry[0] < limit]
            if not plan:
                return
        count = len(plan)
        self.total_reports += count
        per_cycle = self.reports_per_cycle
        per_cycle[cycle] = per_cycle.get(cycle, 0) + count
        if self.keep_events:
            append = self.events.append
            for offset, state_id, code in plan:
                append(ReportEvent(base + offset, cycle, state_id, code))

    def absorb(self, other):
        """Fold another recorder's events and aggregates into this one.

        Events and per-cycle counts are appended in ``other``'s own
        order, so stitching shard recorders in block order reproduces
        the serial run's recorder exactly (the differential suite pins
        payload-level identity).  ``other``'s events must already
        respect this recorder's ``position_limit`` — shard executions
        build their block recorders with the target's parameters.
        """
        if self._frozen:
            raise self._frozen_error()
        self.total_reports += other.total_reports
        per_cycle = self.reports_per_cycle
        for cycle, count in other.reports_per_cycle.items():
            per_cycle[cycle] += count
        if self.keep_events:
            self.events.extend(other.events)
        return self

    # ------------------------------------------------------------------
    @property
    def report_cycles(self):
        """Number of cycles in which at least one report fired."""
        return len(self.reports_per_cycle)

    def max_reports_in_a_cycle(self):
        """Burstiness: the largest per-cycle report count."""
        return max(self.reports_per_cycle.values()) if self.reports_per_cycle else 0

    def event_keys(self):
        """Set of (position, report_code) pairs (requires keep_events)."""
        return {event.key() for event in self.events}

    def positions(self):
        """Sorted distinct report positions (requires keep_events)."""
        return sorted({event.position for event in self.events})

    def cycle_profile(self, total_cycles):
        """Per-cycle report counts as a list of ints of length total_cycles.

        This is the exact input the reporting-architecture models consume:
        element ``t`` is the number of reports generated in cycle ``t``.
        """
        profile = [0] * total_cycles
        for cycle, count in self.reports_per_cycle.items():
            if cycle < total_cycles:
                profile[cycle] = count
        return profile

    # ------------------------------------------------------------------
    # Versioned serialization (artifact-store payloads)
    # ------------------------------------------------------------------
    def to_payload(self):
        """Versioned JSON-serializable dict capturing the full recorder.

        Events are four columns: ``position``, ``cycle``, and indices
        into ``state_ids`` and ``report_codes``.  A stream repeats a few
        reporting states thousands of times, so each state id and code
        is written once, in first-use order, instead of once per event.
        ``reports_per_cycle`` is one flat ``[cycle, count, cycle, count,
        ...]`` list.  Event order, per-cycle aggregate insertion order,
        and the recording parameters all round-trip exactly through
        :meth:`from_payload`, so a replayed recorder drives the
        reporting-architecture models identically to the original.
        """
        events = self.events
        state_index = {}
        code_index = {}
        return {
            "format": PAYLOAD_FORMAT,
            "version": PAYLOAD_VERSION,
            "keep_events": self.keep_events,
            "position_limit": self.position_limit,
            "total_reports": self.total_reports,
            "reports_per_cycle": list(chain.from_iterable(
                self.reports_per_cycle.items())),
            "events": {
                "position": [event.position for event in events],
                "cycle": [event.cycle for event in events],
                "state": [state_index.setdefault(event.state_id,
                                                 len(state_index))
                          for event in events],
                "code": [code_index.setdefault(event.report_code,
                                               len(code_index))
                         for event in events],
            },
            "state_ids": list(state_index),
            "report_codes": list(code_index),
        }

    @classmethod
    def from_payload(cls, payload):
        """Rebuild a recorder from a :meth:`to_payload` dict.

        Raises :class:`~repro.errors.ArtifactError` on any malformed or
        version-mismatched payload — event columns of unequal length, a
        state or code index outside its table (a negative one too, which
        Python would otherwise wrap), an odd-length
        ``reports_per_cycle`` — so the artifact store can treat
        corruption as a recoverable miss.
        """
        try:
            if payload.get("format") != PAYLOAD_FORMAT:
                raise ArtifactError(
                    "unknown report-stream format %r" % (payload.get("format"),))
            if payload.get("version") != PAYLOAD_VERSION:
                raise ArtifactError(
                    "unsupported report-stream version %r"
                    % (payload.get("version"),))
            recorder = cls(keep_events=bool(payload["keep_events"]),
                           position_limit=payload["position_limit"])
            recorder.total_reports = int(payload["total_reports"])
            flat = payload["reports_per_cycle"]
            if len(flat) % 2:
                raise ArtifactError(
                    "reports_per_cycle has an odd length %d" % len(flat))
            recorder.reports_per_cycle.update(
                dict(zip(flat[::2], flat[1::2])))
            columns = payload["events"]
            positions = columns["position"]
            cycles = columns["cycle"]
            states = columns["state"]
            codes = columns["code"]
            if not len(positions) == len(cycles) == len(states) == len(codes):
                raise ArtifactError(
                    "event columns have %d, %d, %d and %d entries"
                    % (len(positions), len(cycles), len(states), len(codes)))
            state_ids = payload["state_ids"]
            report_codes = payload["report_codes"]
            # A negative index must fail too: Python reads it from the end.
            for column, indices, table in (("state", states, state_ids),
                                           ("code", codes, report_codes)):
                if indices and (min(indices) < 0
                                or max(indices) >= len(table)):
                    raise ArtifactError(
                        "event column %r has an index outside [0, %d)"
                        % (column, len(table)))
            recorder.events = list(map(
                ReportEvent, positions, cycles,
                map(state_ids.__getitem__, states),
                map(report_codes.__getitem__, codes)))
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ArtifactError("malformed report-stream payload: %s" % error)
        return recorder

    def summary(self, total_cycles):
        """Table 1's dynamic columns for this run."""
        report_cycles = self.report_cycles
        return {
            "reports": self.total_reports,
            "report_cycles": report_cycles,
            "reports_per_cycle": (
                self.total_reports / total_cycles if total_cycles else 0.0
            ),
            "reports_per_report_cycle": (
                self.total_reports / report_cycles if report_cycles else 0.0
            ),
            "report_cycle_pct": (
                100.0 * report_cycles / total_cycles if total_cycles else 0.0
            ),
        }
