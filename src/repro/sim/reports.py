"""Report rows and recorders for automata simulation.

A *report* is the architectural event the whole paper is about: a reporting
STE matched, and (position, which-state) must reach the host.  The recorder
stores reports the way Sunder's reporting region does: one *row* per
reporting cycle, holding the cycle and that cycle's report plan — a shared
tuple of ``(offset, state_id, report_code)`` triples, each firing at
position ``cycle * arity + offset``.  A simulator interns one plan per
active set, so a row costs one 4-byte cycle and one list slot however
many reports it holds.
Everything else — the total, the per-cycle counts that drive the
reporting-architecture models (Table 1's dynamic columns, the AP buffer
model, Sunder's in-subarray reporting region) and the individual
:class:`ReportEvent` objects — is derived from the rows when asked.
"""

from array import array
from collections import Counter
from contextlib import contextmanager

from ..errors import ArtifactError, SimulationError

#: Versioned serialization identifiers for recorder payloads (consumed
#: by the stage-graph runtime's artifact store).
PAYLOAD_FORMAT = "repro-report-stream"
PAYLOAD_VERSION = 3


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
    """Report rows: a cycle column and a plan column, in write order.

    ``cycles[i]`` is the cycle of row ``i`` (the column is an
    ``array('I')``, so a cycle is below ``2 ** 32``) and ``plans[i]``
    its plan, a non-empty tuple of ``(offset, state_id, report_code)``
    triples with ``0 <= offset < arity``.  Rows sharing a plan share
    the tuple.
    ``arity`` is set by the first write and fixed after it.

    Parameters
    ----------
    position_limit:
        Reports at or beyond this sub-symbol position are dropped.  The
        striding transformation pads the final input vector; reports that
        fire on pad positions are artifacts and must be filtered.

    A recorder the artifact store holds is frozen (:meth:`freeze`) and
    shared by every reader.
    """

    #: Instance default until :meth:`freeze` sets the object's own.
    _frozen = False

    def __init__(self, position_limit=None):
        self.position_limit = position_limit
        self.arity = None
        self.cycles = array("I")
        self.plans = []
        self.total_reports = 0

    def freeze(self):
        """Make the recorder read-only for good; returns ``self``.

        :meth:`record_cycle`, :meth:`absorb` and :func:`open_rows` raise
        :class:`~repro.errors.SimulationError` afterwards.  The row
        columns stay mutable containers that readers must not mutate.
        """
        self._frozen = True
        return self

    def _writable(self, arity):
        """Check a write of arity-``arity`` rows may start; fix the arity."""
        if self._frozen:
            raise SimulationError("cannot record into a frozen ReportRecorder")
        if arity != self.arity:
            if self.arity is not None:
                raise SimulationError(
                    "recorder holds arity-%d rows, got arity %r"
                    % (self.arity, arity))
            self.arity = arity

    def _commit(self, first):
        """Account for the rows appended since row ``first``.

        Drops their reports at or past ``position_limit`` and adds the
        rest to ``total_reports``.  Only the last cycles can reach the
        limit, so only tail rows are examined: the rows must ascend in
        cycle.
        """
        if self.position_limit is not None:
            self._trim(first)
        self.total_reports += sum(map(len, self.plans[first:]))

    def _trim(self, first):
        limit = self.position_limit
        arity = self.arity
        cycles, plans = self.cycles, self.plans
        start = len(cycles)
        while start > first and (cycles[start - 1] + 1) * arity > limit:
            start -= 1
        tail = list(zip(cycles[start:], plans[start:]))
        del cycles[start:], plans[start:]
        for cycle, plan in tail:
            base = cycle * arity
            kept = tuple(entry for entry in plan if base + entry[0] < limit)
            if kept:
                cycles.append(cycle)
                plans.append(plan if len(kept) == len(plan) else kept)

    def record_cycle(self, cycle, plan, arity):
        """Log all of one cycle's reports as one row.

        ``plan`` holds ``(offset, state_id, report_code)`` triples with
        ``0 <= offset < arity``; each fires at position ``cycle * arity
        + offset``.  Triples at or past the position limit are dropped,
        and a row left empty is not written.
        """
        self._writable(arity)
        first = len(self.plans)
        if plan:
            self.cycles.append(cycle)
            self.plans.append(tuple(plan))
        self._commit(first)

    def absorb(self, other):
        """Append another recorder's rows to this one, in ``other``'s order.

        A multi-round device run merges each round's recorder this way.
        ``other``'s rows must already respect this recorder's
        ``position_limit``: build it with the same limit.
        """
        self._writable(self.arity if other.arity is None else other.arity)
        self.cycles.extend(other.cycles)
        self.plans.extend(other.plans)
        self.total_reports += other.total_reports
        return self

    # ------------------------------------------------------------------
    def rows(self):
        """Iterator of ``(cycle, plan)`` rows in write order."""
        return zip(self.cycles, self.plans)

    @property
    def reports_per_cycle(self):
        """Fresh ``Counter`` of reports per cycle, in first-write order."""
        per_cycle = Counter()
        for cycle, plan in self.rows():
            per_cycle[cycle] += len(plan)
        return per_cycle

    @property
    def report_cycles(self):
        """Number of cycles in which at least one report fired."""
        return len(set(self.cycles))

    @property
    def events(self):
        """Every report as a fresh list of :class:`ReportEvent`, in row order.

        Built on each access and never kept: a reader that only needs
        counts, positions or keys should use the row readers instead.
        """
        arity = self.arity
        return [ReportEvent(cycle * arity + offset, cycle, state_id, code)
                for cycle, plan in self.rows()
                for offset, state_id, code in plan]

    def plan_table(self):
        """``(table, column)``: the distinct plans and each row's index.

        ``table`` lists distinct plan values in first-use order, and
        ``column[i]`` is row ``i``'s index into it.  Each plan object is
        hashed once however many rows share it, so a reader can derive
        a fact per distinct plan and then walk the rows.
        """
        by_object = {}
        by_value = {}
        table = []
        column = []
        for plan in self.plans:
            index = by_object.get(id(plan))
            if index is None:
                index = by_value.get(plan)
                if index is None:
                    index = by_value[plan] = len(table)
                    table.append(plan)
                by_object[id(plan)] = index
            column.append(index)
        return table, column

    def max_reports_in_a_cycle(self):
        """Burstiness: the largest per-cycle report count."""
        return max(self.reports_per_cycle.values(), default=0)

    def event_keys(self):
        """Set of (position, report_code) pairs."""
        arity = self.arity
        return {(cycle * arity + offset, code)
                for cycle, plan in self.rows() for offset, _, code in plan}

    def positions(self):
        """Sorted distinct report positions."""
        arity = self.arity
        return sorted({cycle * arity + offset
                       for cycle, plan in self.rows()
                       for offset, _, _ in plan})

    def cycle_profile(self, total_cycles):
        """Per-cycle report counts as a list of ints of length total_cycles.

        This is the exact input the reporting-architecture models consume:
        element ``t`` is the number of reports generated in cycle ``t``.
        """
        profile = [0] * total_cycles
        for cycle, plan in self.rows():
            if cycle < total_cycles:
                profile[cycle] += len(plan)
        return profile

    # ------------------------------------------------------------------
    # Versioned serialization (artifact-store payloads)
    # ------------------------------------------------------------------
    def to_payload(self):
        """Versioned JSON-serializable dict capturing the full recorder.

        Rows are two columns, ``cycle`` and ``plan`` (an index into the
        plan table).  The plan table is four flat columns: each plan's
        ``size`` and its entries' ``offset``, and indices into
        ``state_ids`` and ``report_codes``, which list each state id and
        code once, in first-use order.  ``total_reports`` and the
        per-cycle counts are derived from the rows, so a payload cannot
        contradict itself.  Row order and the recording parameters
        round-trip exactly through :meth:`from_payload`.
        """
        table, column = self.plan_table()
        state_index = {}
        code_index = {}
        entries = [entry for plan in table for entry in plan]
        return {
            "format": PAYLOAD_FORMAT,
            "version": PAYLOAD_VERSION,
            "position_limit": self.position_limit,
            "arity": self.arity,
            "rows": {"cycle": list(self.cycles), "plan": column},
            "plans": {
                "size": [len(plan) for plan in table],
                "offset": [offset for offset, _, _ in entries],
                "state": [state_index.setdefault(state_id, len(state_index))
                          for _, state_id, _ in entries],
                "code": [code_index.setdefault(code, len(code_index))
                         for _, _, code in entries],
            },
            "state_ids": list(state_index),
            "report_codes": list(code_index),
        }

    @classmethod
    def from_payload(cls, payload):
        """Rebuild a recorder from a :meth:`to_payload` dict.

        Raises :class:`~repro.errors.ArtifactError` on any malformed or
        version-mismatched payload — row or plan columns of unequal
        length, a plan, state or code index outside its table (a
        negative one too, which Python would otherwise wrap), an empty
        plan, an offset outside ``[0, arity)``, a cycle of ``2 ** 32`` or
        more — so the artifact store can treat corruption as a
        recoverable miss.
        """
        try:
            if payload.get("format") != PAYLOAD_FORMAT:
                raise ArtifactError(
                    "unknown report-stream format %r" % (payload.get("format"),))
            if payload.get("version") != PAYLOAD_VERSION:
                raise ArtifactError(
                    "unsupported report-stream version %r"
                    % (payload.get("version"),))
            recorder = cls(position_limit=payload["position_limit"])
            arity = payload["arity"]
            rows = payload["rows"]
            cycles = rows["cycle"]
            column = rows["plan"]
            if len(cycles) != len(column):
                raise ArtifactError(
                    "row columns have %d and %d entries"
                    % (len(cycles), len(column)))
            plans = payload["plans"]
            sizes = plans["size"]
            offsets = plans["offset"]
            states = plans["state"]
            codes = plans["code"]
            if not sum(sizes) == len(offsets) == len(states) == len(codes):
                raise ArtifactError(
                    "plan columns have %d, %d and %d entries for %d"
                    % (len(offsets), len(states), len(codes), sum(sizes)))
            if sizes and min(sizes) < 1:
                raise ArtifactError("plan table holds an empty plan")
            if not (arity is None and not cycles
                    or isinstance(arity, int) and arity >= 1):
                raise ArtifactError(
                    "arity %r for %d rows" % (arity, len(cycles)))
            state_ids = payload["state_ids"]
            report_codes = payload["report_codes"]
            # A negative index must fail too: Python reads it from the end.
            for name, values, bound in (
                    ("cycle", cycles, None), ("plan", column, len(sizes)),
                    ("offset", offsets, arity),
                    ("state", states, len(state_ids)),
                    ("code", codes, len(report_codes))):
                if values and (min(values) < 0
                               or bound is not None and max(values) >= bound):
                    raise ArtifactError(
                        "column %r has a value outside [0, %s)"
                        % (name, "inf" if bound is None else bound))
            entries = list(zip(offsets, map(state_ids.__getitem__, states),
                               map(report_codes.__getitem__, codes)))
            table = []
            start = 0
            for size in sizes:
                table.append(tuple(entries[start:start + size]))
                start += size
            recorder.arity = arity
            recorder.cycles = array("I", cycles)
            recorder.plans = list(map(table.__getitem__, column))
            recorder.total_reports = sum(map(len, recorder.plans))
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError,
                OverflowError) as error:
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


@contextmanager
def open_rows(recorders, arity):
    """Row sinks for a loop writing into ``recorders`` inline.

    Yields one ``(cycles.append, plans.append)`` pair per recorder
    (``None`` for a ``None`` recorder); the loop appends each reporting
    cycle's row through it, cycles ascending per recorder.  On exit —
    an error included, so a recorder's total always matches its rows —
    each distinct recorder drops its new reports at or past its
    position limit and adds the rest to ``total_reports``.  Raises
    :class:`~repro.errors.SimulationError` before any row is written
    when a recorder is frozen or holds rows of another arity.
    """
    opened = {}
    sinks = []
    for recorder in recorders:
        if recorder is None:
            sinks.append(None)
            continue
        recorder._writable(arity)
        opened.setdefault(id(recorder), (recorder, len(recorder.plans)))
        sinks.append((recorder.cycles.append, recorder.plans.append))
    try:
        yield sinks
    finally:
        for recorder, first in opened.values():
            recorder._commit(first)
