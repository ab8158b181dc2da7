"""Artifact kinds cached by the stage-graph runtime.

Each kind pairs a value type with a :class:`~repro.runtime.store.Codec`
so the shared :class:`~repro.runtime.store.ArtifactStore` can persist it
with a versioned serialization.  The codecs of automata, instances and
simulation runs freeze the object in place (``Codec.freeze``), and the
store serves that one read-only master on every hit:

- **workload instances** (:class:`~repro.workloads.base.WorkloadInstance`)
  — the ``generate`` stage's output: automaton + planted input stream +
  provenance;
- **simulation runs** (:class:`SimRun`) — one functional-simulator pass:
  the full :class:`~repro.sim.reports.ReportRecorder` rows plus the
  cycle count and active-state statistics the Table 1 columns need;
- **automata** (:class:`AutomatonCodec`) — the ``to_rate`` stage's
  output: one rung of a benchmark's rate ladder;
- **plain JSON values** — result rows and summaries, served as copies.
"""

import base64
import json

from ..automata.automaton import Automaton
from ..errors import ArtifactError
from ..sim.reports import ReportRecorder
from ..workloads.base import WorkloadInstance
from .store import Codec, JsonCodec

#: Versioned serialization identifiers.
INSTANCE_FORMAT = "repro-instance"
INSTANCE_VERSION = 1
SIMRUN_FORMAT = "repro-simrun"
SIMRUN_VERSION = 1


class SimRun:
    """One functional-simulator pass, ready for replay.

    ``recorder`` holds the run's report rows; ``cycles`` the stream length
    in vector cycles (bytes for an 8-bit machine, vectors for a strided
    one); the active-state statistics feed Table 1's dynamic columns.
    """

    __slots__ = ("recorder", "cycles", "max_active_states",
                 "avg_active_states")

    def __init__(self, recorder, cycles, max_active_states=0,
                 avg_active_states=0.0):
        self.recorder = recorder
        self.cycles = cycles
        self.max_active_states = max_active_states
        self.avg_active_states = avg_active_states

    @classmethod
    def from_engine(cls, engine, recorder, cycles):
        """Build a run from a just-executed engine's active-state counts.

        ``engine`` must have just executed the whole stream with
        :meth:`~repro.sim.engine.BitsetEngine.run`, which leaves
        :meth:`~repro.sim.engine.BitsetEngine.active_count_tally`
        counting every cycle.
        """
        tally = engine.active_count_tally()
        return cls(
            recorder, cycles,
            max_active_states=max(tally, default=0),
            avg_active_states=(sum(count * visits
                                   for count, visits in tally.items())
                               / cycles if cycles else 0.0),
        )

    def summary(self):
        """The recorder's Table 1 dynamic columns plus run statistics."""
        row = self.recorder.summary(self.cycles)
        row["cycles"] = self.cycles
        row["max_active_states"] = self.max_active_states
        row["avg_active_states"] = self.avg_active_states
        return row

    def __repr__(self):
        return "SimRun(cycles=%d, reports=%d)" % (
            self.cycles, self.recorder.total_reports)


class AutomatonCodec(Codec):
    """Codec for compiled automata (indexed ``repro-automaton`` payloads)."""

    kind = "automaton"

    def encode(self, obj):
        return obj.dumps()

    def decode(self, text):
        # Automaton.loads raises AutomatonError (a ReproError) on any
        # malformed payload, which the store degrades to a corrupt miss.
        return Automaton.loads(text)

    def freeze(self, obj):
        return obj.freeze()


class SimRunCodec(Codec):
    """Codec for :class:`SimRun` artifacts."""

    kind = "simrun"

    def encode(self, obj):
        return json.dumps({
            "format": SIMRUN_FORMAT,
            "version": SIMRUN_VERSION,
            "cycles": obj.cycles,
            "max_active_states": obj.max_active_states,
            "avg_active_states": obj.avg_active_states,
            "recorder": obj.recorder.to_payload(),
        }, separators=(",", ":"))

    def decode(self, text):
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, TypeError) as error:
            raise ArtifactError("undecodable simrun artifact: %s" % error)
        try:
            if payload.get("format") != SIMRUN_FORMAT:
                raise ArtifactError(
                    "unknown simrun format %r" % (payload.get("format"),))
            if payload.get("version") != SIMRUN_VERSION:
                raise ArtifactError(
                    "unsupported simrun version %r"
                    % (payload.get("version"),))
            return SimRun(
                recorder=ReportRecorder.from_payload(payload["recorder"]),
                cycles=int(payload["cycles"]),
                max_active_states=payload["max_active_states"],
                avg_active_states=payload["avg_active_states"],
            )
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ArtifactError("malformed simrun payload: %s" % error)

    def freeze(self, obj):
        obj.recorder.freeze()
        return obj


class InstanceCodec(Codec):
    """Codec for :class:`~repro.workloads.base.WorkloadInstance` artifacts."""

    kind = "instance"

    def encode(self, obj):
        return json.dumps({
            "format": INSTANCE_FORMAT,
            "version": INSTANCE_VERSION,
            "name": obj.name,
            "family": obj.family,
            "paper_row": obj.paper_row,
            "input_b64": base64.b64encode(obj.input_bytes).decode("ascii"),
            "automaton": obj.automaton.to_payload(),
        }, separators=(",", ":"))

    def decode(self, text):
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, TypeError) as error:
            raise ArtifactError("undecodable instance artifact: %s" % error)
        try:
            if payload.get("format") != INSTANCE_FORMAT:
                raise ArtifactError(
                    "unknown instance format %r" % (payload.get("format"),))
            if payload.get("version") != INSTANCE_VERSION:
                raise ArtifactError(
                    "unsupported instance version %r"
                    % (payload.get("version"),))
            return WorkloadInstance(
                name=payload["name"],
                family=payload["family"],
                automaton=Automaton.from_payload(payload["automaton"]),
                input_bytes=base64.b64decode(payload["input_b64"]),
                paper_row=payload["paper_row"],
            )
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ArtifactError("malformed instance payload: %s" % error)

    def freeze(self, obj):
        return obj.freeze()


#: Shared codec instances (all stateless).
AUTOMATON_CODEC = AutomatonCodec()
SIMRUN_CODEC = SimRunCodec()
INSTANCE_CODEC = InstanceCodec()
JSON_CODEC = JsonCodec()

#: Codec registry by kind slug (used for key prefixes and diagnostics).
CODECS = {
    codec.kind: codec
    for codec in (AUTOMATON_CODEC, SIMRUN_CODEC, INSTANCE_CODEC, JSON_CODEC)
}
