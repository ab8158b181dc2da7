"""The session: one plan bound to one compiled machine, one entry point.

Construct a :class:`Session` with an automaton (and optionally a plan —
otherwise the :class:`~repro.exec.planner.Planner` picks one from the
first ``execute`` call's stream count), then call ``execute(streams) ->
[ReportRecorder]`` with raw byte streams.  The session owns stream
conversion, position limits, compiled-artifact reuse (one engine /
packed device kernel across calls), and the dispatch to the kernel's
run loop: serial ``run`` for one stream on the engine, ``run_batch``
lanes from cycle 0 for several (and for every packed device run), one
fresh literal device per stream at the literal fidelity.

Apart from validating its machine and freezing a snapshot of it, a
session computes nothing before the first ``execute`` call, which
builds the engine or configures the device.
"""

from ..core.config import SunderConfig
from ..core.device import SunderDevice
from ..sim.engine import BitsetEngine
from ..sim.inputs import stream_for
from ..sim.reports import ReportRecorder
from .plan import ExecutionPlan
from .planner import Planner


class Session:
    """One automaton + one plan, executable over many streams.

    A session runs its machine as it was when the session was built:
    it binds :meth:`~repro.automata.automaton.Automaton.frozen_snapshot`
    (the machine itself when it is frozen), validated once, and the
    engine or device adopts the snapshot's columns without validating
    it again.

    Parameters
    ----------
    automaton:
        The machine to execute — for the engine target any machine
        :func:`~repro.sim.inputs.stream_for` can feed (8-bit arity-1 or
        4-bit strided); for the device target a 4-bit rate machine.
    plan:
        An :class:`ExecutionPlan`, or None to let ``planner`` choose
        one from the first ``execute`` call's stream count (the chosen
        plan is then bound for the session's lifetime and readable as
        ``session.plan``).
    source:
        Accepted and ignored: nothing reads it.  Callers that still
        pass the 8-bit machine ``automaton`` was rate-transformed from
        keep working.
    config:
        Device-target :class:`~repro.core.config.SunderConfig`;
        defaults to one sized by the automaton's arity.
    planner:
        The :class:`~repro.exec.planner.Planner` used when ``plan`` is
        None; defaults to an engine planner.
    """

    def __init__(self, automaton, plan=None, *, source=None, config=None,
                 planner=None):
        automaton = automaton.frozen_snapshot()
        if plan is not None and not isinstance(plan, ExecutionPlan):
            raise ValueError(
                "Session plan must be an ExecutionPlan or None, got %r"
                % (plan,))
        self.automaton = automaton
        self.config = config
        self.plan = plan
        self._planner = planner
        self._engine = None
        self._device = None

    # ------------------------------------------------------------------
    def execute(self, streams):
        """Run every byte stream; returns per-stream recorders.

        ``streams`` is an iterable of byte strings.  Results are
        :class:`~repro.sim.reports.ReportRecorder`\\ s in stream order,
        each with the stream's own position limit.
        """
        datas = [bytes(stream) for stream in streams]
        plan = self.plan
        if plan is None:
            planner = self._planner
            if planner is None:
                planner = self._planner = Planner()
            plan = self.plan = planner.plan(
                self.automaton, stream_count=max(1, len(datas)))
        if plan.target == "device":
            return self._execute_device(plan, datas)
        return self._execute_engine(datas)

    # ------------------------------------------------------------------
    # Engine target
    # ------------------------------------------------------------------
    def _execute_engine(self, datas):
        engine = self._engine
        if engine is None:
            engine = self._engine = BitsetEngine(self.automaton)
        lanes = [stream_for(self.automaton, data) for data in datas]
        recorders = [ReportRecorder(position_limit=limit)
                     for _, limit in lanes]
        if len(lanes) > 1:
            engine.run_batch([codes for codes, _ in lanes], recorders)
        elif lanes:
            engine.run(lanes[0][0], recorders[0])
        return recorders

    # ------------------------------------------------------------------
    # Device target
    # ------------------------------------------------------------------
    def _fresh_device(self, plan):
        config = self.config
        if config is None:
            config = SunderConfig(rate_nibbles=self.automaton.arity)
        device = SunderDevice(config, fidelity=plan.fidelity)
        device.configure(self.automaton)
        return device

    def _execute_device(self, plan, datas):
        device = self._device
        if device is None:
            device = self._device = self._fresh_device(plan)
        if device.fidelity == "packed":
            lanes = [stream_for(self.automaton, data) for data in datas]
            recorders = [ReportRecorder(position_limit=limit)
                         for _, limit in lanes]
            if lanes:
                device.run_batch([codes for codes, _ in lanes],
                                 recorders=recorders)
            return recorders
        # The literal oracle has no lane-sharable compiled form and its
        # reporting regions accumulate across runs, so each stream gets
        # a fresh bit-level device — slow but hardware-faithful.
        recorders = []
        for index, data in enumerate(datas):
            if index or device.global_cycle:
                device = self._fresh_device(plan)
            codes, limit = stream_for(self.automaton, data)
            result = device.run(codes, position_limit=limit)
            recorders.append(result.reports())
        return recorders
