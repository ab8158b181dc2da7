"""The session: one plan bound to one compiled machine, one entry point.

:class:`Session` is the single execution abstraction the run-variant
explosion collapses into: construct it with an automaton (and
optionally a plan — otherwise the :class:`~repro.exec.planner.Planner`
picks one from the machine's traits and the first ``execute`` call's
stream count), then call ``execute(streams) -> [ReportRecorder]`` with
raw byte streams.  The session owns stream conversion, position
limits, compiled-artifact reuse (one engine / packed device kernel
across calls), and the dispatch to the right run variant — every one
of which stays individually available and bit-exact (the differential
suite in tests/test_exec.py pins ``execute`` against each direct
variant call).

The ROADMAP's streaming service schedules tenants through exactly this
object: one session per (ruleset, plan), many ``execute`` calls.
"""

from ..core.config import SunderConfig
from ..core.device import SunderDevice
from ..prefilter.gate import (build_prefilter, gated_device_run,
                              gated_simulation)
from ..sim.engine import BitsetEngine
from ..sim.inputs import stream_for, stream_shape
from ..sim.reports import ReportRecorder
from .plan import ExecutionPlan
from .planner import Planner
from .traits import automaton_traits


class Session:
    """One automaton + one plan, executable over many streams.

    Parameters
    ----------
    automaton:
        The machine to execute — for the engine target any machine
        :func:`~repro.sim.inputs.stream_for` can feed (8-bit arity-1 or
        4-bit strided); for the device target a 4-bit rate machine.
    plan:
        An :class:`ExecutionPlan`, or None to let ``planner`` choose
        one from the machine's traits and the first ``execute`` call's
        stream count (the chosen plan is then bound for the session's
        lifetime and readable as ``session.plan``).
    source:
        The 8-bit machine ``automaton`` was rate-transformed from;
        prefilter literals are extracted from it.  Defaults to
        ``automaton`` itself.
    config:
        Device-target :class:`~repro.core.config.SunderConfig`;
        defaults to one sized by the automaton's arity.
    planner:
        The :class:`~repro.exec.planner.Planner` used when ``plan`` is
        None; defaults to one targeting the plan's target.
    """

    def __init__(self, automaton, plan=None, *, source=None, config=None,
                 planner=None):
        automaton.validate()
        self.automaton = automaton
        self.source = source if source is not None else automaton
        self.config = config
        self.traits = automaton_traits(automaton)
        if plan is not None:
            if not isinstance(plan, ExecutionPlan):
                raise ValueError(
                    "Session plan must be an ExecutionPlan or None, got %r"
                    % (plan,))
            plan.validate_for(self.traits)
        self.plan = plan
        self._planner = planner
        self._engine = None
        self._device = None
        self._prefilter = None

    # ------------------------------------------------------------------
    def execute(self, streams):
        """Run every byte stream; returns per-stream recorders.

        ``streams`` is an iterable of byte strings.  Results are
        :class:`~repro.sim.reports.ReportRecorder`\\ s in stream order,
        each with ``keep_events=True`` and the stream's own position
        limit — bit-exact with the corresponding direct run-variant
        call for the bound plan.
        """
        datas = [bytes(stream) for stream in streams]
        plan = self.plan
        if plan is None:
            plan = self._plan_for(datas)
            self.plan = plan
        if plan.target == "device":
            return self._execute_device(plan, datas)
        return self._execute_engine(plan, datas)

    def _plan_for(self, datas):
        planner = self._planner
        if planner is None:
            planner = self._planner = Planner()
        plan = planner.plan(self.automaton, stream_count=max(1, len(datas)))
        return plan.validate_for(self.traits)

    # ------------------------------------------------------------------
    # Engine target
    # ------------------------------------------------------------------
    def _bind_engine(self):
        if self._engine is None:
            self._engine = BitsetEngine(self.automaton)
        return self._engine

    def _bind_prefilter(self):
        prefilter = self._prefilter
        if prefilter is None:
            prefilter = self._prefilter = build_prefilter(self.source)
        return prefilter

    def _execute_engine(self, plan, datas):
        engine = self._bind_engine()
        if plan.prefilter:
            prefilter = self._bind_prefilter()
            recorders = []
            for data in datas:
                _, limit = stream_shape(self.automaton, data)
                recorder = ReportRecorder(keep_events=True,
                                          position_limit=limit)
                gated_simulation(self.automaton, data, recorder,
                                 source=self.source, prefilter=prefilter,
                                 engine=engine)
                recorders.append(recorder)
            return recorders
        lanes = [stream_for(self.automaton, data) for data in datas]
        recorders = [ReportRecorder(keep_events=True, position_limit=limit)
                     for _, limit in lanes]
        if len(datas) > 1:
            engine.run_batch([vectors for vectors, _ in lanes], recorders)
        elif datas:
            vectors = lanes[0][0]
            if plan.shards == "auto" or plan.shards > 1:
                engine.run_sharded(vectors, plan.shards, recorders[0],
                                   interleave=False)
            elif plan.batch > 1:
                engine.run_sharded(vectors, plan.batch, recorders[0],
                                   interleave=True)
            else:
                engine.run(vectors, recorders[0])
        return recorders

    # ------------------------------------------------------------------
    # Device target
    # ------------------------------------------------------------------
    def _bind_device(self, plan):
        device = self._device
        if device is None:
            device = self._fresh_device(plan)
            self._device = device
        return device

    def _fresh_device(self, plan):
        config = self.config
        if config is None:
            config = SunderConfig(rate_nibbles=self.automaton.arity)
        device = SunderDevice(config, fidelity=plan.fidelity)
        device.configure(self.automaton)
        return device

    def _execute_device(self, plan, datas):
        if plan.prefilter:
            device = self._bind_device(plan)
            prefilter = self._bind_prefilter()
            return [gated_device_run(device, self.automaton, data,
                                     source=self.source,
                                     prefilter=prefilter)
                    for data in datas]
        device = self._bind_device(plan)
        if device.fidelity == "packed":
            lanes = [stream_for(self.automaton, data) for data in datas]
            recorders = [ReportRecorder(keep_events=True,
                                        position_limit=limit)
                         for _, limit in lanes]
            if lanes:
                device.run_batch([vectors for vectors, _ in lanes],
                                 recorders=recorders)
            return recorders
        # The literal oracle has no lane-sharable compiled form and its
        # reporting regions accumulate across runs, so each stream gets
        # a fresh bit-level device — slow but hardware-faithful.
        recorders = []
        for index, data in enumerate(datas):
            if index or device.global_cycle:
                device = self._fresh_device(plan)
            vectors, limit = stream_for(self.automaton, data)
            result = device.run(vectors, position_limit=limit)
            recorders.append(result.reports())
        return recorders
