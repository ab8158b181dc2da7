"""End-to-end transformation pipeline: byte automaton -> Sunder rate.

Sunder configures a *processing rate* of 1, 2, or 4 nibbles per cycle
(4/8/16 bits).  Every rate is built on one ladder (paper Section 4,
temporal striding after Impala): rate 1 is the nibble machine, and rate
``2r`` is one minimized squaring of rate ``r``.  :func:`rate_ladder`
climbs it once per call, :func:`to_rate` returns one of its rungs, and
:func:`transform_overhead` measures the state/transition blowup that
the paper reports in Table 3.  The stage graph declares each rung as
its own ``to_rate`` task, which :func:`climb` builds from the rung
below.
"""

from time import perf_counter

from ..errors import TransformError
from ..obs import OBS, trace_span
from .nibble import to_nibbles
from .striding import stride

#: Processing rates Sunder supports, in nibbles per cycle.
SUPPORTED_RATES = (1, 2, 4)


def _run_stage(stage, func, source):
    """Run one pipeline stage, recording span + metrics when collecting.

    Timing comes from the trace span itself when one is open (a
    metrics-only session falls back to one ``perf_counter`` pair).
    """
    if not OBS.active:  # single attribute check when no collector attached
        return func()
    states_in = max(1, len(source))
    traced = OBS.trace is not None
    start = None if traced else perf_counter()
    with trace_span("transform." + stage, automaton=source.name,
                    states_in=len(source)) as span:
        result = func()
        span.set_attr(states_out=len(result))
    elapsed = span.duration if traced else perf_counter() - start
    instruments = OBS.instruments
    instruments.transform_runs.labels(stage=stage).inc()
    instruments.transform_stage_seconds.labels(stage=stage).observe(elapsed)
    instruments.transform_state_ratio.labels(stage=stage).observe(
        len(result) / states_in)
    return result


def check_rates(rates):
    """Raise :class:`TransformError` unless every rate is supported."""
    for rate in rates:
        if rate not in SUPPORTED_RATES:
            raise TransformError(
                "unsupported rate %r (Sunder supports %s nibbles/cycle)"
                % (rate, list(SUPPORTED_RATES)))


def climb(machine, nibbles_per_cycle):
    """Stride a rung of the ladder up to ``nibbles_per_cycle``.

    ``machine`` is a rung :func:`rate_ladder` built (its arity is its
    rate, its name ``<name>.<rate>nibble``); the result is the frozen
    rung ``<name>.<nibbles_per_cycle>nibble``.
    """
    strided = _run_stage(
        "stride", lambda: stride(machine, nibbles_per_cycle // machine.arity),
        machine)
    return strided.shallow_clone(name="%s.%dnibble" % (
        machine.name.rsplit(".", 1)[0], nibbles_per_cycle))


def rate_ladder(automaton, rates=SUPPORTED_RATES):
    """``{rate: machine}``: an 8-bit automaton at each of ``rates``.

    The ladder is climbed once: rate 1 is the minimized nibble machine,
    and each requested rate strides the highest rung built so far, so
    rate 4 after rate 2 is one squaring of rate 2.  Every machine is a
    frozen 4-bit automaton named ``<name>.<rate>nibble`` whose arity is
    its rate.  Report positions are preserved in nibble units: a
    byte-automaton report at byte ``t`` appears at nibble position
    ``2t + 1`` at any rate.
    """
    check_rates(rates)
    machine = _run_stage(
        "nibble",
        lambda: to_nibbles(automaton, name="%s.1nibble" % automaton.name),
        automaton)
    ladder = {1: machine}
    for rate in sorted(set(rates)):
        if rate > machine.arity:
            machine = ladder[rate] = climb(machine, rate)
    return {rate: ladder[rate] for rate in rates}


def to_rate(automaton, nibbles_per_cycle):
    """Transform an 8-bit automaton to process ``nibbles_per_cycle`` nibbles.

    Returns the frozen rung of :func:`rate_ladder`: a 4-bit automaton of
    arity ``nibbles_per_cycle`` named ``<name>.<rate>nibble``.
    """
    return rate_ladder(automaton, (nibbles_per_cycle,))[nibbles_per_cycle]


def transform_overhead(automaton, rates=SUPPORTED_RATES):
    """State/transition overhead of each rate, normalized to the 8-bit source.

    Returns a dict ``rate -> {"states": ..., "transitions": ...,
    "state_ratio": ..., "transition_ratio": ...}`` plus a ``"base"`` entry
    with the source counts — i.e. one row of the paper's Table 3.
    """
    base_states = len(automaton)
    base_transitions = automaton.num_transitions()
    if base_states == 0:
        raise TransformError("cannot measure overhead of an empty automaton")
    result = {
        "base": {"states": base_states, "transitions": base_transitions},
    }
    for rate, machine in rate_ladder(automaton, rates).items():
        result[rate] = {
            "states": len(machine),
            "transitions": machine.num_transitions(),
            "state_ratio": len(machine) / base_states,
            "transition_ratio": (
                machine.num_transitions() / base_transitions
                if base_transitions else float("nan")
            ),
        }
    return result
