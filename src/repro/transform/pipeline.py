"""End-to-end transformation pipeline: byte automaton -> Sunder rate.

Sunder configures a *processing rate* of 1, 2, or 4 nibbles per cycle
(4/8/16 bits).  :func:`to_rate` runs the whole Section 4 pipeline —
nibble decomposition, then temporal striding to the requested rate — and
:func:`transform_overhead` measures the state/transition blowup that the
paper reports in Table 3.
"""

from time import perf_counter

from ..errors import TransformError
from ..obs import OBS, trace_span
from .cache import last_call_was_hit
from .nibble import to_nibbles
from .striding import stride

#: Processing rates Sunder supports, in nibbles per cycle.
SUPPORTED_RATES = (1, 2, 4)


def _run_stage(stage, func, source):
    """Run one pipeline stage, recording span + metrics when collecting.

    Timing comes from the trace span itself when one is open (a
    metrics-only session falls back to one ``perf_counter`` pair).
    Cache hits are tagged ``cached=true`` on the span and excluded from
    the stage-seconds histogram, so ``repro_transform_stage_seconds``
    keeps measuring what it always did: the cost of actually running the
    transform.
    """
    if not OBS.active:  # single attribute check when no collector attached
        return func()
    states_in = max(1, len(source))
    transitions_in = max(1, source.num_transitions())
    traced = OBS.trace is not None
    start = None if traced else perf_counter()
    with trace_span("transform." + stage, automaton=source.name,
                    states_in=len(source)) as span:
        result = func()
        cached = last_call_was_hit()
        span.set_attr(states_out=len(result), cached=cached)
    elapsed = span.duration if traced else perf_counter() - start
    instruments = OBS.instruments
    instruments.transform_runs.labels(stage=stage).inc()
    if not cached:
        instruments.transform_stage_seconds.labels(stage=stage).observe(
            elapsed)
    instruments.transform_state_ratio.labels(stage=stage).observe(
        len(result) / states_in)
    instruments.transform_transition_ratio.labels(stage=stage).observe(
        result.num_transitions() / transitions_in)
    return result


def to_rate(automaton, nibbles_per_cycle, minimized=True):
    """Transform an 8-bit automaton to process ``nibbles_per_cycle`` nibbles.

    Returns a frozen 4-bit automaton of arity ``nibbles_per_cycle``.  Report
    positions are preserved in nibble units: a byte-automaton report at
    byte ``t`` appears at nibble position ``2t + 1`` at any rate.
    """
    if nibbles_per_cycle not in SUPPORTED_RATES:
        raise TransformError(
            "unsupported rate %r (Sunder supports %s nibbles/cycle)"
            % (nibbles_per_cycle, list(SUPPORTED_RATES))
        )
    nibble_automaton = _run_stage(
        "nibble", lambda: to_nibbles(automaton, minimized=minimized),
        automaton)
    if nibbles_per_cycle == 1:
        # Same naming scheme at every rate.  Transform results are
        # frozen cache masters, so the rename is an O(1) frozen clone.
        return nibble_automaton.shallow_clone(
            name="%s.1nibble" % automaton.name)
    strided = _run_stage(
        "stride",
        lambda: stride(nibble_automaton, nibbles_per_cycle,
                       minimized=minimized),
        nibble_automaton)
    return strided.shallow_clone(
        name="%s.%dnibble" % (automaton.name, nibbles_per_cycle))


def transform_overhead(automaton, rates=SUPPORTED_RATES, minimized=True):
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
    nibble_automaton = _run_stage(
        "nibble", lambda: to_nibbles(automaton, minimized=minimized),
        automaton)
    for rate in rates:
        if rate == 1:
            machine = nibble_automaton
        else:
            machine = _run_stage(
                "stride",
                lambda rate=rate: stride(nibble_automaton, rate,
                                         minimized=minimized),
                nibble_automaton)
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
