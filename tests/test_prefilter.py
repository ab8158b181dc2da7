"""Differential suite for the two-stage literal prefilter.

The gate's contract is *bit-exactness*: a prefilter-gated run emits
exactly the reports of the ungated run — same events, same order — on
every path: gated windows, the cold short-circuit (no engine built),
and the unfilterable/cyclic bypass.  The suite pins this across regex
families x rates 1/2/4 x both fast kernels, plus the extraction
soundness property the whole design rests on: every report in an
ungated run ends at a byte the direct filter's scan surfaces.
"""

import random

import pytest

from conftest import random_automaton
from repro.errors import PrefilterError
from repro.prefilter import (Prefilter, build_prefilter, extract_literals,
                             gated_device_run, gated_simulation,
                             plan_windows)
from repro.core import SunderConfig, SunderDevice
from repro.regex import compile_ruleset
from repro.sim import BitsetEngine, stream_for
from repro.sim.reports import ReportRecorder
from repro.transform import to_rate

#: Regex families with extractable literals (every report path funnels
#: through a fixed byte string or a narrow class).
FILTERABLE_FAMILIES = {
    "exact": ["abc", "hello", "needle"],
    "classes": ["ab[0-9]", "[xy]z!"],
    "alternation": ["q(rs|tu)v", "(foo|bar)"],
    "bounded": ["ab{2}c", "z{3}"],
}
#: Families the extractor must refuse (unbounded tails / wide classes).
UNFILTERABLE_FAMILIES = {
    "dotstar": ["a.*b"],
    "wide_class": ["a.c"],
}

RATES = (1, 2, 4)
ALPHABET = b"abcdefghij norstuvxyz!0123"


def _streams(rules, rng, length=300):
    """Clean, match-bearing, and adversarial inputs for one family."""
    noise = bytes(rng.choice(b"KLMNOPQW") for _ in range(length))
    planted = bytearray(rng.choice(ALPHABET) for _ in range(length))
    for index, rule in enumerate(rules):
        seed = rule.strip("(").split("|")[0]
        literal = "".join(ch for ch in seed if ch.isalnum() or ch in "!")
        position = (index * 67) % (length - 12)
        planted[position:position + len(literal)] = literal.encode()
    edges = b"abc" + noise[:40] + b"helloabc" + b"q" * 20 + b"abcabcabc"
    return [noise, bytes(planted), edges]


def _engine_events(machine, data):
    vectors, limit = stream_for(machine, data)
    recorder = ReportRecorder(keep_events=True, position_limit=limit)
    BitsetEngine(machine).run(vectors, recorder)
    return recorder


@pytest.mark.parametrize("family", sorted(FILTERABLE_FAMILIES))
def test_gated_engine_bit_exact_across_rates(family, rng):
    rules = FILTERABLE_FAMILIES[family]
    source = compile_ruleset(rules)
    prefilter = build_prefilter(source)
    assert prefilter.filterable, prefilter.extraction.reason
    for data in _streams(rules, rng):
        baseline = _engine_events(source, data)
        recorder = ReportRecorder(keep_events=True)
        engine, gated = gated_simulation(source, data, recorder,
                                         prefilter=prefilter)
        assert gated
        assert recorder.events == baseline.events
        for rate in RATES:
            machine = to_rate(source, rate)
            expected = _engine_events(machine, data)
            _, limit = stream_for(machine, data)
            gated_rec = ReportRecorder(keep_events=True,
                                       position_limit=limit)
            gated_simulation(machine, data, gated_rec, source=source,
                             prefilter=prefilter)
            assert gated_rec.events == expected.events, (family, rate)


@pytest.mark.parametrize("family", sorted(FILTERABLE_FAMILIES))
@pytest.mark.parametrize("rate", RATES)
def test_gated_device_bit_exact(family, rate, rng):
    rules = FILTERABLE_FAMILIES[family]
    source = compile_ruleset(rules)
    prefilter = build_prefilter(source)
    machine = to_rate(source, rate)
    device = SunderDevice(SunderConfig(rate_nibbles=rate),
                          fidelity="packed")
    device.configure(machine)
    for data in _streams(rules, rng):
        vectors, limit = stream_for(machine, data)
        expected = device.run_batch([vectors], position_limit=limit)[0]
        recorder = gated_device_run(device, machine, data, source=source,
                                    prefilter=prefilter)
        assert recorder.events == expected.events, (family, rate)


@pytest.mark.parametrize("family", sorted(UNFILTERABLE_FAMILIES))
def test_unfilterable_families_bypass_bit_exact(family, rng):
    rules = UNFILTERABLE_FAMILIES[family]
    source = compile_ruleset(rules)
    prefilter = build_prefilter(source)
    assert not prefilter.filterable
    data = b"a" + bytes(rng.choice(ALPHABET) for _ in range(200)) + b"xyyyzb"
    baseline = _engine_events(source, data)
    recorder = ReportRecorder(keep_events=True)
    engine, gated = gated_simulation(source, data, recorder,
                                     prefilter=prefilter)
    assert not gated
    assert engine is not None
    assert recorder.events == baseline.events
    # The device path bypasses the same way.
    machine = to_rate(source, 4)
    device = SunderDevice(SunderConfig(rate_nibbles=4), fidelity="packed")
    device.configure(machine)
    vectors, limit = stream_for(machine, data)
    expected = device.run_batch([vectors], position_limit=limit)[0]
    gated_rec = gated_device_run(device, machine, data, source=source,
                                 prefilter=prefilter)
    assert gated_rec.events == expected.events


def test_cyclic_machine_bypasses_bit_exact(rng):
    """``xy+z`` is filterable (loop suffixes are covered up to the max
    literal length) but cyclic — no depth bound, so window planning
    refuses and the run bypasses the gate, still bit-exact."""
    source = compile_ruleset(["xy+z"])
    prefilter = build_prefilter(source)
    assert prefilter.filterable
    assert source.depth_bound() is None
    data = b"xyz " + bytes(rng.choice(ALPHABET) for _ in range(150)) \
        + b" xyyyyz"
    baseline = _engine_events(source, data)
    recorder = ReportRecorder(keep_events=True)
    engine, gated = gated_simulation(source, data, recorder,
                                     prefilter=prefilter)
    assert not gated
    assert recorder.events == baseline.events


def test_cold_gate_never_builds_the_engine():
    source = compile_ruleset(["needle", "hay[0-9]"])
    prefilter = build_prefilter(source)
    recorder = ReportRecorder(keep_events=True)
    engine, gated = gated_simulation(source, b"Q" * 500, recorder,
                                     prefilter=prefilter)
    assert gated
    assert engine is None
    assert recorder.events == []


def test_extraction_soundness_on_random_machines(rng):
    """Every ungated report ends at a byte the scan surfaces.

    This is the property the whole gate rests on: if extraction calls a
    machine filterable, a report at byte position t implies some
    extracted literal occurrence ends exactly at t, and the direct
    filter's verified scan finds it.
    """
    checked = 0
    for seed in range(40):
        machine_rng = random.Random(seed)
        machine = random_automaton(machine_rng, n_states=6,
                                   edge_density=0.2)
        if not machine or not machine.report_states():
            continue
        extraction = extract_literals(machine)
        if not extraction.filterable:
            continue
        prefilter = Prefilter(extraction)
        data = bytes(rng.randrange(256) for _ in range(300))
        ends = set(prefilter.scan(data).ends)
        baseline = _engine_events(machine, data)
        for event in baseline.events:
            assert event.position in ends, (seed, event)
        checked += 1
    assert checked >= 5  # the property must actually have been exercised


def test_plan_windows_merges_and_bounds():
    source = compile_ruleset(["abcd"])
    depth = source.depth_bound()
    windows = plan_windows([3, 4, 200], source, 150)
    # Adjacent ends merge into one window; out-of-range ends drop.
    assert windows == [(max(0, 3 - depth), 3, 5)]
    assert plan_windows([], source, 100) == []
    cyclic = compile_ruleset(["xy+z"])
    assert plan_windows([5], cyclic, 100) is None


def test_prefilter_cache_round_trip():
    source = compile_ruleset(["abc", "de[0-9]f"])
    prefilter = build_prefilter(source)
    clone = Prefilter.loads(prefilter.dumps())
    assert clone.filterable == prefilter.filterable
    assert clone.literals == prefilter.literals
    # Memoized: the second build serves the cached object.
    assert build_prefilter(source) is build_prefilter(source)
    with pytest.raises(PrefilterError):
        Prefilter.loads('{"format": "bogus"}')


def test_unfilterable_scan_raises():
    prefilter = build_prefilter(compile_ruleset(["a.*b"]))
    with pytest.raises(PrefilterError):
        prefilter.scan(b"data")


def test_gated_stage_params_salt_keys():
    """A gating plan joins simulate-stage params only when enabled."""
    from repro.exec import ExecutionPlan
    from repro.experiments.table1 import simulation_params
    plain = simulation_params({"name": "x"}, ExecutionPlan())
    assert plain == {"name": "x"}
    gated = simulation_params({"name": "x"}, ExecutionPlan(prefilter=True))
    assert gated["plan"]["prefilter"] is True
    from repro.runtime.stages import canonical
    assert canonical(plain) != canonical(gated)


def test_gated_stages_match_ungated_reports():
    """simulate8/simulate_strided emit identical events under the gate."""
    from repro import obs
    from repro.exec import ExecutionPlan
    from repro.runtime.stages import get_stage
    from repro.workloads import generate

    def gated_run(func, params, *deps):
        registry = obs.MetricsRegistry()
        trace = obs.TraceCollector()
        with obs.collecting(registry=registry, trace=trace):
            run = func(params, *deps)
        # The gate must really have scanned the input; a plan the stage
        # ignored would compare an ungated run with an ungated run.
        assert registry.get("repro_prefilter_scan_bytes_total").value > 0
        return run, {span.name for span in trace.spans}

    gate = ExecutionPlan(prefilter=True).param_payload()
    instance = generate("ExactMatch", 0.005, 3)
    sim8 = get_stage("simulate8").func
    plain8 = sim8({"name": "ExactMatch"}, instance)
    gated8, _ = gated_run(sim8, {"name": "ExactMatch", "plan": gate},
                          instance)
    assert gated8.recorder.events == plain8.recorder.events
    assert gated8.cycles == plain8.cycles

    strided = to_rate(instance.automaton, 4)
    sim_strided = get_stage("simulate_strided").func
    plain = sim_strided({"name": "ExactMatch", "rate": 4}, instance,
                        strided)
    gated, spans = gated_run(
        sim_strided, {"name": "ExactMatch", "rate": 4, "plan": gate},
        instance, strided)
    assert "prefilter.scan" in spans
    assert gated.recorder.events == plain.recorder.events
    assert gated.cycles == plain.cycles
