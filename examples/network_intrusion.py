"""Network-intrusion detection: Sunder vs the AP reporting architecture.

Snort-style workloads report on nearly every cycle — the case where the
Micron AP's reporting architecture collapses (up to 46x slowdown, paper
Table 4) while Sunder's in-place reporting stays at ~1.0x.  This example
builds a hot intrusion ruleset, streams synthetic traffic, and compares
both reporting models on the *same* report stream.

Run:  python examples/network_intrusion.py
"""

import random

from repro.baselines import ApReportingModel
from repro.core import (
    ReportingPerfModel,
    SunderConfig,
    pu_fill_cycles_from_events,
)
from repro.core.mapping import place
from repro.regex import compile_ruleset
from repro.sim import BitsetEngine, ReportRecorder, stream_for
from repro.transform import to_rate

RULES = [
    ("[a-z0-9]", "any-payload-byte"),     # hot: telemetry rule
    ("[a-z]", "alpha-payload-byte"),      # hot: second telemetry rule
    ("GET /etc/passwd", "lfi-attempt"),   # cold signatures below
    ("<script>", "xss-attempt"),
    ("union select", "sqli-attempt"),
    ("\\x90{8}", "nop-sled"),
]


def synth_traffic(length, seed=7):
    rng = random.Random(seed)
    alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789 "
    weights = [0.95 / 36] * 36 + [0.05]
    return bytes(rng.choices(alphabet, weights=weights, k=length))


def main():
    ruleset = compile_ruleset(RULES)
    traffic = synth_traffic(20_000)

    # Functional run at 8 bits/cycle: the AP's native rate.
    recorder = ReportRecorder()
    BitsetEngine(ruleset).run(list(traffic), recorder)
    print("Traffic: %d bytes, %d reports over %d report cycles (%.1f%%)" % (
        len(traffic), recorder.total_reports, recorder.report_cycles,
        100.0 * recorder.report_cycles / len(traffic),
    ))

    # AP and AP+RAD reporting overheads on that report stream.
    report_ids = [s.id for s in ruleset.report_states()]
    ap = ApReportingModel(scale=0.02).evaluate(
        recorder, report_ids, len(traffic))
    rad = ApReportingModel(rad=True, scale=0.02).evaluate(
        recorder, report_ids, len(traffic))

    # Sunder at 16 bits/cycle with in-place reporting.
    machine = to_rate(ruleset, 4)
    vectors, limit = stream_for(machine, traffic)
    strided_recorder = ReportRecorder(position_limit=limit)
    BitsetEngine(machine).run(vectors, strided_recorder)
    config = SunderConfig(rate_nibbles=4, report_bits=16)
    placement = place(machine, config)
    fills = pu_fill_cycles_from_events(strided_recorder, placement)
    sunder = ReportingPerfModel(config).evaluate(
        fills, len(vectors), capacity_scale=0.02)

    print("\nReporting overhead on this trace:")
    print("  AP (8-bit)      %6.2fx" % ap.slowdown)
    print("  AP+RAD (8-bit)  %6.2fx" % rad.slowdown)
    print("  Sunder (16-bit) %6.2fx  (%d flushes)" % (
        sunder.slowdown, sunder.flushes))

    speedup = (16 * ap.slowdown) / (8 * sunder.slowdown)
    print("\nSunder end-to-end advantage at equal frequency: %.1fx" % speedup)


if __name__ == "__main__":
    main()
