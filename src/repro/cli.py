"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile``      compile regexes to an automaton, print a summary or dump
                 ANML/MNRL/DOT
``match``        compile regexes, stream a file (or --text) through the
                 bit-faithful Sunder device, print reports
``transform``    show the nibble/striding overhead for given regexes
``experiment``   run one paper experiment (table1..table5, figure8..10)
``workload``     generate a synthetic benchmark and print its Table-1 row
``trace``        cycle-by-cycle execution trace for debugging
``profile``      run any other command with telemetry collection on
``runtime``      inspect or clear the artifact store

``match``, ``experiment``, and ``workload`` additionally accept
``--metrics-out metrics.json`` / ``--trace-out trace.json`` to export the
telemetry gathered during the run (see docs/observability.md).

The global ``--artifact-dir DIR`` flag (or the ``REPRO_ARTIFACT_DIR``
environment variable) adds an on-disk tier to the artifact store:
compiled nibble/strided automata, generated workloads, simulation report
streams, and result rows persist across runs, so a warm directory
re-renders every table without re-executing the expensive stages.

``match`` and ``compare`` read ``--file`` before any other work; a file
that cannot be read prints ``error: cannot read <path>: <reason>`` and
exits 2, as a library error does.

The global ``--plan {auto,<json>}`` flag applies to ``match`` only: an
inline :class:`~repro.exec.ExecutionPlan` JSON document names the
target and the device fidelity, and ``auto`` (the default) keeps the
default ``{"target": "device"}``.  ``match`` runs on the device, so its
plan must target ``"device"``.  ``repro plan explain <patterns>`` shows
the plan the auto-planner would pick and why (see
docs/architecture.md).
"""

import argparse
import sys

from . import experiments, obs
from .automata import anml, mnrl
from .automata.viz import outline, to_dot
from .core import SunderConfig, SunderDevice
from .errors import ReproError
from .exec import ExecutionPlan, Planner, resolve_plan
from .regex import compile_ruleset
from .runtime import store as runtime_store
from .sim import stream_for
from .sim.trace import Tracer
from .transform import to_rate, transform_overhead
from .workloads import BENCHMARK_NAMES, generate


def _build_ruleset(patterns):
    return compile_ruleset([(pattern, pattern) for pattern in patterns])


def _read_input(args):
    """The bytes of ``--text`` or ``--file``; an unreadable file is a
    :class:`ReproError`, so it exits 2 before any pattern compiles."""
    if args.text is not None:
        return args.text.encode()
    try:
        with open(args.file, "rb") as handle:
            return handle.read()
    except OSError as error:
        raise ReproError("cannot read %s: %s"
                         % (args.file, error.strerror or error))


def cmd_compile(args):
    machine = _build_ruleset(args.patterns)
    if args.format == "summary":
        print(outline(machine, max_states=args.max_states))
    elif args.format == "anml":
        print(anml.dumps(machine))
    elif args.format == "mnrl":
        print(mnrl.dumps(machine, indent=2))
    elif args.format == "dot":
        print(to_dot(machine, max_states=args.max_states))
    return 0


def cmd_match(args):
    data = _read_input(args)
    try:
        plan = resolve_plan(args.plan) or ExecutionPlan(target="device")
    except ValueError as error:
        raise SystemExit("--plan: %s" % error)
    if plan.target != "device":
        raise SystemExit("--plan: match runs on the device; the plan must "
                         "set target 'device', got %r" % plan.target)
    machine = to_rate(_build_ruleset(args.patterns), args.rate)
    device = SunderDevice(SunderConfig(rate_nibbles=args.rate,
                                       report_bits=args.report_bits),
                          fidelity=plan.fidelity)
    device.configure(machine)
    # Report positions are in the machine's sub-symbol units (nibbles for
    # the 4-bit machines every rate produces); derive the per-byte
    # divisor from the configured geometry instead of hardcoding it.
    positions_per_byte = 8 // machine.bits
    vectors, limit = stream_for(machine, data)
    result = device.run(vectors, position_limit=limit)
    events = sorted(result.reports().events, key=lambda e: e.position)
    for event in events:
        print("%d\t%s" % (event.position // positions_per_byte,
                          event.report_code))
    print("-- %d matches, %d cycles, %.3fx reporting overhead" % (
        len(events), result.cycles, result.slowdown), file=sys.stderr)
    return 0


def cmd_transform(args):
    machine = _build_ruleset(args.patterns)
    overhead = transform_overhead(machine)
    print("base: %(states)d states, %(transitions)d transitions"
          % overhead["base"])
    for rate in (1, 2, 4):
        row = overhead[rate]
        print("%d nibble(s): %5d states (%.2fx)  %5d transitions (%.2fx)" % (
            rate, row["states"], row["state_ratio"],
            row["transitions"], row["transition_ratio"],
        ))
    return 0


#: Experiments whose entry points take workload scale/seed parameters.
_SCALED_EXPERIMENTS = ("table1", "table3", "table4", "figure8", "scorecard")


def cmd_experiment(args):
    if args.plan != "auto":
        raise SystemExit("--plan applies only to: match")
    module = experiments.ALL_EXPERIMENTS[args.name]
    kwargs = {}
    if args.name in _SCALED_EXPERIMENTS:
        kwargs["scale"] = args.scale
        kwargs["seed"] = args.seed
    module.main(**kwargs)
    return 0


def cmd_workload(args):
    instance = generate(args.name, scale=args.scale, seed=args.seed)
    row = instance.measured_behavior()
    row.pop("recorder", None)
    width = max(len(key) for key in row)
    for key, value in row.items():
        print("%-*s  %s" % (width, key, value))
    return 0


def cmd_plan(args):
    if args.patterns and args.patterns[0] == "explain":
        return _plan_explain(args)
    machine = _build_ruleset(args.patterns)
    from .core.capacity import recommend_rate
    best, plans = recommend_rate(machine, args.clusters)
    print("%-6s %-8s %-9s %-7s %-14s %s" % (
        "rate", "states", "clusters", "rounds", "effective Gbps", ""))
    for rate in sorted(plans):
        plan = plans[rate]
        marker = "  <- recommended" if plan is best else ""
        print("%-6d %-8d %-9d %-7d %-14.1f%s" % (
            plan.rate, plan.states, plan.clusters, plan.rounds,
            plan.effective_gbps, marker))
    return 0


def _plan_explain(args):
    """``repro plan explain <patterns>``: the auto-selected execution
    plan for a ruleset plus one reason line per decision."""
    patterns = args.patterns[1:]
    if not patterns:
        print("error: plan explain requires at least one pattern",
              file=sys.stderr)
        return 2
    machine = _build_ruleset(patterns)
    planner = Planner(target=args.target)
    plan, choices = planner.explain(machine, stream_count=args.streams)
    print("plan: %s" % plan.dumps())
    for choice in choices:
        print("  %-12s %-10s %s" % (choice["choice"],
                                    str(choice["value"]), choice["reason"]))
    return 0


def cmd_compare(args):
    """Sunder vs AP vs AP+RAD reporting overhead on user patterns+input."""
    from .baselines import ApReportingModel
    from .core import ReportingPerfModel, place, pu_fill_cycles_from_events
    from .sim import BitsetEngine, ReportRecorder

    data = _read_input(args)
    machine = _build_ruleset(args.patterns)
    recorder = ReportRecorder()
    BitsetEngine(machine).run(list(data), recorder)
    report_ids = [s.id for s in machine.report_states()]
    scale = max(1e-4, len(data) / 1_000_000.0)
    ap = ApReportingModel(scale=scale).evaluate(
        recorder, report_ids, len(data))
    rad = ApReportingModel(rad=True, scale=scale).evaluate(
        recorder, report_ids, len(data))

    strided = to_rate(machine, 4)
    vectors, limit = stream_for(strided, data)
    strided_recorder = ReportRecorder(position_limit=limit)
    BitsetEngine(strided).run(vectors, strided_recorder)
    config = SunderConfig(rate_nibbles=4, report_bits=args.report_bits)
    placement = place(strided, config)
    fills = pu_fill_cycles_from_events(strided_recorder, placement)
    sunder = ReportingPerfModel(config).evaluate(
        fills, len(vectors), capacity_scale=scale)

    print("input: %d bytes, %d reports (%.2f%% of cycles)" % (
        len(data), recorder.total_reports,
        100.0 * recorder.report_cycles / max(1, len(data))))
    print("reporting overhead:")
    print("  Sunder (16-bit)  %6.2fx  (%d flushes)" % (
        sunder.slowdown, sunder.flushes))
    print("  AP (8-bit)       %6.2fx" % ap.slowdown)
    print("  AP+RAD (8-bit)   %6.2fx" % rad.slowdown)
    return 0


def cmd_runtime(args):
    """Inspect or clear the artifact store."""
    store = runtime_store.get_store()
    if args.action == "clear":
        removed = store.clear()
        print("removed %d cached artifacts" % removed)
        return 0
    info = store.info()
    stats = info.pop("stats")
    width = max(len(key) for key in info)
    for key, value in info.items():
        print("%-*s  %s" % (width, key,
                            value if value is not None else "(memory only)"))
    print("%-*s  %s" % (width, "stats", ", ".join(
        "%s=%d" % (key, stats[key]) for key in sorted(stats))))
    return 0


def cmd_trace(args):
    machine = _build_ruleset(args.patterns)
    tracer = Tracer(machine)
    tracer.run(list(args.text.encode()))
    print(tracer.render(max_cycles=args.max_cycles))
    return 0


def _run_observed(func, args, metrics_out, trace_out, summarize):
    """Run one command with a telemetry collector attached.

    Metrics go to a fresh registry (so the snapshot covers exactly this
    run) and spans to a fresh trace collector.  ``summarize`` prints the
    text exposition to stderr when no --metrics-out was given (the
    ``profile`` wrapper's default behaviour).
    """
    registry = obs.MetricsRegistry()
    trace = obs.TraceCollector()
    with obs.collecting(registry=registry, trace=trace):
        with obs.trace_span("cli.%s" % args.command):
            code = func(args)
    if metrics_out:
        with open(metrics_out, "w", encoding="utf-8") as handle:
            handle.write(registry.render_json())
            handle.write("\n")
    if trace_out:
        trace.write_chrome_trace(trace_out)
    if summarize:
        if not metrics_out:
            print(registry.render_text(), file=sys.stderr)
        print("profile: %d metrics, %d spans%s%s" % (
            len(registry), len(trace.finished()),
            ", metrics -> %s" % metrics_out if metrics_out else "",
            ", trace -> %s" % trace_out if trace_out else "",
        ), file=sys.stderr)
    return code


#: Root-parser flags (and their defaults) that ``profile`` forwards to
#: the wrapped command: the wrapped argv starts at the subcommand, so
#: flags given before ``profile`` only exist on the outer namespace.
_ROOT_FLAG_DEFAULTS = {
    "artifact_dir": None,
    "plan": "auto",
}


def cmd_profile(args):
    """Re-parse the wrapped command and run it under a collector."""
    argv = list(args.argv)
    if argv and argv[0] == "--":
        argv = argv[1:]
    if not argv:
        print("error: profile requires a command to run, e.g. "
              "'repro profile experiment table4'", file=sys.stderr)
        return 2
    inner = build_parser().parse_args(argv)
    if inner.func is cmd_profile:
        print("error: profile cannot wrap itself", file=sys.stderr)
        return 2
    for name, default in _ROOT_FLAG_DEFAULTS.items():
        if getattr(inner, name) == default:
            setattr(inner, name, getattr(args, name))
    _apply_store_flags(inner)
    return _run_observed(
        inner.func, inner,
        getattr(inner, "metrics_out", None),
        getattr(inner, "trace_out", None),
        summarize=True,
    )


def _apply_store_flags(args):
    """Honor ``--artifact-dir`` by reconfiguring the process-wide store."""
    artifact_directory = getattr(args, "artifact_dir", None)
    if artifact_directory:
        runtime_store.configure(directory=artifact_directory)


def _add_observability_flags(parser):
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="collect metrics and write a JSON snapshot")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="collect spans and write a Chrome trace file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sunder (MICRO'21) reproduction toolkit",
    )
    parser.add_argument(
        "--artifact-dir", metavar="DIR", default=None,
        help="persist artifacts (compiled automata, workloads, "
             "simulation runs, result rows) in DIR (also: "
             "REPRO_ARTIFACT_DIR)")
    parser.add_argument(
        "--plan", default="auto", metavar="PLAN",
        help="execution plan as an inline repro-exec-plan JSON document "
             "(target 'device', fidelity 'packed' or 'literal'), or 'auto' "
             "for the default plan; applies to match only; see 'repro "
             "plan explain'")
    commands = parser.add_subparsers(dest="command", required=True)

    compile_parser = commands.add_parser(
        "compile", help="compile regexes to an automaton")
    compile_parser.add_argument("patterns", nargs="+")
    compile_parser.add_argument("--format", default="summary",
                                choices=["summary", "anml", "mnrl", "dot"])
    compile_parser.add_argument("--max-states", type=int, default=200)
    compile_parser.set_defaults(func=cmd_compile)

    match_parser = commands.add_parser(
        "match", help="run patterns over input on the Sunder device")
    match_parser.add_argument("patterns", nargs="+")
    source = match_parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--file")
    source.add_argument("--text")
    match_parser.add_argument("--rate", type=int, default=4,
                              choices=[1, 2, 4])
    match_parser.add_argument("--report-bits", type=int, default=16)
    _add_observability_flags(match_parser)
    match_parser.set_defaults(func=cmd_match)

    transform_parser = commands.add_parser(
        "transform", help="show nibble/striding overhead")
    transform_parser.add_argument("patterns", nargs="+")
    transform_parser.set_defaults(func=cmd_transform)

    experiment_parser = commands.add_parser(
        "experiment", help="run one paper experiment")
    experiment_parser.add_argument(
        "name", choices=sorted(experiments.ALL_EXPERIMENTS))
    experiment_parser.add_argument("--scale", type=float, default=0.01)
    experiment_parser.add_argument("--seed", type=int, default=0)
    _add_observability_flags(experiment_parser)
    experiment_parser.set_defaults(func=cmd_experiment)

    workload_parser = commands.add_parser(
        "workload", help="generate a benchmark and print its statistics")
    workload_parser.add_argument("name", choices=list(BENCHMARK_NAMES))
    workload_parser.add_argument("--scale", type=float, default=0.01)
    workload_parser.add_argument("--seed", type=int, default=0)
    _add_observability_flags(workload_parser)
    workload_parser.set_defaults(func=cmd_workload)

    plan_parser = commands.add_parser(
        "plan", help="recommend a processing rate for a ruleset, or "
                     "'plan explain <patterns>' for the auto-selected "
                     "execution plan")
    plan_parser.add_argument("patterns", nargs="+")
    plan_parser.add_argument("--clusters", type=int, default=8)
    plan_parser.add_argument(
        "--streams", type=int, default=1, metavar="N",
        help="(explain) plan for N independent input streams")
    plan_parser.add_argument(
        "--target", default="engine", choices=["engine", "device"],
        help="(explain) plan for the functional engine or the device")
    plan_parser.set_defaults(func=cmd_plan)

    compare_parser = commands.add_parser(
        "compare", help="Sunder vs AP reporting overhead on your input")
    compare_parser.add_argument("patterns", nargs="+")
    compare_source = compare_parser.add_mutually_exclusive_group(required=True)
    compare_source.add_argument("--file")
    compare_source.add_argument("--text")
    compare_parser.add_argument("--report-bits", type=int, default=16)
    compare_parser.set_defaults(func=cmd_compare)

    trace_parser = commands.add_parser(
        "trace", help="cycle-by-cycle execution trace")
    trace_parser.add_argument("patterns", nargs="+")
    trace_parser.add_argument("--text", required=True)
    trace_parser.add_argument("--max-cycles", type=int, default=100)
    trace_parser.set_defaults(func=cmd_trace)

    runtime_parser = commands.add_parser(
        "runtime", help="inspect or clear the artifact store")
    runtime_parser.add_argument("action", choices=["info", "clear"])
    runtime_parser.set_defaults(func=cmd_runtime)

    profile_parser = commands.add_parser(
        "profile",
        help="run another command with metrics + span collection enabled")
    profile_parser.add_argument(
        "argv", nargs=argparse.REMAINDER, metavar="command",
        help="the command to profile, with its own arguments")
    profile_parser.set_defaults(func=cmd_profile)

    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_store_flags(args)
        metrics_out = getattr(args, "metrics_out", None)
        trace_out = getattr(args, "trace_out", None)
        if metrics_out or trace_out:
            return _run_observed(args.func, args, metrics_out, trace_out,
                                 summarize=False)
        return args.func(args)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into a consumer (head, less) that exited early.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
