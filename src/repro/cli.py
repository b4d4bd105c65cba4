"""Command-line interface to the Kairos reproduction.

Subcommands mirror the library's main entry points::

    python -m repro info                      # platform & library summary
    python -m repro allocate APP.kair         # four-phase allocation
    python -m repro allocate APP.kair --dry-run   # plan, commit nothing
    python -m repro plan APP.kair             # epoch-stamped plan summary
    python -m repro pack --beamformer out.kair
    python -m repro pack --generate SEED out.kair
    python -m repro inspect APP.kair          # decode a binary
    python -m repro table1 | fig7 | fig8 | fig9 | fig10
                                              # regenerate paper artifacts
    python -m repro sim --policy fifo --duration 120
                                              # discrete-event service sim
    python -m repro sim --replay trace.jsonl  # bit-identical replay check
    python -m repro sim --metrics-out m.json --trace-spans s.jsonl
                                              # instrumented run
    python -m repro cluster sim --shards 4 --kills 2
                                              # sharded service with
                                              # shard-kill campaign
    python -m repro obs show m.json           # pretty-print a snapshot
    python -m repro obs diff a.json b.json    # delta of two snapshots

Scale knobs are taken from the environment (``REPRO_APPS``,
``REPRO_SEQUENCES``, ``REPRO_POSITIONS``, ``REPRO_FIG10_*``) exactly
as in the benchmark suite.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.api import AdmissionController
from repro.apps import GeneratorConfig, beamforming_application, generate
from repro.arch import crisp
from repro.core import CostWeights
from repro.io import load_application, pack_application, save_application, sniff
from repro.manager import generate_plan


def _add_weights(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--comm-weight", type=float, default=1.0,
        help="communication objective weight (default 1.0)",
    )
    parser.add_argument(
        "--frag-weight", type=float, default=1.0,
        help="fragmentation objective weight (default 1.0)",
    )


def _add_service_flags(
    parser: argparse.ArgumentParser, platform_help: str
) -> None:
    """The flags ``repro sim`` and ``repro cluster sim`` both define."""
    parser.add_argument("--platform", default="12x12", help=platform_help)
    parser.add_argument("--duration", type=float, default=120.0,
                        help="sim-time to run (default 120)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--policy", default="fifo",
                        choices=("reject", "fifo", "priority", "retry"),
                        help="queue policy (default fifo)")
    parser.add_argument("--rate-scale", type=float, default=4.0,
                        help="multiplies every class arrival rate "
                             "(default 4.0)")
    parser.add_argument("--pool-size", type=int, default=8,
                        help="generated applications per traffic class")
    parser.add_argument("--sample-interval", type=float, default=5.0,
                        help="sim-time between utilization samples")
    parser.add_argument("--warmup", type=float, default=0.0,
                        help="SLA warmup window in sim-time: requests "
                             "resolved earlier are excluded from the "
                             "steady-state blocking/wait figures "
                             "(metrics only; decisions are unaffected)")
    parser.add_argument("--overload", action="store_true",
                        help="enable overload control (deadline budgets, "
                             "watermark shedding, retry budget, brownout; "
                             "per-shard circuit breakers in a cluster) "
                             "with default policies")
    parser.add_argument("--record", metavar="PATH",
                        help="write the decision trace as JSONL (replayable)")
    parser.add_argument("--replay", metavar="PATH",
                        help="re-run a recorded trace and verify "
                             "bit-identity")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="enable the metric registry and write a JSON "
                             "snapshot (admit/gate/recovery, cluster.* and "
                             "shard.<id>.* counters, per-phase latency "
                             "histograms) — read it back with "
                             "'repro obs show'")
    parser.add_argument("--trace-spans", metavar="PATH",
                        help="enable the span tracer and write the "
                             "hierarchical phase spans (in a cluster also "
                             "coordinator.plan/commit/unwind) as JSONL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Run-time Spatial Resource Management for "
            "Real-Time Applications on Heterogeneous MPSoCs' (DATE 2010)"
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="platform and library summary")

    allocate = commands.add_parser(
        "allocate", help="run a four-phase allocation of a .kair binary"
    )
    allocate.add_argument("binary", help="application binary (.kair)")
    allocate.add_argument("--validation", default="report",
                          choices=("enforce", "report", "skip"))
    allocate.add_argument("--plan", action="store_true",
                          help="print the bootstrap configuration plan")
    allocate.add_argument("--dry-run", action="store_true",
                          help="plan only: run the four phases and print "
                               "the plan summary (per-phase timings, "
                               "epoch, reason code) without committing "
                               "any resources")
    _add_weights(allocate)

    plan = commands.add_parser(
        "plan",
        help="plan (but never commit) a four-phase allocation: prints "
             "the epoch-stamped plan summary and holds no resources",
    )
    plan.add_argument("binary", help="application binary (.kair)")
    plan.add_argument("--validation", default="report",
                      choices=("enforce", "report", "skip"))
    _add_weights(plan)

    pack = commands.add_parser("pack", help="write an application binary")
    source = pack.add_mutually_exclusive_group(required=True)
    source.add_argument("--beamformer", action="store_true",
                        help="pack the 53-task case-study beamformer")
    source.add_argument("--generate", type=int, metavar="SEED",
                        help="pack a generated application with this seed")
    pack.add_argument("output", help="output path (.kair)")

    inspect = commands.add_parser("inspect", help="decode a .kair binary")
    inspect.add_argument("binary")

    sim = commands.add_parser(
        "sim",
        help="discrete-event admission-service simulation (QoS queueing, "
             "faults, trace record/replay)",
    )
    _add_service_flags(
        sim,
        "'crisp', a RxC mesh spec, or a family spec — mesh:RxC, torus:RxC, "
        "hetmesh:RxC, fat_tree:N[:arity] (default 12x12)",
    )
    sim.add_argument("--traffic", default="default",
                     help="named traffic shape: default, hot_spot, "
                          "diurnal_mmpp, flash_crowd (default: default)")
    sim.add_argument("--mapper", default="kairos",
                     help="placement strategy from the pipeline registry "
                          "(kairos, first_fit, random, annealing, optimal; "
                          "default kairos)")
    sim.add_argument("--faults", type=int, default=0,
                     help="random element faults spread over the run")
    sim.add_argument("--fault-mttr", type=float, default=None,
                     metavar="TIME",
                     help="make every fault transient: the resource is "
                          "repaired TIME sim-time after injection "
                          "(default: faults are permanent)")
    sim.add_argument("--fault-links", type=float, default=0.0,
                     metavar="FRACTION",
                     help="fraction of the fault campaign drawn as link "
                          "faults instead of element faults (default 0)")
    sim.add_argument("--fault-storm", type=int, default=0,
                     metavar="RADIUS",
                     help="correlated fault storms: --faults becomes the "
                          "epicenter count and each storm takes down the "
                          "whole RADIUS-hop neighbourhood (default 0: "
                          "uncorrelated)")
    sim.add_argument("--resilience", action="store_true",
                     help="enable the resilience subsystem: health "
                          "registry with soft avoidance penalties, and "
                          "requeue-with-backoff recovery of applications "
                          "a fault displaced (see docs/resilience.md)")
    sim.add_argument("--recovery-order", default="admission",
                     choices=("admission", "priority", "size", "name"),
                     help="re-admission order of the resilience recovery "
                          "engine (default admission; implies "
                          "--resilience semantics only when that flag "
                          "is set)")
    sim.add_argument("--deadline-budget", type=float, default=None,
                     metavar="T",
                     help="per-request sim-time deadline budget "
                          "(implies --overload)")
    sim.add_argument("--watermark-high", type=float, default=None,
                     metavar="F",
                     help="queue occupancy fraction that starts "
                          "load-shedding (implies --overload)")
    sim.add_argument("--watermark-low", type=float, default=None,
                     metavar="F",
                     help="queue occupancy fraction that stops "
                          "load-shedding (implies --overload)")
    sim.add_argument("--retry-tokens", type=float, default=None,
                     metavar="N",
                     help="retry-budget token capacity (implies "
                          "--overload)")
    sim.add_argument("--no-brownout", action="store_true",
                     help="with --overload: keep placement quality, "
                          "never degrade under sustained pressure")
    sim.add_argument("--profile", action="store_true",
                     help="print per-phase wall-clock latency percentiles "
                          "(bind/map/route/validate, p50/p95/p99)")

    cluster = commands.add_parser(
        "cluster",
        help="sharded admission cluster (heartbeat liveness, shard "
             "kill/revive campaigns, cross-shard 2PC; see "
             "docs/cluster.md)",
    )
    cluster_commands = cluster.add_subparsers(
        dest="cluster_command", required=True
    )
    csim = cluster_commands.add_parser(
        "sim",
        help="discrete-event simulation of a sharded admission service",
    )
    _add_service_flags(
        csim,
        "RxC mesh spec partitioned into column bands (default 12x12)",
    )
    csim.add_argument("--shards", type=int, default=2,
                      help="shard count; must divide the mesh columns "
                           "(default 2)")
    csim.add_argument("--kills", type=int, default=0,
                      help="shard kills spread evenly over the run")
    csim.add_argument("--downtime", type=float, default=20.0,
                      help="sim-time between a kill and its revival "
                           "(default 20)")
    csim.add_argument("--no-split", action="store_true",
                      help="disable cross-shard admission of "
                           "applications no single shard can host")

    sweep = commands.add_parser(
        "sweep",
        help="scenario-matrix strategy sweep: topology x traffic x "
             "mapper grids with per-condition statistics (see "
             "docs/scenarios.md)",
    )
    sweep.add_argument("--preset", default="default",
                       choices=("smoke", "default", "storm", "large",
                                "cluster"),
                       help="built-in matrix preset (default: default)")
    sweep.add_argument("--smoke", action="store_true",
                       help="shorthand for --preset smoke --verify (the "
                            "CI gate)")
    sweep.add_argument("--matrix", metavar="PATH",
                       help="load the matrix spec from a JSON file "
                            "instead of a preset")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run cells in an N-process pool (default 1: "
                            "serial; results are identical either way)")
    sweep.add_argument("--seed", type=int, default=None,
                       help="override the matrix seed")
    sweep.add_argument("--output", metavar="PATH",
                       help="write the sweep report JSON")
    sweep.add_argument("--report", metavar="PATH",
                       help="write the markdown report")
    sweep.add_argument("--verify", action="store_true",
                       help="run the sweep twice — serial and pooled — "
                            "and require byte-identical canonical "
                            "payloads (exit 1 on divergence)")

    obs = commands.add_parser(
        "obs",
        help="inspect observability snapshots written by "
             "sim --metrics-out (see docs/observability.md)",
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_show = obs_commands.add_parser(
        "show", help="pretty-print one metrics snapshot"
    )
    obs_show.add_argument("snapshot", help="snapshot JSON path")
    obs_diff = obs_commands.add_parser(
        "diff", help="delta between two snapshots (after minus before)"
    )
    obs_diff.add_argument("before", help="baseline snapshot JSON path")
    obs_diff.add_argument("after", help="comparison snapshot JSON path")

    for name, description in (
        ("table1", "Table I — failure distribution per phase"),
        ("fig7", "Fig. 7 — per-phase runtime vs application size"),
        ("fig8", "Fig. 8 — hops per channel vs sequence position"),
        ("fig9", "Fig. 9 — fragmentation vs sequence position"),
        ("fig10", "Fig. 10 — beamforming admission map"),
    ):
        commands.add_parser(name, help=description)

    return parser


def _cmd_info() -> int:
    platform = crisp()
    kinds: dict[str, int] = {}
    for element in platform.elements:
        kinds[element.kind.value] = kinds.get(element.kind.value, 0) + 1
    print(f"repro {__version__} — Kairos run-time resource manager")
    print(f"platform of record: {platform}")
    print("element census:",
          ", ".join(f"{count}x {kind}" for kind, count in sorted(kinds.items())))
    print(f"links: {len(platform.links)} "
          f"(adjacent element pairs: {len(platform.element_pairs)})")
    app = beamforming_application()
    print(f"case study: {app.name} — {len(app)} tasks, "
          f"{len(app.channels)} channels")
    return 0


def _make_controller(args) -> AdmissionController:
    return AdmissionController(
        crisp(),
        weights=CostWeights(args.comm_weight, args.frag_weight),
        validation_mode=args.validation,
    )


def _cmd_allocate(args) -> int:
    try:
        app = load_application(args.binary)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {args.binary}: {exc}", file=sys.stderr)
        return 2
    controller = _make_controller(args)
    if args.dry_run:
        plan = controller.plan(app)
        print(plan.describe())
        return 0 if plan.ok else 1
    decision = controller.commit(controller.plan(app))
    if not decision.admitted:
        print(f"REJECTED in {decision.phase.value}: {decision.reason}")
        print(f"reason code: {decision.code}")
        return 1
    layout = decision.layout
    print(layout.describe())
    print()
    print("per-phase timings (ms):",
          {k: round(v, 2) for k, v in layout.timings.as_milliseconds().items()})
    if layout.validation is not None:
        print(f"constraints satisfied: {layout.validation.satisfied}")
    if args.plan:
        print()
        print(generate_plan(app, layout).as_script())
    return 0


def _cmd_plan(args) -> int:
    try:
        app = load_application(args.binary)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {args.binary}: {exc}", file=sys.stderr)
        return 2
    controller = _make_controller(args)
    plan = controller.plan(app)
    print(plan.describe())
    if plan.ok and plan.layout.validation is not None:
        print(f"constraints satisfied: {plan.layout.validation.satisfied}")
    return 0 if plan.ok else 1


def _cmd_pack(args) -> int:
    if args.beamformer:
        app = beamforming_application()
    else:
        app = generate(
            GeneratorConfig(inputs=1, internals=4, outputs=1,
                            pin_io_probability=1.0,
                            io_elements=("fpga", "arm")),
            seed=args.generate,
            name=f"generated_{args.generate}",
        )
    save_application(app, args.output)
    print(f"packed {app.name!r}: {len(app)} tasks, "
          f"{len(app.channels)} channels -> {args.output}")
    return 0


def _cmd_inspect(args) -> int:
    try:
        with open(args.binary, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not sniff(data):
        print(f"{args.binary}: not a Kairos application binary")
        return 1
    from repro.io import unpack_application
    app = unpack_application(data)
    print(f"application {app.name!r} ({len(data)} bytes)")
    for task in sorted(app.tasks):
        spec = app.task(task)
        targets = ", ".join(
            impl.target_element or impl.target_kind.value
            for impl in spec.implementations
        )
        print(f"  task {task} [{spec.role}] -> {targets}")
    for name in sorted(app.channels):
        channel = app.channel(name)
        print(f"  channel {name}: {channel.source} -> {channel.target} "
              f"@ {channel.bandwidth:g}")
    for constraint in app.constraints:
        print(f"  constraint: {constraint.describe()}")
    return 0


def _overload_config(args):
    """Build the CLI's OverloadConfig; None when nothing asked for it.

    ``--overload`` turns everything on with defaults; any granular
    tuning flag implies it.  Works for both the sim and cluster
    parsers — flags a parser does not define simply read as unset.
    """
    import dataclasses

    from repro.overload import DeadlinePolicy, OverloadConfig

    budget = getattr(args, "deadline_budget", None)
    high = getattr(args, "watermark_high", None)
    low = getattr(args, "watermark_low", None)
    tokens = getattr(args, "retry_tokens", None)
    tuned = any(v is not None for v in (budget, high, low, tokens))
    if not (args.overload or tuned):
        return None
    config = OverloadConfig.defaults()
    if budget is not None:
        config = dataclasses.replace(
            config, deadline=DeadlinePolicy(budget=budget)
        )
    if high is not None or low is not None:
        watermark = dataclasses.replace(
            config.watermark,
            high=config.watermark.high if high is None else high,
            low=config.watermark.low if low is None else low,
        )
        config = dataclasses.replace(config, watermark=watermark)
    if tokens is not None:
        config = dataclasses.replace(
            config,
            retry_budget=dataclasses.replace(
                config.retry_budget, capacity=tokens
            ),
        )
    if getattr(args, "no_brownout", False):
        config = dataclasses.replace(config, brownout=None)
    return config


def _replay(args) -> int:
    """``--replay`` of either sim command: re-run, diff, report."""
    from repro.sim import replay_trace

    if args.record:
        print("error: --replay and --record are mutually exclusive "
              "(replay re-runs the recorded recipe)", file=sys.stderr)
        return 2
    print("replaying the trace's recorded recipe; other flags are ignored")
    try:
        identical, differences, result = replay_trace(args.replay)
    except (OSError, ValueError) as exc:
        print(f"error: cannot replay {args.replay}: {exc}",
              file=sys.stderr)
        return 2
    print(f"replayed {args.replay}: {len(result.trace)} records")
    if identical:
        print("REPLAY IDENTICAL: event ordering and every recorded "
              "decision reproduced bit-for-bit")
        return 0
    print("REPLAY DIVERGED:")
    for line in differences:
        print(f"  {line}")
    return 1


def _run_observed(args, recipe):
    """Run ``recipe`` — observed when an export flag asks for it.

    Returns the result, or None after printing the error.
    """
    from repro.sim import run_recipe

    obs = None
    if args.metrics_out or args.trace_spans:
        from repro.obs import enabled
        obs = enabled()
    try:
        return run_recipe(recipe, trace_path=args.record, obs=obs)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _export_observed(args, result) -> int:
    """Report the recorded trace; write the snapshot and spans asked for.

    The snapshot's context is the run's identifying flags — ``shards``
    only where the parser defines it.
    """
    from repro.obs import write_snapshot, write_spans

    obs = result.observability
    context = {
        key: getattr(args, key)
        for key in ("platform", "shards", "policy", "seed", "duration")
        if hasattr(args, key)
    }
    if args.record:
        print(f"  trace            : {len(result.trace)} records -> "
              f"{args.record}")
    try:
        if args.metrics_out:
            write_snapshot(obs.registry, args.metrics_out, context)
            print(f"  metrics snapshot : {args.metrics_out}")
        if args.trace_spans:
            count = write_spans(obs.tracer, args.trace_spans)
            print(f"  spans            : {count} -> {args.trace_spans}")
    except OSError as exc:
        print(f"error: cannot write observability output: {exc}",
              file=sys.stderr)
        return 2
    return 0


def _format_waits(waits: dict) -> str:
    return ", ".join(
        f"{key} {value:.3f}" if value is not None else f"{key} n/a"
        for key, value in waits.items()
    )


def _print_run_summary(args, result, summary: dict, where: str) -> None:
    """The summary lines every service run prints, whatever the backend."""
    print(f"simulated {args.duration:g} time units on {where} "
          f"({args.policy} policy, seed {args.seed})")
    print(f"  events processed : {result.events_processed} "
          f"({result.events_per_second:,.0f} events/s wall)")
    print(f"  offered/admitted : {summary['offered']} / "
          f"{summary['admitted']} "
          f"(blocking {summary['blocking_probability']:.3f})")
    print(f"  departures/drops : {summary['departed']} / "
          f"{summary['dropped']} {summary['drops_by_reason']}")
    print("  admission wait   : "
          + _format_waits(summary["admission_wait"]))
    print(f"  mean utilization : {summary['mean_utilization']:.3f} "
          f"(peak queue depth {summary['peak_queue_depth']})")
    if args.warmup:
        steady = summary["steady_state"]
        print(f"  steady state     : blocking "
              f"{steady['blocking_probability']:.3f}, wait "
              f"{_format_waits(steady['admission_wait'])} "
              f"(warmup {steady['warmup']:g} excluded)")
    for name, stats in summary["per_class"].items():
        print(f"  class {name:<12}: {stats['admitted']}/{stats['offered']} "
              f"admitted ({stats['admission_ratio']:.2%})")


def _cmd_sim(args) -> int:
    """``repro sim`` and ``repro cluster sim``: one recipe, one run."""
    from repro.sim import build_recipe

    if args.replay:
        return _replay(args)
    cluster = args.command == "cluster"
    if cluster:
        backend = dict(
            shards=args.shards,
            kills=args.kills,
            downtime=args.downtime,
            allow_split=not args.no_split,
        )
        where = f"{args.platform} across {args.shards} shard(s)"
    else:
        resilience = None
        if args.resilience:
            from repro.resilience import RecoveryPolicy, ResilienceConfig
            resilience = ResilienceConfig(
                recovery=RecoveryPolicy(order=args.recovery_order)
            )
        backend = dict(
            faults=args.faults,
            fault_mttr=args.fault_mttr,
            fault_links=args.fault_links,
            fault_storm=args.fault_storm,
            resilience=resilience,
            traffic=args.traffic,
            mapper=args.mapper,
        )
        where = args.platform
    try:
        recipe = build_recipe(
            platform=args.platform,
            duration=args.duration,
            seed=args.seed,
            policy=args.policy,
            rate_scale=args.rate_scale,
            pool_size=args.pool_size,
            sample_interval=args.sample_interval,
            warmup=args.warmup,
            overload=_overload_config(args),
            **backend,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = _run_observed(args, recipe)
    if result is None:
        return 2
    summary = result.metrics.summary()
    _print_run_summary(args, result, summary, where)
    if recipe.get("kills"):
        res = summary["resilience"]
        faults = summary["faults"]
        print(f"  shard kills      : {faults['injected']} injected, "
              f"{faults['recovered']} recovered immediately, "
              f"{faults['lost']} lost")
        print(f"  requeue          : {res['recovery_retries']} retries, "
              f"{res['lost_recovered']} lost-then-recovered")
        print(f"  availability     : {res['availability']:.4f}")
    if recipe.get("faults"):
        faults = summary["faults"]
        print(f"  faults           : {faults['injected']} injected, "
              f"{faults['recovered']} recovered, {faults['lost']} lost")
    if "resilience" in recipe:
        res = summary["resilience"]
        mttr = "n/a" if res["mttr"] is None else f"{res['mttr']:.2f}"
        print(f"  resilience       : {res['repairs_completed']} repairs, "
              f"{res['quarantines']} quarantines, "
              f"availability {res['availability']:.4f}, mttr {mttr}")
        print(f"  requeue          : {res['recovery_retries']} retries, "
              f"{res['lost_recovered']} lost-then-recovered")
    if result.overload_stats is not None:
        ov = summary["overload"]
        print(f"  overload         : {ov['shed_watermark']} shed, "
              f"{ov['deadline_expired']} deadline-expired, "
              f"{ov['retry_budget_exhausted']} retry-denied")
        print(f"  brownout         : max level {ov['max_brownout_level']}, "
              f"{ov['brownout_transitions']} transition(s)")
        if cluster:
            print(f"  breakers         : {ov['breaker_transitions']} "
                  f"transition(s), {ov['breaker_open']} probe(s) refused")
    if not cluster and args.profile:
        print()
        print("per-phase wall-clock latency (ms per attempt):")
        print(f"  {'phase':<12} {'count':>7} {'p50':>9} {'p95':>9} "
              f"{'p99':>9} {'total':>10}")
        for phase, row in summary["phase_latency"].items():
            print(f"  {phase:<12} {row['count']:>7} "
                  f"{row['p50_ms']:>9.3f} {row['p95_ms']:>9.3f} "
                  f"{row['p99_ms']:>9.3f} {row['total_ms']:>10.1f}")
        print(f"  short-circuited probes: "
              f"{summary['probes_short_circuited']}")
    return _export_observed(args, result)


def _format_obs_number(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _cmd_obs(args) -> int:
    from repro.obs import diff_snapshots, load_snapshot

    def load(path: str) -> dict:
        return load_snapshot(path)

    try:
        if args.obs_command == "show":
            payload = load(args.snapshot)
        else:
            before = load(args.before)
            after = load(args.after)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.obs_command == "show":
        context = payload.get("context", {})
        if context:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(context.items())
            )
            print(f"context: {rendered}")
        metrics = payload.get("metrics", {})
        counters = metrics.get("counters", {})
        if counters:
            print("counters:")
            width = max(len(name) for name in counters)
            for name in sorted(counters):
                print(f"  {name:<{width}}  {counters[name]}")
        gauges = metrics.get("gauges", {})
        if gauges:
            print("gauges:")
            width = max(len(name) for name in gauges)
            for name in sorted(gauges):
                print(f"  {name:<{width}}  "
                      f"{_format_obs_number(gauges[name])}")
        histograms = metrics.get("histograms", {})
        if histograms:
            print("histograms:")
            for name in sorted(histograms):
                row = histograms[name]
                cells = ", ".join(
                    f"{key} {_format_obs_number(row.get(key))}"
                    for key in ("count", "mean", "p50", "p95", "p99")
                )
                print(f"  {name}: {cells}")
        if not (counters or gauges or histograms):
            print("snapshot holds no metrics")
        return 0

    delta = diff_snapshots(before, after)
    changed = False
    for kind in ("counters", "gauges"):
        rows = delta[kind]
        if not rows:
            continue
        changed = True
        print(f"{kind}:")
        width = max(len(name) for name in rows)
        for name in sorted(rows):
            row = rows[name]
            sign = "+" if row["delta"] >= 0 else ""
            print(f"  {name:<{width}}  {row['before']} -> {row['after']} "
                  f"({sign}{_format_obs_number(row['delta'])})")
    if delta["histograms"]:
        changed = True
        print("histograms:")
        for name in sorted(delta["histograms"]):
            row = delta["histograms"][name]
            after_row = row["after"]
            print(f"  {name}: +{row['count_delta']} samples, "
                  f"+{_format_obs_number(row['sum_delta'])}s; now "
                  f"p50 {_format_obs_number(after_row.get('p50'))}, "
                  f"p95 {_format_obs_number(after_row.get('p95'))}")
    if not changed:
        print("snapshots are identical")
    return 0


def _cmd_sweep(args) -> int:
    import json

    from repro.scenarios import (
        ScenarioMatrix,
        canonical_payload,
        cluster_matrix,
        default_matrix,
        large_matrix,
        render_reports,
        run_sweep,
        smoke_matrix,
        storm_matrix,
    )

    presets = {
        "smoke": smoke_matrix,
        "default": default_matrix,
        "storm": storm_matrix,
        "large": large_matrix,
        "cluster": cluster_matrix,
    }
    preset = "smoke" if args.smoke else args.preset
    verify = args.verify or args.smoke
    seed = 0 if args.seed is None else args.seed
    try:
        if args.matrix:
            with open(args.matrix, encoding="utf-8") as handle:
                spec = json.load(handle)
            if args.seed is not None:
                spec["seed"] = args.seed
            matrix = ScenarioMatrix.from_spec(spec)
        else:
            matrix = presets[preset](seed=seed)
        matrix.expand()  # surface axis errors before any cell runs
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_sweep(matrix, jobs=args.jobs, progress=print)
    if verify:
        pooled = run_sweep(matrix, jobs=max(2, args.jobs), progress=print)
        if canonical_payload(report) != canonical_payload(pooled):
            print("SWEEP DIVERGED: pooled run does not match the serial "
                  "run", file=sys.stderr)
            return 1
        print("SWEEP VERIFIED: serial and pooled runs are byte-identical")
    cells = report["cells"]
    blocking = [
        cell["decisions"]["blocking_probability"] for cell in cells
    ]
    print(f"swept matrix '{matrix.name}': {len(cells)} cells, "
          f"blocking {min(blocking):.3f}..{max(blocking):.3f}")
    for condition, row in report["analysis"]["best_strategy"].items():
        print(f"  {condition:<40} best={row['mapper']} "
              f"(goodput {row['goodput']:.3f}, margin "
              f"{row['margin']:+.3f} vs {row['runner_up']})")
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"  report JSON -> {args.output}")
    if args.report:
        document = render_reports(
            [report], f"Scenario sweep: {matrix.name}"
        )
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(document)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.report}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"  report markdown -> {args.report}")
    return 0


def _cmd_experiment(command: str) -> int:
    from repro.experiments import (
        HarnessScale,
        format_fig7,
        format_fig8,
        format_fig9,
        format_fig10,
        format_table1,
        run_fig7,
        run_fig10,
        run_fig89,
        run_table1,
    )
    scale = HarnessScale.from_environment()
    if command == "table1":
        print(format_table1(run_table1(scale)))
    elif command == "fig7":
        print(format_fig7(run_fig7(scale)))
    elif command in ("fig8", "fig9"):
        result = run_fig89(scale)
        print(format_fig8(result) if command == "fig8" else format_fig9(result))
    elif command == "fig10":
        print(format_fig10(run_fig10()))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "allocate":
        return _cmd_allocate(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "pack":
        return _cmd_pack(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command in ("sim", "cluster"):
        return _cmd_sim(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "obs":
        return _cmd_obs(args)
    return _cmd_experiment(args.command)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
