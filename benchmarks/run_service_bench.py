#!/usr/bin/env python
"""Emit ``BENCH_service.json`` — the admission-service throughput bench.

Runs the continuous-time admission service (``repro.sim``) on the
canonical 12x12 mesh under the default three-class traffic mix at an
overloaded rate, once per queue policy (reject, bounded FIFO,
priority, retry-with-backoff), and reports for each:

* sustained kernel throughput (events processed per wall-clock second),
* admission-wait tail latency (p50/p95/p99 in sim-time),
* per-phase pipeline wall-clock latency (bind/map/route p50/p95/p99),
* blocking probability and per-class admission ratios,
* steady-state SLA figures over a warmup window (the first sixth of
  the run is the empty-platform fill transient; blocking probability
  and wait percentiles excluding it are reported alongside the raw
  whole-run numbers),
* an ``obs`` block: the FIFO workload re-run with the metric registry
  and span tracer fully enabled, reporting the enabled-vs-null
  throughput delta against a 3% advisory budget plus a snapshot
  excerpt (see ``docs/observability.md``),

plus a record/replay determinism check (the FIFO run's decision trace
is replayed and must be bit-identical) and, on full runs, a
``smoke_reference`` block — the per-policy ``--smoke`` events/sec on
the same machine, which is what the CI regression gate compares
against (apples to apples: smoke vs smoke).

Usage::

    PYTHONPATH=src python benchmarks/run_service_bench.py \
        [--output BENCH_service.json] [--repeats 2] [--smoke] \
        [--check-against BENCH_service.json] [--max-regression 0.30]

``--smoke`` shrinks the run for CI (correctness + replay only; the
throughput numbers of a smoke run are not meaningful as absolutes).
``--check-against`` compares this run's per-policy events/sec to a
committed report and exits 1 when any policy regresses by more than
``--max-regression`` (default 30%); smoke runs compare against the
committed ``smoke_reference`` figures.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from benchmarks.bench_env import environment_stanza  # noqa: E402
from repro.sim import build_recipe, replay_trace, run_recipe  # noqa: E402

POLICIES = ("reject", "fifo", "priority", "retry")

#: the canonical service workload: 12x12 mesh, overloaded three-class mix
PLATFORM = "12x12"
DURATION = 120.0
SMOKE_DURATION = 15.0
RATE_SCALE = 8.0
SEED = 0
SAMPLE_INTERVAL = 5.0
#: SLA warmup window as a fraction of the run (metrics only — the
#: decision stream and the replay check are independent of it)
WARMUP_FRACTION = 1.0 / 6.0


def bench_policy(policy: str, duration: float, repeats: int) -> dict:
    recipe = build_recipe(
        platform=PLATFORM,
        duration=duration,
        seed=SEED,
        policy=policy,
        rate_scale=RATE_SCALE,
        sample_interval=SAMPLE_INTERVAL,
        warmup=duration * WARMUP_FRACTION,
    )
    best = None
    for _ in range(repeats):
        result = run_recipe(recipe)
        if best is None or result.wall_seconds < best.wall_seconds:
            best = result
    summary = best.metrics.summary()
    return {
        "policy": policy,
        "events_processed": best.events_processed,
        "wall_seconds": best.wall_seconds,
        "events_per_second": best.events_per_second,
        "offered": summary["offered"],
        "admitted": summary["admitted"],
        "blocking_probability": summary["blocking_probability"],
        "admission_wait": summary["admission_wait"],
        "steady_state": summary["steady_state"],
        "phase_latency": summary["phase_latency"],
        "fastpath": best.fastpath_stats,
        "per_class_admission_ratio": {
            name: stats["admission_ratio"]
            for name, stats in summary["per_class"].items()
        },
        "mean_utilization": summary["mean_utilization"],
        "peak_queue_depth": summary["peak_queue_depth"],
    }


def bench_observability(duration: float, repeats: int) -> dict:
    """Enabled-vs-null observability overhead on the FIFO workload.

    Runs the same recipe with the default null registry and with a live
    registry + tracer, and reports the throughput delta.  The budget is
    advisory (best-effort: wall-clock noise on shared CI machines can
    exceed it), so a breach prints a NOTE instead of failing the bench;
    the committed full-run figure is the number of record.
    """
    from repro.obs import enabled

    recipe = build_recipe(
        platform=PLATFORM,
        duration=duration,
        seed=SEED,
        policy="fifo",
        rate_scale=RATE_SCALE,
        sample_interval=SAMPLE_INTERVAL,
        warmup=duration * WARMUP_FRACTION,
    )
    null_best = None
    for _ in range(repeats):
        result = run_recipe(recipe)
        if null_best is None or result.wall_seconds < null_best.wall_seconds:
            null_best = result
    enabled_best = None
    for _ in range(repeats):
        result = run_recipe(recipe, obs=enabled())
        if (
            enabled_best is None
            or result.wall_seconds < enabled_best.wall_seconds
        ):
            enabled_best = result
    overhead = 1.0 - (
        enabled_best.events_per_second / null_best.events_per_second
        if null_best.events_per_second else 0.0
    )
    dump = enabled_best.observability.registry.snapshot()
    return {
        "null_events_per_second": null_best.events_per_second,
        "enabled_events_per_second": enabled_best.events_per_second,
        "overhead_fraction": overhead,
        "overhead_budget": 0.03,
        "spans_recorded": len(enabled_best.observability.tracer),
        "snapshot_excerpt": {
            "counters": dump["counters"],
            "histograms": {
                name: {
                    key: row[key]
                    for key in ("count", "mean", "p50", "p95", "p99")
                }
                for name, row in dump["histograms"].items()
            },
        },
    }


def replay_check(duration: float) -> dict:
    recipe = build_recipe(
        platform=PLATFORM,
        duration=duration,
        seed=SEED,
        policy="fifo",
        rate_scale=RATE_SCALE,
        sample_interval=SAMPLE_INTERVAL,
        faults=2,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "service_trace.jsonl"
        recorded = run_recipe(recipe, trace_path=path)
        identical, differences, _ = replay_trace(path)
    return {
        "records": len(recorded.trace),
        "identical": identical,
        "first_differences": differences[:3],
    }


def check_regression(
    report: dict, committed_path: Path, max_regression: float
) -> list[str]:
    """Per-policy events/sec regression check against a committed report.

    Smoke runs compare against the committed ``smoke_reference``
    figures (same duration, same machine class); full runs compare
    against the committed full-run policy figures.  Returns the list
    of violations (empty = pass).
    """
    committed = json.loads(committed_path.read_text())
    if report["workload"]["smoke"]:
        reference = committed.get("smoke_reference")
        if reference is None:
            return [
                f"{committed_path} has no smoke_reference block; "
                "regenerate it with a full bench run"
            ]
    else:
        reference = {
            entry["policy"]: entry["events_per_second"]
            for entry in committed.get("policies", ())
        }
    violations = []
    for entry in report["policies"]:
        policy = entry["policy"]
        baseline = reference.get(policy)
        if baseline is None or baseline <= 0:
            continue
        floor = baseline * (1.0 - max_regression)
        current = entry["events_per_second"]
        if current < floor:
            violations.append(
                f"{policy}: {current:,.0f} events/s is below the "
                f"{max_regression:.0%}-regression floor {floor:,.0f} "
                f"(committed {baseline:,.0f})"
            )
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_service.json")
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI run: correctness and replay only",
    )
    parser.add_argument(
        "--check-against", metavar="PATH",
        help="committed BENCH_service.json to compare events/sec against "
             "(exit 1 on a regression beyond --max-regression)",
    )
    parser.add_argument(
        "--check-only", metavar="REPORT",
        help="skip benchmarking: load an already-written report and run "
             "only the --check-against comparison",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="tolerated fractional events/sec regression (default 0.30)",
    )
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not 0 <= args.max_regression < 1:
        parser.error("--max-regression must be in [0, 1)")
    if args.check_only:
        if not args.check_against:
            parser.error("--check-only requires --check-against")
        report = json.loads(Path(args.check_only).read_text())
        violations = check_regression(
            report, Path(args.check_against), args.max_regression
        )
        for line in violations:
            print(f"THROUGHPUT REGRESSION: {line}", file=sys.stderr)
        if not violations:
            print(
                f"throughput within {args.max_regression:.0%} of "
                f"{args.check_against} for every policy",
                file=sys.stderr,
            )
        return 1 if violations else 0

    duration = SMOKE_DURATION if args.smoke else DURATION
    repeats = 1 if args.smoke else args.repeats

    policies = [bench_policy(p, duration, repeats) for p in POLICIES]
    replay = replay_check(duration)
    observability = bench_observability(duration, repeats)

    report = {
        "workload": {
            "platform": f"mesh_{PLATFORM}",
            "duration": duration,
            "rate_scale": RATE_SCALE,
            "seed": SEED,
            "warmup": duration * WARMUP_FRACTION,
            "traffic": "default 3-class mix (interactive/batch/bursty)",
            "smoke": args.smoke,
        },
        "policies": policies,
        "replay": replay,
        "obs": observability,
        "environment": environment_stanza(),
    }
    if not args.smoke:
        # record the same machine's smoke-length throughput so the CI
        # smoke gate has an apples-to-apples baseline
        report["smoke_reference"] = {
            entry["policy"]: entry["events_per_second"]
            for entry in (
                bench_policy(p, SMOKE_DURATION, 1) for p in POLICIES
            )
        }

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {output}", file=sys.stderr)
    status = 0
    if not replay["identical"]:
        print("REPLAY DIVERGED — determinism regression", file=sys.stderr)
        status = 1
    if observability["overhead_fraction"] > observability["overhead_budget"]:
        # best-effort gate: wall-clock noise on shared machines can
        # exceed the budget, so report loudly without failing
        print(
            "NOTE: observability overhead "
            f"{observability['overhead_fraction']:.1%} exceeds the "
            f"{observability['overhead_budget']:.0%} budget "
            "(advisory only; re-run on a quiet machine)",
            file=sys.stderr,
        )
    if args.check_against:
        violations = check_regression(
            report, Path(args.check_against), args.max_regression
        )
        for line in violations:
            print(f"THROUGHPUT REGRESSION: {line}", file=sys.stderr)
        if violations:
            status = 1
        else:
            print(
                f"throughput within {args.max_regression:.0%} of "
                f"{args.check_against} for every policy",
                file=sys.stderr,
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
