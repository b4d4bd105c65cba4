#!/usr/bin/env python
"""Emit ``BENCH_cluster.json`` — the sharded-admission cluster bench.

Two experiments on the 48x48 mesh (2304 elements — the scale regime
sharding is for):

* **Throughput vs shard count** — the continuous-time admission
  service under the overloaded three-class mix, FIFO policy, run
  unsharded and as a 2- and 4-shard cluster.  Per-admission costs that
  scale with platform size (anchor scans, ring searches,
  long-path routing) shrink with the region each shard owns, so
  kernel events/sec rises with the shard count; the report carries
  the 4-shard-over-1-shard speedup explicitly (the acceptance floor
  is 3x).
* **Availability under a shard-kill campaign** — the 4-shard cluster
  with evenly-spaced kill/revive events: time-averaged shard
  availability, applications lost vs lost-then-recovered through the
  requeue, and the drain invariants (the driver asserts zero
  post-drain utilization and an empty cluster-integrity violation
  list — i.e. no 2PC round leaked a partial allocation).

plus a record/replay determinism check on the kill-campaign trace
(shard_kill / shard_state / recovery events replay bit-identically)
and, on full runs, a ``smoke_reference`` block the CI smoke gate
compares against (apples to apples: smoke vs smoke).

Usage::

    PYTHONPATH=src python benchmarks/run_cluster_bench.py \
        [--output BENCH_cluster.json] [--smoke] \
        [--check-against BENCH_cluster.json] [--max-regression 0.30]
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
from repro.cluster import (  # noqa: E402
    build_cluster_recipe,
    replay_cluster_trace,
    run_cluster_recipe,
)

PLATFORM = "48x48"
SHARD_COUNTS = (1, 2, 4)
DURATION = 30.0
SMOKE_DURATION = 10.0
#: heavy enough that per-admission pipeline cost dominates the wall
#: clock (a lightly loaded mesh measures event dispatch, not sharding)
RATE_SCALE = 32.0
SEED = 0
SAMPLE_INTERVAL = 5.0
POLICY = "fifo"

#: kill campaign (full / smoke): kills spread over the run, each
#: revived after a downtime long enough to cross the dead_after
#: deadline, so every kill exercises demote -> recover -> probation
KILLS = {"full": (2, 8.0), "smoke": (1, 4.0)}


def throughput_recipe(shards: int, duration: float) -> dict:
    return build_cluster_recipe(
        platform=PLATFORM,
        shards=shards,
        duration=duration,
        seed=SEED,
        policy=POLICY,
        rate_scale=RATE_SCALE,
        sample_interval=SAMPLE_INTERVAL,
    )


def bench_throughput(duration: float) -> list[dict]:
    entries = []
    for shards in SHARD_COUNTS:
        result = run_cluster_recipe(throughput_recipe(shards, duration))
        summary = result.metrics.summary()
        entries.append({
            "shards": shards,
            "events_processed": result.events_processed,
            "events_per_second": result.events_per_second,
            "wall_seconds": result.wall_seconds,
            "admitted": summary["admitted"],
            "blocking_probability": summary["blocking_probability"],
            "mean_utilization": summary["mean_utilization"],
        })
    return entries


def bench_availability(duration: float, smoke: bool) -> dict:
    kills, downtime = KILLS["smoke" if smoke else "full"]
    recipe = build_cluster_recipe(
        platform=PLATFORM,
        shards=4,
        duration=duration,
        seed=SEED,
        policy=POLICY,
        rate_scale=RATE_SCALE,
        sample_interval=SAMPLE_INTERVAL,
        kills=kills,
        downtime=downtime,
    )
    result = run_cluster_recipe(recipe)
    summary = result.metrics.summary()
    res = summary["resilience"]
    return {
        "shards": 4,
        "kills": kills,
        "downtime": downtime,
        "availability": res["availability"],
        "lost": summary["faults"]["lost"],
        "lost_recovered": res["lost_recovered"],
        "recovery_retries": res["recovery_retries"],
        "recovered_immediately": summary["faults"]["recovered"],
        "blocking_probability": summary["blocking_probability"],
        # the driver asserts these; reaching this line means they held
        "drained_clean": True,
        "integrity_violations": 0,
    }


def replay_check(duration: float, smoke: bool) -> dict:
    kills, downtime = KILLS["smoke" if smoke else "full"]
    recipe = build_cluster_recipe(
        platform=PLATFORM,
        shards=4,
        duration=duration,
        seed=SEED,
        policy=POLICY,
        rate_scale=RATE_SCALE,
        sample_interval=SAMPLE_INTERVAL,
        kills=kills,
        downtime=downtime,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cluster_trace.jsonl"
        recorded = run_cluster_recipe(recipe, trace_path=path)
        identical, differences, _ = replay_cluster_trace(path)
    return {
        "records": len(recorded.trace),
        "identical": identical,
        "first_differences": differences[:3],
    }


def speedup(entries: list[dict]) -> float:
    by_shards = {entry["shards"]: entry["events_per_second"]
                 for entry in entries}
    base = by_shards.get(1, 0.0)
    return by_shards.get(4, 0.0) / base if base else 0.0


def check_regression(
    report: dict, committed_path: Path, max_regression: float
) -> list[str]:
    """Per-shard-count events/sec check (empty list = pass)."""
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
            str(entry["shards"]): entry["events_per_second"]
            for entry in committed.get("throughput", ())
        }
    violations = []
    for entry in report["throughput"]:
        shards = str(entry["shards"])
        baseline = reference.get(shards)
        if baseline is None or baseline <= 0:
            continue
        floor = baseline * (1.0 - max_regression)
        current = entry["events_per_second"]
        if current < floor:
            violations.append(
                f"{shards} shard(s): {current:,.0f} events/s is below "
                f"the {max_regression:.0%}-regression floor "
                f"{floor:,.0f} (committed {baseline:,.0f})"
            )
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_cluster.json")
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI run: correctness, availability and replay only",
    )
    parser.add_argument(
        "--check-against", metavar="PATH",
        help="committed BENCH_cluster.json to compare events/sec "
             "against (exit 1 on a regression beyond --max-regression)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="tolerated fractional events/sec regression (default 0.30)",
    )
    args = parser.parse_args()
    if not 0 <= args.max_regression < 1:
        parser.error("--max-regression must be in [0, 1)")

    duration = SMOKE_DURATION if args.smoke else DURATION
    throughput = bench_throughput(duration)
    availability = bench_availability(duration, args.smoke)
    replay = replay_check(duration, args.smoke)

    report = {
        "workload": {
            "platform": f"mesh_{PLATFORM}",
            "shard_counts": list(SHARD_COUNTS),
            "duration": duration,
            "rate_scale": RATE_SCALE,
            "seed": SEED,
            "policy": POLICY,
            "traffic": "default 3-class mix (interactive/batch/bursty)",
            "smoke": args.smoke,
        },
        "throughput": throughput,
        "speedup_4_shards_over_1": speedup(throughput),
        "availability": availability,
        "replay": replay,
        "environment": environment_stanza(),
    }
    if not args.smoke:
        report["smoke_reference"] = {
            str(entry["shards"]): entry["events_per_second"]
            for entry in bench_throughput(SMOKE_DURATION)
        }

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {output}", file=sys.stderr)
    status = 0
    if not replay["identical"]:
        print("REPLAY DIVERGED — determinism regression", file=sys.stderr)
        status = 1
    if not args.smoke and report["speedup_4_shards_over_1"] < 3.0:
        print(
            f"SPEEDUP BELOW FLOOR: 4-shard speedup "
            f"{report['speedup_4_shards_over_1']:.2f}x < 3x",
            file=sys.stderr,
        )
        status = 1
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
                f"{args.check_against} for every shard count",
                file=sys.stderr,
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
