#!/usr/bin/env python
"""Emit ``BENCH_admission.json`` — the admission-churn perf trajectory.

Runs the canonical 12x12-mesh churn workload (fill to ~80% utilization,
then sustained release/admit churn) against:

* the live pipeline via the ``repro.api`` façade's ``admit()`` hot
  path (the route everything runs on),
* the façade's plan→commit two-phase protocol (every attempt plans,
  unwinds, then commits by mutation replay — the what-if route; its
  extra journal unwind + replay cost per admission is *reported*, not
  gated),
* the frozen seed reference (``benchmarks/seed_reference``) — the
  repository's original snapshot/restore implementation,

plus the rollback-scaling micro-benchmark (4x4 vs 16x16 mesh):
transaction rollback of a fixed-size failed attempt must be flat in
platform size.

Usage::

    PYTHONPATH=src python benchmarks/run_admission_bench.py \
        [--output BENCH_admission.json] [--repeats 3]

Exits non-zero when the live layouts diverge from the seed reference or
the two façade routes from each other.  The output is machine-readable so successive PRs can track
the numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.arch import mesh  # noqa: E402
from repro.experiments import (  # noqa: E402
    CHURN_BENCH_CONFIG,
    CHURN_BENCH_POOL_SIZE,
    ROLLBACK_BENCH_OCCUPIES,
    ROLLBACK_BENCH_ROUTES,
    churn_pool,
    measure_mesh_rollback_seconds,
    run_admission_churn,
)

from benchmarks.bench_env import environment_stanza  # noqa: E402
from benchmarks.seed_reference.kairos import run_seed_churn  # noqa: E402


def best_of(repeats, run):
    best = float("inf")
    result = None
    for _ in range(repeats):
        value, outcome = run()
        if value < best:
            best, result = value, outcome
    return best, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_admission.json")
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    pool = churn_pool(count=CHURN_BENCH_POOL_SIZE, seed=0)
    # the overhead ratio needs a longer run than the trajectory point:
    # a 150-step churn finishes in ~0.25 s, whose run-to-run noise
    # (±4%) would drown it — 4x the steps puts the noise floor safely
    # below while the trajectory numbers stay comparable to every
    # previous PR's
    overhead_config = dataclasses.replace(CHURN_BENCH_CONFIG, steps=600)

    def churn(path, config=CHURN_BENCH_CONFIG):
        def run():
            result = run_admission_churn(
                pool, mesh(12, 12), config, path=path
            )
            return result.elapsed_seconds, result

        return run

    def seed():
        result = run_seed_churn(pool, mesh(12, 12), CHURN_BENCH_CONFIG)
        return result.elapsed_seconds, result

    tx_seconds, tx_result = best_of(args.repeats, churn("admit"))
    seed_seconds, seed_result = best_of(args.repeats, seed)

    # the two façade routes are interleaved (one repeat of each per
    # round) so their ratio sees the same thermal/turbo drift
    over_admit = churn("admit", overhead_config)
    over_plan_commit = churn("plan_commit", overhead_config)
    admit_seconds = pc_seconds = float("inf")
    admit_result = pc_result = None
    for _ in range(args.repeats):
        value, outcome = over_admit()
        if value < admit_seconds:
            admit_seconds, admit_result = value, outcome
        value, outcome = over_plan_commit()
        if value < pc_seconds:
            pc_seconds, pc_result = value, outcome

    rollback_4 = measure_mesh_rollback_seconds(4, repeats=400)
    rollback_16 = measure_mesh_rollback_seconds(16, repeats=400)

    report = {
        "workload": {
            "platform": "mesh_12x12",
            "pool_size": CHURN_BENCH_POOL_SIZE,
            "steps": CHURN_BENCH_CONFIG.steps,
            "target_utilization": CHURN_BENCH_CONFIG.target_utilization,
            "seed": CHURN_BENCH_CONFIG.seed,
            "attempts": tx_result.attempts,
            "admitted": tx_result.admitted,
            "rejected": tx_result.rejected,
        },
        "churn_seconds": {
            "live_transaction": tx_seconds,
            "seed_reference": seed_seconds,
        },
        "speedup_vs_seed": {
            "live_transaction": seed_seconds / tx_seconds,
        },
        "facade": {
            # measured on a 4x-longer churn (steps below) with the two
            # routes interleaved, so the ratio is noise-robust
            "overhead_steps": overhead_config.steps,
            "churn_seconds": {
                "facade_admit": admit_seconds,
                "facade_plan_commit": pc_seconds,
            },
            # the two-phase protocol's full price: one extra journal
            # unwind (plan) + mutation replay (commit) per admission
            "plan_commit_overhead_vs_admit": pc_seconds / admit_seconds - 1.0,
        },
        "layouts_identical": {
            "transaction_vs_seed": tx_result.layouts == seed_result.layouts,
            "plan_commit_vs_admit": pc_result.layouts == admit_result.layouts,
        },
        "rollback_scaling": {
            "occupies": ROLLBACK_BENCH_OCCUPIES,
            "routes": ROLLBACK_BENCH_ROUTES,
            "transaction_rollback_seconds": {
                "mesh_4x4": rollback_4,
                "mesh_16x16": rollback_16,
                "ratio_16x16_over_4x4": rollback_16 / rollback_4,
            },
        },
        "environment": environment_stanza(),
    }

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {output}", file=sys.stderr)

    if not all(report["layouts_identical"].values()):
        print("FAIL: layouts diverge (see layouts_identical)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
