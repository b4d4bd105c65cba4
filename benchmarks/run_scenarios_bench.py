#!/usr/bin/env python
"""Emit ``BENCH_scenarios.json`` + ``BENCH_scenarios.md`` — the matrix sweep.

Runs the scenario matrices from :mod:`repro.scenarios` and commits the
cross-condition evidence the perf roadmap steers by:

* ``default`` — 4 topologies (mesh/torus/hetmesh 12x12, fat_tree:144)
  x 4 traffic shapes (default, hot_spot, diurnal_mmpp, flash_crowd)
  x 4 mappers (kairos, first_fit, random, annealing),
* ``storm`` — correlated fault storms across the mapper axis,
* ``large`` — 48x48 and 64x64 meshes, one cell each (the scaling
  data points),
* ``cluster`` — 1/2/4 shards across traffic shapes.

Every matrix is also swept a second time through a 2-process pool and
the canonical (timing-stripped) payloads must be byte-identical —
the parallel==serial determinism assertion, run on every invocation.

``--smoke`` replaces the grid with the tiny smoke matrix (the same
gate as ``repro sweep --smoke``), keeping the CI lane in seconds.

Usage::

    PYTHONPATH=src python benchmarks/run_scenarios_bench.py \
        [--output BENCH_scenarios.json] [--report BENCH_scenarios.md] \
        [--smoke] [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from benchmarks.bench_env import environment_stanza  # noqa: E402
from repro.scenarios import (  # noqa: E402
    canonical_payload,
    cluster_matrix,
    default_matrix,
    large_matrix,
    render_reports,
    run_sweep,
    smoke_matrix,
    storm_matrix,
)

SEED = 0


def sweep_and_verify(matrix, jobs: int) -> tuple[dict, bool]:
    """Run serial + pooled; -> (serial report, payloads identical?)."""
    serial = run_sweep(matrix, jobs=1, progress=_say)
    pooled = run_sweep(matrix, jobs=max(2, jobs), progress=_say)
    return serial, canonical_payload(serial) == canonical_payload(pooled)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def coverage_stanza(reports: list[dict]) -> dict:
    """What the sweep actually covered (the acceptance surface)."""
    topologies, shapes, mappers = set(), set(), set()
    cells = 0
    for report in reports:
        for cell in report["cells"]:
            axes = cell["axes"]
            topologies.add(axes["topology"])
            shapes.add(axes["traffic"])
            mappers.add(axes["mapper"])
            cells += 1
    return {
        "cells": cells,
        "topologies": sorted(topologies),
        "traffic_shapes": sorted(shapes),
        "mappers": sorted(mappers),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_scenarios.json")
    )
    parser.add_argument(
        "--report", default=str(REPO_ROOT / "BENCH_scenarios.md")
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny smoke matrix only (the CI gate)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="pool size for the parallel verification pass (default 2)",
    )
    args = parser.parse_args()

    if args.smoke:
        matrices = [smoke_matrix(seed=SEED)]
        title = "Scenario sweep (smoke)"
    else:
        matrices = [
            default_matrix(seed=SEED),
            storm_matrix(seed=SEED),
            large_matrix(seed=SEED),
            cluster_matrix(seed=SEED),
        ]
        title = "Scenario sweep"

    reports, verified = [], True
    for matrix in matrices:
        report, identical = sweep_and_verify(matrix, args.jobs)
        if not identical:
            print(f"SWEEP DIVERGED: matrix {matrix.name!r} pooled run "
                  "differs from serial", file=sys.stderr)
            verified = False
        reports.append(report)

    bundle = {
        "workload": {
            "matrices": [matrix.name for matrix in matrices],
            "seed": SEED,
            "smoke": args.smoke,
            "parallel_verified": verified,
        },
        "coverage": coverage_stanza(reports),
        "sweeps": reports,
        "environment": environment_stanza(),
    }
    output = Path(args.output)
    output.write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    document = render_reports(reports, title)
    Path(args.report).write_text(document + "\n")
    print(json.dumps(
        {key: bundle[key] for key in ("workload", "coverage")}, indent=2
    ))
    print(f"\nwritten to {output} and {args.report}", file=sys.stderr)
    if not verified:
        print("determinism regression: parallel != serial",
              file=sys.stderr)
        return 1
    print("parallel == serial for every matrix", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
