"""Sweep execution: matrix cells -> per-cell results, serial or pooled.

:func:`run_sweep` expands a :class:`~repro.scenarios.matrix
.ScenarioMatrix` and drives every cell through the existing recipe
entry point, :func:`repro.sim.recipe.run_recipe`, which runs sharded
cells on the cluster backend.
With ``jobs > 1`` cells run in a :mod:`multiprocessing` pool;
``Pool.map`` preserves submission order and every cell's randomness
flows from its own recipe seed, so a parallel sweep is bit-identical
to a serial one (asserted by ``tests/test_scenarios.py`` and by
``repro sweep --verify``).

Each cell result is split into two sections: ``"decisions"`` — the
deterministic admission outcome (counts, blocking, waits, goodput,
fastpath counters, trace digest) — and ``"timing"`` — wall
clock, throughput and phase shares, which vary run to run.
:func:`canonical_payload` serialises a report with the timing and
environment stripped; two sweeps of the same matrix and seed produce
byte-identical canonical payloads.
"""

from __future__ import annotations

import json
import multiprocessing
import platform as _platform
import sys
import time as _time

from repro.scenarios.analyzer import ResultAnalyzer
from repro.scenarios.matrix import ScenarioMatrix
from repro.sim.recipe import run_recipe
from repro.sim.trace import trace_digest

__all__ = ["run_cell", "run_sweep", "canonical_payload"]


def run_cell(payload: dict) -> dict:
    """Execute one cell payload (module-level, so pools can pickle it)."""
    recipe = payload["recipe"]
    result = run_recipe(recipe)
    summary = result.metrics.summary()
    duration = float(recipe["duration"])
    phase_latency = summary["phase_latency"]
    total_ms = sum(row["total_ms"] for row in phase_latency.values())
    map_ms = phase_latency.get("mapping", {}).get("total_ms", 0.0)
    return {
        "cell_id": payload["cell_id"],
        "axes": payload["axes"],
        "seed": payload["seed"],
        "decisions": {
            "offered": summary["offered"],
            "admitted": summary["admitted"],
            "departed": summary["departed"],
            "dropped": summary["dropped"],
            "drops_by_reason": summary["drops_by_reason"],
            "rejections_by_phase": summary["rejections_by_phase"],
            "blocking_probability": summary["blocking_probability"],
            "admission_wait": summary["admission_wait"],
            "per_class": {
                name: row["admission_ratio"]
                for name, row in summary["per_class"].items()
            },
            "goodput": summary["admitted"] / duration,
            "mean_utilization": summary["mean_utilization"],
            "peak_queue_depth": summary["peak_queue_depth"],
            "faults": summary["faults"],
            "events_processed": result.events_processed,
            "fastpath_stats": result.fastpath_stats,
            "trace_digest": trace_digest(result.trace),
        },
        "timing": {
            "wall_seconds": result.wall_seconds,
            "events_per_second": result.events_per_second,
            "phase_total_ms": total_ms,
            "mapping_share": (map_ms / total_ms) if total_ms > 0 else 0.0,
        },
    }


def run_sweep(
    matrix: ScenarioMatrix,
    jobs: int = 1,
    progress=None,
) -> dict:
    """Run every cell of ``matrix``; -> the full JSON-able report.

    ``jobs <= 1`` runs in-process; ``jobs > 1`` fans cells out to a
    worker pool.  ``progress`` (optional callable, e.g. ``print``)
    receives one line per phase for long sweeps.
    """
    cells = matrix.expand()
    payloads = [cell.payload() for cell in cells]
    say = progress or (lambda message: None)
    say(
        f"[{matrix.name}] {len(payloads)} cells, "
        f"jobs={max(1, jobs)}"
    )
    started = _time.perf_counter()
    if jobs > 1:
        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(run_cell, payloads)
    else:
        results = [run_cell(payload) for payload in payloads]
    elapsed = _time.perf_counter() - started
    say(f"[{matrix.name}] swept in {elapsed:.1f}s")
    analysis = ResultAnalyzer(results).analysis()
    return {
        "name": matrix.name,
        "matrix": matrix.describe(),
        "cells": results,
        "analysis": analysis,
        "environment": {
            "python": sys.version.split()[0],
            "platform": _platform.platform(),
            "jobs": max(1, jobs),
            "wall_seconds": elapsed,
        },
    }


def canonical_payload(report: dict) -> str:
    """The deterministic projection of a sweep report, as canonical JSON.

    Strips every wall-clock-dependent section — per-cell ``"timing"``,
    the analysis ``"timing"`` block and the ``"environment"`` stanza —
    and renders the rest with sorted keys and fixed separators.  Two
    sweeps of the same matrix and seed (serial or parallel, any job
    count) produce byte-identical canonical payloads; tests and
    ``repro sweep --verify`` assert equality on exactly this string.
    """
    projection = {
        "name": report["name"],
        "matrix": report["matrix"],
        "cells": [
            {key: value for key, value in cell.items() if key != "timing"}
            for cell in report["cells"]
        ],
        "analysis": {
            key: value
            for key, value in report["analysis"].items()
            if key != "timing"
        },
    }
    return json.dumps(projection, sort_keys=True, separators=(",", ":"))
