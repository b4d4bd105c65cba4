"""repro.scenarios — declarative scenario matrices and strategy sweeps.

The paper evaluates Kairos at a single operating point; this package
is the "scenario diversity" lever (ROADMAP item 3) that sweeps the
reproduction across topology x traffic x strategy grids:

* :mod:`repro.scenarios.matrix` — :class:`ScenarioMatrix` /
  :class:`ScenarioCell`: axis cross products expanded into seeded,
  JSON-able recipes (plus the ``smoke``/``default``/``storm``/
  ``large``/``cluster`` presets),
* :mod:`repro.scenarios.runner` — serial or multiprocessing sweep
  execution with bit-identical results either way, and the canonical
  (timing-stripped) payload used for determinism assertions,
* :mod:`repro.scenarios.analyzer` — :class:`ResultAnalyzer`:
  per-condition rollups and best-strategy tables,
* :mod:`repro.scenarios.report` — markdown rendering for
  ``BENCH_scenarios.md``.

``repro sweep`` (see :mod:`repro.cli`) and
``benchmarks/run_scenarios_bench.py`` drive it; ``docs/scenarios.md``
documents the matrix schema and how to add an axis.
"""

from repro.scenarios.analyzer import ResultAnalyzer
from repro.scenarios.matrix import (
    ScenarioCell,
    ScenarioMatrix,
    cluster_matrix,
    default_matrix,
    large_matrix,
    smoke_matrix,
    storm_matrix,
)
from repro.scenarios.report import render_report, render_reports
from repro.scenarios.runner import canonical_payload, run_cell, run_sweep

__all__ = [
    "ResultAnalyzer",
    "ScenarioCell",
    "ScenarioMatrix",
    "canonical_payload",
    "cluster_matrix",
    "default_matrix",
    "large_matrix",
    "render_report",
    "render_reports",
    "run_cell",
    "run_sweep",
    "smoke_matrix",
    "storm_matrix",
]
