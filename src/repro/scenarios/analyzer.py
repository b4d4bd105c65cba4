"""Cross-cell statistics: per-condition rollups and comparisons.

:class:`ResultAnalyzer` consumes the per-cell dicts produced by
:func:`repro.scenarios.runner.run_cell` and renders the POMA-style
aggregation layer (SNIPPETS.md Snippet 3): per-condition summary
tables on every axis (built on
:class:`repro.obs.stats.StatsAggregator`) and a best-strategy-per-
condition table.

The analysis splits like the cells do: everything under
``"decisions"``/``"best_strategy"`` is deterministic
(derived from admission outcomes alone); everything under
``"timing"`` is wall-clock and excluded from
:func:`repro.scenarios.runner.canonical_payload`.
"""

from __future__ import annotations

from repro.obs.stats import StatsAggregator, mean

__all__ = ["ResultAnalyzer"]

#: per-cell decision metrics rolled up per condition
_DECISION_METRICS = (
    "goodput",
    "blocking_probability",
    "mean_utilization",
    "peak_queue_depth",
)
#: axes a condition table is rendered for
_AXES = ("topology", "traffic", "mapper", "shards")


class ResultAnalyzer:
    """Aggregate sweep cells into per-condition/per-phase statistics."""

    def __init__(self, cells: list[dict]) -> None:
        self.cells = list(cells)

    # -- per-condition tables ---------------------------------------------

    def per_condition(self, axis: str) -> dict:
        """Summary rows for every value of ``axis`` (skips constants)."""
        if axis not in _AXES:
            raise ValueError(f"unknown axis {axis!r}; choose from {_AXES}")
        aggregator = StatsAggregator()
        for cell in self.cells:
            condition = str(cell["axes"][axis])
            decisions = cell["decisions"]
            for metric in _DECISION_METRICS:
                aggregator.add(condition, metric, decisions[metric])
            wait = decisions["admission_wait"].get("p95")
            if wait is not None:
                aggregator.add(condition, "wait_p95", wait)
        return aggregator.report()

    def condition_tables(self) -> dict:
        """Per-condition tables for every axis with >= 2 values."""
        tables = {}
        for axis in _AXES:
            values = {str(cell["axes"][axis]) for cell in self.cells}
            if len(values) >= 2:
                tables[axis] = self.per_condition(axis)
        return tables

    # -- comparisons -------------------------------------------------------

    def best_strategy(self) -> dict:
        """The winning mapper per (topology, traffic) condition.

        Winner = highest goodput, ties broken by lower blocking then
        mapper name — all decision metrics, so the table is
        deterministic.  Only unsharded cells compete, keeping the
        comparison apples to apples when shards are swept too.
        """
        groups: dict[tuple[str, str], list[dict]] = {}
        for cell in self.cells:
            axes = cell["axes"]
            if axes["shards"] != 1:
                continue
            groups.setdefault(
                (axes["topology"], axes["traffic"]), []
            ).append(cell)
        table = {}
        for (topology, traffic), members in sorted(groups.items()):
            if len(members) < 2:
                continue
            ranked = sorted(
                members,
                key=lambda cell: (
                    -cell["decisions"]["goodput"],
                    cell["decisions"]["blocking_probability"],
                    cell["axes"]["mapper"],
                ),
            )
            best = ranked[0]
            runner_up = ranked[1]
            table[f"{topology}|{traffic}"] = {
                "mapper": best["axes"]["mapper"],
                "goodput": best["decisions"]["goodput"],
                "blocking": best["decisions"]["blocking_probability"],
                "runner_up": runner_up["axes"]["mapper"],
                "margin": (
                    best["decisions"]["goodput"]
                    - runner_up["decisions"]["goodput"]
                ),
            }
        return table

    # -- the full bundle ---------------------------------------------------

    def analysis(self) -> dict:
        """Everything, split into deterministic vs wall-clock sections."""
        walls = [cell["timing"]["wall_seconds"] for cell in self.cells]
        shares = [cell["timing"]["mapping_share"] for cell in self.cells]
        return {
            "decisions": self.condition_tables(),
            "best_strategy": self.best_strategy(),
            "timing": {
                "mean_wall_seconds": mean(walls) if walls else None,
                "mean_mapping_share": mean(shares) if shares else None,
            },
        }
