"""Cross-cell statistics: per-condition rollups and comparisons.

:class:`ResultAnalyzer` consumes the per-cell dicts produced by
:func:`repro.scenarios.runner.run_cell` and renders the POMA-style
aggregation layer (SNIPPETS.md Snippet 3): per-condition summary
tables on every axis (built on
:class:`repro.obs.stats.StatsAggregator`), a best-strategy-per-
condition table and a speedup table for the wall-clock toggle
(fastpath).

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
_AXES = ("topology", "traffic", "mapper", "fastpath", "shards")
#: wall-clock toggles with on/off speedup tables
_TOGGLES = ("fastpath",)


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
        deterministic.  Only baseline cells (fastpath on, unsharded)
        compete, keeping the comparison apples to apples when those
        axes are swept too.
        """
        groups: dict[tuple[str, str], list[dict]] = {}
        for cell in self.cells:
            axes = cell["axes"]
            if not axes["fastpath"]:
                continue
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

    def speedup_table(self, toggle: str) -> dict:
        """Wall-clock ratio off/on for cells differing only in ``toggle``.

        A ratio above 1.0 means the toggle pays off.  Wall-clock, so
        this lives in the analysis ``"timing"`` section.
        """
        if toggle not in _TOGGLES:
            raise ValueError(
                f"unknown toggle {toggle!r}; choose from {_TOGGLES}"
            )
        by_key: dict[tuple, dict] = {}
        for cell in self.cells:
            axes = dict(cell["axes"])
            state = axes.pop(toggle)
            key = tuple(sorted(axes.items()))
            by_key.setdefault(key, {})[state] = cell
        table = {}
        for pair in by_key.values():
            if True not in pair or False not in pair:
                continue
            on, off = pair[True], pair[False]
            wall_on = on["timing"]["wall_seconds"]
            wall_off = off["timing"]["wall_seconds"]
            table[on["cell_id"]] = {
                "wall_on": wall_on,
                "wall_off": wall_off,
                "speedup": (wall_off / wall_on) if wall_on > 0 else None,
                # toggled pairs share a recipe seed, so their decision
                # streams must match — a False here is a determinism bug
                "decisions_identical": (
                    on["decisions"]["trace_digest"]
                    == off["decisions"]["trace_digest"]
                ),
            }
        return table

    # -- the full bundle ---------------------------------------------------

    def analysis(self) -> dict:
        """Everything, split into deterministic vs wall-clock sections."""
        timing = {
            toggle: self.speedup_table(toggle) for toggle in _TOGGLES
        }
        timing = {
            toggle: table for toggle, table in timing.items() if table
        }
        walls = [cell["timing"]["wall_seconds"] for cell in self.cells]
        shares = [cell["timing"]["mapping_share"] for cell in self.cells]
        timing["mean_wall_seconds"] = mean(walls) if walls else None
        timing["mean_mapping_share"] = mean(shares) if shares else None
        return {
            "decisions": self.condition_tables(),
            "best_strategy": self.best_strategy(),
            "timing": timing,
        }
