"""Markdown rendering of sweep reports (the human half of the bench).

:func:`render_report` turns the JSON report produced by
:func:`repro.scenarios.runner.run_sweep` into the markdown document
committed as ``BENCH_scenarios.md`` — matrix overview, per-condition
tables, best-strategy-per-condition and a per-cell appendix.
"""

from __future__ import annotations

__all__ = ["render_report", "render_reports"]


def _fmt(value, digits: int = 3) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _table(headers: list[str], rows: list[list]) -> list[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(cell) for cell in row) + " |")
    lines.append("")
    return lines


def render_report(report: dict) -> str:
    """One sweep report -> a markdown section."""
    matrix = report["matrix"]
    analysis = report["analysis"]
    cells = report["cells"]
    lines = [f"## Matrix `{report['name']}`", ""]
    lines.append(
        f"{len(cells)} cells — topologies "
        f"{', '.join(f'`{spec}`' for spec in matrix['topologies'])}; "
        f"traffic {', '.join(f'`{shape}`' for shape in matrix['traffic'])}; "
        f"mappers {', '.join(f'`{name}`' for name in matrix['mappers'])}; "
        f"duration {_fmt(matrix['duration'], 1)}s, "
        f"seed {matrix['seed']}, rate x{_fmt(matrix['rate_scale'], 1)}."
    )
    lines.append("")

    for axis, table in analysis["decisions"].items():
        lines.append(f"### By {axis}")
        lines.append("")
        rows = []
        for condition, metrics in table.items():
            rows.append([
                condition,
                metrics["goodput"]["mean"],
                metrics["blocking_probability"]["mean"],
                metrics.get("wait_p95", {}).get("mean"),
                metrics["mean_utilization"]["mean"],
                metrics["goodput"]["count"],
            ])
        lines.extend(_table(
            [axis, "goodput (mean)", "blocking (mean)",
             "wait p95 (mean)", "utilization (mean)", "cells"],
            rows,
        ))

    best = analysis.get("best_strategy")
    if best:
        lines.append("### Best mapper per condition")
        lines.append("")
        rows = [
            [condition, row["mapper"], row["goodput"], row["blocking"],
             row["runner_up"], row["margin"]]
            for condition, row in best.items()
        ]
        lines.extend(_table(
            ["topology|traffic", "best", "goodput", "blocking",
             "runner-up", "margin"],
            rows,
        ))

    lines.append("### Cells")
    lines.append("")
    rows = []
    for cell in cells:
        decisions = cell["decisions"]
        rows.append([
            cell["cell_id"],
            decisions["offered"],
            decisions["admitted"],
            decisions["blocking_probability"],
            decisions["goodput"],
            cell["timing"]["wall_seconds"],
        ])
    lines.extend(_table(
        ["cell", "offered", "admitted", "blocking", "goodput",
         "wall (s)"],
        rows,
    ))
    return "\n".join(lines)


def render_reports(reports: list[dict], title: str) -> str:
    """Several sweep reports -> one markdown document."""
    lines = [f"# {title}", ""]
    total = sum(len(report["cells"]) for report in reports)
    lines.append(
        f"{len(reports)} matrices, {total} cells. Decision metrics are "
        "deterministic per seed; wall-clock columns vary by host."
    )
    lines.append("")
    for report in reports:
        lines.append(render_report(report))
    return "\n".join(lines)
