"""Run one workload in this process and turn its laps into metrics.

``measure`` is the end-to-end run (façade + root probes only),
``trace`` the separate traced run (every layer probe) that yields the
per-layer metrics and the ledger.  Both return a :class:`Report`.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from bench import stats
from bench.stats import END, EXTRA, FAILED, IDENT, NAME, PARENT, START
from bench.tracing import (
    ADMITTED,
    FACADE_CLUSTER,
    GATED,
    KNAPSACK_SPAN,
    LAYER_OF,
    LAYER_PROBES,
    Recorder,
    facade_probes,
    instrumented,
    span_wrapper_cost,
)
from bench.workloads import PHASES, WORKLOADS, LapOutput, Workload

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH_DIR / "reference" / "digests.json").read_text())
OUT_DIR = BENCH_DIR / "out"

#: a run holds at least this many laps, whatever ``--seconds`` says:
#: lap-to-lap equality of the decision stream is part of the output check
MIN_LAPS = 2

#: the program's phase timers and the wrapped spans must agree within
#: this share (plus the calibrated per-call wrapper cost)
CROSSCHECK_TOLERANCE = 0.05


@dataclass
class Lap:
    output: LapOutput
    setup_s: float
    wall_s: float
    total_s: float
    #: per operation, in issue order: (latency seconds, decision code)
    ops: list
    #: host time between operations: ``gaps[i]`` runs from the end of
    #: operation ``i - 1`` (or the start of the timed section) to the
    #: start of operation ``i``; the last entry reaches the section's end
    gaps: list
    #: traced laps only: every span of the lap, the index of the timed
    #: section's root, and per span whether it lies inside that section
    spans: list = field(default_factory=list)
    root: int = 0
    inside: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    manager_stats: dict = field(default_factory=dict)


@dataclass
class Report:
    workload: str
    seed: int
    laps: int
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: deterministic facts (digest, counts) — equal between two sets
    facts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def _run_lap(workload: Workload, seed: int, smoke: bool,
             recorder: Recorder, keep_spans: bool) -> Lap:
    gc.collect()
    recorder.reset()
    output = workload.lap(workload.sized(smoke), seed, recorder)
    finished = perf_counter()
    spans = recorder.spans
    root = next(
        index for index, span in enumerate(spans)
        if span[NAME] == workload.root
    )
    inside = stats.descendants(spans, root)
    ops, gaps = [], []
    cursor = spans[root][START]
    for index, span in enumerate(spans):
        if inside[index] and span[NAME] == workload.facade:
            gaps.append(span[START] - cursor)
            ops.append((span[END] - span[START], span[EXTRA]))
            cursor = span[END]
    gaps.append(spans[root][END] - cursor)
    return Lap(
        output=output,
        setup_s=spans[root][START] - output.started,
        wall_s=spans[root][END] - spans[root][START],
        total_s=finished - output.started,
        ops=ops,
        gaps=gaps,
        spans=list(spans) if keep_spans else [],
        root=root,
        inside=inside if keep_spans else [],
        counts=dict(recorder.timed_counts),
        manager_stats=dict(recorder.timed_manager_stats),
    )


def _lap_loop(run_one, seconds: float, laps: int | None, minimum: int) -> list:
    """Laps until the budget is used: a further lap starts only while it
    would still end inside ``seconds`` (judged by the fastest lap so
    far); ``laps`` fixes the count instead."""
    done: list[Lap] = []
    started = perf_counter()
    while True:
        done.append(run_one())
        if laps is not None:
            enough = len(done) >= laps
        else:
            next_end = (perf_counter() - started
                        + min(lap.total_s for lap in done))
            enough = len(done) >= minimum and next_end > seconds
        if enough:
            return done


def _lap_facts(lap: Lap) -> dict:
    """What must be identical in every lap of a workload at one seed."""
    return {
        "digest": lap.output.digest,
        "ops_attempted": len(lap.ops),
        "admitted": lap.output.admitted,
        "offered": lap.output.offered,
        "events_dispatched": lap.output.events_dispatched,
        "decision_codes": [code for _, code in lap.ops],
    }


def _check_outputs(report: Report, laps: list, smoke: bool) -> None:
    """Drain, lap-to-lap equality, and the pinned seed-0 reference."""
    first = _lap_facts(laps[0])
    for index, lap in enumerate(laps):
        if not lap.output.drained:
            report.problems.append(f"lap {index}: platform did not drain")
        facts = _lap_facts(lap)
        for key, value in facts.items():
            if value != first[key]:
                report.problems.append(
                    f"lap {index}: {key} differs from lap 0"
                )
    first.pop("decision_codes")
    report.facts.update(first)
    if report.seed == 0 and not smoke:
        pinned = REFERENCE.get(report.workload)
        if pinned is None:
            report.problems.append("no pinned seed-0 reference")
            return
        for key, value in pinned.items():
            if first.get(key) != value:
                report.problems.append(
                    f"{key} {first.get(key)!r} != pinned {value!r} "
                    "(bench/reference/digests.json)"
                )


def _failed_report(report: Report, error: BaseException) -> Report:
    """An unexpected exception: every operation counts as failed."""
    traceback.print_exception(error)
    report.problems.append(f"{type(error).__name__}: {error}")
    report.attempted = report.failed = 1
    return report


def _finish(report: Report, attempted: int) -> Report:
    report.attempted = max(1, attempted)
    report.failed = report.attempted if report.problems else 0
    return report


UNITS = {
    metric["name"]: metric["unit"]
    for group in ("end_to_end", "per_layer") for metric in SPEC[group]
}


def _put(report: Report, name: str, value, note: str = "") -> None:
    report.metrics[name] = {"value": value, "unit": UNITS[name]}
    shown = "n/a" if value is None else f"{value:.6g}"
    report.lines.append(f"  {name:<34} {shown:>12} {UNITS[name]:<6} {note}")


def _safe_percentile(values, q, smoke: bool):
    """The percentile rule; a smoke run is too short for it and reports
    nothing instead of failing."""
    try:
        return stats.percentile(values, q)
    except stats.TooFewSamples:
        if smoke:
            return None
        raise


# -- the end-to-end run --------------------------------------------------------


def measure(name: str, seed: int, seconds: float, laps: int | None = None,
            smoke: bool = False) -> Report:
    workload = WORKLOADS[name]
    report = Report(name, seed, 0)
    recorder = Recorder()
    try:
        with instrumented(recorder, facade_probes(workload.facade)):
            done = _lap_loop(
                lambda: _run_lap(workload, seed, smoke, recorder, False),
                seconds, laps, MIN_LAPS,
            )
        report.laps = len(done)
        _check_outputs(report, done, smoke)
        _end_to_end_metrics(report, done, smoke)
    except Exception as error:  # the boundary: report, never crash
        return _failed_report(report, error)
    return _finish(report, len(done[0].ops))


def _end_to_end_metrics(report: Report, laps: list, smoke: bool) -> None:
    latencies = stats.per_operation_min(
        [[latency for latency, _ in lap.ops] for lap in laps]
    )
    gaps = stats.per_operation_min([lap.gaps for lap in laps])
    clean_wall = sum(latencies) + sum(gaps)
    admits = [
        latency * 1e3
        for latency, (_, code) in zip(latencies, laps[0].ops)
        if code == ADMITTED
    ]
    output = laps[0].output
    note = f"n={len(admits)} admits, min of {len(laps)} laps"
    _put(report, "decisions_per_s", len(latencies) / clean_wall,
         f"{len(latencies)} operations in {clean_wall:.3f} s (fastest whole "
         f"lap {min(lap.wall_s for lap in laps):.3f} s)")
    _put(report, "admit_ms_p50", _safe_percentile(admits, 50, smoke), note)
    _put(report, "admit_ms_p95", _safe_percentile(admits, 95, smoke), note)
    _put(report, "admitted_ratio", output.admitted / output.offered,
         f"{output.admitted}/{output.offered}")
    _put(report, "setup_s", statistics.median(lap.setup_s for lap in laps),
         f"median of {len(laps)} set-ups")
    _put(report, "peak_rss_mb",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


# -- the traced run ------------------------------------------------------------


def trace(name: str, seed: int, seconds: float, laps: int | None = None,
          smoke: bool = False) -> Report:
    """One untraced reference lap, then traced laps for the rest of the
    budget; the ledger comes from the fastest traced lap."""
    workload = WORKLOADS[name]
    report = Report(name, seed, 0)
    recorder = Recorder()
    try:
        with instrumented(recorder, facade_probes(workload.facade)):
            reference = _run_lap(workload, seed, smoke, recorder, False)
        with instrumented(recorder, LAYER_PROBES, hooks=True):
            traced = _lap_loop(
                lambda: _run_lap(workload, seed, smoke, recorder, True),
                seconds - reference.total_s, laps, 1,
            )
        report.laps = len(traced)
        _check_outputs(report, [reference, *traced], smoke)
        _check_counts(report, traced)
        best = min(traced, key=lambda lap: lap.wall_s)
        _per_layer_metrics(report, workload, reference, best)
        _write_trace(name, best)
    except Exception as error:  # the boundary: report, never crash
        return _failed_report(report, error)
    return _finish(report, len(reference.ops))


def _span_counts(lap: Lap) -> Counter:
    return Counter(span[NAME] for span in lap.spans)


def _check_counts(report: Report, laps: list) -> None:
    first = (_span_counts(laps[0]), laps[0].counts, laps[0].manager_stats)
    for index, lap in enumerate(laps[1:], start=1):
        if (_span_counts(lap), lap.counts, lap.manager_stats) != first:
            report.problems.append(
                f"traced lap {index}: call counts differ from lap 0"
            )


@dataclass
class _ByName:
    calls: int = 0
    failures: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def _by_name(lap: Lap) -> dict:
    """Per span name, inside the timed section: calls, failures, busy and
    self time.  A span nested directly in one of the same name (an
    override calling ``super()``) is one call, not two."""
    spans, inside = lap.spans, lap.inside
    own = stats.self_times(spans)
    table: dict[str, _ByName] = {}
    for index, span in enumerate(spans):
        if not inside[index]:
            continue
        row = table.setdefault(span[NAME], _ByName())
        row.self_s += own[index]
        parent = span[PARENT]
        if parent >= 0 and spans[parent][NAME] == span[NAME]:
            continue
        row.calls += 1
        row.failures += span[FAILED]
        row.busy_s += span[END] - span[START]
    return table


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_layer_metrics(report: Report, workload: Workload,
                       reference: Lap, lap: Lap) -> None:
    names = _by_name(lap)
    rows, residual = stats.build_ledger(lap.spans, LAYER_OF, lap.root)
    layers = {row.layer: row for row in rows}
    counts = lap.counts
    managers = lap.manager_stats

    def of(name: str) -> _ByName:
        return names.get(name, _ByName())

    def layer_self(layer: str) -> float:
        return layers[layer].self_s if layer in layers else 0.0

    def layer_busy(layer: str) -> float:
        return layers[layer].busy_s if layer in layers else 0.0

    spans, inside = lap.spans, lap.inside
    manager_admits = sum(
        1 for index, span in enumerate(spans)
        if inside[index] and span[NAME] in ("api.admit", "api.commit")
        and span[EXTRA] == ADMITTED
    )
    admitted_ops = sum(1 for _, code in lap.ops if code == ADMITTED)
    rejected = [
        latency for latency, code in reference.ops if code != ADMITTED
    ]
    dispatched = lap.output.events_dispatched
    probes = of("sim.service.try_admit").calls
    mutations = sum(
        counts[f"arch.state.{kind}_calls"]
        for kind in ("occupy", "vacate", "reserve", "release")
    )
    shard_probes = sum(
        of(f"cluster.shard.{verb}").calls for verb in ("admit", "plan")
    )

    values = {
        **counts,  # a count probe is named after the metric it feeds
        "sim.events.dispatched": dispatched,
        "sim.events.per_s": _ratio(dispatched, reference.wall_s),
        "sim.driver.self_s": layer_self("sim.events"),
        "sim.service.probes": probes,
        "sim.service.short_circuits": probes - len(lap.ops) if probes else 0,
        "sim.service.probes_per_offer": _ratio(
            probes, of("sim.service.offer").calls),
        "sim.service.self_s": layer_self("sim.service"),
        "sim.service.sample_s": of("sim.service.sample").busy_s,
        "api.admit.calls": of("api.admit").calls,
        "api.admit.busy_s": of("api.admit").busy_s,
        "api.reject.count": len(rejected),
        "api.reject.mean_ms": statistics.fmean(rejected) * 1e3
        if rejected else 0.0,
        "manager.self_s": sum(
            of(name).self_s for name in ("api.admit", "api.plan", "api.commit")
        ),
        "manager.gate.memo_hits": managers.get("memo_hits", 0),
        "manager.gate.rejections": managers.get("gate_rejections", 0),
        "manager.gate.passes": managers.get("gate_passes", 0),
        "manager.useful_ratio": _ratio(
            manager_admits, of("binding.bind").calls),
        "manager.release.calls": of("manager.release").calls,
        "manager.release.busy_s": of("manager.release").busy_s,
        "binding.calls": of("binding.bind").calls,
        "binding.failures": of("binding.bind").failures,
        "binding.busy_s": of("binding.bind").busy_s,
        "mapping.calls": of("mapping.map_application").calls,
        "mapping.failures": of("mapping.map_application").failures,
        "mapping.busy_s": of("mapping.map_application").busy_s,
        "mapping.self_s": of("mapping.map_application").self_s,
        "mapping.rings_searched": sum(
            span[EXTRA] for index, span in enumerate(spans)
            if inside[index] and span[NAME] == "mapping.map_application"
            and span[EXTRA] is not None
        ),
        "core.search.advance_calls": of("core.search.advance").calls,
        "core.search.busy_s": layer_busy("core.search"),
        "core.gap.solve_calls": of("core.gap.solve").calls,
        "core.gap.busy_s": of("core.gap.solve").busy_s,
        "core.knapsack.calls": of(KNAPSACK_SPAN).calls,
        "core.knapsack.busy_s": of(KNAPSACK_SPAN).busy_s,
        "core.cost.evals_per_admit": _ratio(
            counts["core.cost.evals"], admitted_ops),
        "core.distfield.hits": managers.get("distfield_hits", 0),
        "core.distfield.repairs": managers.get("distfield_repairs", 0),
        "core.distfield.misses": managers.get("distfield_misses", 0),
        "routing.calls": of("routing.route_application").calls,
        "routing.failures": of("routing.route_application").failures,
        "routing.busy_s": of("routing.route_application").busy_s,
        "validation.calls": of("validation.validate_layout").calls,
        "validation.busy_s": of("validation.validate_layout").busy_s,
        "arch.state.mutations_per_admit": _ratio(mutations, admitted_ops),
        "cluster.admit.calls": of("cluster.admit").calls,
        "cluster.self_s": layer_self("cluster"),
        "cluster.shard_probes": shard_probes,
        "cluster.spillovers": managers.get("cluster_spillovers", 0),
        "cluster.splits": managers.get("cluster_splits", 0),
        "ledger.residual_frac": _ratio(residual, lap.wall_s),
        "trace.overhead_frac": lap.wall_s / reference.wall_s - 1.0,
    }
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        _put(report, name, values[name])
        if metric["unit"] == "count":
            report.facts[name] = values[name]
    _ledger_lines(report, rows, residual, lap.wall_s, counts)
    _crosscheck(report, workload, lap)


def _ledger_lines(report: Report, rows: list, residual: float,
                  wall: float, counts: dict) -> None:
    lines = report.lines
    lines.append(f"  ledger of the timed section ({wall:.3f} s traced wall):")
    lines.append(
        f"    {'layer':<16}{'calls':>9}{'busy s':>10}{'self s':>10}{'share':>8}"
    )
    total = residual
    for row in sorted(rows, key=lambda row: -row.self_s):
        total += row.self_s
        lines.append(
            f"    {row.layer:<16}{row.calls:>9}{row.busy_s:>10.3f}"
            f"{row.self_s:>10.3f}{row.share:>8.1%}"
        )
    lines.append(
        f"    {'(residual)':<16}{'':>9}{'':>10}{residual:>10.3f}"
        f"{_ratio(residual, wall):>8.1%}"
    )
    lines.append(f"    {'sum':<16}{'':>9}{'':>10}{total:>10.3f}"
                 f"{_ratio(total, wall):>8.1%}")
    for name in sorted(counts):
        lines.append(f"    {name:<36}{counts[name]:>10} calls (counted only)")


def _crosscheck(report: Report, workload: Workload, lap: Lap) -> None:
    """The wrapped phase spans against the program's own phase timers.

    The program starts its timer just outside each wrapper, so its
    total may exceed the wrapped busy time by the per-call wrapper
    cost; a gate rejection is booked by the program as a binding
    sample although ``bind`` never ran, so the rejected façade span
    stands in for it.  The cluster's ``ServiceMetrics`` only sees the
    timings of the one decision ``ClusterManager.admit`` returns —
    spill-over probes are missing from its totals — so there the
    program's total can only be checked as a lower bound.
    """
    spans, inside = lap.spans, lap.inside
    cover_admitted = lap.output.phase_totals_cover == "admitted"
    phase_of = {
        "binding.bind": "binding",
        "mapping.map_application": "mapping",
        "routing.route_application": "routing",
        "validation.validate_layout": "validation",
    }
    wrapped = dict.fromkeys(PHASES, 0.0)
    calls = dict.fromkeys(PHASES, 0)
    selected = [False] * len(spans)
    for index, span in enumerate(spans):
        if not inside[index]:
            continue
        name = span[NAME]
        if name == "api.admit":
            code = span[EXTRA]
            selected[index] = not cover_admitted or code == ADMITTED
            if code == GATED and selected[index]:
                wrapped["binding"] += span[END] - span[START]
                calls["binding"] += 1
        elif name in phase_of:
            parent = span[PARENT]
            if parent >= 0 and selected[parent]:
                wrapped[phase_of[name]] += span[END] - span[START]
                calls[phase_of[name]] += 1
    allowance = span_wrapper_cost()
    one_sided = workload.facade == FACADE_CLUSTER
    for phase in PHASES:
        program = lap.output.phase_totals.get(phase, 0.0)
        if not program and not wrapped[phase]:
            continue
        slack = (CROSSCHECK_TOLERANCE * max(program, wrapped[phase])
                 + 2 * allowance * calls[phase])
        gap = program - wrapped[phase]
        agrees = gap <= slack if one_sided else abs(gap) <= slack
        report.lines.append(
            f"  cross-check {phase:<10} wrapped {wrapped[phase]:.4f} s  "
            f"program {program:.4f} s  "
            f"{'ok' if agrees else 'DISAGREE'}"
            f"{' (lower bound only)' if one_sided else ''}"
        )
        if not agrees:
            report.problems.append(
                f"{phase}: wrapped spans {wrapped[phase]:.4f} s vs the "
                f"program's timers {program:.4f} s"
            )


def _write_trace(name: str, lap: Lap) -> None:
    """``bench/out/trace-<workload>.jsonl``: one span per line, each
    carrying the ``app_id`` of the request it worked for."""
    OUT_DIR.mkdir(exist_ok=True)
    spans = lap.spans
    request: list = [None] * len(spans)
    with open(OUT_DIR / f"trace-{name}.jsonl", "w") as handle:
        for index, span in enumerate(spans):
            parent = span[PARENT]
            ident = span[IDENT]
            if ident is None and parent >= 0:
                ident = request[parent]
            request[index] = ident
            handle.write(json.dumps({
                "span": index, "parent": parent, "name": span[NAME],
                "start": span[START], "end": span[END], "app_id": ident,
                "failed": span[FAILED],
            }))
            handle.write("\n")
