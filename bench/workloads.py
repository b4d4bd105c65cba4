"""The five benchmark workloads and how one lap of each is run.

A *lap* is set-up (platform, traffic pools or datasets, manager,
service) followed by the timed section.  The program is deterministic,
so every lap of a workload at one seed issues the same operations in
the same order; the harness relies on that (see ``bench/README.md``).

The sim workloads keep the application pools of the default
three-class mix fixed (pool seed 0) and feed ``--seed`` to the
arrival, holding-time and kernel streams: the *work per request* is
then the same population at every seed and only the request stream
changes, which keeps seed-to-seed spread inside the regression bounds.
``paper_seq_crisp`` seeds both the datasets and the shuffles — its 600
generated applications average out on their own.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.apps.datasets import ALL_SPECS
from repro.cluster import build_cluster_recipe, run_cluster_recipe
from repro.core.cost import BOTH
from repro.experiments.harness import (
    default_platform,
    prepare_dataset,
    run_dataset_sequences,
)
from repro.sim import build_recipe, run_recipe, trace_digest

from bench.tracing import (
    FACADE_API,
    FACADE_CLUSTER,
    ROOT_HARNESS,
    ROOT_SIM,
    Recorder,
)

PHASES = ("binding", "mapping", "routing", "validation")


@dataclass
class LapOutput:
    """What one lap produced, as far as the output check needs it."""

    started: float
    #: digest of the decision stream (trace or attempt records)
    digest: str
    #: denominator of ``admitted_ratio``
    offered: int
    admitted: int
    #: the run ended with nothing allocated (and, for the cluster, no
    #: integrity violation) — ``run_*_recipe`` asserts it and reports
    #: the post-drain utilisation, which is re-checked here
    drained: bool
    events_dispatched: int = 0
    #: the program's own phase-timer totals in seconds, and whether
    #: they cover every façade decision or only the admitted ones
    phase_totals: dict = field(default_factory=dict)
    phase_totals_cover: str = "all"


@dataclass(frozen=True)
class Workload:
    name: str
    #: span name of one operation (the admission façade call)
    facade: str
    #: span name of the timed section
    root: str
    #: ``lap(sized parameters, seed, recorder)`` runs one lap
    lap: Callable[[dict, int, Recorder], LapOutput]
    params: dict
    smoke: dict

    def sized(self, smoke: bool) -> dict:
        return {**self.params, **(self.smoke if smoke else {})}


# -- sim workloads -----------------------------------------------------------


def _phase_totals_from_summary(summary: dict) -> dict:
    return {
        phase: entry["total_ms"] / 1000.0
        for phase, entry in summary["phase_latency"].items()
    }


def _sim_lap(sized, seed, recorder) -> LapOutput:
    started = perf_counter()
    cluster = "shards" in sized
    build = build_cluster_recipe if cluster else build_recipe
    recipe = build(seed=0, **sized)
    recipe["seed"] = seed  # streams only; recipe["classes"]["seed"] stays 0
    result = (run_cluster_recipe if cluster else run_recipe)(recipe)
    summary = result.metrics.summary()
    return LapOutput(
        started=started,
        digest=trace_digest(result.trace),
        offered=summary["offered"],
        admitted=summary["admitted"],
        drained=result.post_drain_utilization == 0.0,
        events_dispatched=result.events_processed,
        phase_totals=_phase_totals_from_summary(summary),
    )


# -- the paper's sequence protocol -------------------------------------------


def _paper_lap(sized, seed, recorder) -> LapOutput:
    started = perf_counter()
    platform = default_platform()
    prepared = [
        prepare_dataset(spec, sized["applications"], seed, platform)
        for spec in ALL_SPECS
    ]
    records = []
    with recorder.span(ROOT_HARNESS):
        for dataset in prepared:
            for sequence in run_dataset_sequences(
                dataset, BOTH, sequences=sized["sequences"], seed=seed,
                platform=platform, validation_mode="report",
            ):
                records.extend(sequence.records)
    digest = hashlib.sha256()
    totals = dict.fromkeys(PHASES, 0.0)
    admitted = 0
    for record in records:
        phase = record.failed_phase.value if record.failed_phase else "-"
        digest.update(
            f"{record.position},{int(record.admitted)},{phase}\n".encode()
        )
        if record.admitted:
            admitted += 1
            for phase, milliseconds in record.timings_ms.items():
                totals[phase] += milliseconds / 1000.0
    return LapOutput(
        started=started,
        digest=digest.hexdigest(),
        offered=len(records),
        admitted=admitted,
        drained=True,  # every sequence owns a fresh manager; nothing persists
        phase_totals=totals,
        phase_totals_cover="admitted",
    )


# -- the catalogue (sizes frozen in BENCHMARK.json's "why" lines) ------------

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fifo_12x12", FACADE_API, ROOT_SIM, _sim_lap,
            {"platform": "12x12", "policy": "fifo", "rate_scale": 8.0,
             "duration": 200.0},
            {"duration": 20.0},
        ),
        Workload(
            "priority_12x12", FACADE_API, ROOT_SIM, _sim_lap,
            {"platform": "12x12", "policy": "priority", "rate_scale": 8.0,
             "duration": 110.0},
            {"duration": 15.0},
        ),
        Workload(
            "fifo_48x48", FACADE_API, ROOT_SIM, _sim_lap,
            {"platform": "48x48", "policy": "fifo", "rate_scale": 4.0,
             "duration": 80.0},
            {"duration": 3.0},
        ),
        Workload(
            "cluster4_48x48", FACADE_CLUSTER, ROOT_SIM, _sim_lap,
            {"platform": "48x48", "shards": 4, "policy": "fifo",
             "rate_scale": 32.0, "duration": 24.0},
            {"duration": 1.0},
        ),
        Workload(
            "paper_seq_crisp", FACADE_API, ROOT_HARNESS, _paper_lap,
            {"applications": 100, "sequences": 16},
            {"applications": 20, "sequences": 3},
        ),
    )
}
