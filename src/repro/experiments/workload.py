"""Dynamic workload driver: arrivals and departures at run time.

The paper's core motivation: "at design-time, it is unknown when, and
what combinations of applications are requested to be executed during
the life-time of the system" (Section I).  This module turns that
sentence into a measurable scenario: a seeded stochastic process of
application start and stop requests driven against a
:class:`~repro.manager.kairos.Kairos` instance, with steady-state
statistics (admission ratio, mean residency, utilization and
fragmentation traces).

The sequence experiments (Table I, Figs. 8/9) only *add*
applications; this driver exercises the release path and the
mid-lifetime re-admission behaviour the sequence protocol cannot see.

Both drivers are thin adapters over the discrete-event kernel
(:mod:`repro.sim.events`): each legacy "step" is a STEP event at
integer sim-time, so the fixed-step scenarios and the continuous-time
service simulations (:mod:`repro.sim.service`) share one event loop.
The churn adapter preserves the exact RNG draw sequence of the
original loop — its layout digests are frozen against
``benchmarks/seed_reference`` and must stay bit-identical.  The
``run_workload`` adapter keeps the per-step draw pattern but selects
departures from the admission-ordered resident list instead of the
old lexicographically sorted one, so its same-seed trajectories
differ from pre-kernel runs (it is deterministic, just not
history-compatible).  Requests these drivers reject are *not*
retried; queued/retried admission is what :mod:`repro.sim.service`
models (see its ``retry`` policy).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.apps.generator import GeneratorConfig, generate
from repro.apps.taskgraph import Application
from repro.arch.builders import mesh
from repro.arch.elements import ElementType
from repro.arch.resources import ResourceVector
from repro.arch.state import AllocationState
from repro.arch.topology import Platform
from repro.core.cost import BOTH, CostWeights
from repro.api.controller import AdmissionController
from repro.manager.kairos import Kairos
from repro.sim.events import EventKernel, EventKind, pop_random


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the arrival/departure process.

    Each step is one scheduling event: with probability
    ``departure_probability`` (and a non-empty system) a uniformly
    random resident application stops; otherwise the next application
    of the pool (round-robin) requests admission.  A rejected request
    is simply counted and dropped — this fixed-step driver never
    retries; retry-with-backoff (a user trying again later) is modelled
    by the ``retry`` queue policy of :mod:`repro.sim.service`.
    """

    steps: int = 200
    departure_probability: float = 0.35
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("need at least one step")
        if not 0 <= self.departure_probability < 1:
            raise ValueError("departure_probability must be in [0, 1)")


@dataclass
class WorkloadStats:
    """Aggregates of one driver run."""

    admitted: int = 0
    rejected: int = 0
    departed: int = 0
    rejections_by_phase: dict[str, int] = field(default_factory=dict)
    utilization_trace: list[float] = field(default_factory=list)
    fragmentation_trace: list[float] = field(default_factory=list)
    #: residency time (in steps) of each departed application
    residencies: list[int] = field(default_factory=list)

    @property
    def admission_ratio(self) -> float:
        attempts = self.admitted + self.rejected
        return self.admitted / attempts if attempts else 0.0

    @property
    def mean_residency(self) -> float:
        if not self.residencies:
            return 0.0
        return sum(self.residencies) / len(self.residencies)

    def mean_utilization(self, skip: int = 0) -> float:
        trace = self.utilization_trace[skip:]
        return sum(trace) / len(trace) if trace else 0.0

    def mean_fragmentation(self, skip: int = 0) -> float:
        trace = self.fragmentation_trace[skip:]
        return sum(trace) / len(trace) if trace else 0.0


def run_workload(
    pool: list[Application],
    platform: Platform,
    config: WorkloadConfig = WorkloadConfig(),
    weights: CostWeights = BOTH,
) -> WorkloadStats:
    """Drive the arrival/departure process; returns the statistics.

    Deterministic for a given (pool, config).  The manager is created
    fresh (empty platform) and fully drained at the end, so repeated
    calls are independent; a final invariant check asserts that the
    drained platform reports zero utilization.  Steps are STEP events
    at integer sim-time on the shared event kernel; departures sample
    the resident set with :func:`repro.sim.events.pop_random` (one RNG
    draw per departure instead of the historic per-departure sort).
    """
    if not pool:
        raise ValueError("workload pool must not be empty")
    rng = random.Random(config.seed)
    manager = Kairos(platform, weights=weights, validation_mode="skip")
    controller = manager.controller
    stats = WorkloadStats()
    resident_ids: list[str] = []
    admitted_step: dict[str, int] = {}  # app_id -> admission step
    next_app = 0
    counter = 0

    def step_event(kernel: EventKernel, event) -> None:
        nonlocal next_app, counter
        step = event.payload["step"]
        if resident_ids and rng.random() < config.departure_probability:
            app_id = pop_random(rng, resident_ids)
            manager.release(app_id)
            stats.departed += 1
            stats.residencies.append(step - admitted_step.pop(app_id))
        else:
            app = pool[next_app % len(pool)]
            next_app += 1
            counter += 1
            decision = controller.admit(app, f"w{counter}_{app.name}")
            if decision.admitted:
                stats.admitted += 1
                resident_ids.append(decision.app_id)
                admitted_step[decision.app_id] = step
            else:
                stats.rejected += 1
                phase = decision.phase.value
                stats.rejections_by_phase[phase] = (
                    stats.rejections_by_phase.get(phase, 0) + 1
                )
        stats.utilization_trace.append(manager.utilization())
        stats.fragmentation_trace.append(manager.external_fragmentation())

    kernel = EventKernel(seed=config.seed)
    for step in range(config.steps):
        kernel.schedule_at(float(step), EventKind.STEP, step_event, step=step)
    kernel.run()

    for app_id in sorted(resident_ids):
        manager.release(app_id)
    assert manager.utilization() == 0.0, "drained platform not empty"
    return stats


# ---------------------------------------------------------------------------
# Admission churn: the rollback benchmark workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnConfig:
    """Knobs of the sustained allocate/release churn scenario.

    The platform is first filled round-robin until ``target_utilization``
    is reached (or the whole pool is rejected in a row); every
    subsequent step releases one random resident application and
    attempts one admission.  Near the utilization target many attempts
    fail, which is exactly the regime that stresses rollback cost.
    """

    steps: int = 150
    target_utilization: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("need at least one step")
        if not 0 < self.target_utilization <= 1:
            raise ValueError("target_utilization must be in (0, 1]")


#: the canonical churn workload measured by ``bench_admission_churn``,
#: ``benchmarks/run_admission_bench.py`` and ``tests/test_admission_churn.py``
#: — tune it here so every entry point keeps measuring the same thing
CHURN_BENCH_CONFIG = ChurnConfig(steps=150, target_utilization=0.8, seed=0)
CHURN_BENCH_POOL_SIZE = 20

#: the fixed-size failed attempt of the rollback-scaling micro-benchmark
#: (must fit the smallest mesh compared, so every platform rolls back
#: exactly the same work)
ROLLBACK_BENCH_OCCUPIES = 16
ROLLBACK_BENCH_ROUTES = 3


def measure_mesh_rollback_seconds(rows: int, repeats: int = 300) -> float:
    """Min seconds to undo one fixed-size failed attempt via the journal.

    The single definition shared by ``benchmarks/run_admission_bench.py``
    and ``tests/test_admission_churn.py``, so the reported
    rollback-scaling numbers and the CI gate measure the same scenario.
    The attempt (:data:`ROLLBACK_BENCH_OCCUPIES` occupies +
    :data:`ROLLBACK_BENCH_ROUTES` route reservations) is identical on
    every ``rows x rows`` mesh, making the measured time a pure probe
    of platform-size dependence.
    """
    if rows <= ROLLBACK_BENCH_ROUTES:
        raise ValueError("mesh too small for the fixed-size failed attempt")
    platform = mesh(rows, rows)
    state = AllocationState(platform)
    elements = platform.elements[:ROLLBACK_BENCH_OCCUPIES]
    requirement = ResourceVector(cycles=10, memory=2)
    routes = [
        (f"dsp_0_{col}", f"r_0_{col}", f"r_0_{col + 1}", f"dsp_0_{col + 1}")
        for col in range(ROLLBACK_BENCH_ROUTES)
    ]
    best = float("inf")
    for _ in range(repeats):
        with state.transaction():
            mark = state.savepoint()
            for index, element in enumerate(elements):
                state.occupy(element, "bench", f"t{index}", requirement)
            for index, path in enumerate(routes):
                state.reserve_route("bench", f"c{index}", path, 1.0)
            started = time.perf_counter()
            state.rollback_to(mark)
            elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


@dataclass
class ChurnResult:
    """Outcome and determinism digest of one churn run."""

    admitted: int = 0
    rejected: int = 0
    released: int = 0
    fill_admitted: int = 0
    final_utilization: float = 0.0
    elapsed_seconds: float = 0.0
    #: per-admission digest (app_id, placements, route paths) — two
    #: runs are equivalent iff their digests are equal
    layouts: list[tuple] = field(default_factory=list)

    @property
    def attempts(self) -> int:
        return self.admitted + self.rejected


def churn_pool(count: int = 20, seed: int = 0) -> list[Application]:
    """A deterministic pool of DSP-only applications for churn runs.

    Sizes and utilizations are varied enough that the packing near the
    utilization target keeps producing both successes and failures.
    """
    pool = []
    for index in range(count):
        config = GeneratorConfig(
            inputs=1,
            internals=2 + index % 5,
            outputs=1,
            target_kinds=((ElementType.DSP, 1.0),),
            utilization_low=0.25,
            utilization_high=0.65,
        )
        pool.append(generate(config, seed=seed * 10_000 + index))
    return pool


def run_admission_churn(
    pool: list[Application],
    platform: Platform,
    config: ChurnConfig = ChurnConfig(),
    weights: CostWeights = BOTH,
    path: str = "admit",
) -> ChurnResult:
    """Sustained allocate/release churn against one Kairos instance.

    Deterministic for a given (pool, config): the event sequence
    depends only on the seeded RNG and admission outcomes, and the
    :attr:`ChurnResult.layouts` digests are asserted by the test suite
    against the frozen seed reference.  The churn steps are STEP
    events on the shared event kernel; the adapter reproduces the
    original loop's RNG draw sequence exactly (order-preserving
    :func:`~repro.sim.events.pop_random`), keeping the digests stable.

    ``path`` selects the admission route: ``"admit"`` (the façade's
    one-shot hot path, the default everywhere) or ``"plan_commit"``
    (every attempt goes plan → commit, the two-phase protocol — one
    extra journal unwind + mutation replay per admission).  Decisions
    and digests are identical on both.
    """
    if not pool:
        raise ValueError("churn pool must not be empty")
    if path not in ("admit", "plan_commit"):
        raise ValueError(
            f"path must be 'admit' or 'plan_commit', got {path!r}"
        )
    rng = random.Random(config.seed)
    manager = Kairos(platform, weights=weights, validation_mode="skip")
    controller = manager.controller
    result = ChurnResult()
    resident: list[str] = []
    next_app = 0
    counter = 0
    started = time.perf_counter()

    def attempt() -> bool:
        nonlocal next_app, counter
        app = pool[next_app % len(pool)]
        next_app += 1
        counter += 1
        app_id = f"churn{counter}_{app.name}"
        if path == "plan_commit":
            decision = controller.commit(controller.plan(app, app_id))
        else:
            decision = controller.admit(app, app_id)
        if not decision.admitted:
            result.rejected += 1
            return False
        layout = decision.layout
        result.admitted += 1
        resident.append(app_id)
        result.layouts.append(_layout_digest(layout))
        return True

    # fill to the target utilization
    consecutive_rejections = 0
    while (
        manager.utilization() < config.target_utilization
        and consecutive_rejections < len(pool)
    ):
        if attempt():
            consecutive_rejections = 0
            result.fill_admitted += 1
        else:
            consecutive_rejections += 1

    # churn: one departure + one admission attempt per step event
    def step_event(kernel: EventKernel, event) -> None:
        if resident:
            app_id = pop_random(rng, resident)
            manager.release(app_id)
            result.released += 1
        attempt()

    kernel = EventKernel(seed=config.seed)
    for step in range(config.steps):
        kernel.schedule_at(float(step), EventKind.STEP, step_event, step=step)
    kernel.run()

    result.final_utilization = manager.utilization()
    result.elapsed_seconds = time.perf_counter() - started
    return result


def _layout_digest(layout) -> tuple:
    return (
        layout.app_id,
        tuple(sorted(layout.placement.items())),
        tuple(
            (channel, reservation.path)
            for channel, reservation in sorted(layout.routes.items())
        ),
    )


def saturation_point(
    pool: list[Application],
    platform: Platform,
    weights: CostWeights = BOTH,
) -> int:
    """How many pool applications fit simultaneously (no departures).

    Admits pool applications round-robin until the first rejection and
    returns the number admitted — a capacity figure used to scale
    workload configurations.
    """
    controller = AdmissionController(
        platform, weights=weights, validation_mode="skip"
    )
    admitted = 0
    for index, app in enumerate(pool):
        if not controller.admit(app, f"sat{index}").admitted:
            break
        admitted += 1
    return admitted
