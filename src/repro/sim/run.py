"""The run loop: one simulated run of the admission service.

:func:`run_simulation` builds kernel + manager + service and hands
them to :func:`run_service`, the one run loop (the sharded backend in
:mod:`repro.cluster.sim` runs it too, with the same service).
"""

from __future__ import annotations

import time as _time
from collections.abc import Callable
from dataclasses import dataclass, field
from random import Random

from repro.api.pipeline import PhasePipeline
from repro.arch.faults import Fault
from repro.arch.topology import Platform
from repro.core.cost import BOTH, CostWeights
from repro.manager.kairos import Kairos
from repro.obs import DISABLED, Observability
from repro.overload import OverloadConfig
from repro.resilience import HealthRegistry, ResilienceConfig
from repro.sim.events import Event, EventKernel, EventKind
from repro.sim.metrics import ServiceMetrics
from repro.sim.policies import AdmissionRequest, QueuePolicy
from repro.sim.service import AdmissionService
from repro.sim.traffic import TrafficClass


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulated service run."""

    duration: float = 120.0
    seed: int = 0
    sample_interval: float = 5.0
    #: SLA warmup window (sim-time): requests *resolved* before this
    #: instant are excluded from the steady-state blocking probability
    #: and wait percentiles (the empty-platform fill transient would
    #: otherwise bias them optimistic).  Metrics only — decisions and
    #: traces are unaffected.
    warmup: float = 0.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must lie in [0, duration)")


@dataclass
class SimulationResult:
    """Everything one run produced."""

    metrics: ServiceMetrics
    trace: list[dict] = field(default_factory=list)
    recipe: dict | None = None
    duration: float = 0.0
    wall_seconds: float = 0.0
    events_processed: int = 0
    post_drain_utilization: float | None = None
    #: the manager's memo counters (``Kairos.fastpath_stats``); None
    #: for a ``ClusterManager``, which keeps one memo per shard
    fastpath_stats: dict | None = None
    #: end-of-run overload controller states (None without a config)
    overload_stats: dict | None = None
    #: the run's observability bundle (registry + tracer); DISABLED
    #: when the caller did not opt in, so ``result.observability
    #: .snapshot()`` is always safe to call
    observability: Observability = DISABLED

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_processed / self.wall_seconds


def run_service(
    service: AdmissionService,
    classes: tuple[TrafficClass, ...],
    config: SimulationConfig,
    schedule_backend_events: Callable[[], None],
    check: Callable[[], None] = lambda: None,
) -> SimulationResult:
    """The one run loop, shared by every admission backend.

    :func:`run_simulation` and
    :func:`repro.cluster.sim.run_cluster_simulation` build their
    manager and the one :class:`AdmissionService` over it, and hand
    over here.  ``schedule_backend_events`` queues the backend's own
    events as closures (faults; shard kills, revivals and the
    heartbeat pulse, which end in :meth:`AdmissionService
    .drain_records`) — it runs after the first arrivals and before the
    first tick are scheduled, so same-kind events keep their relative
    sequence numbers.  ``check`` is the backend's integrity assertion,
    called after the run and again after the drain.
    """
    kernel, manager, policy = service.kernel, service.manager, service.policy
    if not classes:
        raise ValueError("need at least one traffic class")
    names = [cls.name for cls in classes]
    if len(set(names)) != len(names):
        raise ValueError("traffic class names must be unique")
    if policy.depth() != 0:
        raise ValueError(
            "policy still holds requests from a previous run; "
            "construct a fresh policy per simulation"
        )
    for cls in classes:
        reset = getattr(cls.arrivals, "reset", None)
        if reset is not None:
            reset()

    cursors = {cls.name: 0 for cls in classes}
    arrival_rngs = {
        cls.name: Random(f"{config.seed}:{cls.name}") for cls in classes
    }
    request_ids = iter(range(1, 1 << 62))

    def arrival(cls: TrafficClass):
        def handle(kernel: EventKernel, event: Event) -> None:
            index = cursors[cls.name]
            cursors[cls.name] = index + 1
            app = cls.pool[index % len(cls.pool)]
            request = AdmissionRequest(
                request_id=next(request_ids),
                app=app,
                app_id=f"{cls.name}#{index}",
                class_name=cls.name,
                priority=cls.priority,
                arrival_time=kernel.now,
                cls=cls,
            )
            service.offer(request, kernel.now)
            kernel.schedule(
                cls.arrivals.next_interarrival(arrival_rngs[cls.name]),
                EventKind.ARRIVAL,
                handle,
            )
        return handle

    for cls in classes:
        kernel.schedule(
            cls.arrivals.next_interarrival(arrival_rngs[cls.name]),
            EventKind.ARRIVAL,
            arrival(cls),
        )

    schedule_backend_events()

    def tick(kernel: EventKernel, event: Event) -> None:
        service.sample(kernel.now)
        if kernel.now + config.sample_interval <= config.duration:
            kernel.schedule(config.sample_interval, EventKind.TICK, tick)

    kernel.schedule(config.sample_interval, EventKind.TICK, tick)

    started = _time.perf_counter()
    kernel.run(until=config.duration)
    wall = _time.perf_counter() - started

    # guarantee at least one end-of-run observation: with
    # sample_interval > duration no TICK ever fired, and reporting
    # "utilization 0.0" for a loaded platform would be silently wrong
    samples = service.metrics.samples
    if not samples or samples[-1].time < config.duration:
        service.sample(kernel.now)

    if service.resilience is not None:
        service.metrics.finalize_availability(config.duration)

    result = SimulationResult(
        metrics=service.metrics,
        trace=service.trace.records,
        duration=config.duration,
        wall_seconds=wall,
        events_processed=kernel.processed,
        fastpath_stats=getattr(manager, "fastpath_stats", None),
        overload_stats=service.overload_state(),
        observability=manager.obs,
    )
    check()
    # the drain: release everything and verify zero utilization.
    # Resolve the requeue before the queue policy: every pending app
    # must leave the books for drain-to-zero
    for entry in service._engine.flush():
        service.metrics.lost += 1
        service.trace.record(
            kernel.now, "recovery_lost", id=entry.app_id, reason="drained",
        )
    policy.flush(service, kernel.now)
    drained = sorted(manager.admitted)
    for app_id in drained:
        manager.release(app_id)
    result.post_drain_utilization = manager.utilization()
    service.trace.record(
        kernel.now, "drain",
        released=len(drained),
        utilization=result.post_drain_utilization,
    )
    assert result.post_drain_utilization == 0.0, "drained platform not empty"
    check()
    return result


def run_simulation(
    platform: Platform,
    classes: tuple[TrafficClass, ...],
    policy: QueuePolicy,
    config: SimulationConfig = SimulationConfig(),
    faults: tuple[tuple[float, Fault], ...] = (),
    weights: CostWeights = BOTH,
    resilience: ResilienceConfig | None = None,
    obs: Observability | None = None,
    overload: OverloadConfig | None = None,
    mapper: str = "kairos",
    mapper_params: dict | None = None,
) -> SimulationResult:
    """Run one continuous-time admission-service simulation.

    Deterministic for a given (platform, classes, policy, config,
    faults): all randomness flows from seeded RNGs — the kernel RNG
    (holding times) and one stream per traffic class (arrivals),
    seeded from ``config.seed`` and the class name.  ``obs`` attaches
    an :class:`~repro.obs.Observability` bundle (metric registry +
    span tracer); observability is read-only — it
    never feeds a decision, so an instrumented run produces the same
    trace as a bare one (asserted by ``tests/test_obs.py``).
    Stateful arrival processes (MMPP) are reset at start-up so traffic
    classes can be reused across runs; the *policy* must be fresh —
    its queue holds requests bound to one run's kernel, so reuse is
    rejected.  ``mapper`` selects the placement strategy from the
    phase-pipeline registry (``kairos``, ``first_fit``, ``random``,
    ``annealing``, ``optimal``) — unlike ``obs`` this *does* change
    decisions, so it is part of the recipe.
    """
    kernel = EventKernel(seed=config.seed)
    health = (
        None if resilience is None else HealthRegistry(resilience.health)
    )
    manager = Kairos(
        platform, weights=weights, validation_mode="skip",
        health=health, obs=obs,
    )
    if mapper != "kairos" or mapper_params:
        # swap only the mapping phase; binder/router/validator stay at
        # the defaults the "kairos" pipeline above would have used
        manager.pipeline = PhasePipeline(
            binder="regret",
            mapper=mapper,
            mapper_params=mapper_params,
            router=manager.router,
            validator="skip",
        )
    service = AdmissionService(
        manager, policy, kernel,
        metrics=ServiceMetrics(warmup=config.warmup),
        resilience=resilience,
        overload=overload,
    )

    def schedule_faults() -> None:
        for when, fault in faults:
            if when > config.duration:
                # a silently skipped fault would make a resilience run
                # test less than the caller specified — match the
                # strictness of FaultCampaign.schedule's own validation
                raise ValueError(
                    f"fault at t={when} lies beyond the horizon "
                    f"(duration {config.duration})"
                )
            kernel.schedule_at(
                when,
                EventKind.FAULT,
                lambda kernel, event: service.inject_fault(
                    event.payload["fault"], kernel.now
                ),
                fault=fault,
            )

    return run_service(service, classes, config, schedule_faults)
