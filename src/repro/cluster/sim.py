"""Sharded admission-service simulation: heartbeats, kills, recovery.

:func:`run_cluster_simulation` is the cluster twin of
:func:`~repro.sim.run.run_simulation`: the plain
:class:`~repro.sim.service.AdmissionService` over a
:class:`~repro.cluster.service.ClusterManager`, run by the one loop
(:func:`~repro.sim.run.run_service`).  The shard lifecycle is
three kinds of scheduled closure, the way faults are scheduled:
heartbeat pulses (the liveness registry's only clock — every timestamp
it sees is kernel sim-time, never the wall clock), shard kills and
shard revivals.  Each calls the manager, which queues its trace
records, then the service's one drain
(:meth:`~repro.sim.service.AdmissionService.drain_records`) traces
them and runs recovery.  Queue policies, the backfill guard, the
recovery stanza and requeue and the drain are the plain service's,
which is what makes the single-shard cluster bit-identical to the
unsharded service (no kills → no extra trace records, no extra RNG
draws; asserted by the lockstep test in ``tests/test_cluster.py``).

Event order at one instant follows :class:`~repro.sim.events.EventKind`:
revivals (``REPAIR``) fire before the heartbeat pulse, so a revived
shard's first post-revival beat lands in the same pulse and its
probation clock starts immediately; the pulse fires before any
same-instant kill (``FAULT``), so liveness decisions never observe a
kill that "has not happened yet".

The recovery story after a kill: the victims' bookkeeping survives in
the cluster (``stranded_by_faults`` reports them), but recovery runs
only once liveness *detects* the death — missed heartbeats crossing
``dead_after`` — modelling the real detection window.  The engine
then re-admits through the cluster controller, which routes to
whatever is alive; apps that do not fit wait in the requeue and drain
on departures or once the killed shard's probation elapses.
"""

from __future__ import annotations

from repro.cluster.registry import LivenessPolicy
from repro.cluster.service import ClusterManager
from repro.cluster.shard import build_shards
from repro.core.cost import BOTH, CostWeights
from repro.obs import Observability
from repro.overload import OverloadConfig
from repro.resilience import RecoveryPolicy, ResilienceConfig
from repro.sim.events import Event, EventKernel, EventKind
from repro.sim.metrics import ServiceMetrics
from repro.sim.policies import QueuePolicy
from repro.sim.recipe import build_recipe, run_recipe
from repro.sim.run import SimulationConfig, SimulationResult, run_service
from repro.sim.service import AdmissionService
from repro.sim.traffic import TrafficClass

__all__ = [
    "build_cluster_recipe",
    "run_cluster_recipe",
    "run_cluster_simulation",
    "scheduled_kills",
]

#: old name kept for bench/, its only caller; ROADMAP item 6 retires it
build_cluster_recipe = build_recipe
#: old name kept for bench/, its only caller; ROADMAP item 6 retires it
run_cluster_recipe = run_recipe


# -- kill campaigns ---------------------------------------------------------


def scheduled_kills(
    shard_count: int,
    count: int,
    duration: float,
    downtime: float,
) -> tuple[tuple[float, str, float], ...]:
    """``(kill_time, shard_id, revive_time)`` spread evenly over the run.

    Kill times follow the fault-campaign convention
    (``duration * (i+1) / (count+1)``); targets cycle through the
    shards in index order.  Raises when a revival would land beyond
    the horizon — a silently never-revived shard would weaken the
    campaign the caller specified.
    """
    if count < 1:
        return ()
    if downtime <= 0:
        raise ValueError("downtime must be positive")
    kills = []
    for index in range(count):
        when = duration * (index + 1) / (count + 1)
        revive = when + downtime
        if revive > duration:
            raise ValueError(
                f"kill at t={when:g} revives at t={revive:g}, beyond "
                f"the horizon (duration {duration:g})"
            )
        kills.append((when, f"s{index % shard_count}", revive))
    return tuple(kills)


# -- the driver -------------------------------------------------------------


def run_cluster_simulation(
    rows: int,
    cols: int,
    shard_count: int,
    classes: tuple[TrafficClass, ...],
    policy: QueuePolicy,
    config: SimulationConfig = SimulationConfig(),
    kills: tuple[tuple[float, str, float], ...] = (),
    liveness: LivenessPolicy | None = None,
    recovery: RecoveryPolicy | None = None,
    weights: CostWeights = BOTH,
    allow_split: bool = True,
    obs: Observability | None = None,
    overload: OverloadConfig | None = None,
) -> SimulationResult:
    """One sharded service run; the cluster twin of ``run_simulation``.

    Only the backend differs: kernel seed, per-class arrival RNG
    streams, request id sequence, tick scheme and drain order are
    :func:`repro.sim.run.run_service`, the loop ``run_simulation``
    runs too — that plus quiet heartbeats is the whole lockstep
    argument for ``shard_count == 1``.  The run additionally asserts
    the cluster integrity invariants before and after the drain: no
    orphan parts, no duplicate ownership — i.e. no 2PC round ever
    leaked a partial allocation.
    """
    kernel = EventKernel(seed=config.seed)
    shards = build_shards(rows, cols, shard_count, weights=weights, obs=obs)
    cluster = ClusterManager(
        shards, liveness_policy=liveness, obs=obs, allow_split=allow_split,
        overload=overload,
    )
    cluster.now_fn = lambda: kernel.now
    service = AdmissionService(
        cluster, policy, kernel,
        metrics=ServiceMetrics(warmup=config.warmup),
        resilience=ResilienceConfig(recovery=recovery or RecoveryPolicy()),
        overload=overload,
    )
    interval = cluster.liveness.policy.heartbeat_interval

    def pulse(kernel: EventKernel, event: Event) -> None:
        cluster.heartbeat(kernel.now)
        service.drain_records(kernel.now)
        if kernel.now + interval <= config.duration:
            kernel.schedule(interval, EventKind.HEARTBEAT, pulse)

    def lifecycle(action):
        def handle(kernel: EventKernel, event: Event) -> None:
            action(event.payload["shard"])
            service.drain_records(kernel.now)
        return handle

    def schedule_kills_and_pulse() -> None:
        for when, shard_id, revive_at in kills:
            if shard_id not in cluster.by_id:
                raise ValueError(f"kill targets unknown shard {shard_id!r}")
            if when > config.duration or revive_at > config.duration:
                raise ValueError(
                    f"shard kill/revive at t={when}/{revive_at} lies beyond "
                    f"the horizon (duration {config.duration})"
                )
            kernel.schedule_at(
                when, EventKind.FAULT, lifecycle(cluster.kill_shard),
                shard=shard_id,
            )
            kernel.schedule_at(
                revive_at, EventKind.REPAIR, lifecycle(cluster.revive_shard),
                shard=shard_id,
            )
        kernel.schedule(interval, EventKind.HEARTBEAT, pulse)

    def check_integrity() -> None:
        violations = cluster.verify_integrity()
        assert not violations, f"cluster integrity violated: {violations}"

    return run_service(
        service, classes, config, schedule_kills_and_pulse, check_integrity
    )
