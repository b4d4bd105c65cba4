"""Sharded admission-service simulation: heartbeats, kills, recovery.

:class:`ClusterAdmissionService` is the plain
:class:`~repro.sim.service.AdmissionService` over a
:class:`~repro.cluster.service.ClusterManager` plus three shard-level
event hooks: heartbeat pulses (the liveness registry's only clock —
every timestamp it sees is kernel sim-time, never the wall clock),
shard kills and shard revivals.  Everything else — queue policies,
the epoch short-circuit, the recovery stanza and requeue, the run loop
(:func:`~repro.sim.service.run_service`) and its drain — is inherited
unchanged, which is what makes the single-shard cluster bit-identical
to the unsharded service (no kills → no extra trace records, no extra
RNG draws; asserted by the lockstep test in ``tests/test_cluster.py``).

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

from repro.cluster.registry import LivenessPolicy, ShardLiveness
from repro.cluster.service import ClusterManager
from repro.cluster.shard import build_shards
from repro.core.cost import BOTH, CostWeights
from repro.obs import Observability
from repro.overload import OverloadConfig
from repro.resilience import RecoveryPolicy, ResilienceConfig
from repro.sim.events import Event, EventKernel, EventKind
from repro.sim.metrics import ServiceMetrics
from repro.sim.service import (
    AdmissionRequest,
    AdmissionService,
    QueuePolicy,
    SimulationConfig,
    SimulationResult,
    base_recipe,
    recipe_inputs,
    replay_recorded,
    run_service,
)
from repro.sim.trace import write_trace
from repro.sim.traffic import TrafficClass

__all__ = [
    "ClusterAdmissionService",
    "build_cluster_recipe",
    "replay_cluster_trace",
    "run_cluster_recipe",
    "run_cluster_simulation",
    "scheduled_kills",
]


class ClusterAdmissionService(AdmissionService):
    """The admission service with shard lifecycle hooks."""

    def __init__(self, cluster: ClusterManager, *args, **kwargs) -> None:
        super().__init__(cluster, *args, **kwargs)
        self.cluster = cluster
        registry = self.obs.registry
        self._c_demotions = registry.counter("cluster.demotions")
        self._c_revivals = registry.counter("cluster.revivals")

    # -- breaker record drain -----------------------------------------------

    def _drain_cluster_records(self, now: float) -> None:
        """Move the manager's queued breaker/liveness events into the trace.

        The manager produces records inside :meth:`ClusterManager.admit`
        where it cannot reach the trace; every service entry point that
        can trigger admissions drains them immediately after, so record
        order is a pure function of the event stream.  A fault-storm
        demotion discovered here runs the same recovery stanza as a
        heartbeat demotion — and recovery re-admits through the cluster,
        which may queue more records, hence the loop (it terminates:
        DEAD shards leave the candidate set and cannot re-demote).
        """
        cluster = self.cluster
        while cluster.pending_records:
            batch, cluster.pending_records = cluster.pending_records, []
            demoted = False
            for kind, payload in batch:
                self.trace.record(now, kind, **payload)
                if kind == "breaker":
                    self.metrics.breaker_transitions += 1
                elif (kind == "shard_state"
                        and payload["state"] == ShardLiveness.DEAD.value):
                    demoted = True
                    self._c_demotions.inc()
            if demoted:
                self._recover(now)

    def try_admit(self, request: AdmissionRequest, now: float) -> bool:
        admitted = super().try_admit(request, now)
        self._drain_cluster_records(now)
        return admitted

    def _departure(self, kernel, event) -> None:
        super()._departure(kernel, event)
        self._drain_cluster_records(kernel.now)

    def sample(self, now: float):
        sample = super().sample(now)
        self._drain_cluster_records(now)
        return sample

    # -- shard lifecycle events ---------------------------------------------

    def kill_shard(self, shard_id: str, now: float) -> None:
        """Crash one shard; liveness finds out via missed heartbeats."""
        shard = self.cluster.by_id[shard_id]
        if not shard.alive:
            return
        lost = shard.kill()
        self.metrics.faults_injected += 1
        self._c_faults.inc()
        self.trace.record(
            now, "shard_kill", shard=shard_id, lost=len(lost)
        )
        self.metrics.on_availability(now, self.cluster.alive_fraction())

    def revive_shard(self, shard_id: str, now: float) -> None:
        """The shard process returns (empty); trust returns later.

        A revival is also a *detection* event: the process reports an
        empty allocation state, so anything still booked to it is
        provably lost — even when the kill was never demoted (a
        downtime shorter than ``dead_after`` revives a merely-stale
        shard).  Recovery runs here for exactly that window; after a
        detected death the demotion pass already handled the victims
        and the stranded set is empty.
        """
        shard = self.cluster.by_id[shard_id]
        if shard.alive:
            return
        shard.revive()
        self.trace.record(now, "shard_revive", shard=shard_id)
        self.metrics.on_availability(now, self.cluster.alive_fraction())
        if self.cluster.stranded_by_faults():
            self._recover(now)
        self._drain_cluster_records(now)

    def heartbeat_pulse(self, now: float) -> None:
        """One liveness round: beats from the living, then deadlines.

        Quiet rounds (every shard alive, nothing in transition) add no
        trace records and draw no randomness — heartbeats are invisible
        to the determinism contract.
        """
        liveness = self.cluster.liveness
        transitions = []
        for shard in self.cluster.shards:
            if shard.alive:
                shard.beat()
                transitions.extend(liveness.heartbeat(shard.shard_id, now))
        transitions.extend(liveness.observe(now))
        if not transitions:
            return
        demoted = False
        revived = False
        for transition in transitions:
            self.trace.record(
                now, "shard_state",
                shard=transition.shard_id,
                state=transition.state.value,
                was=transition.previous.value,
                reason=transition.reason,
            )
            if transition.state is ShardLiveness.DEAD:
                demoted = True
                self._c_demotions.inc()
            elif (transition.state is ShardLiveness.LIVE
                    and transition.previous is ShardLiveness.PROBATION):
                revived = True
                self._c_revivals.inc()
        if demoted:
            self._recover(now)
        if revived:
            # a probation graduate is fresh capacity: first the
            # requeue (kill victims were admitted before anything
            # still queued), then the queue policy
            self._drain_requeue(now)
            self.policy.on_capacity_freed(self, now)
        self._drain_cluster_records(now)


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
    fastpath: bool = True,
    allow_split: bool = True,
    obs: Observability | None = None,
    overload: OverloadConfig | None = None,
) -> SimulationResult:
    """One sharded service run; the cluster twin of ``run_simulation``.

    Only the backend differs: kernel seed, per-class arrival RNG
    streams, request id sequence, tick scheme and drain order are
    :func:`repro.sim.service.run_service`, the loop ``run_simulation``
    runs too — that plus quiet heartbeats is the whole lockstep
    argument for ``shard_count == 1``.  The run additionally asserts
    the cluster integrity invariants before and after the drain: no
    orphan parts, no duplicate ownership — i.e. no 2PC round ever
    leaked a partial allocation.
    """
    kernel = EventKernel(seed=config.seed)
    shards = build_shards(
        rows, cols, shard_count, weights=weights,
        fastpath=fastpath, obs=obs,
    )
    cluster = ClusterManager(
        shards, liveness_policy=liveness, obs=obs, allow_split=allow_split,
        overload=overload,
    )
    cluster.now_fn = lambda: kernel.now
    service = ClusterAdmissionService(
        cluster, policy, kernel,
        metrics=ServiceMetrics(warmup=config.warmup),
        resilience=ResilienceConfig(
            recovery=recovery if recovery is not None else RecoveryPolicy()
        ),
        overload=overload,
    )
    interval = cluster.liveness.policy.heartbeat_interval

    def pulse(kernel: EventKernel, event: Event) -> None:
        service.heartbeat_pulse(kernel.now)
        if kernel.now + interval <= config.duration:
            kernel.schedule(interval, EventKind.HEARTBEAT, pulse)

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
                when, EventKind.FAULT,
                lambda kernel, event: service.kill_shard(
                    event.payload["shard"], kernel.now
                ),
                shard=shard_id,
            )
            kernel.schedule_at(
                revive_at, EventKind.REPAIR,
                lambda kernel, event: service.revive_shard(
                    event.payload["shard"], kernel.now
                ),
                shard=shard_id,
            )
        kernel.schedule(interval, EventKind.HEARTBEAT, pulse)

    def check_integrity() -> None:
        violations = cluster.verify_integrity()
        assert not violations, f"cluster integrity violated: {violations}"

    return run_service(
        service, classes, config, schedule_kills_and_pulse, check_integrity
    )


# -- recipes ----------------------------------------------------------------


def build_cluster_recipe(
    platform: str = "12x12",
    shards: int = 2,
    duration: float = 120.0,
    seed: int = 0,
    policy: str = "fifo",
    policy_params: dict | None = None,
    rate_scale: float = 1.0,
    pool_size: int = 8,
    sample_interval: float = 5.0,
    warmup: float = 0.0,
    kills: int = 0,
    downtime: float = 20.0,
    heartbeat: "LivenessPolicy | dict | None" = None,
    recovery: "RecoveryPolicy | dict | None" = None,
    allow_split: bool = True,
    overload: "OverloadConfig | dict | None" = None,
    traffic: str = "default",
    traffic_params: dict | None = None,
) -> dict:
    """A JSON-able cluster run description, replayed by
    :func:`run_cluster_recipe`.

    The ``"shards"`` key is what distinguishes a cluster recipe from a
    plain one: ``repro sim --replay`` rejects a header carrying it and
    ``repro cluster sim --replay`` rejects one without.  ``kills``
    schedules that many evenly-spaced shard kills, each revived
    ``downtime`` later.
    """
    recipe = base_recipe(
        platform, duration, seed, policy, policy_params, rate_scale,
        pool_size, sample_interval, warmup, overload, traffic,
        traffic_params,
    )
    if not isinstance(heartbeat, LivenessPolicy):
        heartbeat = LivenessPolicy.from_params(heartbeat)
    if not isinstance(recovery, RecoveryPolicy):
        recovery = RecoveryPolicy.from_params(recovery)
    rows, cols = _parse_mesh(platform)
    if kills:
        # validate the campaign fits the horizon before emitting it
        scheduled_kills(shards, kills, duration, downtime)
    recipe.update(
        shards=shards,
        heartbeat=heartbeat.describe(),
        recovery=recovery.describe(),
        allow_split=allow_split,
        kills=kills,
    )
    if kills:
        recipe["downtime"] = downtime
    # early shard-count validation (same error surface as run time)
    build_shards(rows, cols, shards)
    return recipe


def _parse_mesh(spec: str) -> tuple[int, int]:
    try:
        rows, cols = (int(part) for part in spec.lower().split("x"))
    except ValueError:
        raise ValueError(
            f"cluster platform spec {spec!r} must be 'RxC' (e.g. '12x12')"
        ) from None
    return rows, cols


def run_cluster_recipe(
    recipe: dict,
    trace_path=None,
    obs: Observability | None = None,
    fastpath: bool = True,
) -> SimulationResult:
    """Execute a cluster recipe; optionally record the JSONL trace."""
    rows, cols = _parse_mesh(recipe["platform"])
    shard_count = int(recipe["shards"])
    classes, policy, config = recipe_inputs(recipe)
    kills = scheduled_kills(
        shard_count,
        int(recipe.get("kills", 0)),
        config.duration,
        float(recipe.get("downtime", 20.0)),
    )
    result = run_cluster_simulation(
        rows, cols, shard_count, classes, policy, config,
        kills=kills,
        liveness=LivenessPolicy.from_params(recipe.get("heartbeat")),
        recovery=RecoveryPolicy.from_params(recipe.get("recovery")),
        fastpath=fastpath,
        allow_split=bool(recipe.get("allow_split", True)),
        obs=obs,
        overload=OverloadConfig.from_spec(recipe.get("overload")),
    )
    result.recipe = recipe
    if trace_path is not None:
        write_trace(trace_path, result.trace, header=recipe)
    return result


def replay_cluster_trace(path) -> tuple[bool, list[str], SimulationResult]:
    """Re-run a recorded cluster trace's recipe and diff the streams."""
    return replay_recorded(path, run_cluster_recipe, cluster=True)
