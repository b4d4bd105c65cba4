"""The admission service: Kairos behind QoS queue policies, in sim-time.

An :class:`AdmissionService` receives arrival events from the kernel
and runs the four-phase Kairos pipeline for each request; a request
the platform cannot admit right now goes to its queue policy
(:mod:`repro.sim.policies`).

Faults are ordinary events: the scheduled :class:`~repro.arch.faults.Fault`
is injected into the live state and the service's
:class:`~repro.resilience.RecoveryEngine` re-places every stranded
application automatically, after which the queue policy gets a
backfill opportunity (recovery frees capacity exactly like a
departure).  With a :class:`~repro.resilience.ResilienceConfig` the
service runs in *resilience mode*: transient faults schedule
:data:`~repro.sim.events.EventKind.REPAIR` events that heal the
resource after its MTTR, a :class:`~repro.resilience.HealthRegistry`
tracks per-resource health (quarantine trace events, soft avoidance
penalties on the mapping cost), and the engine requeues applications
that recovery cannot re-place immediately, retrying them with
exponential backoff as capacity returns.  Without the config, the
engine recovers in the historical alphabetical order and requeues
nothing, so the event stream is byte-identical to the pre-resilience
service — recorded traces replay unchanged.
"""

from __future__ import annotations

from repro.arch.faults import Fault, apply_fault, apply_repair
from repro.manager.kairos import Kairos
from repro.obs import DISABLED, Observability
from repro.overload import (
    BrownoutController,
    OverloadConfig,
    RetryBudget,
    WatermarkController,
)
from repro.reasons import ReasonCode
from repro.resilience import (
    HealthState,
    RecoveryEngine,
    RecoveryPolicy,
    ResilienceConfig,
)
from repro.sim.events import Event, EventKernel, EventKind
from repro.sim.metrics import ServiceMetrics, SimSample
from repro.sim.policies import AdmissionRequest, QueuePolicy
from repro.sim.trace import TraceRecorder


class AdmissionService:
    """An admission backend behind a queue policy, driven by kernel events.

    ``manager`` is a :class:`~repro.manager.kairos.Kairos` or a
    :class:`~repro.cluster.service.ClusterManager`.  The surface both
    implement, which this service and the
    :class:`~repro.resilience.RecoveryEngine` call directly:
    ``admit(app, app_id) -> Decision`` (phase and
    :class:`~repro.reasons.ReasonCode` on rejection, never raises for
    one), ``release(app_id)`` (``KeyError`` when unknown), ``epoch``
    (equality-comparable; equal ⇒ identical state), ``touch()``
    (invalidate every observed epoch), ``utilization()``,
    ``external_fragmentation()``, ``stranded_by_faults()``,
    ``admitted``, ``specifications`` and ``obs``.  Element faults and
    the health registry (``state``, ``health``) are single-platform
    only.

    A backend may also keep ``pending_records``, a list of
    ``(kind, payload)`` trace records it cannot write itself — the
    cluster's breaker edges, shard kills, revivals and liveness
    transitions.  :meth:`drain_records` is the one routine that traces
    and acts on them, run at the end of every entry point that can
    run backend code.  A ``Kairos`` keeps no queue, so the service
    drains a private empty list and a plain run pays one truthiness
    test per probe.
    """

    def __init__(
        self,
        manager: Kairos,
        policy: QueuePolicy,
        kernel: EventKernel,
        metrics: ServiceMetrics | None = None,
        trace: TraceRecorder | None = None,
        resilience: ResilienceConfig | None = None,
        overload: OverloadConfig | None = None,
    ) -> None:
        self.manager = manager
        self.policy = policy
        self.kernel = kernel
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.trace = trace if trace is not None else TraceRecorder()
        #: observability inherited from the manager (DISABLED unless the
        #: run opted in).  The ``service.*`` counters mirror the headline
        #: ServiceMetrics accounting onto the registry so one snapshot
        #: covers the whole stack; with the NullRegistry each increment
        #: is a single untracked list add.
        self.obs: Observability = getattr(manager, "obs", None) or DISABLED
        registry = self.obs.registry
        self._c_offered = registry.counter("service.offered")
        self._c_admitted = registry.counter("service.admitted")
        self._c_dropped = registry.counter("service.dropped")
        self._c_departed = registry.counter("service.departed")
        self._c_retries = registry.counter("service.retries")
        self._c_queued = registry.counter("service.queued")
        self._c_faults = registry.counter("service.faults_injected")
        self._c_repairs = registry.counter("service.repairs_completed")
        #: the re-entrancy guard of :meth:`backfill`
        self._backfilling = self._refill = False
        #: the backend's record queue (see :meth:`drain_records`),
        #: drained in place; the list object is shared, never rebound
        self._pending: list[tuple[str, dict]] = getattr(
            manager, "pending_records", []
        )
        #: resilience mode: transient-fault repairs, the health
        #: registry, and recovery with a requeue.  None (legacy mode)
        #: recovers in the historical alphabetical order without a
        #: requeue, preserving the pre-resilience event stream
        #: byte-exactly — recorded traces replay unchanged.
        self.resilience = resilience
        self.health = getattr(manager, "health", None)
        self._engine = RecoveryEngine(
            manager,
            RecoveryPolicy(order="name", requeue=False)
            if resilience is None else resilience.recovery,
            health=self.health,
        )
        if resilience is not None:
            #: (kind, target) -> count of unrepaired transient faults;
            #: an element repairs only when its last outstanding fault
            #: is fixed, and never while permanently damaged
            self._outstanding: dict[tuple, int] = {}
            self._permanent: set[tuple] = set()
            #: (kind, target) -> sim-time the current down window began
            self._down_since: dict[tuple, float] = {}
        #: overload control (repro.overload): deadline budgets,
        #: watermark shedding, a retry budget and the brownout
        #: controller.  None (the default) is byte-identical to the
        #: pre-overload service — no extra trace records, RNG draws or
        #: epoch movement, so legacy traces replay unchanged.
        self.overload = overload
        self._deadline = None
        self._watermark = None
        self._retry_budget = None
        self._brownout = None
        if overload is not None:
            self._deadline = overload.deadline
            if overload.watermark is not None:
                self._watermark = WatermarkController(overload.watermark)
            if overload.retry_budget is not None:
                self._retry_budget = RetryBudget(overload.retry_budget)
            if overload.brownout is not None:
                # a cluster manager degrades every shard in lockstep;
                # an unsharded manager is its own single target
                targets = [
                    shard.manager
                    for shard in getattr(manager, "shards", ())
                ] or [manager]
                self._brownout = BrownoutController(
                    overload.brownout, targets
                )
            self._c_deadline_expired = registry.counter(
                "overload.deadline_expired"
            )
            self._c_shed = registry.counter("overload.shed")
            self._c_retry_denied = registry.counter("overload.retry_denied")
            self._c_watermark = registry.counter(
                "overload.watermark_transitions"
            )
            self._c_brownout = registry.counter(
                "overload.brownout_transitions"
            )

    # -- request lifecycle -------------------------------------------------

    def offer(self, request: AdmissionRequest, now: float) -> bool:
        """First-time arrival: try to admit, else consult the policy."""
        if self._deadline is not None and request.deadline is None:
            request.deadline = now + self._deadline.budget_for(
                request.class_name
            )
        self.metrics.on_offered(request.class_name)
        self._c_offered.inc()
        self.trace.record(
            now, "arrival",
            id=request.app_id, cls=request.class_name, app=request.app.name,
        )
        if self.try_admit(request, now):
            return True
        self.policy.on_rejected(self, request, now)
        return False

    def reoffer(self, request: AdmissionRequest, now: float) -> bool:
        """A retry re-arrival (not counted as newly offered)."""
        self.metrics.retries += 1
        self._c_retries.inc()
        self.trace.record(now, "retry", id=request.app_id)
        if request.deadline is not None and now > request.deadline:
            # belt-and-braces for custom policies: the stock retry
            # policy never schedules a retry past the deadline
            self.drop_expired(request, now)
            return False
        if self.try_admit(request, now):
            return True
        self.policy.on_rejected(self, request, now)
        return False

    def try_admit(self, request: AdmissionRequest, now: float) -> bool:
        """One allocation attempt; schedules the departure on success.

        Never recurses into the policy — backfill hooks call this
        directly so a failed backfill probe leaves the request where
        it is, and a backfill that a drained record asks for while one
        is running is deferred (see :meth:`backfill`).  A re-probe
        against an unchanged capacity epoch is answered by the
        manager's negative-result memo (see
        :class:`~repro.manager.kairos.AdmissionGate`).
        """
        if request.holding is None and request.cls is None:
            # checked before allocate: admitting an app we could never
            # schedule a departure for would leak it into the platform
            raise ValueError(
                f"request {request.app_id} has neither a holding time nor "
                "a traffic class to sample one from"
            )
        request.attempts += 1
        decision = self.manager.admit(request.app, request.app_id)
        admitted = decision.admitted
        if admitted:
            self._note_admitted(request, decision.layout, now)
        else:
            self.metrics.on_phase_rejection(
                decision.phase.value, decision.code
            )
            self.metrics.on_attempt_timings(decision.timings)
        if self._pending:
            self.drain_records(now)
        return admitted

    def _note_admitted(self, request: AdmissionRequest, layout, now: float
                       ) -> None:
        """Success tail of a probe: metrics, departure, trace."""
        self.metrics.on_attempt_timings(layout.timings)
        wait = now - request.arrival_time
        self.metrics.on_admitted(request.class_name, wait, now)
        self._c_admitted.inc()
        # the recovery engine ranks requeued apps by QoS priority; it
        # learns each app's class here, at admission
        self._engine.note_priority(request.app_id, request.priority)
        if request.holding is not None:
            holding = request.holding
        else:
            holding = request.cls.holding.sample(self.kernel.rng)
        self.kernel.schedule(
            holding, EventKind.DEPARTURE, self._departure, app_id=request.app_id
        )
        self.trace.record(
            now, "admit",
            id=request.app_id, wait=wait, hold=holding,
            attempts=request.attempts,
        )

    def _departure(self, kernel: EventKernel, event: Event) -> None:
        app_id = event.payload["app_id"]
        if app_id in self.manager.admitted:
            self.manager.release(app_id)
            self.metrics.departed += 1
            self._c_departed.inc()
            self.trace.record(kernel.now, "departure", id=app_id)
            self._engine.note_departed(app_id)
            # freed capacity first goes to apps a fault displaced —
            # they were admitted before anything still queued
            self._drain_requeue(kernel.now)
            self.backfill(kernel.now)
        else:
            # lost to a fault before its natural departure.  This
            # event doubles as the requeue deadline: an application
            # whose service time already elapsed must not be revived,
            # so a still-pending entry expires here instead of
            # silently lingering.
            entry = self._engine.expire(app_id)
            if entry is not None:
                self.metrics.lost += 1
                self.trace.record(
                    kernel.now, "recovery_lost",
                    id=app_id, reason="recovery_expired",
                )
        if self._pending:
            self.drain_records(kernel.now)

    def backfill(self, now: float) -> None:
        """Offer freed capacity to the queue policy's backfill.

        A backfill probe can drain a record whose recovery frees
        capacity again while the probed request is admitted but not
        yet dequeued; a nested backfill would probe it twice.  So a
        nested call only notes the freed capacity, and the outer call
        re-runs the backfill once its scan has returned.
        """
        if self._backfilling:
            self._refill = True
            return
        self._backfilling = True
        try:
            self._refill = True
            while self._refill:
                self._refill = False
                self.policy.on_capacity_freed(self, now)
        finally:
            self._backfilling = False

    # -- backend records ---------------------------------------------------

    def drain_records(self, now: float) -> None:
        """Trace the backend's queued records and act on them.

        Every service entry point that can run backend code ends here,
        and so do the cluster's scheduled shard-lifecycle closures.
        After each batch, a demotion to DEAD — or a revival that finds
        stranded bookkeeping — runs the recovery stanza, and a
        probation graduate is fresh capacity for the requeue and then
        the queue policy.  Recovery re-admits through the backend,
        which may queue more records, hence the loop (it terminates:
        DEAD shards leave the candidate set and cannot re-demote).
        """
        pending = self._pending
        while pending:
            batch = pending[:]
            pending.clear()
            recover = revived = False
            for kind, payload in batch:
                self.trace.record(now, kind, **payload)
                if kind == "breaker":
                    self.metrics.breaker_transitions += 1
                elif kind == "shard_state":
                    # ShardLiveness values; repro.cluster imports this
                    # module, so the enum is not importable here
                    if payload["state"] == "dead":
                        recover = True
                    elif (payload["state"] == "live"
                            and payload["was"] == "probation"):
                        revived = True
                elif kind == "shard_kill":
                    self.metrics.faults_injected += 1
                    self._c_faults.inc()
                    self.metrics.on_availability(
                        now, self.manager.alive_fraction()
                    )
                elif kind == "shard_revive":
                    self.metrics.on_availability(
                        now, self.manager.alive_fraction()
                    )
                    recover = recover or bool(
                        self.manager.stranded_by_faults()
                    )
            if recover:
                self._recover(now)
            if revived:
                # a probation graduate is fresh capacity: first the
                # requeue (kill victims were admitted before anything
                # still queued), then the queue policy
                self._drain_requeue(now)
                self.backfill(now)

    # -- policy callbacks --------------------------------------------------

    def drop(
        self, request: AdmissionRequest, reason: str, now: float
    ) -> None:
        self.metrics.on_dropped(request.class_name, reason, now)
        self._c_dropped.inc()
        self.trace.record(now, "drop", id=request.app_id, reason=reason)

    def note_queued(
        self, request: AdmissionRequest, now: float, depth: int
    ) -> None:
        self.metrics.queued += 1
        self._c_queued.inc()
        self.trace.record(now, "queued", id=request.app_id, depth=depth)

    def note_retry_scheduled(
        self, request: AdmissionRequest, now: float, delay: float
    ) -> None:
        self.trace.record(
            now, "retry_scheduled", id=request.app_id, delay=delay
        )

    # -- overload hooks ----------------------------------------------------

    def overload_shed(
        self, request: AdmissionRequest, depth: int, capacity: int,
        now: float,
    ) -> bool:
        """Watermark backpressure at queue-admission time.

        Updates the hysteresis mode from the pre-admission occupancy,
        traces mode transitions, and — while shedding — drops
        unprotected-priority arrivals with ``shed_watermark``.
        Returns True when the request was shed (caller stops).
        """
        controller = self._watermark
        if controller is None:
            return False
        changed = controller.observe(depth, capacity)
        if changed is not None:
            self.metrics.watermark_transitions += 1
            self._c_watermark.inc()
            self.trace.record(
                now, "watermark",
                mode="shedding" if changed else "normal", depth=depth,
            )
        if controller.should_shed(request.priority):
            self.metrics.on_overload_drop(ReasonCode.SHED_WATERMARK)
            self._c_shed.inc()
            self.drop(request, ReasonCode.SHED_WATERMARK, now)
            return True
        return False

    def grant_retry(self, request: AdmissionRequest, now: float) -> bool:
        """Spend one retry-budget token, or drop the request.

        Always grants without a configured budget; on denial the
        request is dropped with ``retry_budget_exhausted`` and the
        caller must not schedule the retry.
        """
        budget = self._retry_budget
        if budget is None or budget.grant(now):
            return True
        self.metrics.on_overload_drop(ReasonCode.RETRY_BUDGET_EXHAUSTED)
        self._c_retry_denied.inc()
        self.drop(request, ReasonCode.RETRY_BUDGET_EXHAUSTED, now)
        return False

    def drop_expired(self, request: AdmissionRequest, now: float) -> None:
        """Resolve a request whose deadline budget ran out."""
        self.metrics.on_overload_drop(ReasonCode.DEADLINE_EXPIRED)
        self._c_deadline_expired.inc()
        self.drop(request, ReasonCode.DEADLINE_EXPIRED, now)

    def overload_state(self) -> dict | None:
        """JSON-able snapshot of every active overload controller."""
        if self.overload is None:
            return None
        state: dict = {}
        if self._watermark is not None:
            state["watermark"] = self._watermark.describe_state()
        if self._retry_budget is not None:
            state["retry_budget"] = self._retry_budget.describe_state()
        if self._brownout is not None:
            state["brownout"] = self._brownout.describe_state()
        breakers = getattr(self.manager, "breakers", None)
        if breakers is not None:
            state["breakers"] = breakers.summary()
        return state

    # -- fault events ------------------------------------------------------

    def inject_fault(self, fault: Fault, now: float) -> None:
        """Apply a scheduled fault and recover stranded applications.

        Legacy mode (no resilience config) keeps the pre-resilience
        behaviour — every fault permanent, no ``mttr`` key — so
        recorded traces replay byte-identically.  Resilience mode adds
        repair scheduling and the health registry.
        """
        self._c_faults.inc()
        resilient = self.resilience is not None
        if resilient:
            self._observe_health(now)
        apply_fault(self.manager.state, fault)
        self.metrics.faults_injected += 1
        key = (fault.kind, fault.target)
        if resilient and fault.repair_after is not None:
            self.trace.record(
                now, "fault",
                fkind=fault.kind, target=list(fault.target),
                mttr=fault.repair_after,
            )
            # overlapping transients on one resource: the repair of the
            # *last* outstanding fault heals it, earlier repairs only
            # decrement the count
            self._outstanding[key] = self._outstanding.get(key, 0) + 1
            self._down_since.setdefault(key, now)
            self.kernel.schedule(
                fault.repair_after, EventKind.REPAIR, self._repair,
                fault=fault,
            )
        else:
            self.trace.record(
                now, "fault", fkind=fault.kind, target=list(fault.target)
            )
            if resilient:
                self._permanent.add(key)
        if resilient:
            if self.health is not None:
                self._note_transitions(self.health.on_fault(fault, now), now)
            self._note_availability(now)
        self._recover(now)

    def _recover(self, now: float) -> None:
        """Re-place every stranded application; trace what was decided.

        The one recovery stanza: runs after an injected fault and, in
        a cluster, after a shard demotion or a revival that exposes
        stranded bookkeeping.  Recovery uses the manager's remembered
        application specifications; freed capacity (from lost
        applications) is offered to the queue policy exactly like a
        departure.  Resilience mode requeues what does not fit right
        now (``deferred``) behind a backoff wake-up; legacy records
        carry no ``deferred`` key.
        """
        outcome = self._engine.recovery_pass(now)
        deferred = sorted(outcome.deferred)
        requeued = {} if self.resilience is None else {"deferred": deferred}
        self.metrics.recovered += len(outcome.recovered)
        self.metrics.lost += len(outcome.lost)
        self.trace.record(
            now, "recovery",
            stranded=list(outcome.stranded),
            recovered=sorted(outcome.recovered),
            lost=dict(sorted(outcome.lost.items())),
            **requeued,
        )
        for app_id in deferred:
            self._schedule_recovery_retry(
                app_id, self._engine.policy.base_delay
            )
        if outcome.lost or outcome.recovered:
            self.backfill(now)

    def _repair(self, kernel: EventKernel, event: Event) -> None:
        """A transient fault's MTTR elapsed: maybe heal, then drain."""
        fault = event.payload["fault"]
        now = kernel.now
        self._observe_health(now)
        key = (fault.kind, fault.target)
        remaining = self._outstanding.get(key, 0) - 1
        self._outstanding[key] = max(remaining, 0)
        if remaining > 0 or key in self._permanent:
            # still down: an overlapping transient has not been
            # repaired yet, or a permanent fault re-broke the resource
            return
        apply_repair(self.manager.state, fault)
        self.metrics.repairs_completed += 1
        self._c_repairs.inc()
        down_since = self._down_since.pop(key, None)
        if down_since is not None:
            self.metrics.repair_times.append(now - down_since)
        self.trace.record(
            now, "repair", fkind=fault.kind, target=list(fault.target)
        )
        if self.health is not None:
            self._note_transitions(self.health.on_repair(fault, now), now)
        self._note_availability(now)
        self._drain_requeue(now)
        self.backfill(now)

    def _schedule_recovery_retry(self, app_id: str, delay: float) -> None:
        """Make sure a requeued app has a backoff wake-up pending."""
        entry = self._engine.pending_entry(app_id)
        if entry is not None and entry.retry_event is None:
            entry.retry_event = self.kernel.schedule(
                delay, EventKind.RECOVERY_RETRY, self._recovery_retry,
                app_id=app_id,
            )

    def _recovery_retry(self, kernel: EventKernel, event: Event) -> None:
        """A requeued app's backoff elapsed: guaranteed drain wake-up."""
        entry = self._engine.pending_entry(event.payload["app_id"])
        if entry is not None and entry.retry_event is event:
            entry.retry_event = None
        self._drain_requeue(kernel.now)

    def _drain_requeue(self, now: float) -> None:
        """Let the engine retry pending apps; record what it decided."""
        if not self._engine.pending:
            return
        for result in self._engine.drain(now):
            self.metrics.recovery_retries += 1
            if result.outcome == "recovered":
                self.metrics.lost_recovered += 1
                self.metrics.recovery_latencies.append(result.waited)
                self.trace.record(
                    now, "recovery_retry",
                    id=result.app_id, attempt=result.attempt, ok=True,
                )
                continue
            self.trace.record(
                now, "recovery_retry",
                id=result.app_id, attempt=result.attempt, ok=False,
            )
            if result.outcome == "exhausted":
                self.metrics.lost += 1
                self.trace.record(
                    now, "recovery_lost",
                    id=result.app_id, reason="recovery_retries_exhausted",
                )
            else:  # deferred
                self._schedule_recovery_retry(result.app_id, result.delay)

    # -- health observation --------------------------------------------------

    def _observe_health(self, now: float) -> None:
        if self.health is None:
            return
        transitions = self.health.observe(now)
        if transitions:
            # soft penalties changed without a ledger mutation: bump
            # the capacity epoch so the memo cannot replay
            # outcomes computed against the old cost surface
            self.manager.touch()
            self._note_transitions(transitions, now)

    def _note_transitions(self, transitions, now: float) -> None:
        for transition in transitions:
            if transition.state is HealthState.DEAD:
                continue  # the fault record already covers it
            self.metrics.quarantines += 1
            self.trace.record(
                now, "quarantine",
                fkind=transition.kind, target=list(transition.target),
                state=transition.state.value, was=transition.previous.value,
            )

    def _note_availability(self, now: float) -> None:
        state = self.manager.state
        fraction = 1.0 - (
            len(state.failed_elements) / len(state.platform.elements)
        )
        self.metrics.on_availability(now, fraction)

    # -- sampling ----------------------------------------------------------

    def sample(self, now: float) -> SimSample:
        # ticks double as probation clock edges: without them a quiet
        # stretch would leave repaired elements penalized forever
        self._observe_health(now)
        if self._brownout is not None:
            # queue occupancy at the tick is the pressure signal —
            # deterministic in the event stream, so brownout levels
            # replay bit-identically.  Unbounded policies (reject,
            # retry) have no capacity and never brown out.
            capacity = getattr(self.policy, "capacity", 0)
            occupancy = self.policy.depth() / capacity if capacity else 0.0
            for was, level, action in self._brownout.observe(occupancy):
                # levels change the decision function (mapper, search
                # depth): bump the epoch so the memo cannot
                # replay pre-transition outcomes
                self.manager.touch()
                self.metrics.brownout_transitions += 1
                self.metrics.max_brownout_level = max(
                    self.metrics.max_brownout_level, level
                )
                self._c_brownout.inc()
                self.trace.record(
                    now, "brownout", level=level, was=was, action=action
                )
        sample = SimSample(
            time=now,
            utilization=self.manager.utilization(),
            fragmentation=self.manager.external_fragmentation(),
            resident=len(self.manager.admitted),
            queue_depth=self.policy.depth(),
        )
        self.metrics.samples.append(sample)
        self.trace.record(
            now, "sample",
            u=sample.utilization, f=sample.fragmentation,
            r=sample.resident, q=sample.queue_depth,
        )
        if self._pending:
            self.drain_records(now)
        return sample
