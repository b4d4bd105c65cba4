"""The admission service: Kairos behind QoS queue policies, in sim-time.

An :class:`AdmissionService` receives arrival events from the kernel
and runs the four-phase Kairos pipeline for each request.  What
happens to a request the platform cannot admit right now is the
*queue policy*:

``reject``
    drop immediately (pure Erlang-B loss system),
``fifo``
    bounded FIFO queue with a residence timeout and head-of-line
    backfill on every departure,
``priority``
    bounded priority queue (higher QoS class first) with greedy
    backfill — lower-priority requests can be overtaken but never
    starve the scan,
``retry``
    no queue: the request re-arrives after an exponential backoff,
    up to a retry budget (the "user retrying later" the legacy
    workload docstring used to promise).

Faults are ordinary events: the scheduled :class:`~repro.arch.faults.Fault`
is injected into the live state and :meth:`Kairos.recover` re-places
every stranded application automatically, after which the queue
policy gets a backfill opportunity (recovery frees capacity exactly
like a departure).  With a :class:`~repro.resilience.ResilienceConfig`
the service runs in *resilience mode*: transient faults schedule
:data:`~repro.sim.events.EventKind.REPAIR` events that heal the
resource after its MTTR, a :class:`~repro.resilience.HealthRegistry`
tracks per-resource health (quarantine trace events, soft avoidance
penalties on the mapping cost), and the
:class:`~repro.resilience.RecoveryEngine` requeues applications that
recovery cannot re-place immediately, retrying them with exponential
backoff as capacity returns.  Without the config, the event stream is
byte-identical to the pre-resilience service — recorded traces replay
unchanged.

:func:`run_simulation` builds kernel + manager + service and hands
them to :func:`run_service`, the one run loop (the sharded backend in
:mod:`repro.cluster.sim` runs it too, with the same service);
:func:`build_recipe` / :func:`run_recipe` / :func:`replay_trace` drive
either backend from a JSON recipe — a ``shards`` key makes it a
cluster run — so a recorded run can be reproduced bit-identically
(see ``docs/simulation.md``).
"""

from __future__ import annotations

import bisect
import time as _time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from random import Random

from repro.api.pipeline import PhasePipeline
from repro.apps.taskgraph import Application
from repro.arch.builders import (
    crisp,
    fat_tree,
    heterogeneous_mesh,
    mesh,
    torus,
)
from repro.arch.faults import (
    Fault,
    apply_fault,
    apply_repair,
    random_campaign,
    random_element_campaign,
    storm_campaign,
)
from repro.arch.state import AllocationState
from repro.arch.topology import Platform
from repro.core.cost import BOTH, CostWeights
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
    HealthRegistry,
    HealthState,
    RecoveryEngine,
    RecoveryPolicy,
    ResilienceConfig,
)
from repro.sim.events import Event, EventKernel, EventKind
from repro.sim.metrics import ServiceMetrics, SimSample
from repro.sim.trace import TraceRecorder, diff_traces, read_trace, write_trace
from repro.sim.traffic import TrafficClass, make_traffic_classes


@dataclass(eq=False)
class AdmissionRequest:
    """One admission request travelling through the service."""

    request_id: int
    app: Application
    app_id: str
    class_name: str
    priority: int
    arrival_time: float
    cls: TrafficClass | None = None
    #: explicit holding time; when None the class distribution is sampled
    holding: float | None = None
    attempts: int = 0
    enqueued_at: float | None = None
    timeout_event: Event | None = None
    #: absolute sim-time admission deadline (overload deadline budgets;
    #: None without an active DeadlinePolicy) and the queued expiry
    #: event enforcing it
    deadline: float | None = None
    deadline_event: Event | None = None
    #: capacity epoch at the last failed probe plus the phase/reason it
    #: failed with — when the epoch is unchanged, a re-probe is
    #: provably identical, so the service replays the outcome without
    #: running the pipeline (see :meth:`AdmissionService.try_admit`)
    last_failed_epoch: int | None = None
    last_failed_phase: str | None = None
    last_failed_code: "ReasonCode | None" = None


# -- queue policies ---------------------------------------------------------


class QueuePolicy:
    """Base policy: reject-on-failure, no queue, no backfill."""

    name = "reject"

    def on_rejected(
        self, service: "AdmissionService", request: AdmissionRequest,
        now: float,
    ) -> None:
        service.drop(request, ReasonCode.REJECTED, now)

    def on_capacity_freed(
        self, service: "AdmissionService", now: float
    ) -> None:
        """Backfill hook, called after every departure and recovery."""

    def depth(self) -> int:
        return 0

    def flush(self, service: "AdmissionService", now: float) -> None:
        """Resolve requests still waiting when the simulation ends."""

    def describe(self) -> dict:
        return {"name": self.name, "params": {}}


class RejectPolicy(QueuePolicy):
    """Explicit name for the base reject-on-full behaviour."""


class _BoundedQueuePolicy(QueuePolicy):
    """Shared capacity/timeout plumbing of the FIFO and priority queues."""

    def __init__(self, capacity: int = 16, timeout: float | None = 30.0):
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("queue timeout must be positive (or None)")
        self.capacity = capacity
        self.timeout = timeout

    def describe(self) -> dict:
        return {
            "name": self.name,
            "params": {"capacity": self.capacity, "timeout": self.timeout},
        }

    def _admit_to_queue(
        self, service: "AdmissionService", request: AdmissionRequest,
        now: float,
    ) -> bool:
        if service.overload_shed(request, self.depth(), self.capacity, now):
            return False
        if self.depth() >= self.capacity:
            service.drop(request, ReasonCode.QUEUE_FULL, now)
            return False
        request.enqueued_at = now
        if self.timeout is not None:
            request.timeout_event = service.kernel.schedule(
                self.timeout,
                EventKind.TIMEOUT,
                lambda kernel, event: self._expire(service, request, kernel.now),
            )
        if request.deadline is not None:
            # the deadline-budget expiry: a distinct traced outcome
            # (deadline_expired), independent of the residence timeout
            # — whichever fires first resolves the request, the other
            # no-ops via _remove
            request.deadline_event = service.kernel.schedule_at(
                request.deadline,
                EventKind.TIMEOUT,
                lambda kernel, event: self._expire_deadline(
                    service, request, kernel.now
                ),
            )
        service.note_queued(request, now, self.depth() + 1)
        return True

    def _dequeue(self, request: AdmissionRequest) -> None:
        if request.timeout_event is not None:
            request.timeout_event.cancel()
            request.timeout_event = None
        if request.deadline_event is not None:
            request.deadline_event.cancel()
            request.deadline_event = None
        request.enqueued_at = None

    def _expire(
        self, service: "AdmissionService", request: AdmissionRequest,
        now: float,
    ) -> None:
        if self._remove(request):
            self._dequeue(request)
            service.drop(request, ReasonCode.TIMEOUT, now)
            self._after_expire(service, now)

    def _expire_deadline(
        self, service: "AdmissionService", request: AdmissionRequest,
        now: float,
    ) -> None:
        if self._remove(request):
            self._dequeue(request)
            service.drop_expired(request, now)
            self._after_expire(service, now)

    def _after_expire(
        self, service: "AdmissionService", now: float
    ) -> None:
        """Hook after a timeout removal; no capacity was freed, so the
        default is to do nothing (greedy policies probed everyone at
        the last capacity event already)."""

    # storage: subclasses create ``self.queue`` (deque or sorted list)
    def depth(self) -> int:
        return len(self.queue)

    def _remove(self, request: AdmissionRequest) -> bool:
        try:
            self.queue.remove(request)
        except ValueError:
            return False
        return True

    def flush(self, service: "AdmissionService", now: float) -> None:
        for request in list(self.queue):
            self._remove(request)
            self._dequeue(request)
            service.drop(request, ReasonCode.DRAINED, now)


class FifoPolicy(_BoundedQueuePolicy):
    """Bounded FIFO with timeout; head-of-line backfill on departures.

    Work-conserving on arrival: like every policy, a newcomer that
    fits is admitted immediately even while earlier (larger) requests
    queue — the queue orders only the requests the platform rejected.
    """

    name = "fifo"

    def __init__(self, capacity: int = 16, timeout: float | None = 30.0):
        super().__init__(capacity, timeout)
        self.queue: deque[AdmissionRequest] = deque()

    def on_rejected(self, service, request, now):
        if self._admit_to_queue(service, request, now):
            self.queue.append(request)

    def on_capacity_freed(self, service, now):
        # strict FIFO: stop at the first request that still does not
        # fit (head-of-line blocking is part of the policy's contract)
        while self.queue:
            head = self.queue[0]
            if not service.try_admit(head, now):
                break
            self.queue.popleft()
            self._dequeue(head)

    def _after_expire(self, service, now):
        # a timed-out head was the only thing blocking its followers:
        # re-probe, or requests that already fit would sit until their
        # own timeouts
        self.on_capacity_freed(service, now)


class PriorityPolicy(_BoundedQueuePolicy):
    """Bounded priority queue: higher QoS priority first, FIFO within a
    class; greedy backfill tries *every* waiting request in order, so a
    small low-priority app can slip into a gap a large high-priority
    app cannot use."""

    name = "priority"

    def __init__(self, capacity: int = 16, timeout: float | None = 30.0):
        super().__init__(capacity, timeout)
        self.queue: list[AdmissionRequest] = []

    @staticmethod
    def _key(request: AdmissionRequest) -> tuple[int, int]:
        return (-request.priority, request.request_id)

    def on_rejected(self, service, request, now):
        if self._admit_to_queue(service, request, now):
            bisect.insort(self.queue, request, key=self._key)

    def on_capacity_freed(self, service, now):
        admitted = []
        for request in list(self.queue):
            if service.try_admit(request, now):
                admitted.append(request)
        for request in admitted:
            self.queue.remove(request)
            self._dequeue(request)


class RetryPolicy(QueuePolicy):
    """Retry with exponential backoff: the rejected request re-arrives
    ``base_delay * backoff**(attempts-1)`` later, up to ``max_attempts``
    allocation attempts in total."""

    name = "retry"

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay: float = 2.0,
        backoff: float = 2.0,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if base_delay <= 0 or backoff < 1.0:
            raise ValueError("need base_delay > 0 and backoff >= 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.backoff = backoff
        self.waiting: set[AdmissionRequest] = set()

    def on_rejected(self, service, request, now):
        if request.attempts >= self.max_attempts:
            service.drop(request, ReasonCode.RETRIES_EXHAUSTED, now)
            return
        delay = self.base_delay * self.backoff ** (request.attempts - 1)
        if request.deadline is not None and now + delay > request.deadline:
            # the retry could only re-arrive past the deadline: skip
            # the doomed probe entirely instead of burning an event
            service.drop_expired(request, now)
            return
        if not service.grant_retry(request, now):
            return  # retry budget exhausted; the service dropped it
        self.waiting.add(request)
        service.kernel.schedule(
            delay,
            EventKind.RETRY,
            lambda kernel, event: self._fire(service, request, kernel.now),
        )
        service.note_retry_scheduled(request, now, delay)

    def _fire(self, service, request, now):
        if request not in self.waiting:  # resolved by flush meanwhile
            return
        self.waiting.discard(request)
        service.reoffer(request, now)

    def depth(self):
        return len(self.waiting)

    def flush(self, service, now):
        for request in sorted(self.waiting, key=lambda r: r.request_id):
            service.drop(request, ReasonCode.DRAINED, now)
        self.waiting.clear()

    def describe(self):
        return {
            "name": self.name,
            "params": {
                "max_attempts": self.max_attempts,
                "base_delay": self.base_delay,
                "backoff": self.backoff,
            },
        }


#: policy registry used by the CLI, recipes and the benchmark runner
POLICIES: dict[str, type[QueuePolicy]] = {
    "reject": RejectPolicy,
    "fifo": FifoPolicy,
    "priority": PriorityPolicy,
    "retry": RetryPolicy,
}


def make_policy(name: str, params: dict | None = None) -> QueuePolicy:
    if name not in POLICIES:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(POLICIES)}"
        )
    return POLICIES[name](**(params or {}))


# -- the service ------------------------------------------------------------


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
    the health registry (``state``, ``health``, ``recover``) are
    single-platform only.

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
        self._c_short_circuits = registry.counter(
            "service.probes_short_circuited"
        )
        self._c_faults = registry.counter("service.faults_injected")
        self._c_repairs = registry.counter("service.repairs_completed")
        #: the backend's record queue (see :meth:`drain_records`),
        #: drained in place; the list object is shared, never rebound
        self._pending: list[tuple[str, dict]] = getattr(
            manager, "pending_records", []
        )
        #: resilience mode: transient-fault repairs, the health
        #: registry, and engine-driven recovery with a requeue.  None
        #: (legacy mode) preserves the pre-resilience event stream
        #: byte-exactly — recorded traces replay unchanged.
        self.resilience = resilience
        self.health = getattr(manager, "health", None)
        self._engine = None
        if resilience is not None:
            self._engine = RecoveryEngine(
                manager, resilience.recovery, health=self.health
            )
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
        it is.

        Epoch short-circuit: when the state's capacity epoch is
        unchanged since this request's last failed probe, the state is
        bit-identical and the deterministic pipeline would fail in the
        same phase for the same reason — the recorded outcome is
        replayed in O(1).  This works with the manager's fast path
        disabled too (it is the queue-policy-level half of the fast
        path: the FIFO timeout re-probe and the priority policy's
        greedy scan hit it constantly).  Attempt accounting and the
        per-phase rejection counters advance exactly as if the
        pipeline had run, so decisions, traces and metrics are
        unchanged.
        """
        if request.holding is None and request.cls is None:
            # checked before allocate: admitting an app we could never
            # schedule a departure for would leak it into the platform
            raise ValueError(
                f"request {request.app_id} has neither a holding time nor "
                "a traffic class to sample one from"
            )
        request.attempts += 1
        epoch = self.manager.epoch
        if request.last_failed_epoch == epoch:
            self.metrics.probes_short_circuited += 1
            self._c_short_circuits.inc()
            self.metrics.on_phase_rejection(
                request.last_failed_phase, request.last_failed_code
            )
            admitted = False
        else:
            decision = self.manager.admit(request.app, request.app_id)
            admitted = decision.admitted
            if admitted:
                self._note_admitted(request, decision.layout, now)
            else:
                request.last_failed_epoch = epoch
                request.last_failed_phase = decision.phase.value
                request.last_failed_code = decision.code
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
        if self._engine is not None:
            # the recovery engine ranks requeued apps by QoS priority;
            # it learns each app's class here, at admission
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
            if self._engine is not None:
                self._engine.note_departed(app_id)
                # freed capacity first goes to apps a fault displaced —
                # they were admitted before anything still queued
                self._drain_requeue(kernel.now)
            self.policy.on_capacity_freed(self, kernel.now)
        elif self._engine is not None:
            # lost to a fault before its natural departure.  In
            # resilience mode this event doubles as the requeue
            # deadline: an application whose service time already
            # elapsed must not be revived, so a still-pending entry
            # expires here instead of silently lingering.
            entry = self._engine.expire(app_id)
            if entry is not None:
                self.metrics.lost += 1
                self.trace.record(
                    kernel.now, "recovery_lost",
                    id=app_id, reason="recovery_expired",
                )
        if self._pending:
            self.drain_records(kernel.now)

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
                self.policy.on_capacity_freed(self, now)

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
        resilient = self._engine is not None
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
        now (``deferred``) behind a backoff wake-up.
        """
        if self._engine is None:
            # order="name" pins the historical alphabetical recovery
            # order: committed traces were recorded under it, and replay
            # certifies bit-identical decisions (bare Kairos.recover()
            # now defaults to the starvation-free "admission" order)
            outcome = self.manager.recover(order="name")
            requeued = {}
        else:
            outcome = self._engine.recovery_pass(now)
            requeued = {"deferred": sorted(outcome.deferred)}
        self.metrics.recovered += len(outcome.recovered)
        self.metrics.lost += len(outcome.lost)
        self.trace.record(
            now, "recovery",
            stranded=list(outcome.stranded),
            recovered=sorted(outcome.recovered),
            lost=dict(sorted(outcome.lost.items())),
            **requeued,
        )
        for app_id in requeued.get("deferred", ()):
            self._schedule_recovery_retry(
                app_id, self._engine.policy.base_delay
            )
        if outcome.lost or outcome.recovered:
            self.policy.on_capacity_freed(self, now)

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
        self.policy.on_capacity_freed(self, now)

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
        if self._engine is None or not self._engine.pending:
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
            # the capacity epoch so gate memos and the probe
            # short-circuit cannot replay outcomes computed against
            # the old cost surface
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
                # depth): bump the epoch so gate memos and the probe
                # short-circuit cannot replay pre-transition outcomes
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


# -- the simulation driver --------------------------------------------------


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulated service run."""

    duration: float = 120.0
    seed: int = 0
    sample_interval: float = 5.0
    #: release everything after the run and verify zero utilization
    drain: bool = True
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
    #: the manager's gate/memo counters (zeros when fastpath is off)
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
    if config.drain:
        if service._engine is not None:
            # resolve the requeue before the queue policy: every
            # pending app must leave the books for drain-to-zero
            for entry in service._engine.flush():
                service.metrics.lost += 1
                service.trace.record(
                    kernel.now, "recovery_lost",
                    id=entry.app_id, reason="drained",
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
        assert result.post_drain_utilization == 0.0, (
            "drained platform not empty"
        )
        check()
    return result


def run_simulation(
    platform: Platform,
    classes: tuple[TrafficClass, ...],
    policy: QueuePolicy,
    config: SimulationConfig = SimulationConfig(),
    faults: tuple[tuple[float, Fault], ...] = (),
    weights: CostWeights = BOTH,
    fastpath: bool = True,
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
    seeded from ``config.seed`` and the class name.  ``fastpath``
    toggles the manager's admission gate and negative-result memo;
    decisions and traces are bit-identical either way (asserted by
    ``tests/test_fastpath.py``) — only the wall-clock changes.
    ``obs`` attaches an :class:`~repro.obs.Observability` bundle
    (metric registry + span tracer); observability is read-only — it
    never feeds a decision, so an instrumented run produces the same
    trace as a bare one (asserted by ``tests/test_obs.py``).
    Stateful arrival processes (MMPP) are reset at start-up so traffic
    classes can be reused across runs; the *policy* must be fresh —
    its queue holds requests bound to one run's kernel, so reuse is
    rejected.  ``mapper`` selects the placement strategy from the
    phase-pipeline registry (``kairos``, ``first_fit``, ``random``,
    ``annealing``, ``optimal``) — unlike fastpath this
    *does* change decisions, so it is part of the recipe.
    """
    kernel = EventKernel(seed=config.seed)
    health = (
        None if resilience is None else HealthRegistry(resilience.health)
    )
    manager = Kairos(
        platform, weights=weights, validation_mode="skip",
        fastpath=fastpath, health=health, obs=obs,
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


# -- recipes: reproducible run descriptions --------------------------------


def build_recipe(
    platform: str = "12x12",
    duration: float = 120.0,
    seed: int = 0,
    policy: str = "fifo",
    policy_params: dict | None = None,
    rate_scale: float = 1.0,
    pool_size: int = 8,
    sample_interval: float = 5.0,
    faults: int = 0,
    warmup: float = 0.0,
    fault_mttr: float | None = None,
    fault_links: float = 0.0,
    fault_storm: int = 0,
    resilience: "ResilienceConfig | dict | None" = None,
    overload: "OverloadConfig | dict | None" = None,
    traffic: str = "default",
    traffic_params: dict | None = None,
    mapper: str = "kairos",
    mapper_params: dict | None = None,
    shards: int | None = None,
    kills: int = 0,
    downtime: float = 20.0,
    heartbeat: "LivenessPolicy | dict | None" = None,
    recovery: "RecoveryPolicy | dict | None" = None,
    allow_split: bool = True,
) -> dict:
    """A JSON-able description that :func:`run_recipe` reproduces exactly.

    The recipe is also the trace header written by ``repro sim
    --record``, which is what makes ``--replay`` self-contained.
    ``warmup`` sets the SLA warmup window (metrics only; the decision
    stream is independent of it, so traces recorded without the key
    replay unchanged).

    The resilience knobs (``fault_mttr`` — transient faults repaired
    that much sim-time after injection; ``fault_links`` — fraction of
    the campaign drawn as link faults; ``fault_storm`` — blast radius
    of correlated storms, turning ``faults`` into an epicenter count;
    ``resilience`` — health/recovery policy spec, see
    :class:`~repro.resilience.ResilienceConfig`) are emitted only when
    set, so pre-resilience recipes — and the traces recorded from
    them — stay byte-identical.

    ``traffic`` names a shape from
    :data:`~repro.sim.traffic.TRAFFIC_SHAPES` (``traffic_params`` are
    forwarded to the preset); ``mapper`` selects the placement
    strategy from the pipeline registry.  Both are emitted only when
    they deviate from the defaults, so pre-scenario recipes stay
    byte-identical.

    ``shards`` makes the recipe a cluster run: the mesh is split into
    that many column bands, each a shard of a
    :class:`~repro.cluster.ClusterManager`, and the platform is
    recorded as its bare ``"RxC"`` shape.  Only a cluster recipe takes
    ``kills`` (evenly spaced shard kills, each revived ``downtime``
    later), ``heartbeat`` (a :class:`~repro.cluster.LivenessPolicy`
    spec), ``recovery`` and ``allow_split``; it takes no mapper, fault
    campaign or resilience block, since every shard runs the kairos
    pipeline and a cluster models failure as shard kills.  Setting a
    key of the other set (to anything but its default) raises
    ``ValueError``.
    """
    family, dims = _parse_platform_spec(platform)
    if shards is None:
        foreign = {
            "kills": kills, "downtime": downtime != 20.0,
            "heartbeat": heartbeat is not None,
            "recovery": recovery is not None,
            "allow_split": not allow_split,
        }
        rule = "cluster-only recipe keys; set shards for a cluster run"
    else:
        foreign = {
            "mapper": mapper != "kairos", "mapper_params": mapper_params,
            "faults": faults, "fault_mttr": fault_mttr is not None,
            "fault_links": fault_links, "fault_storm": fault_storm,
            "resilience": resilience is not None,
        }
        rule = (
            "cannot be combined with shards: every shard runs the "
            "kairos mapper, and a cluster models failure as shard kills"
        )
    stray = [name for name, changed in foreign.items() if changed]
    if stray:
        raise ValueError(f"{', '.join(stray)}: {rule}")
    resolved = make_policy(policy, policy_params)  # validate early
    make_traffic_classes(  # validate shape + params early
        traffic, seed=seed, rate_scale=rate_scale, pool_size=pool_size,
        **(traffic_params or {}),
    )
    recipe = {
        "platform": platform,
        "duration": duration,
        "seed": seed,
        "sample_interval": sample_interval,
        "warmup": warmup,
        "policy": resolved.describe(),
        "classes": {
            "kind": traffic,
            "seed": seed,
            "rate_scale": rate_scale,
            "pool_size": pool_size,
        },
    }
    if traffic_params:
        recipe["classes"]["params"] = dict(traffic_params)
    overload = OverloadConfig.from_spec(overload)
    if overload is not None:
        # emitted only when set: pre-overload recipes (and the traces
        # recorded from them) stay byte-identical
        recipe["overload"] = overload.describe()
    if shards is not None:
        from repro.cluster.registry import LivenessPolicy
        from repro.cluster.shard import band_width
        from repro.cluster.sim import scheduled_kills

        if family != "mesh":
            raise ValueError(
                f"platform spec {platform!r}: shards partition a mesh "
                f"('RxC'), not a {family}"
            )
        band_width(dims[1], shards)
        # the bare shape every cluster recipe has always recorded
        recipe["platform"] = platform.partition(":")[2] or platform
        if not isinstance(heartbeat, LivenessPolicy):
            heartbeat = LivenessPolicy.from_params(heartbeat)
        if not isinstance(recovery, RecoveryPolicy):
            recovery = RecoveryPolicy.from_params(recovery)
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
        return recipe
    if fault_mttr is not None and fault_mttr <= 0:
        raise ValueError("fault_mttr must be positive (or None)")
    if not 0.0 <= fault_links <= 1.0:
        raise ValueError("fault_links must lie in [0, 1]")
    if fault_storm < 0:
        raise ValueError("fault_storm must be non-negative")
    recipe["faults"] = faults
    if mapper != "kairos" or mapper_params:
        PhasePipeline(mapper=mapper, mapper_params=mapper_params)  # validate
        recipe["mapper"] = mapper
        if mapper_params:
            recipe["mapper_params"] = dict(mapper_params)
    if fault_mttr is not None:
        recipe["fault_mttr"] = fault_mttr
    if fault_links:
        recipe["fault_links"] = fault_links
    if fault_storm:
        recipe["fault_storm"] = fault_storm
    if resilience is not None:
        resilience = ResilienceConfig.from_spec(resilience)
        recipe["resilience"] = resilience.describe()
    return recipe


#: builders reachable from a ``family:shape`` platform spec
_PLATFORM_FAMILIES = ("mesh", "torus", "hetmesh", "fat_tree")


def _parse_platform_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    """Validate a spec without building it; -> ``(family, dims)``.

    Accepted forms: ``"crisp"``; ``"RxC"`` (legacy, -> mesh);
    ``"mesh:RxC"``; ``"torus:RxC"``; ``"hetmesh:RxC"``;
    ``"fat_tree:N"`` or ``"fat_tree:N:arity"``.  Kept separate from
    :func:`platform_from_spec` so a 64x64 matrix cell can be
    validated at expansion time without paying to build it.
    """
    if spec == "crisp":
        return "crisp", ()
    family, _, shape = spec.partition(":")
    if not shape:
        family, shape = "mesh", spec  # legacy bare "RxC"
    if family not in _PLATFORM_FAMILIES:
        raise ValueError(
            f"platform spec {spec!r}: unknown family {family!r} "
            f"(choose from {', '.join(_PLATFORM_FAMILIES)}, "
            "'crisp', or bare 'RxC')"
        )
    try:
        if family == "fat_tree":
            dims = tuple(int(part) for part in shape.split(":"))
            if len(dims) not in (1, 2):
                raise ValueError
        else:
            dims = tuple(int(part) for part in shape.lower().split("x"))
            if len(dims) != 2:
                raise ValueError
    except ValueError:
        raise ValueError(
            f"platform spec {spec!r}: malformed shape {shape!r}"
        ) from None
    if any(dim < 1 for dim in dims):
        raise ValueError(f"platform spec {spec!r}: dimensions must be >= 1")
    if family == "fat_tree" and dims[0] < 2:
        raise ValueError(f"platform spec {spec!r}: need at least 2 leaves")
    return family, dims


def platform_from_spec(spec: str) -> Platform:
    """Build the platform a spec describes.

    ``"crisp"`` and bare ``"RxC"`` (-> mesh) are the legacy forms;
    ``"mesh:RxC"``, ``"torus:RxC"``, ``"hetmesh:RxC"`` and
    ``"fat_tree:N[:arity]"`` select the other builders (see
    :func:`_parse_platform_spec`).
    """
    family, dims = _parse_platform_spec(spec)
    if family == "crisp":
        return crisp()
    if family == "mesh":
        return mesh(*dims)
    if family == "torus":
        return torus(*dims)
    if family == "hetmesh":
        return heterogeneous_mesh(*dims)
    return fat_tree(*dims)


def scheduled_faults(
    platform: Platform,
    count: int,
    duration: float,
    seed: int,
    mttr: float | None = None,
    link_fraction: float = 0.0,
    storm_radius: int = 0,
) -> tuple[tuple[float, Fault], ...]:
    """A deterministic fault campaign spread evenly over the run.

    Defaults reproduce the legacy scenario exactly — ``count`` random
    permanent element faults.  ``mttr`` makes every fault transient;
    ``link_fraction`` mixes in link faults; ``storm_radius`` switches
    to correlated storms, where ``count`` becomes the number of
    epicenters and the campaign grows to each storm's whole blast
    region (times then spread over the actual fault count).
    """
    if count < 1:
        return ()
    state = AllocationState(platform)
    if storm_radius > 0:
        campaign = storm_campaign(
            state, count, radius=storm_radius, seed=seed + 1,
            repair_after=mttr,
        )
    elif link_fraction > 0:
        campaign = random_campaign(
            state, count, seed=seed + 1, link_fraction=link_fraction,
            repair_after=mttr,
        )
    else:
        campaign = random_element_campaign(
            state, count, seed=seed + 1, repair_after=mttr
        )
    pending = len(campaign.faults)
    times = tuple(
        duration * (index + 1) / (pending + 1) for index in range(pending)
    )
    return campaign.schedule(times)


def run_recipe(
    recipe: dict,
    trace_path=None,
    obs: Observability | None = None,
    fastpath: bool = True,
) -> SimulationResult:
    """Execute a recipe; optionally write the JSONL trace (header first).

    The one place that tells the backends apart: a recipe with a
    ``"shards"`` key runs
    :func:`~repro.cluster.sim.run_cluster_simulation`, any other
    :func:`run_simulation`.  ``fastpath`` toggles the manager's
    admission gate/memo; it is deliberately *not* part of the recipe —
    it changes wall-clock, never decisions, so a trace recorded either
    way replays both ways.  ``obs`` is excluded from the recipe for the
    same reason: metrics and spans observe the run without
    influencing it.
    """
    classes_spec = recipe["classes"]
    classes = make_traffic_classes(
        classes_spec.get("kind", "default"),
        seed=classes_spec["seed"],
        rate_scale=classes_spec["rate_scale"],
        pool_size=classes_spec["pool_size"],
        **(classes_spec.get("params") or {}),
    )
    policy = make_policy(
        recipe["policy"]["name"], recipe["policy"].get("params") or {}
    )
    config = SimulationConfig(
        duration=recipe["duration"],
        seed=recipe["seed"],
        sample_interval=recipe["sample_interval"],
        warmup=float(recipe.get("warmup", 0.0)),
    )
    overload = OverloadConfig.from_spec(recipe.get("overload"))
    if "shards" in recipe:
        # repro.cluster imports this module: import it at call time
        from repro.cluster.registry import LivenessPolicy
        from repro.cluster.sim import run_cluster_simulation, scheduled_kills

        _family, (rows, cols) = _parse_platform_spec(recipe["platform"])
        shard_count = int(recipe["shards"])
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
            overload=overload,
        )
    else:
        platform = platform_from_spec(recipe["platform"])
        faults = scheduled_faults(
            platform, int(recipe.get("faults", 0)),
            config.duration, config.seed,
            mttr=recipe.get("fault_mttr"),
            link_fraction=float(recipe.get("fault_links", 0.0)),
            storm_radius=int(recipe.get("fault_storm", 0)),
        )
        result = run_simulation(
            platform, classes, policy, config, faults=faults,
            fastpath=fastpath,
            resilience=ResilienceConfig.from_spec(recipe.get("resilience")),
            obs=obs,
            overload=overload,
            mapper=recipe.get("mapper", "kairos"),
            mapper_params=recipe.get("mapper_params"),
        )
    result.recipe = recipe
    if trace_path is not None:
        write_trace(trace_path, result.trace, header=recipe)
    return result


def replay_trace(path) -> tuple[bool, list[str], SimulationResult]:
    """Re-run a recorded trace's recipe and diff the decision streams.

    Any header replays — plain or cluster, :func:`run_recipe` picks
    the backend.  Returns ``(identical, differences, fresh_result)``;
    an empty difference list certifies bit-identical event ordering
    and admission decisions.
    """
    header, records = read_trace(path)
    if header is None:
        raise ValueError(f"{path}: trace has no recipe header; cannot replay")
    try:
        result = run_recipe(header)
    except KeyError as exc:
        # a mutated/truncated header is user input, not a library bug:
        # surface a structured error, never a raw stack trace
        raise ValueError(
            f"{path}: trace header is not a valid recipe "
            f"(missing key {exc})"
        ) from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(
            f"{path}: trace header is not a valid recipe ({exc!r})"
        ) from exc
    differences = diff_traces(records, result.trace)
    return not differences, differences, result
