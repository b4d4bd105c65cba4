"""The queue policies of the admission service, and its request type.

What happens to an :class:`AdmissionRequest` the
:class:`~repro.sim.service.AdmissionService` cannot admit right now is
the *queue policy*:

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
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.apps.taskgraph import Application
from repro.reasons import ReasonCode
from repro.sim.events import Event, EventKind
from repro.sim.traffic import TrafficClass

if TYPE_CHECKING:
    from repro.sim.service import AdmissionService


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
        """Backfill hook, called by :meth:`AdmissionService.backfill`
        after every capacity event; never re-entered."""

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
        service.backfill(now)


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
