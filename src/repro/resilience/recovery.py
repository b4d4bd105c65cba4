"""Policy-driven fault recovery: ordering, retry with backoff, requeue.

Replaces the inline loop :meth:`repro.manager.kairos.Kairos.recover`
historically ran — release every stranded application in alphabetical
``app_id`` order and retry each exactly once, losing forever whatever
did not fit the degraded platform.  Two failure modes motivated the
upgrade:

* **Ordering starvation** — alphabetical order is deterministic but
  arbitrary: under scarce degraded capacity a small early-alphabet
  application can grab the last feasible region and starve a large or
  high-priority one whose id merely sorts later.
  :class:`RecoveryPolicy` makes the order explicit: ``admission``
  (oldest admitted first — the default for bare ``recover()``),
  ``priority`` (QoS class first), ``size`` (largest first), or
  ``name`` (the legacy order, kept for trace compatibility).
* **Lost forever** — a permanent-fault world has no later; a
  transient-fault world does.  With ``requeue`` enabled, applications
  recovery cannot re-place *now* move to a pending requeue instead of
  being lost; the requeue drains when a repair or a departure frees
  capacity, and each entry retries with exponential backoff up to a
  budget, expiring at the application's natural departure instant
  (reviving an app whose service time already ended would leak it).

Every re-admission runs through the backend's ``admit`` (a
:class:`~repro.manager.kairos.Kairos` or a cluster — the surface is
listed in :class:`~repro.sim.service.AdmissionService`), so recovery
outcomes are structured :class:`~repro.api.Decision` objects and each
attempt is transactional: a failure unwinds in O(mutations of that
attempt), and a pass over an already-consistent state is a no-op — the
engine is idempotent (asserted by ``tests/test_resilience.py``).

The engine is simulation-agnostic: it never touches the event kernel.
The sim service schedules :data:`~repro.sim.events.EventKind.RECOVERY_RETRY`
events from the delays the engine reports and calls :meth:`drain`
when capacity returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.taskgraph import Application
from repro.obs import DISABLED
from repro.reasons import ReasonCode

__all__ = [
    "DrainAttempt",
    "PendingRecovery",
    "RecoveryEngine",
    "RecoveryOutcome",
    "RecoveryPolicy",
]

#: recognised re-admission orders (see RecoveryPolicy)
RECOVERY_ORDERS = ("admission", "priority", "size", "name")


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a recovery pass orders, retries and requeues applications."""

    #: re-admission order over stranded applications; ties break by
    #: admission sequence then app_id, so every order is total and
    #: deterministic
    order: str = "admission"
    #: total allocation attempts per requeued application (the failed
    #: attempt inside the recovery pass counts as the first)
    max_attempts: int = 6
    base_delay: float = 3.0
    backoff: float = 2.0
    #: keep unplaceable applications pending instead of losing them
    requeue: bool = True

    def __post_init__(self) -> None:
        if self.order not in RECOVERY_ORDERS:
            raise ValueError(
                f"order must be one of {RECOVERY_ORDERS}, got {self.order!r}"
            )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay <= 0 or self.backoff < 1.0:
            raise ValueError("need base_delay > 0 and backoff >= 1")

    def describe(self) -> dict:
        return {
            "order": self.order,
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "backoff": self.backoff,
            "requeue": self.requeue,
        }

    @classmethod
    def from_params(cls, params: dict | None) -> "RecoveryPolicy":
        return cls(**(params or {}))


@dataclass
class PendingRecovery:
    """One application waiting in the requeue for capacity to return."""

    app_id: str
    app: Application = field(repr=False)
    priority: int = 0
    #: allocation attempts consumed so far (>= 1: the pass's own try)
    attempts: int = 1
    #: sim-time the application was stranded and deferred
    deferred_at: float = 0.0
    #: insertion sequence (the requeue's notion of admission order)
    seq: int = 0
    #: capacity epoch of the last failed attempt — an unchanged epoch
    #: proves a re-attempt would fail identically, so it is skipped
    #: without consuming retry budget
    last_epoch: int | None = None
    #: service-owned slot for the scheduled backoff event (the engine
    #: never touches it)
    retry_event: object | None = field(default=None, repr=False)


@dataclass
class DrainAttempt:
    """Outcome of one requeue drain attempt on one application."""

    app_id: str
    attempt: int
    #: "recovered" | "deferred" | "exhausted"
    outcome: str
    decision: object | None = field(default=None, repr=False)
    #: next backoff delay (set when outcome == "deferred")
    delay: float | None = None
    #: sim-time spent in the requeue (set when outcome == "recovered")
    waited: float | None = None


@dataclass
class RecoveryOutcome:
    """Everything one recovery pass decided, structurally.

    ``decisions`` holds the :class:`~repro.api.Decision` of every
    re-admission attempted (recovered, deferred and lost alike);
    applications lost without an attempt (no specification) appear
    only in ``lost``/``lost_codes``.
    """

    stranded: tuple[str, ...] = ()
    decisions: dict[str, object] = field(default_factory=dict)
    recovered: dict[str, object] = field(default_factory=dict)
    #: app_id -> human-readable reason it sits in the requeue
    deferred: dict[str, str] = field(default_factory=dict)
    #: app_id -> human-readable reason; recorded verbatim in sim
    #: decision traces, so its format is frozen
    lost: dict[str, str] = field(default_factory=dict)
    #: app_id -> the machine-readable reason of each lost application
    lost_codes: dict[str, ReasonCode] = field(default_factory=dict)


class RecoveryEngine:
    """Recovery passes and the requeue, over one admission backend."""

    def __init__(
        self,
        manager,
        policy: RecoveryPolicy | None = None,
        health=None,
    ) -> None:
        self.manager = manager
        self.policy = policy or RecoveryPolicy()
        self.health = health
        #: app_id -> QoS priority, maintained by the service (bare
        #: library use leaves it empty: every app ranks equal and the
        #: admission-sequence tie-break decides)
        self.priorities: dict[str, int] = {}
        self._pending: dict[str, PendingRecovery] = {}
        self._seq = 0
        # recovery counters ride the manager's registry (``recovery.*``
        # in a snapshot); the manager defaults to the DISABLED bundle
        obs = getattr(manager, "obs", None) or DISABLED
        self._obs = obs
        registry = obs.registry
        self._c_passes = registry.counter("recovery.passes")
        self._c_recovered = registry.counter("recovery.recovered")
        self._c_deferred = registry.counter("recovery.deferred")
        self._c_lost = registry.counter("recovery.lost")
        self._c_retries = registry.counter("recovery.retries")
        self._c_exhausted = registry.counter("recovery.exhausted")

    # -- bookkeeping hooks (the service calls these) -------------------------

    def note_priority(self, app_id: str, priority: int) -> None:
        self.priorities[app_id] = priority

    def note_departed(self, app_id: str) -> None:
        self.priorities.pop(app_id, None)

    @property
    def pending(self) -> tuple[PendingRecovery, ...]:
        return tuple(self._pending.values())

    def pending_entry(self, app_id: str) -> PendingRecovery | None:
        return self._pending.get(app_id)

    def expire(self, app_id: str) -> PendingRecovery | None:
        """Drop a requeue entry whose departure deadline passed."""
        return self._pending.pop(app_id, None)

    def flush(self) -> tuple[PendingRecovery, ...]:
        """Drop and return every pending entry (end of run)."""
        entries = tuple(self._pending.values())
        self._pending.clear()
        return entries

    # -- the recovery pass ---------------------------------------------------

    def recovery_pass(
        self,
        now: float = 0.0,
        applications: dict[str, Application] | None = None,
    ) -> RecoveryOutcome:
        """Re-place every stranded application on the degraded platform.

        Idempotent: when nothing admitted touches a failed resource
        the pass returns an empty outcome without mutating anything.
        Strandedness is recomputed after each round, so applications
        stranded *by a fault arriving mid-recovery* (between an outer
        caller's ``stranded_by_faults()`` observation and this pass)
        are picked up rather than corrupting state — each individual
        re-admission is transactional on its own.
        """
        manager = self.manager
        lookup = (
            manager.specifications if applications is None else applications
        )
        self._c_passes.inc()
        outcome = RecoveryOutcome()
        handled: set[str] = set()
        with self._obs.tracer.span("recovery.pass"):
            self._pass_rounds(manager, lookup, now, outcome, handled)
        outcome.stranded = tuple(sorted(handled))
        self._c_recovered.inc(len(outcome.recovered))
        self._c_deferred.inc(len(outcome.deferred))
        self._c_lost.inc(len(outcome.lost))
        return outcome

    def _pass_rounds(self, manager, lookup, now, outcome, handled) -> None:
        while True:
            stranded = [
                app_id for app_id in manager.stranded_by_faults()
                if app_id not in handled
            ]
            if not stranded:
                break
            seq = {
                app_id: index
                for index, app_id in enumerate(manager.admitted)
            }
            stranded.sort(key=self._pass_key(seq, lookup))
            for app_id in stranded:
                handled.add(app_id)
                self._recover_one(app_id, lookup, now, outcome)

    def _recover_one(
        self,
        app_id: str,
        lookup: dict[str, Application],
        now: float,
        outcome: RecoveryOutcome,
    ) -> None:
        manager = self.manager
        if app_id not in lookup:
            outcome.lost[app_id] = "no application specification supplied"
            outcome.lost_codes[app_id] = ReasonCode.RECOVERY_NO_SPECIFICATION
            manager.release(app_id)
            return
        app = lookup[app_id]
        manager.release(app_id)
        epoch = manager.epoch
        decision = manager.admit(app, app_id)
        outcome.decisions[app_id] = decision
        if decision.admitted:
            outcome.recovered[app_id] = decision.layout
            return
        reason = f"{decision.phase.value}: {decision.reason}"
        if not self.policy.requeue:
            outcome.lost[app_id] = reason
            outcome.lost_codes[app_id] = decision.code
            return
        self._seq += 1
        self._pending[app_id] = PendingRecovery(
            app_id=app_id,
            app=app,
            priority=self.priorities.get(app_id, 0),
            attempts=1,
            deferred_at=now,
            seq=self._seq,
            last_epoch=epoch,
        )
        outcome.deferred[app_id] = reason

    # -- the requeue ---------------------------------------------------------

    def drain(self, now: float) -> list[DrainAttempt]:
        """Try to re-admit pending applications (capacity may be back).

        Entries whose capacity epoch is unchanged since their last
        failed attempt are skipped for free — the deterministic
        pipeline would reject identically, so no retry budget burns on
        a platform that has not changed.  Attempt order follows the
        policy (requeue insertion sequence standing in for admission
        order).
        """
        if not self._pending:
            return []
        results: list[DrainAttempt] = []
        manager = self.manager
        policy = self.policy
        entries = sorted(self._pending.values(), key=self._drain_key)
        with self._obs.tracer.span("recovery.drain"):
            self._drain_entries(entries, manager, policy, now, results)
        return results

    def _drain_entries(self, entries, manager, policy, now, results) -> None:
        for entry in entries:
            epoch = manager.epoch
            if entry.last_epoch == epoch:
                continue
            entry.attempts += 1
            self._c_retries.inc()
            decision = manager.admit(entry.app, entry.app_id)
            if decision.admitted:
                del self._pending[entry.app_id]
                results.append(DrainAttempt(
                    entry.app_id, entry.attempts, "recovered",
                    decision=decision, waited=now - entry.deferred_at,
                ))
                continue
            entry.last_epoch = epoch
            if entry.attempts >= policy.max_attempts:
                del self._pending[entry.app_id]
                self._c_exhausted.inc()
                results.append(DrainAttempt(
                    entry.app_id, entry.attempts, "exhausted",
                    decision=decision,
                ))
            else:
                delay = (
                    policy.base_delay
                    * policy.backoff ** (entry.attempts - 1)
                )
                results.append(DrainAttempt(
                    entry.app_id, entry.attempts, "deferred",
                    decision=decision, delay=delay,
                ))

    # -- ordering ------------------------------------------------------------

    def _pass_key(self, seq: dict[str, int], lookup: dict):
        order = self.policy.order
        priorities = self.priorities

        def size_of(app_id: str) -> int:
            app = lookup.get(app_id)
            return 0 if app is None else len(app.tasks)

        if order == "name":
            return lambda app_id: (app_id,)
        if order == "admission":
            return lambda app_id: (seq.get(app_id, 0), app_id)
        if order == "priority":
            return lambda app_id: (
                -priorities.get(app_id, 0), seq.get(app_id, 0), app_id
            )
        return lambda app_id: (  # size
            -size_of(app_id), seq.get(app_id, 0), app_id
        )

    def _drain_key(self, entry: PendingRecovery):
        order = self.policy.order
        if order == "name":
            return (entry.app_id,)
        if order == "priority":
            return (-entry.priority, entry.seq, entry.app_id)
        if order == "size":
            return (-len(entry.app.tasks), entry.seq, entry.app_id)
        return (entry.seq, entry.app_id)  # admission
