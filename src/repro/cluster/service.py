"""The cluster manager: shards + liveness + router + coordinator.

:class:`ClusterManager` implements the admission-backend surface
(listed once, in :class:`~repro.sim.service.AdmissionService`) that a
single :class:`~repro.manager.kairos.Kairos` implements too, which is
what lets the whole stack run over it: the sim's
:class:`~repro.sim.service.AdmissionService` drives it like any
manager, and the resilience :class:`~repro.resilience.RecoveryEngine`
re-admits shard-kill victims through it without knowing shards exist
(a re-admission simply routes to whatever is alive).

The composite **cluster epoch** is ``(liveness generation, per-shard
epoch tuple)``.  Two equal epochs certify that every shard's committed
state *and* the routable set are unchanged, so the admission service's
failed-probe short-circuit stays sound across the cluster: a shard
revival changes no shard-local epoch but does bump the liveness
generation, invalidating failure memos recorded when the cluster was
smaller.  Epochs are compared by equality only — tuples are fine.
"""

from __future__ import annotations

from repro.api.controller import Decision
from repro.apps.taskgraph import Application
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.registry import (
    LivenessPolicy,
    LivenessRegistry,
    LivenessTransition,
    ShardLiveness,
)
from repro.cluster.router import ShardRouter
from repro.cluster.shard import Shard
from repro.manager.layout import Phase, PhaseTimings
from repro.obs import DISABLED, Observability
from repro.overload import BreakerBoard, OverloadConfig
from repro.reasons import ReasonCode

__all__ = ["ClusterManager"]


class ClusterManager:
    """Sharded admission over disjoint platform regions."""

    def __init__(
        self,
        shards: list[Shard],
        liveness_policy: LivenessPolicy | None = None,
        obs: Observability | None = None,
        allow_split: bool = True,
        max_commit_retries: int = 2,
        overload: OverloadConfig | None = None,
    ) -> None:
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        self.shards = list(shards)
        self.by_id = {shard.shard_id: shard for shard in self.shards}
        if len(self.by_id) != len(self.shards):
            raise ValueError("duplicate shard ids")
        self.obs = DISABLED if obs is None else obs
        self.liveness = LivenessRegistry(liveness_policy)
        for shard in self.shards:
            self.liveness.register(shard.shard_id, now=0.0)
        self.router = ShardRouter(self.shards, self.liveness)
        self.coordinator = ClusterCoordinator(
            obs=obs, max_retries=max_commit_retries
        )
        self.allow_split = allow_split
        #: app_id -> ((shard_id, part_id), ...) — single-shard apps
        #: book one part under their own id; split apps book one part
        #: per touched shard.  This map is the *only* record that parts
        #: belong together, so a protocol that never returns partial
        #: bookkeeping cannot leak partial allocations (checked by
        #: :meth:`verify_integrity`).
        self.admitted: dict[str, tuple[tuple[str, str], ...]] = {}
        #: original specifications, the recovery engine's re-admission
        #: source (same contract as ``Kairos.specifications``)
        self.specifications: dict[str, Application] = {}
        self._touched = 0
        registry = self.obs.registry
        self._c_admitted = registry.counter("cluster.admitted")
        self._c_rejected = registry.counter("cluster.rejected")
        self._c_spillovers = registry.counter("cluster.spillovers")
        self._c_splits = registry.counter("cluster.splits")
        self._c_demotions = registry.counter("cluster.demotions")
        self._c_revivals = registry.counter("cluster.revivals")
        self.overload = overload
        breaker_policy = overload.breaker if overload is not None else None
        #: per-shard circuit breakers around the router's candidates;
        #: None without an :class:`OverloadConfig` (zero overhead, no
        #: trace records — the legacy digest contract)
        self.breakers = (
            None if breaker_policy is None
            else BreakerBoard(breaker_policy, self.by_id)
        )
        #: sim-clock accessor, rebound by ``run_cluster_simulation`` to
        #: the kernel's clock; breakers and liveness faults read time
        #: through it so direct (offline) use stays well-defined
        self.now_fn = lambda: 0.0
        #: (kind, payload) trace records the manager cannot write
        #: itself: breaker edges and fault-storm transitions from
        #: :meth:`admit`, shard kills, revivals and heartbeat
        #: transitions from the lifecycle methods.  The admission
        #: service drains them at the end of each of its entry points
        #: (:meth:`~repro.sim.service.AdmissionService.drain_records`),
        #: so record order is a pure function of the event stream.
        self.pending_records: list[tuple[str, dict]] = []

    # -- epochs --------------------------------------------------------------

    @property
    def epoch(self):
        """Composite capacity epoch (equality-comparable only)."""
        return (
            self.liveness.generation + self._touched,
            tuple(shard.manager.state.epoch for shard in self.shards),
        )

    def touch(self) -> None:
        """Invalidate equality with every previously observed epoch."""
        self._touched += 1

    # -- admission -----------------------------------------------------------

    def admit(self, app: Application, app_id: str) -> Decision:
        """Route, probe with spill-over, fall back to a cross-shard split."""
        if app_id in self.admitted:
            raise ValueError(f"application id {app_id!r} already admitted")
        candidates = self.router.candidates(app_id)
        if not candidates:
            self._c_rejected.inc()
            return Decision(
                admitted=False,
                app_id=app_id,
                epoch=self.epoch,
                phase=Phase.BINDING,
                reason="no routable shard (cluster demoted)",
                code=ReasonCode.CLUSTER_UNAVAILABLE,
                timings=PhaseTimings(),
            )
        if self.breakers is not None:
            candidates = self._breaker_filter(candidates)
            if not candidates:
                self._c_rejected.inc()
                return Decision(
                    admitted=False,
                    app_id=app_id,
                    epoch=self.epoch,
                    phase=Phase.BINDING,
                    reason="every routable shard's breaker is open",
                    code=ReasonCode.BREAKER_OPEN,
                    timings=PhaseTimings(),
                )
        first_failure: Decision | None = None
        for index, shard in enumerate(candidates):
            decision = shard.admit(app, app_id)
            if self.breakers is not None:
                self._note_probe(shard, decision)
            if decision.admitted:
                if index > 0:
                    self._c_spillovers.inc()
                self._book(app_id, app, ((shard.shard_id, app_id),))
                return decision
            if first_failure is None:
                first_failure = decision
        if self.allow_split and len(candidates) >= 2 and len(app) >= 2:
            result = self.coordinator.admit_split(
                app, app_id, candidates[:2]
            )
            if result.decision.admitted:
                self._c_splits.inc()
                self._book(app_id, app, result.parts)
                return result.decision
            if result.attempts > 0:
                # the split genuinely ran and failed; its structured
                # outcome supersedes the single-shard rejection
                self._c_rejected.inc()
                return result.decision
        self._c_rejected.inc()
        return first_failure

    # -- circuit breakers ----------------------------------------------------

    def _breaker_filter(self, candidates):
        """Drop candidates whose breaker refuses probes right now."""
        now = self.now_fn()
        allowed = []
        for shard in candidates:
            ok, transition = self.breakers.allow(shard.shard_id, now)
            if transition is not None:
                self._note_breaker(transition)
            if ok:
                allowed.append(shard)
            else:
                self.obs.registry.counter(
                    f"breaker.{shard.shard_id}.blocked"
                ).inc()
        return allowed

    def _note_probe(self, shard: Shard, decision: Decision) -> None:
        """Feed one probe outcome to the shard's breaker.

        Only a ``SHARD_DOWN`` decision indicts the shard — a capacity
        rejection is a healthy shard saying no and stays neutral.
        Breaker failures also feed the liveness registry's fault
        counter, so a genuinely dying shard still reaches the
        storm-demotion path even when its breaker shields it from
        further probes.  Split-admission probes are deliberately not
        wired here: the 2PC coordinator owns its own retry discipline.
        """
        now = self.now_fn()
        if decision.admitted:
            transition = self.breakers.record(shard.shard_id, True, now)
        elif decision.code == ReasonCode.SHARD_DOWN:
            transition = self.breakers.record(shard.shard_id, False, now)
            for lt in self.liveness.note_fault(shard.shard_id, now):
                self._touched += 1
                self._queue_transition(lt)
        else:
            transition = None
        if transition is not None:
            self._note_breaker(transition)

    def _note_breaker(self, transition) -> None:
        """One automaton edge: invalidate epochs, count, queue a record."""
        self._touched += 1
        self.obs.registry.counter(
            f"breaker.{transition.shard_id}.transitions"
        ).inc()
        self.pending_records.append((
            "breaker",
            {
                "shard": transition.shard_id,
                "state": transition.state.value,
                "was": transition.previous.value,
                "reason": transition.reason,
            },
        ))

    def _book(
        self,
        app_id: str,
        app: Application,
        parts: tuple[tuple[str, str], ...],
    ) -> None:
        self.admitted[app_id] = parts
        self.specifications[app_id] = app
        self._c_admitted.inc()

    # -- shard lifecycle -----------------------------------------------------

    def kill_shard(self, shard_id: str) -> None:
        """Crash one shard; liveness finds out via missed heartbeats."""
        shard = self.by_id[shard_id]
        if shard.alive:
            lost = shard.kill()
            self.pending_records.append(
                ("shard_kill", {"shard": shard_id, "lost": len(lost)})
            )

    def revive_shard(self, shard_id: str) -> None:
        """The shard process returns (empty); trust returns later.

        A revival is also a *detection* event: the process reports an
        empty allocation state, so anything still booked to it is
        provably lost — even when the kill was never demoted (a
        downtime shorter than ``dead_after`` revives a merely-stale
        shard).  The service's drain recovers on a ``shard_revive``
        record when :meth:`stranded_by_faults` is non-empty; after a
        detected death the demotion pass already handled the victims.
        """
        shard = self.by_id[shard_id]
        if not shard.alive:
            shard.revive()
            self.pending_records.append(
                ("shard_revive", {"shard": shard_id})
            )

    def heartbeat(self, now: float) -> None:
        """One liveness round: beats from the living, then deadlines.

        Quiet rounds (every shard alive, nothing in transition) queue
        no records and draw no randomness — heartbeats are invisible
        to the determinism contract.
        """
        transitions = []
        for shard in self.shards:
            if shard.alive:
                shard.beat()
                transitions.extend(
                    self.liveness.heartbeat(shard.shard_id, now)
                )
        transitions.extend(self.liveness.observe(now))
        for transition in transitions:
            self._queue_transition(transition)

    def _queue_transition(self, transition: LivenessTransition) -> None:
        if transition.state is ShardLiveness.DEAD:
            self._c_demotions.inc()
        elif (transition.state is ShardLiveness.LIVE
                and transition.previous is ShardLiveness.PROBATION):
            self._c_revivals.inc()
        self.pending_records.append((
            "shard_state",
            {
                "shard": transition.shard_id,
                "state": transition.state.value,
                "was": transition.previous.value,
                "reason": transition.reason,
            },
        ))

    # -- release -------------------------------------------------------------

    def release(self, app_id: str) -> None:
        """Free every part; raises ``KeyError`` for unknown ids.

        Parts resident on a killed (wiped) shard are already gone —
        ``Shard.release`` tolerates that, so releasing a half-stranded
        split application frees the surviving half.
        """
        try:
            parts = self.admitted.pop(app_id)
        except KeyError:
            raise KeyError(f"no admitted application {app_id!r}") from None
        self.specifications.pop(app_id, None)
        for shard_id, part_id in parts:
            self.by_id[shard_id].release(part_id)

    def release_all(self) -> None:
        for app_id in sorted(self.admitted):
            self.release(app_id)

    # -- recovery surface ----------------------------------------------------

    def stranded_by_faults(self) -> tuple[str, ...]:
        """Apps with at least one part no longer resident on its shard.

        A shard kill wipes the shard's allocation state immediately,
        so "booked here but not resident" is exactly "lost to a kill".
        """
        stranded = []
        for app_id in self.admitted:
            parts = self.admitted[app_id]
            if any(
                part_id not in self.by_id[shard_id].manager.admitted
                for shard_id, part_id in parts
            ):
                stranded.append(app_id)
        return tuple(sorted(stranded))

    # -- views ---------------------------------------------------------------

    def utilization(self) -> float:
        if len(self.shards) == 1:
            # bit-exact passthrough: the 1-shard lockstep contract
            # compares float-for-float with an unsharded run, and a
            # weighted mean of one term is not the identity in floats
            return self.shards[0].manager.utilization()
        total = 0.0
        weight = 0
        for shard in self.shards:
            size = len(shard.platform.elements)
            total += shard.manager.utilization() * size
            weight += size
        return total / weight if weight else 0.0

    def external_fragmentation(self) -> float:
        if len(self.shards) == 1:
            return self.shards[0].manager.external_fragmentation()
        total = 0.0
        weight = 0
        for shard in self.shards:
            size = len(shard.platform.elements)
            total += shard.manager.external_fragmentation() * size
            weight += size
        return total / weight if weight else 0.0

    def alive_fraction(self) -> float:
        return sum(1 for s in self.shards if s.alive) / len(self.shards)

    def verify_integrity(self) -> list[str]:
        """Cross-shard invariants; non-empty means a protocol bug.

        * **orphan part** — an allocation resident on a shard that no
          cluster bookkeeping entry owns.  A leaked partial commit
          (committed on shard A, unwound nowhere, never booked)
          produces exactly this.
        * **duplicate ownership** — two bookkeeping entries claiming
          the same ``(shard, part)``.

        A *missing* part (booked but not resident) is deliberately not
        a violation: that is legitimate strandedness after a kill,
        owned by the recovery engine.
        """
        violations: list[str] = []
        owned: dict[tuple[str, str], str] = {}
        for app_id in sorted(self.admitted):
            for shard_id, part_id in self.admitted[app_id]:
                key = (shard_id, part_id)
                if key in owned:
                    violations.append(
                        f"duplicate ownership of {part_id!r} on "
                        f"{shard_id}: {owned[key]!r} and {app_id!r}"
                    )
                else:
                    owned[key] = app_id
        for shard in self.shards:
            for resident_id in sorted(shard.manager.admitted):
                if (shard.shard_id, resident_id) not in owned:
                    violations.append(
                        f"orphan allocation {resident_id!r} on shard "
                        f"{shard.shard_id} (no cluster owner)"
                    )
        return violations

    def summary(self) -> dict:
        """JSON-able cluster snapshot (CLI and trace footers)."""
        summary = {
            "shards": len(self.shards),
            "alive": sum(1 for s in self.shards if s.alive),
            "liveness": self.liveness.summary(),
            "admitted": len(self.admitted),
            "splits": int(self._c_splits.value),
            "spillovers": int(self._c_spillovers.value),
        }
        if self.breakers is not None:
            summary["breakers"] = self.breakers.summary()
        return summary

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ClusterManager {len(self.shards)} shards, "
            f"{len(self.admitted)} admitted>"
        )
