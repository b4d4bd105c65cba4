"""The admission façade: plan → commit over :class:`~repro.manager.kairos.Kairos`.

This is the library's single public admission entry layer.  Two ways
in, both returning structured results instead of raising control-flow
exceptions on the hot path:

``admit(app)``
    one-shot plan+commit fused: runs the four-phase pipeline once and
    keeps a successful attempt's resources, returning a
    :class:`Decision`.
``plan(app)`` → ``commit(plan)``
    the two-phase protocol.  ``plan`` runs binding / mapping / routing
    / validation inside a transaction and *rolls it back*: the
    returned :class:`Plan` is stamped with the capacity epoch it was
    computed against and holds **no resources** — what-if probing is
    free.  ``commit`` applies the planned layout atomically iff the
    epoch is unchanged (an O(mutations) replay, no pipeline re-run)
    and transparently replans otherwise.

**Soundness of commit-by-replay.**  The capacity epoch is a monotonic
counter of committed ledger mutations; rollback rewinds counter and
ledgers together, so within a journal-consistent history equal epochs
certify bit-identical allocation state (see
:class:`~repro.arch.state.AllocationState`).  The pipeline is a
deterministic function of (specification, state); a successful plan's
net mutations are exactly one ``occupy`` per placement (in mapping
order) and one ``reserve_route`` per channel (in routing order).
Replaying those mutations against the same epoch therefore reproduces
the pipeline's post-admission state — same ledgers, same epoch, same
subsequent decisions — which is what the lockstep churn-digest tests
assert against ``benchmarks/seed_reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.apps.taskgraph import Application
from repro.arch.state import AllocationState, ChannelReservation
from repro.arch.topology import Platform
from repro.manager.kairos import Kairos
from repro.manager.layout import (
    AllocationFailure,
    ExecutionLayout,
    Phase,
    PhaseTimings,
)
from repro.reasons import ReasonCode

__all__ = ["AdmissionController", "Decision", "Plan"]


@dataclass
class Plan:
    """An epoch-stamped admission plan: a layout the platform *could*
    host, with no resources held.

    Produced by :meth:`AdmissionController.plan`.  ``epoch`` is the
    capacity epoch the plan was computed against;
    :meth:`AdmissionController.commit` applies the layout cheaply when
    the state still sits at that epoch and replans otherwise.  A plan
    whose pipeline failed has ``layout=None`` and carries the
    structured failure instead (phase, reason, code) — committing it
    yields a failed :class:`Decision` without re-running anything,
    unless the epoch moved (then the failure may no longer hold and
    commit replans).
    """

    app: Application = field(repr=False)
    app_id: str
    epoch: int
    layout: ExecutionLayout | None = field(default=None, repr=False)
    failure: AllocationFailure | None = field(default=None, repr=False)
    timings: PhaseTimings | None = field(default=None, repr=False)
    committed: bool = False

    @property
    def ok(self) -> bool:
        """True when the pipeline produced a committable layout."""
        return self.layout is not None

    @property
    def phase(self) -> Phase | None:
        return None if self.failure is None else self.failure.phase

    @property
    def reason(self) -> str | None:
        return None if self.failure is None else self.failure.reason

    @property
    def code(self) -> ReasonCode | None:
        return None if self.failure is None else self.failure.code

    def describe(self) -> str:
        """Human-readable plan summary (the CLI's ``repro plan`` body)."""
        lines = [
            f"plan for {self.app.name!r} as {self.app_id} "
            f"@ epoch {self.epoch}: "
            + ("ADMISSIBLE" if self.ok else "REJECTED")
        ]
        if self.timings is not None:
            recorded = self.timings.recorded_items()
            if recorded:
                lines.append(
                    "  per-phase timings (ms): "
                    + ", ".join(
                        f"{phase} {seconds * 1000.0:.2f}"
                        for phase, seconds in recorded
                    )
                )
        if self.ok:
            placement = self.layout.placement
            lines.append(
                f"  {len(placement)} tasks over "
                f"{len(set(placement.values()))} elements, "
                f"{len(self.layout.routes)} routed + "
                f"{len(self.layout.local_channels)} local channels"
            )
        else:
            lines.append(
                f"  failed in {self.phase.value} "
                f"[code: {self.code}]: {self.reason}"
            )
        lines.append(
            "  resources held: none (plans are free until committed)"
        )
        return "\n".join(lines)


@dataclass
class Decision:
    """The structured outcome of an admission attempt.

    Replaces :class:`AllocationFailure` control flow on the façade's
    hot path: ``admitted`` tells you what happened, ``code`` tells a
    machine why not, ``reason`` tells a human, and the original
    exception object (when any) rides along in ``failure`` for callers
    that want to raise it.
    """

    admitted: bool
    app_id: str
    #: committed capacity epoch observed right after the decision
    epoch: int
    layout: ExecutionLayout | None = field(default=None, repr=False)
    phase: Phase | None = None
    reason: str | None = None
    code: ReasonCode | None = None
    timings: PhaseTimings | None = field(default=None, repr=False)
    #: commit() found the plan's epoch stale and re-ran the pipeline
    replanned: bool = False
    #: the memo replayed this rejection without running the pipeline
    memoized: bool = False
    gated: bool = False  # always; bench/tracing.py reads it (ROADMAP 7(b))
    failure: AllocationFailure | None = field(default=None, repr=False)
    plan: Plan | None = field(default=None, repr=False)


def _failed_decision(
    failure: AllocationFailure,
    epoch: int,
    *,
    replanned: bool = False,
    plan: Plan | None = None,
) -> Decision:
    return Decision(
        admitted=False,
        app_id=failure.app_id,
        epoch=epoch,
        phase=failure.phase,
        reason=failure.reason,
        code=failure.code,
        timings=failure.timings,
        replanned=replanned,
        memoized=failure.memoized,
        failure=failure,
        plan=plan,
    )


class AdmissionController:
    """Plan/commit admission façade over one :class:`Kairos` manager.

    Construct over a platform (keyword arguments are forwarded to
    :class:`Kairos`, including ``pipeline=`` for a custom
    :class:`~repro.api.pipeline.PhasePipeline`), or wrap an existing
    manager with :meth:`wrap` — either way there is exactly one
    controller per manager and ``manager.controller`` returns it.
    """

    def __init__(self, platform: Platform, **kairos_kwargs) -> None:
        manager = Kairos(platform, **kairos_kwargs)
        self._bind(manager)

    @classmethod
    def wrap(cls, manager: Kairos) -> "AdmissionController":
        """The controller of an existing manager (one per manager)."""
        existing = manager._controller
        if existing is not None:
            return existing
        controller = cls.__new__(cls)
        controller._bind(manager)
        return controller

    def _bind(self, manager: Kairos) -> None:
        if manager._controller is not None:
            raise ValueError("manager already has a controller")
        self.manager = manager
        manager._controller = self
        # registry handles, interned once per controller — admission
        # outcome counters live under ``admit.*`` in a snapshot
        obs = manager.obs
        self._obs = obs
        self._c_attempts = obs.registry.counter("admit.attempts")
        self._c_admitted = obs.registry.counter("admit.admitted")
        self._c_rejected = obs.registry.counter("admit.rejected")
        self._c_plans = obs.registry.counter("admit.plans")
        self._c_commits = obs.registry.counter("admit.commits")
        self._c_replans = obs.registry.counter("admit.replans")

    # -- convenient views ---------------------------------------------------

    @property
    def platform(self) -> Platform:
        return self.manager.platform

    @property
    def state(self) -> AllocationState:
        return self.manager.state

    @property
    def pipeline(self):
        return self.manager.pipeline

    @property
    def admitted(self) -> dict[str, ExecutionLayout]:
        return self.manager.admitted

    # -- one-shot admission -------------------------------------------------

    def admit(self, app: Application, app_id: str | None = None) -> Decision:
        """One atomic admission attempt; never raises on rejection.

        This is the hot path the sim service, the experiment harness
        and the benchmarks run on: pipeline once, keep on success.
        """
        manager = self.manager
        self._c_attempts.inc()
        with self._obs.tracer.span("admit"):
            try:
                layout = manager._admit_direct(app, app_id)
            except AllocationFailure as failure:
                self._c_rejected.inc()
                return _failed_decision(failure, manager.state.epoch)
        self._c_admitted.inc()
        return Decision(
            admitted=True,
            app_id=layout.app_id,
            epoch=manager.state.epoch,
            layout=layout,
            timings=layout.timings,
        )

    # -- the two-phase protocol ---------------------------------------------

    def plan(self, app: Application, app_id: str | None = None) -> Plan:
        """Run the pipeline transactionally and unwind: a free probe.

        After this returns, the allocation state is bit-identical to
        before the call — journal fully unwound, capacity epoch
        restored — whatever the outcome.  The returned plan is stamped
        with that epoch.
        """
        manager = self.manager
        epoch = manager.state.epoch
        self._c_plans.inc()
        with self._obs.tracer.span("plan"):
            try:
                layout = manager._attempt(app, app_id, hold=False)
            except AllocationFailure as failure:
                return Plan(
                    app=app,
                    app_id=failure.app_id,
                    epoch=epoch,
                    failure=failure,
                    timings=failure.timings,
                )
        return Plan(
            app=app,
            app_id=layout.app_id,
            epoch=epoch,
            layout=layout,
            timings=layout.timings,
        )

    def commit(self, plan: Plan) -> Decision:
        """Apply a plan atomically, replanning if the epoch moved on.

        * plan epoch == state epoch, plan ok: the planned layout is
          applied by replaying its mutations inside one transaction —
          O(placements + route hops), no pipeline re-run — and the
          application is registered as admitted.
        * plan epoch == state epoch, plan failed: the recorded failure
          is replayed (the pipeline would fail identically).
        * epoch moved (either direction of outcome): the admission is
          recomputed against the current state in a single held
          pipeline pass (no plan-then-replay double work);
          ``Decision.replanned`` is set.

        A plan commits at most once (``ValueError`` on reuse; a commit
        that raises — e.g. on a duplicate ``app_id`` — does not burn
        the plan).
        """
        if plan.committed:
            raise ValueError(
                f"plan for {plan.app_id!r} has already been committed"
            )
        manager = self.manager
        state = manager.state
        self._c_commits.inc()
        if state.epoch != plan.epoch:
            # the capacity landscape changed under the plan: replan
            # transparently at the current epoch.  A stale *failure*
            # is reconsidered too — capacity may have been freed.
            # One held pipeline pass, not plan-then-replay.
            self._c_replans.inc()
            with self._obs.tracer.span("commit.replan"):
                try:
                    layout = manager._admit_direct(plan.app, plan.app_id)
                except AllocationFailure as failure:
                    plan.committed = True
                    return _failed_decision(
                        failure, state.epoch, replanned=True, plan=plan
                    )
            plan.committed = True
            return Decision(
                admitted=True,
                app_id=layout.app_id,
                epoch=state.epoch,
                layout=layout,
                timings=layout.timings,
                replanned=True,
                plan=plan,
            )
        if not plan.ok:
            plan.committed = True
            return _failed_decision(plan.failure, state.epoch, plan=plan)
        if plan.app_id in manager.admitted:
            raise ValueError(f"app_id {plan.app_id!r} already admitted")
        with self._obs.tracer.span("commit.apply"):
            layout = self._apply_layout(plan.layout, plan.app)
        plan.committed = True
        return Decision(
            admitted=True,
            app_id=layout.app_id,
            epoch=state.epoch,
            layout=layout,
            timings=layout.timings,
            plan=plan,
        )

    # -- lifecycle passthroughs ---------------------------------------------

    def release(self, app_id: str) -> None:
        self.manager.release(app_id)

    def release_all(self) -> None:
        self.manager.release_all()

    def recover(self, applications=None, order: str = "admission"):
        """One immediate recovery pass (see :meth:`Kairos.recover`).

        Its :class:`~repro.resilience.RecoveryOutcome` holds every
        re-admission's :class:`Decision`; for a requeue and retry
        budgets, use :meth:`recovery_engine`.
        """
        return self.manager.recover(applications, order=order)

    def recovery_engine(self, policy=None):
        """A :class:`~repro.resilience.RecoveryEngine` over this manager.

        The engine's passes re-admit through :meth:`admit`, so every
        recovery outcome is a structured :class:`Decision` with its
        :class:`~repro.reasons.ReasonCode` — the policy controls
        ordering, requeue and backoff.
        """
        from repro.resilience.recovery import RecoveryEngine

        return RecoveryEngine(
            self.manager, policy, health=self.manager.health
        )

    # -- internals -----------------------------------------------------------

    def _apply_layout(
        self, layout: ExecutionLayout, app: Application
    ) -> ExecutionLayout:
        """Replay a planned layout's mutations and register it.

        Applies exactly the mutations the pipeline made when the plan
        was computed, in the same order — one ``occupy`` per placement
        (mapping order) then one ``reserve_route`` per channel
        (routing order).  The epoch check certified the state is the
        one the pipeline succeeded against, so the replay cannot fail;
        a failure therefore indicates a certification bug, and the
        partial admission is unwound via ``release_application``
        (journal-free atomicity: the commit hot path pays no undo-log
        tax).  Reservation objects are re-minted by the state; the
        registered layout carries the live ones.
        """
        manager = self.manager
        state = manager.state
        binding = layout.binding
        app_id = layout.app_id
        occupy = state.occupy
        reserve = state.reserve_route
        routes: dict[str, ChannelReservation] = {}
        try:
            for task, element in layout.placement.items():
                occupy(element, app_id, task, binding[task].requirement)
            for channel, reservation in layout.routes.items():
                routes[channel] = reserve(
                    app_id, channel, reservation.path, reservation.bandwidth
                )
        except BaseException:  # pragma: no cover - certification bug
            # everything applied so far belongs to app_id and nothing
            # else does: releasing the app is an exact undo
            state.release_application(app_id)
            raise
        final = replace(layout, routes=routes)
        manager.admitted[app_id] = final
        manager.specifications[app_id] = app
        return final
