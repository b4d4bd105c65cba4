"""Kairos: the run-time resource manager (paper Section III-E).

"A prototype resource manager named 'Kairos' has been developed,
containing the work-flow of Fig. 1."  An allocation attempt runs the
four phases in order — binding, mapping, routing, validation — each
timed separately (Fig. 7 plots exactly these per-phase times), and is
atomic: any phase failure rolls the allocation state back and raises
:class:`AllocationFailure` tagged with the failing phase (Table I's
unit of account).

Atomicity uses the state's transaction journal: rollback cost scales
with the mutations the failed attempt made, not with the platform size.

The manager also provides release (applications leaving the system)
and fault recovery (re-allocating applications stranded by element or
link failures), the run-time capabilities motivating the paper.

On top of the atomic pipeline sits the **admission fast path**
(:class:`AdmissionGate`): a negative-result memo keyed on ``(spec
digest, capacity epoch)``, so re-probes of identical specs against
unchanged state — the backfill pattern of :mod:`repro.sim.service` —
replay the recorded rejection without touching the binder.  See "The
negative-result memo" in ``docs/performance.md`` for the soundness
argument.
"""

from __future__ import annotations

import itertools

from repro.apps.taskgraph import Application, TaskGraphError
from repro.arch.state import AllocationError, AllocationState
from repro.arch.topology import Platform
from repro.core.cost import (
    BOTH,
    CostFunction,
    CostWeights,
    MappingCost,
    as_cost,
)
from repro.core.mapping import MappingOptions
from repro.manager.layout import (
    AllocationFailure,
    ExecutionLayout,
    Phase,
    PhaseTimings,
)
from repro.obs import DISABLED, Observability
from repro.reasons import ReasonCode
from repro.resilience.health import HealthAwareCost
from repro.resilience.recovery import (
    RecoveryEngine,
    RecoveryOutcome,
    RecoveryPolicy,
)
from repro.routing.router import BaseRouter, BfsRouter
from repro.validation.builder import SdfModelOptions

# repro.api's package __init__ is lazy (PEP 562), so this pulls in only
# the pipeline module — no cycle back into the manager
from repro.api.pipeline import PhaseContext, PhasePipeline

#: validation policy names (see module docstring of validator)
VALIDATION_MODES = ("enforce", "report", "skip")

#: negative-result memo size bound; on overflow the memo is cleared
#: wholesale (it is a cache keyed by spec digest — long-running
#: services cycle a bounded spec pool, so this is a safety net only)
_MEMO_LIMIT = 65536


class AdmissionGate:
    """The admission fast path: a negative-result memo.

    Soundness contract: **every rejection replayed here is the one the
    full pipeline would raise against the same state** — same phase,
    same reason, same code.  Rejections are remembered keyed on
    ``(spec digest, state.epoch)``; a re-probe of an identical
    specification against an unchanged epoch (the backfill loops of
    :mod:`repro.sim.service`) replays the recorded rejection in O(1).
    Sound because equal epochs certify bit-identical allocation state
    (see :class:`~repro.arch.state.AllocationState`) and the pipeline
    is deterministic in (spec, state); a cost reading anything else
    must :meth:`Kairos.touch` the manager when that input changes.
    Memoized and unmemoized managers produce bit-identical layouts,
    decisions and failure reasons (asserted by
    ``tests/test_fastpath.py``).
    """

    __slots__ = ("state", "c_memo_hits", "c_gate_passes", "_memo")

    def __init__(self, state: AllocationState, registry=None) -> None:
        self.state = state
        #: digest -> (epoch, Phase, reason, code); entries
        #: self-invalidate when the epoch moves on and are pruned on
        #: mismatch
        self._memo: dict[str, tuple[int, Phase, str, ReasonCode]] = {}
        registry = DISABLED.registry if registry is None else registry
        self.c_memo_hits = registry.counter("gate.memo_hits")
        #: attempts the memo did not answer, i.e. pipeline runs
        self.c_gate_passes = registry.counter("gate.passes")

    def check_memo(self, digest: str, app_id: str) -> None:
        """Replay a remembered rejection if the epoch still matches."""
        entry = self._memo.get(digest)
        if entry is None:
            return
        epoch, phase, reason, code = entry
        if epoch != self.state._epoch:
            del self._memo[digest]
            return
        self.c_memo_hits.inc()
        # the recorded reason (and code) is replayed verbatim for this
        # (possibly different) app_id — reasons are diagnostics, and no
        # pipeline reason embeds the attempt id (they name
        # app/task/channel)
        failure = AllocationFailure(phase, app_id, reason, code=code)
        failure.memoized = True
        raise failure

    def remember(self, digest: str, failure: AllocationFailure) -> None:
        """Record a rejection against the current (restored) epoch.

        Sound only for a *committed* epoch, which
        :meth:`Kairos._attempt` guarantees by refusing to start inside
        an open transaction.
        """
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
        self._memo[digest] = (
            self.state._epoch, failure.phase, failure.reason, failure.code
        )


class Kairos:
    """Four-phase run-time spatial resource manager.

    Parameters
    ----------
    platform:
        The frozen platform to manage.
    weights:
        Mapping cost weights, or a cost following the
        :class:`~repro.core.cost.CostFunction` protocol (a ready
        :class:`MappingCost`, a
        :class:`~repro.core.objectives.CompositeCost`, ...): it is
        called per (task, element) pair with ``(app, app_id, task,
        element, state, placement, distances, context)``.  A plain
        callable taking the first seven is adapted once, here — "any
        cost function that can be defined for a platform" (Section II).
        The negative-result memo assumes the pipeline is a pure function
        of spec and allocation state: a cost that also reads mutable
        state outside the :class:`AllocationState` ledgers must
        :meth:`touch` the manager whenever those inputs change, as the
        caller updating a health registry does (see ``health``).
    mapping_options, router, sdf_options:
        Phase tunables; defaults follow the paper (BFS routing, one
        extra search ring, time-sharing SDF model).
    validation_mode:
        ``"enforce"`` rejects constraint violations, ``"report"``
        computes throughput but never rejects (the Table I protocol),
        ``"skip"`` omits the phase entirely.  Throughput is the
        layout's exact maximum cycle ratio (Section V's faster
        analysis; the paper's state-space exploration is the oracle).
    health:
        An optional :class:`~repro.resilience.HealthRegistry`.  When
        attached, the mapping cost is wrapped in a
        :class:`~repro.resilience.HealthAwareCost` — suspect, degraded
        and freshly-repaired elements carry a soft avoidance penalty,
        so placement quality degrades gracefully around flaky silicon
        — and the registry rides in the :class:`PhaseContext` for
        custom strategies to query.  Decisions are bit-identical to an
        unattached manager until the first soft penalty exists; the
        *caller* driving the registry must
        :meth:`~repro.arch.state.AllocationState.touch` the state when
        penalties change without a ledger mutation (see the registry's
        class docstring).
    obs:
        An optional :class:`repro.obs.Observability` bundle (metric
        registry + span tracer).  The default is the shared
        :data:`repro.obs.DISABLED` bundle: the memo counters still
        count (:attr:`fastpath_stats` keeps working) but nothing is
        retained for export and spans are no-ops.  Attach
        :func:`repro.obs.enabled` to collect ``gate.*``/``phase.*``
        metrics and pipeline-phase spans; observability
        never feeds back into decisions, so layouts and digests are
        bit-identical either way (see docs/observability.md).
    """

    def __init__(
        self,
        platform: Platform,
        weights: CostWeights | CostFunction = BOTH,
        mapping_options: MappingOptions = MappingOptions(),
        router: BaseRouter | None = None,
        sdf_options: SdfModelOptions = SdfModelOptions(),
        validation_mode: str = "report",
        pipeline: PhasePipeline | None = None,
        health=None,
        obs: Observability | None = None,
    ) -> None:
        if validation_mode not in VALIDATION_MODES:
            raise ValueError(
                f"validation_mode must be one of {VALIDATION_MODES}, "
                f"got {validation_mode!r}"
            )
        self.platform = platform
        self.state = AllocationState(platform)
        if isinstance(weights, CostWeights):
            self.cost = MappingCost(weights)
        elif callable(weights):
            self.cost = as_cost(weights)
        else:
            raise TypeError(
                f"weights must be CostWeights or a cost callable, "
                f"got {type(weights).__name__}"
            )
        self.health = health
        if health is not None:
            self.cost = HealthAwareCost(self.cost, health)
        self.mapping_options = mapping_options
        self.router = router or BfsRouter()
        self.sdf_options = sdf_options
        self.validation_mode = validation_mode
        #: the observability bundle (see repro.obs) — DISABLED by
        #: default: counters still count, but nothing is retained and
        #: spans are no-ops, so decisions and perf are untouched
        self.obs = DISABLED if obs is None else obs
        self._gate = AdmissionGate(self.state, self.obs.registry)
        #: the phase-strategy pipeline (see repro.api.pipeline); the
        #: default reproduces the paper's work-flow exactly — regret
        #: binding, MapApplication, the configured router instance and
        #: the maximum-cycle-ratio validator
        if pipeline is None:
            pipeline = PhasePipeline(
                binder="regret",
                mapper="kairos",
                router=self.router,
                validator=(
                    "skip" if validation_mode == "skip" else "mcr"
                ),
            )
        self.pipeline = pipeline
        self.admitted: dict[str, ExecutionLayout] = {}
        #: original specifications of admitted applications, kept so
        #: fault recovery can re-allocate without the caller having to
        #: supply them (layouts do not retain the full task graph)
        self.specifications: dict[str, Application] = {}
        self._counter = itertools.count()
        self._controller = None  # lazy AdmissionController (repro.api)

    # -- allocation --------------------------------------------------------

    def admit(self, app: Application, app_id: str | None = None):
        """One atomic admission attempt as a :class:`repro.api.Decision`
        (:meth:`repro.api.AdmissionController.admit` on this manager)."""
        return self.controller.admit(app, app_id)

    @property
    def controller(self):
        """The :class:`repro.api.AdmissionController` façade over this
        manager (created on first use; one per manager)."""
        if self._controller is None:
            from repro.api.controller import AdmissionController

            self._controller = AdmissionController.wrap(self)
        return self._controller

    def _admit_direct(
        self, app: Application, app_id: str | None = None
    ) -> ExecutionLayout:
        """One atomic allocation attempt, committed and registered.

        The hot path under the façade's ``admit()``.  Raises
        :class:`AllocationFailure` with the failing phase; the
        allocation state is untouched in that case.
        """
        layout = self._attempt(app, app_id, hold=True)
        self.admitted[layout.app_id] = layout
        self.specifications[layout.app_id] = app
        return layout

    def _attempt(
        self,
        app: Application,
        app_id: str | None = None,
        *,
        hold: bool = True,
    ) -> ExecutionLayout:
        """Memo + four phases; ``hold=False`` unwinds every mutation.

        A rejection the :class:`AdmissionGate` memo has already seen
        against this exact state is replayed before the pipeline runs
        — same phase, same decision, none of the cost.

        ``hold=True`` keeps the successful attempt's mutations (the
        admission path); ``hold=False`` is the *planning* path — the
        pipeline runs to completion, then the journal restores the
        pre-attempt state bit-exactly, so the returned layout describes
        resources that are **not** held.  Neither path registers the
        layout in :attr:`admitted` — callers do.

        An attempt must start from a committed state: inside an open
        transaction the epoch is uncommitted, and a later committed
        history can re-reach the same counter value with a different
        ledger, so the memo would replay rejections against a state it
        never observed.
        """
        if self.state.in_transaction():
            raise AllocationError(
                "admission attempts cannot start inside an open transaction"
            )
        app_id = app_id or f"{app.name}#{next(self._counter)}"
        if app_id in self.admitted:
            raise ValueError(f"app_id {app_id!r} already admitted")
        gate = self._gate
        digest = app.digest()
        # a memo hit replays a failure whose phases ran on an earlier
        # attempt — no phase ran now, so no timings are attached and
        # the latency histograms stay honest
        gate.check_memo(digest, app_id)
        try:
            app.validate()
        except TaskGraphError as exc:
            failure = AllocationFailure(
                Phase.BINDING, app_id, str(exc),
                code=ReasonCode.INVALID_SPECIFICATION,
            )
            gate.remember(digest, failure)
            raise failure from exc

        timings = PhaseTimings()
        gate.c_gate_passes.inc()
        try:
            # any exception (phase failure or bug) rolls back exactly
            # the mutations this attempt made; a plan-only attempt
            # rolls back its own success
            mark = self.state._tx_begin()
            try:
                layout = self._run_phases(app, app_id, timings)
            except BaseException:
                self.state._tx_rollback(mark)
                raise
            if hold:
                self.state._tx_commit()
            else:
                self.state._tx_rollback(mark)
        except AllocationFailure as failure:
            failure.timings = timings
            # the rollback already restored the pre-attempt epoch, so
            # the memo entry certifies this exact state
            gate.remember(digest, failure)
            raise
        return layout

    @property
    def fastpath_stats(self) -> dict:
        """The memo's counters: replayed rejections and pipeline runs."""
        gate = self._gate
        return {
            "memo_hits": gate.c_memo_hits.value,
            # bench/tracing.py reads both names below (ROADMAP 7(b)): the
            # feasibility gate is gone, and its passes are pipeline runs
            "gate_rejections": 0,
            "gate_passes": gate.c_gate_passes.value,
        }

    @property
    def distfield_stats(self) -> dict:
        # residue of the removed engine: bench/tracing.py reads these keys
        return {"hits": 0, "repairs": 0, "misses": 0}

    def _phase_context(self, app_id: str) -> PhaseContext:
        """The per-attempt dependency container the strategies receive."""
        return PhaseContext(
            app_id=app_id,
            cost=self.cost,
            mapping_options=self.mapping_options,
            sdf_options=self.sdf_options,
            validation_mode=self.validation_mode,
            health=self.health,
            obs=self.obs,
        )

    def _run_phases(
        self, app: Application, app_id: str, timings: PhaseTimings
    ) -> ExecutionLayout:
        """Binding, mapping, routing, validation — the Fig. 1 work-flow.

        Delegates to the :class:`~repro.api.pipeline.PhasePipeline`
        (strategies are swappable; the default reproduces the paper).
        Mutates the allocation state; the caller provides atomicity.
        """
        binding, mapping, routing, report = self.pipeline.run(
            app, app_id, self.state, self._phase_context(app_id), timings
        )
        return ExecutionLayout(
            app_id=app_id,
            app_name=app.name,
            binding=binding,
            placement=mapping.placement,
            routes=routing.routes,
            local_channels=routing.local_channels,
            validation=report,
            timings=timings,
        )

    # -- release -----------------------------------------------------------

    def release(self, app_id: str) -> None:
        """Free every resource of an admitted application."""
        if app_id not in self.admitted:
            raise KeyError(f"unknown app_id {app_id!r}")
        self.state.release_application(app_id)
        del self.admitted[app_id]
        self.specifications.pop(app_id, None)

    def release_all(self) -> None:
        for app_id in list(self.admitted):
            self.release(app_id)

    # -- fault recovery -------------------------------------------------------

    def stranded_by_faults(self) -> tuple[str, ...]:
        """Admitted applications touching failed elements or links."""
        stranded = set()
        failed_elements = self.state.failed_elements
        failed_links = self.state.failed_links
        for app_id, layout in self.admitted.items():
            if layout.elements_used & failed_elements:
                stranded.add(app_id)
                continue
            for route in layout.routes.values():
                touches_fault = any(
                    node in failed_elements for node in route.path
                ) or any(
                    frozenset((a, b)) in failed_links
                    for a, b in zip(route.path, route.path[1:])
                )
                if touches_fault:
                    stranded.add(app_id)
                    break
        return tuple(sorted(stranded))

    def recover(
        self,
        applications: dict[str, Application] | None = None,
        order: str = "admission",
    ) -> RecoveryOutcome:
        """Re-allocate every stranded application on the degraded platform.

        ``applications`` optionally overrides the original
        specifications by ``app_id``; when omitted (the default) the
        manager's own :attr:`specifications` registry is used, so
        ``recover()`` with no arguments is always sufficient.  Each
        stranded application is released and re-allocated from
        scratch; the pass's :class:`~repro.resilience.RecoveryOutcome`
        reports irrecoverable ones in ``lost``.

        ``order`` controls re-admission order (delegated to a
        :class:`~repro.resilience.RecoveryEngine` pass).  The default
        is ``"admission"`` — oldest admitted first, so a long-resident
        large application is re-placed before younger arrivals can
        fragment the degraded platform under it.  ``"name"`` restores
        the historical alphabetical order (the sim service's engine
        keeps it without a resilience config, so pre-resilience traces
        replay byte-exactly);
        ``"priority"`` and ``"size"`` are available for policy studies.
        For a persistent engine with a requeue and retry budget, build
        a :class:`~repro.resilience.RecoveryEngine` directly.
        """
        engine = RecoveryEngine(
            self, RecoveryPolicy(order=order, requeue=False)
        )
        return engine.recovery_pass(applications=applications)

    # -- metrics ----------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The state's capacity epoch (equal epochs ⇒ identical state)."""
        return self.state.epoch

    def touch(self) -> None:
        """Invalidate equality with every previously observed epoch."""
        self.state.touch()

    def external_fragmentation(self) -> float:
        return self.state.external_fragmentation()

    def utilization(self) -> float:
        return self.state.utilization()

    def __repr__(self) -> str:
        return (
            f"<Kairos on {self.platform.name}: {len(self.admitted)} admitted, "
            f"frag {self.external_fragmentation():.1f}%>"
        )
