"""The phase-strategy registry and the :class:`PhasePipeline`.

The paper's work-flow (Fig. 1) is four phases — binding, mapping,
routing, validation — and until this module every alternative
algorithm for a phase was a parallel code path: the manager hardcoded
``bind`` / ``map_application`` / a router object / ``validate_layout``
while :mod:`repro.baselines` offered first-fit, random, annealing and
branch-and-bound mappers behind different call conventions.

Here each phase becomes a *named strategy* with one uniform signature,
resolved from a registry:

* **binder**\\ ``(app, state, ctx) -> dict[task, Implementation]``
* **mapper**\\ ``(app, binding, state, ctx) -> MappingResult``
* **router**\\ ``(app, placement, state, ctx) -> RoutingResult``
* **validator**\\ ``(app, binding, mapping, routing, state, ctx) ->
  ValidationReport | None``

``ctx`` is a :class:`PhaseContext` — the state-container-injection
shape: one object carrying the cost callable, phase options and the
attempt's ``app_id``, so a strategy never reaches back into the
manager.

A :class:`PhasePipeline` bundles one strategy per phase (plus per-
strategy keyword parameters) and runs them in order with per-phase
wall-clock timing, translating each phase error into an
:class:`~repro.manager.layout.AllocationFailure` tagged with the
failing :class:`~repro.manager.layout.Phase` and its
:class:`~repro.reasons.ReasonCode` — exactly the behaviour
``Kairos._run_phases`` had, now swappable piecewise.

Register your own strategy with the ``register_*`` decorators::

    from repro.api import register_mapper

    @register_mapper("my_mapper")
    def my_mapper(app, binding, state, ctx):
        ...  # occupy elements, return MappingResult

    controller = AdmissionController(platform,
                                     pipeline=PhasePipeline(mapper="my_mapper"))
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.implementations import Implementation
from repro.apps.taskgraph import Application
from repro.arch.state import AllocationError, AllocationState
from repro.baselines.annealing import annealed_map
from repro.baselines.exhaustive import (
    InstanceTooLargeError,
    optimal_map,
)
from repro.baselines.first_fit import first_fit_map
from repro.baselines.random_map import random_map
from repro.binding.binder import BindingError, bind
from repro.core.mapping import (
    MappingError,
    MappingOptions,
    MappingResult,
    map_application,
)
from repro.manager.layout import AllocationFailure, Phase, PhaseTimings
from repro.obs import DISABLED, Observability
from repro.reasons import ReasonCode
from repro.routing.router import (
    BaseRouter,
    BfsRouter,
    DijkstraRouter,
    RoutingError,
    RoutingResult,
)
from repro.validation.builder import SdfModelOptions
from repro.validation.validator import validate_layout

__all__ = [
    "PhaseContext",
    "PhasePipeline",
    "available_strategies",
    "register_binder",
    "register_mapper",
    "register_router",
    "register_validator",
]


@dataclass
class PhaseContext:
    """Per-attempt dependency container injected into every strategy.

    One instance travels through all four phases of one attempt; it is
    the only channel between the manager's configuration and the
    strategies, so a pipeline can be rehosted (sim service, CLI,
    experiments, tests) without re-plumbing keyword arguments.
    """

    app_id: str
    #: the mapping cost (a CostFunction: MappingCost, CompositeCost, ...)
    cost: Any = None
    mapping_options: MappingOptions = field(default_factory=MappingOptions)
    sdf_options: SdfModelOptions = field(default_factory=SdfModelOptions)
    validation_mode: str = "report"
    #: binder quality weight (see repro.binding.binder.bind)
    quality_weight: float = 0.0
    #: the manager's HealthRegistry (None when resilience is off) —
    #: custom strategies may query element/link health; the default
    #: mapping cost already carries its soft penalties via
    #: :class:`~repro.resilience.HealthAwareCost`
    health: Any = None
    #: the manager's observability bundle (repro.obs) — DISABLED by
    #: default; the pipeline publishes ``phase.*.seconds`` histograms
    #: and phase spans through it, and custom strategies may add their
    #: own metrics/spans (never read them back into decisions)
    obs: Observability = DISABLED


# -- the registry ------------------------------------------------------------

_BINDERS: dict[str, Callable] = {}
_MAPPERS: dict[str, Callable] = {}
_ROUTERS: dict[str, Callable] = {}
_VALIDATORS: dict[str, Callable] = {}

_KIND_TABLES = {
    "binder": _BINDERS,
    "mapper": _MAPPERS,
    "router": _ROUTERS,
    "validator": _VALIDATORS,
}


def _register(table: dict[str, Callable], name: str) -> Callable:
    def decorate(strategy: Callable) -> Callable:
        if name in table:
            raise ValueError(f"strategy {name!r} is already registered")
        table[name] = strategy
        return strategy

    return decorate


def register_binder(name: str) -> Callable:
    """Decorator: register ``fn(app, state, ctx) -> binding dict``."""
    return _register(_BINDERS, name)


def register_mapper(name: str) -> Callable:
    """Decorator: register ``fn(app, binding, state, ctx) -> MappingResult``."""
    return _register(_MAPPERS, name)


def register_router(name: str) -> Callable:
    """Decorator: register ``fn(app, placement, state, ctx) -> RoutingResult``."""
    return _register(_ROUTERS, name)


def register_validator(name: str) -> Callable:
    """Decorator: register ``fn(app, binding, mapping, routing, state, ctx)``."""
    return _register(_VALIDATORS, name)


def available_strategies() -> dict[str, tuple[str, ...]]:
    """Registered strategy names per phase kind (for CLIs and docs)."""
    return {
        kind: tuple(sorted(table)) for kind, table in _KIND_TABLES.items()
    }


def _resolve(kind: str, name: str) -> Callable:
    table = _KIND_TABLES[kind]
    strategy = table.get(name)
    if strategy is None:
        raise ValueError(
            f"unknown {kind} strategy {name!r}; registered: {sorted(table)}"
        )
    return strategy


# -- built-in strategies -----------------------------------------------------


@register_binder("regret")
def _regret_binder(app, state, ctx, **params):
    """The paper's regret-ordered implementation selection."""
    result = bind(app, state, quality_weight=ctx.quality_weight, **params)
    return result.choice


@register_mapper("kairos")
def _kairos_mapper(app, binding, state, ctx, **params):
    """MapApplication (ring search + GAP + two-objective cost)."""
    return map_application(
        app, binding, state,
        cost=ctx.cost, options=ctx.mapping_options,
        app_id=ctx.app_id, **params,
    )


@register_mapper("first_fit")
def _first_fit_mapper(app, binding, state, ctx, **params):
    """Plain first-fit (ablation A3's strawman) as a pipeline strategy."""
    return first_fit_map(app, binding, state, app_id=ctx.app_id, **params)


@register_mapper("random")
def _random_mapper(app, binding, state, ctx, *, seed: int = 0, **params):
    """Uniformly random feasible placement (the sanity floor)."""
    return random_map(
        app, binding, state, seed=seed, app_id=ctx.app_id, **params
    )


@register_mapper("annealing")
def _annealing_mapper(app, binding, state, ctx, **params):
    """Simulated-annealing placement (the design-time comparator)."""
    return annealed_map(app, binding, state, app_id=ctx.app_id, **params)


@register_mapper("optimal")
def _optimal_mapper(app, binding, state, ctx, **params):
    """Branch-and-bound optimum, committed into the state like the others.

    :func:`~repro.baselines.exhaustive.optimal_map` deliberately leaves
    the state untouched; as a pipeline strategy its winning placement
    is occupied here so the routing phase sees the same contract every
    other mapper provides.  Oversized instances and infeasible apps
    surface as :class:`MappingError` (→ a mapping-phase failure), not
    as foreign exception types.
    """
    try:
        solution = optimal_map(app, binding, state, **params)
    except (InstanceTooLargeError, ValueError) as exc:
        raise MappingError(str(exc)) from exc
    result = MappingResult(placement={}, anchors={})
    for task in sorted(solution.placement):
        element = solution.placement[task]
        try:
            state.occupy(element, ctx.app_id, task, binding[task].requirement)
        except AllocationError as exc:  # pragma: no cover - solver-verified
            raise MappingError(str(exc)) from exc
        result.placement[task] = element
    return result


def _route_with(router: BaseRouter, app, placement, state, ctx) -> RoutingResult:
    return router.route_application(
        app, placement, state, app_id=ctx.app_id
    )


@register_router("bfs")
def _bfs_router(app, placement, state, ctx, **params):
    """Breadth-first routing (the paper's default)."""
    return _route_with(BfsRouter(**params), app, placement, state, ctx)


@register_router("dijkstra")
def _dijkstra_router(app, placement, state, ctx, **params):
    """Congestion-aware Dijkstra routing (the comparator)."""
    return _route_with(DijkstraRouter(**params), app, placement, state, ctx)


@register_validator("mcr")
def _mcr_validator(app, binding, mapping, routing, state, ctx, **params):
    """Exact maximum-cycle-ratio throughput of the layout (Section V)."""
    return validate_layout(
        app, binding, mapping.placement, routing.routes, state,
        options=ctx.sdf_options, **params,
    )


@register_validator("skip")
def _skip_validator(app, binding, mapping, routing, state, ctx, **params):
    """Omit the validation phase entirely (no report, no timing)."""
    return None


# -- the pipeline ------------------------------------------------------------


class PhasePipeline:
    """One strategy per phase, run in the Fig. 1 order with timing.

    Parameters are strategy *names* (resolved against the registry) or
    direct callables with the strategy signature; ``router`` also
    accepts a ready :class:`~repro.routing.router.BaseRouter` instance
    (the manager's pre-PR 5 calling convention).  ``*_params`` are
    keyword arguments forwarded to the strategy on every call — e.g.
    ``mapper="random", mapper_params={"seed": 7}``.

    :meth:`run` mutates ``state`` (occupations + route reservations);
    the caller provides atomicity, exactly as with the old
    ``Kairos._run_phases``.
    """

    def __init__(
        self,
        binder: str | Callable = "regret",
        mapper: str | Callable = "kairos",
        router: str | Callable | BaseRouter = "bfs",
        validator: str | Callable = "mcr",
        binder_params: dict | None = None,
        mapper_params: dict | None = None,
        router_params: dict | None = None,
        validator_params: dict | None = None,
    ) -> None:
        self.binder_name = binder if isinstance(binder, str) else getattr(
            binder, "__name__", "custom")
        self.mapper_name = mapper if isinstance(mapper, str) else getattr(
            mapper, "__name__", "custom")
        self.validator_name = (
            validator if isinstance(validator, str)
            else getattr(validator, "__name__", "custom")
        )
        self.binder = _resolve("binder", binder) if isinstance(
            binder, str) else binder
        self.mapper = _resolve("mapper", mapper) if isinstance(
            mapper, str) else mapper
        if isinstance(router, BaseRouter):
            instance = router
            self.router = (
                lambda app, placement, state, ctx, **params:
                _route_with(instance, app, placement, state, ctx)
            )
            self.router_name = type(router).__name__
            self.router_instance: BaseRouter | None = router
        else:
            self.router = _resolve("router", router) if isinstance(
                router, str) else router
            self.router_name = router if isinstance(router, str) else getattr(
                router, "__name__", "custom")
            self.router_instance = None
        self.validator = _resolve("validator", validator) if isinstance(
            validator, str) else validator
        self.binder_params = dict(binder_params or {})
        self.mapper_params = dict(mapper_params or {})
        self.router_params = dict(router_params or {})
        self.validator_params = dict(validator_params or {})

    def describe(self) -> dict[str, str]:
        """Strategy names per phase (diagnostics, docs, CLI)."""
        return {
            "binder": self.binder_name,
            "mapper": self.mapper_name,
            "router": self.router_name,
            "validator": self.validator_name,
        }

    def run(
        self,
        app: Application,
        app_id: str,
        state: AllocationState,
        ctx: PhaseContext,
        timings: PhaseTimings,
    ):
        """Binding, mapping, routing, validation — one attempt.

        Returns ``(binding, mapping, routing, report)``; raises
        :class:`AllocationFailure` tagged with the failing phase and
        reason code.  Mutates ``state``; the caller provides atomicity.
        """
        obs = ctx.obs
        tracer = obs.tracer
        registry = obs.registry

        # 1. binding
        started = time.perf_counter()
        try:
            with tracer.span("phase.binding"):
                binding = self.binder(app, state, ctx, **self.binder_params)
        except BindingError as exc:
            raise AllocationFailure(
                Phase.BINDING, app_id, str(exc),
                code=getattr(exc, "code", None),
            ) from exc
        finally:
            elapsed = time.perf_counter() - started
            timings.record(Phase.BINDING, elapsed)
            registry.histogram("phase.binding.seconds").observe(elapsed)

        # 2. mapping
        started = time.perf_counter()
        try:
            with tracer.span("phase.mapping"):
                mapping = self.mapper(
                    app, binding, state, ctx, **self.mapper_params
                )
        except MappingError as exc:
            raise AllocationFailure(
                Phase.MAPPING, app_id, str(exc),
                code=getattr(exc, "code", None),
            ) from exc
        finally:
            elapsed = time.perf_counter() - started
            timings.record(Phase.MAPPING, elapsed)
            registry.histogram("phase.mapping.seconds").observe(elapsed)

        # 3. routing
        started = time.perf_counter()
        try:
            with tracer.span("phase.routing"):
                routing = self.router(
                    app, mapping.placement, state, ctx, **self.router_params
                )
        except RoutingError as exc:
            raise AllocationFailure(
                Phase.ROUTING, app_id, str(exc),
                code=getattr(exc, "code", None),
            ) from exc
        finally:
            elapsed = time.perf_counter() - started
            timings.record(Phase.ROUTING, elapsed)
            registry.histogram("phase.routing.seconds").observe(elapsed)

        # 4. validation (the "skip" strategy records no timing at all,
        # matching the manager's historical validation_mode="skip")
        report = None
        if self.validator is not _skip_validator:
            started = time.perf_counter()
            try:
                with tracer.span("phase.validation"):
                    report = self.validator(
                        app, binding, mapping, routing, state, ctx,
                        **self.validator_params,
                    )
            finally:
                elapsed = time.perf_counter() - started
                timings.record(Phase.VALIDATION, elapsed)
                registry.histogram(
                    "phase.validation.seconds"
                ).observe(elapsed)
            if (
                report is not None
                and ctx.validation_mode == "enforce"
                and not report.satisfied
            ):
                reasons = "; ".join(
                    f"{c.constraint.describe()} (achieved {c.achieved:g})"
                    for c in report.violations()
                ) or "deadlocked dataflow graph"
                code = (
                    ReasonCode.VALIDATION_CONSTRAINT
                    if report.violations()
                    else ReasonCode.VALIDATION_DEADLOCK
                )
                raise AllocationFailure(
                    Phase.VALIDATION, app_id, reasons, code=code
                )

        return binding, mapping, routing, report
