"""Outside-in instrumentation: wrap public callables, run, restore.

Nothing under ``src/`` knows about the benchmark.  A :class:`Probe`
names one public callable of one layer; :func:`instrumented` replaces
it (on the class, or in every loaded ``repro`` module that imported
the function) by a wrapper that records into a :class:`Recorder`, and
puts the original object back on exit.

Two wrapper kinds:

* a **span** wrapper records ``(name, start, end, parent, ident,
  failed, extra)`` — ``parent`` is the index of the span that was open
  when the call started (the recorder keeps a stack), ``ident`` the
  request's ``app_id`` where the callable receives one, ``failed``
  whether the call raised, ``extra`` one value picked from the result;
* a **count** wrapper only increments a counter — for callables too
  hot to time (a timed span costs about a microsecond).

The end-to-end runs use the same mechanism with a two-probe list (the
admission façade and the timed section's root), so an operation's
latency is measured identically with and without the layer probes.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# -- what a probe extracts ---------------------------------------------------

#: ``extra`` of a façade span: how the decision was reached
REJECTED, ADMITTED, MEMOIZED, GATED = range(4)


def _rejection_code(outcome) -> int:
    """``outcome`` is a rejected ``Decision`` or an ``AllocationFailure``
    (both carry the fast-path flags)."""
    if outcome.memoized:
        return MEMOIZED
    if outcome.gated:
        return GATED
    return REJECTED


def decision_code(decision) -> int:
    return ADMITTED if decision.admitted else _rejection_code(decision)


def plan_code(plan) -> int | None:
    """Like :func:`decision_code` for ``Shard.plan`` / ``controller.plan``
    (``None`` for the down-shard ``None`` plan)."""
    if plan is None:
        return None
    if plan.failure is None:
        return ADMITTED
    return _rejection_code(plan.failure)


def _app_id_arg(position: int) -> Callable:
    def ident(args, kwargs):
        if len(args) > position:
            return args[position]
        return kwargs.get("app_id")
    return ident


def _request_ident(args, kwargs):
    """``app_id`` of the request (or plan) passed as first argument."""
    return args[1].app_id


def _rings_searched(result) -> int:
    return result.rings_searched


@dataclass(frozen=True)
class Probe:
    """One wrapped public callable.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    A method is wrapped on the class and on every subclass that
    overrides it; a function in every loaded ``repro`` module that
    holds a reference to it.  ``layer`` is the ledger row the span's
    self time belongs to (``None`` for count probes).
    """

    name: str
    target: str
    layer: str | None = None
    ident: Callable | None = None
    extra: Callable | None = None
    count_only: bool = False
    #: the span is the timed section (see :meth:`Recorder.span`)
    root: bool = False


def _span(name, layer, target, ident=None, extra=None) -> Probe:
    return Probe(name, target, layer, ident, extra)


def _count(name, target) -> Probe:
    return Probe(name, target, count_only=True)


ROOT_SIM = "sim.events.run"
ROOT_HARNESS = "bench.timed"
FACADE_API = "api.admit"
FACADE_CLUSTER = "cluster.admit"

_KERNEL_RUN = Probe(
    ROOT_SIM, "repro.sim.events:EventKernel.run", "sim.events", root=True
)
_API_ADMIT = _span(
    FACADE_API, "manager", "repro.api.controller:AdmissionController.admit",
    ident=_app_id_arg(2), extra=decision_code,
)
_CLUSTER_ADMIT = _span(
    FACADE_CLUSTER, "cluster", "repro.cluster.service:ClusterManager.admit",
    ident=_app_id_arg(2), extra=decision_code,
)

#: knapsack oracles are held by reference (``MappingOptions.knapsack``),
#: so they are wrapped where a ``GapSolver`` receives them
_KNAPSACK_SOLVERS = ("solve_greedy", "solve_dp", "solve_exhaustive")

#: every layer boundary of the traced run, outermost layer first
LAYER_PROBES: tuple[Probe, ...] = (
    _KERNEL_RUN,
    _span("sim.service.offer", "sim.service",
          "repro.sim.service:AdmissionService.offer", ident=_request_ident),
    _span("sim.service.reoffer", "sim.service",
          "repro.sim.service:AdmissionService.reoffer", ident=_request_ident),
    _span("sim.service.try_admit", "sim.service",
          "repro.sim.service:AdmissionService.try_admit",
          ident=_request_ident),
    _span("sim.service.sample", "sim.service",
          "repro.sim.service:AdmissionService.sample"),
    _span("sim.service.on_rejected", "sim.service",
          "repro.sim.service:QueuePolicy.on_rejected"),
    _span("sim.service.on_capacity_freed", "sim.service",
          "repro.sim.service:QueuePolicy.on_capacity_freed"),
    _CLUSTER_ADMIT,
    _span("cluster.shard.admit", "cluster",
          "repro.cluster.shard:Shard.admit", ident=_app_id_arg(2)),
    _span("cluster.shard.plan", "cluster",
          "repro.cluster.shard:Shard.plan", ident=_app_id_arg(2),
          extra=plan_code),
    _span("cluster.shard.commit", "cluster",
          "repro.cluster.shard:Shard.commit", ident=_request_ident),
    _span("cluster.admit_split", "cluster",
          "repro.cluster.coordinator:ClusterCoordinator.admit_split",
          ident=_app_id_arg(2)),
    _API_ADMIT,
    # plan/commit run the same manager code as admit; only the
    # cross-shard split uses them, and without these two spans that
    # manager time would be booked on the cluster layer
    _span("api.plan", "manager",
          "repro.api.controller:AdmissionController.plan",
          ident=_app_id_arg(2), extra=plan_code),
    _span("api.commit", "manager",
          "repro.api.controller:AdmissionController.commit",
          ident=_request_ident, extra=decision_code),
    _span("manager.release", "manager",
          "repro.manager.kairos:Kairos.release", ident=_app_id_arg(1)),
    _span("binding.bind", "binding", "repro.binding.binder:bind"),
    _span("mapping.map_application", "core.mapping",
          "repro.core.mapping:map_application", extra=_rings_searched),
    _span("core.search.advance", "core.search",
          "repro.core.search:RingSearch.advance"),
    _span("core.search.gather", "core.search",
          "repro.core.search:RingSearch.gather"),
    _span("core.gap.solve", "core.gap", "repro.core.gap:GapSolver.solve"),
    _count("core.cost.evals", "repro.core.cost:MappingCost.__call__"),
    _span("routing.route_application", "routing",
          "repro.routing.router:BaseRouter.route_application"),
    _count("routing.path_searches",
           "repro.routing.router:BaseRouter.find_path_ids"),
    _span("validation.validate_layout", "validation",
          "repro.validation.validator:validate_layout"),
    _count("arch.state.occupy_calls",
           "repro.arch.state:AllocationState.occupy"),
    _count("arch.state.vacate_calls",
           "repro.arch.state:AllocationState.vacate"),
    _count("arch.state.reserve_calls",
           "repro.arch.state:AllocationState.reserve_route_ids"),
    _count("arch.state.release_calls",
           "repro.arch.state:AllocationState.release_route"),
    _count("arch.state.availability_lookups",
           "repro.arch.state:AvailabilityCache.summary"),
    _count("arch.state.availability_lookups",
           "repro.arch.state:AvailabilityCache.best_fit"),
    _count("arch.state.availability_lookups",
           "repro.arch.state:AvailabilityCache.available"),
)

KNAPSACK_SPAN = "core.knapsack.solve"

#: span name -> ledger layer
LAYER_OF = {
    probe.name: probe.layer for probe in LAYER_PROBES if probe.layer
}
LAYER_OF[KNAPSACK_SPAN] = "core.knapsack"


def facade_probes(facade: str) -> tuple[Probe, ...]:
    """The two probes of an end-to-end run: timed-section root + façade."""
    admit = _CLUSTER_ADMIT if facade == FACADE_CLUSTER else _API_ADMIT
    return (_KERNEL_RUN, admit)


# -- the recorder ------------------------------------------------------------


def _manager_stats(manager) -> dict:
    """The public counters of one ``Kairos`` (gate, distance field) or
    one ``ClusterManager`` (its ``summary()``)."""
    if hasattr(manager, "shards"):
        summary = manager.summary()
        return {
            "cluster_spillovers": summary["spillovers"],
            "cluster_splits": summary["splits"],
        }
    gate = manager.fastpath_stats
    field = manager.distfield_stats
    return {
        "memo_hits": gate["memo_hits"],
        "gate_rejections": gate["gate_rejections"],
        "gate_passes": gate["gate_passes"],
        "distfield_hits": field["hits"],
        "distfield_repairs": field["repairs"],
        "distfield_misses": field["misses"],
    }


class Recorder:
    """Spans and counters of one lap, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        #: live counters of the count probes
        self.counts: dict[str, int] = {}
        #: every ``Kairos`` and ``ClusterManager`` constructed while the
        #: hooks are installed
        self.managers: list = []
        #: counters and summed manager counters of the timed section
        #: only (frozen when the root span closes)
        self.timed_counts: dict[str, int] = {}
        self.timed_manager_stats: dict[str, int] = {}

    def reset(self) -> None:
        # in place: the installed wrappers hold these very objects
        del self.spans[:]
        del self._stack[:]
        del self.managers[:]
        self.timed_counts = {}
        self.timed_manager_stats = {}

    @contextmanager
    def span(self, name: str):
        """The root span: the timed section of a lap.

        Counters start from zero here and are frozen on exit, and the
        counters of managers built during set-up are subtracted, so
        set-up work (the ``paper_seq_crisp`` dataset filter) and the
        post-run drain never reach a per-layer count.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        for key in counts:
            counts[key] = 0
        before = [_manager_stats(manager) for manager in self.managers]
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        failed = True
        try:
            yield index
            failed = False
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, None, failed, None)
            self.timed_counts = dict(counts)
            totals: dict[str, int] = {}
            for sign, rows in (
                (1, map(_manager_stats, self.managers)), (-1, before)
            ):
                for row in rows:
                    for key, value in row.items():
                        totals[key] = totals.get(key, 0) + sign * value
            self.timed_manager_stats = totals

    # -- wrapper factories ---------------------------------------------------

    def root_wrapper(self, probe_name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(probe_name):
                return fn(*args, **kwargs)

        return wrapper

    def span_wrapper(self, probe_name, fn, ident=None, extra=None):
        spans, stack, clock = self.spans, self._stack, perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[index] = (
                    probe_name, start, end, parent,
                    ident(args, kwargs) if ident is not None else None,
                    True, None,
                )
                raise
            end = clock()
            stack.pop()
            spans[index] = (
                probe_name, start, end, parent,
                ident(args, kwargs) if ident is not None else None,
                False,
                extra(result) if extra is not None else None,
            )
            return result

        return wrapper

    def count_wrapper(self, probe_name, fn):
        counts = self.counts
        counts.setdefault(probe_name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[probe_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, probe: Probe, fn):
        if probe.count_only:
            return self.count_wrapper(probe.name, fn)
        if probe.root:
            return self.root_wrapper(probe.name, fn)
        return self.span_wrapper(probe.name, fn, probe.ident, probe.extra)


def span_wrapper_cost(calls: int = 20000) -> float:
    """Seconds one span wrapper adds around a call (the allowance of the
    cross-check against the program's own phase timers)."""
    def nothing():
        return None

    wrapped = Recorder().span_wrapper("calibration", nothing)
    start = perf_counter()
    for _ in range(calls):
        nothing()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (perf_counter() - start - bare) / calls)


# -- installing and restoring ------------------------------------------------


def _family(cls) -> list:
    found, queue = [], [cls]
    while queue:
        klass = queue.pop()
        found.append(klass)
        queue.extend(klass.__subclasses__())
    return found


def _install(target: str, make_wrapper: Callable, undo: list) -> None:
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        for klass in _family(getattr(module, owner_name)):
            original = klass.__dict__.get(attr)
            if original is not None:
                setattr(klass, attr, make_wrapper(original))
                undo.append((klass, attr, original))
        return
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for holder in list(sys.modules.values()):
        name = getattr(holder, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, key, wrapper)
                undo.append((holder, key, original))


def _install_hooks(recorder: Recorder, undo: list) -> None:
    """The constructor hooks of a traced run.

    ``GapSolver.__init__``: swap the knapsack oracle it was handed for
    its span-wrapped twin.  ``Kairos.__init__`` and
    ``ClusterManager.__init__``: remember the manager, whose public
    ``fastpath_stats`` / ``distfield_stats`` / ``summary()`` are read
    when the timed section ends.
    """
    from repro.core import knapsack

    twins = {}
    for name in _KNAPSACK_SOLVERS:
        solver = getattr(knapsack, name)
        twins[solver] = recorder.span_wrapper(KNAPSACK_SPAN, solver)

    def hook_gap(init):
        @functools.wraps(init)
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.knapsack = twins.get(self.knapsack, self.knapsack)
        return __init__

    def hook_manager(init):
        managers = recorder.managers

        @functools.wraps(init)
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            managers.append(self)
        return __init__

    _install("repro.core.gap:GapSolver.__init__", hook_gap, undo)
    _install("repro.manager.kairos:Kairos.__init__", hook_manager, undo)
    _install(
        "repro.cluster.service:ClusterManager.__init__", hook_manager, undo
    )


@contextmanager
def instrumented(recorder: Recorder, probes, hooks: bool = False):
    """Install ``probes`` (and the traced-run hooks), restore on exit."""
    undo: list = []
    try:
        for probe in probes:
            _install(
                probe.target,
                lambda fn, probe=probe: recorder.wrap(probe, fn),
                undo,
            )
        if hooks:
            _install_hooks(recorder, undo)
        yield recorder
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
