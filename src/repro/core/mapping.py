"""MapApplication: the incremental mapping algorithm (paper Fig. 5).

The mapping phase assigns each task (with its implementation chosen by
the binding phase) to a concrete processing element.  The paper's
heuristic uses divide-and-conquer over the task graph:

1. Anchor: ``M0`` holds the tasks with exactly one available element
   (fixed I/O interfaces etc.).  If there are none, the task with the
   lowest degree δ(T) is anchored on the element of minimal mapping
   cost — an element "that is likely to become isolated later on, when
   it is not used now".
2. Layering: tasks are grouped into sets ``Ti`` of equal (undirected)
   graph distance ``i`` to the anchors.
3. Per layer, a ring-wise breadth-first platform search gathers
   candidate elements near the elements of the previous layer, one
   extra ring beyond sufficiency; the layer is then solved as a GAP.
   If tasks remain unmapped, the candidate set is grown ring by ring,
   reusing the GAP's incremental state, until either every task is
   mapped or the search exhausts (mapping failure).

The algorithm mutates the :class:`AllocationState` as layers commit;
callers (the manager) wrap the whole allocation attempt in a
``state.transaction()`` so failures roll back atomically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.implementations import Implementation
from repro.apps.taskgraph import Application
from repro.arch.elements import ProcessingElement
from repro.arch.state import AllocationError, AllocationState
from repro.core.cost import CostContext, CostFunction, MappingCost, as_cost
from repro.core.gap import GapSolver, KnapsackSolver
from repro.core.knapsack import solve_greedy
from repro.core.search import RingSearch, SparseDistanceMatrix
from repro.reasons import ReasonCode


class MappingError(RuntimeError):
    """The mapping phase could not place every task.

    ``code`` classifies the failure machine-readably (see
    :class:`~repro.reasons.ReasonCode`); the manager copies it onto
    the failure object / decision it produces.
    """

    def __init__(
        self, message: str, code: ReasonCode = ReasonCode.MAPPING_INFEASIBLE
    ):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class MappingOptions:
    """Tunables of the mapping phase.

    ``extra_rings`` is the paper's "single additional search step"
    performed after enough elements are found (Section III-B);
    ``respect_congestion`` makes the platform search treat saturated
    links as walls; ``max_rings`` bounds the per-layer search radius
    (None = the platform's diameter, i.e. unbounded).
    """

    extra_rings: int = 1
    respect_congestion: bool = True
    max_rings: int | None = None
    knapsack: KnapsackSolver = solve_greedy


@dataclass(frozen=True)
class LayerTrace:
    """What happened while mapping one task layer (for Fig. 2 style
    walk-throughs and the experiment statistics)."""

    index: int
    tasks: tuple[str, ...]
    origins: tuple[str, ...]
    rings_searched: int
    candidates_found: int
    gap_invocations: int
    assignment: dict[str, str]


@dataclass
class MappingResult:
    """The outcome of a successful MapApplication run (each layer's
    distance matrix is dropped with that layer's search)."""

    placement: dict[str, str]              #: task name -> element name
    anchors: dict[str, str]                #: the M0 part of the placement
    layers: list[LayerTrace] = field(default_factory=list)

    @property
    def rings_searched(self) -> int:
        return sum(layer.rings_searched for layer in self.layers)


def available_elements(
    task: str,
    implementation: Implementation,
    state: AllocationState,
) -> list[ProcessingElement]:
    """All elements that can host the bound implementation *now*.

    This is the paper's ``{e | av(e, t)}``: static compatibility of the
    implementation and sufficient free resources in the current state,
    read from the state's capacity index.
    """
    return list(state.availability.available(implementation))


def _single_available_element(
    implementation: Implementation,
    state: AllocationState,
) -> ProcessingElement | None:
    """The element of a single-option task, or None when 0 or >= 2 fit.

    Anchor detection only needs to know whether *exactly one* element
    is available, so it asks the state's
    :class:`~repro.arch.state.AvailabilityCache` — the binder's first
    round already asked for the best fit of these implementations at
    the same epoch (the binding phase makes no state mutations), so
    the common case is a dictionary hit.
    """
    count, first = state.availability.summary(implementation)
    return first if count == 1 else None


def map_application(
    app: Application,
    binding: dict[str, Implementation],
    state: AllocationState,
    cost: CostFunction | None = None,
    options: MappingOptions = MappingOptions(),
    app_id: str | None = None,
) -> MappingResult:
    """Run MapApplication (paper Fig. 5); raises :class:`MappingError`.

    ``binding`` maps every task name to its chosen implementation.
    ``cost`` is a :class:`~repro.core.cost.CostFunction` or a plain
    seven-argument cost callable (adapted here); the default is the
    paper's :class:`MappingCost`.  On success the state holds the new
    placements; on failure the state may hold partial placements of
    this app — callers should wrap the attempt in
    ``state.transaction()`` (the manager does).
    """
    cost = MappingCost() if cost is None else as_cost(cost)
    app_id = app_id or app.name
    missing = [t for t in app.tasks if t not in binding]
    if missing:
        raise MappingError(f"no binding for tasks {missing}")

    requirements = {t: binding[t].requirement for t in app.tasks}
    cost.bind_requirements(requirements)

    # static compatibility as platform-position sets: one membership
    # probe per (task, element) query instead of a runs_on call — the
    # GAP solver asks this for every task on every candidate element,
    # and every candidate comes from the platform's own tables
    element_position = state.platform._element_position
    platform = state.platform
    positions_of = {
        task: platform.static_hosts(binding[task]).positions
        for task in app.tasks
    }

    def compatible(task: str, element: ProcessingElement) -> bool:
        return element_position[id(element)] in positions_of[task]

    result = MappingResult(placement={}, anchors={})

    # ---- M0: single-option anchors (paper Fig. 5, line 2) ----------------
    anchor_pairs: list[tuple[str, ProcessingElement]] = []
    for task in sorted(app.tasks):
        anchor = _single_available_element(binding[task], state)
        if anchor is not None:
            anchor_pairs.append((task, anchor))

    # ---- empty M0: anchor the minimum-degree task (lines 3-4) ------------
    if not anchor_pairs:
        t0 = min(app.min_degree_tasks())
        impl0 = binding[t0]
        isolated_cost = cost.isolated_cost
        if isolated_cost is not None and not state.has_placements(app_id):
            # with an empty placement and no task of this application
            # placed, such a cost of an element depends only on its
            # busy-neighbour count and connectivity — a peek into the
            # state's capacity index instead of a sweep.  Other costs
            # may read anything at all, so they keep it.
            e0 = state.availability.cheapest(impl0, isolated_cost)
        else:
            distances = SparseDistanceMatrix(state.platform)
            context = CostContext(app, app_id, state, {}, distances)
            e0 = min(
                available_elements(t0, impl0, state),
                key=lambda e: (
                    cost(app, app_id, t0, e, state, {}, distances, context),
                    e.name,
                ),
                default=None,
            )
        if e0 is None:
            raise MappingError(
                f"no available element for starting task {t0!r}",
                code=ReasonCode.MAPPING_NO_ANCHOR,
            )
        anchor_pairs.append((t0, e0))

    # commit the anchors
    for task, element in anchor_pairs:
        try:
            state.occupy(element, app_id, task, requirements[task])
        except AllocationError as exc:
            raise MappingError(
                f"anchor task {task!r} does not fit on {element.name}: {exc}"
            ) from exc
        result.placement[task] = element.name
        result.anchors[task] = element.name

    # ---- layered traversal (lines 5-15) -----------------------------------
    layers = app.distance_layers(list(result.anchors))
    for index, layer in enumerate(layers):
        if index == 0:
            continue
        tasks = tuple(sorted(t for t in layer if t not in result.placement))
        if not tasks:
            continue
        trace = _map_layer(
            app, app_id, index, tasks, requirements, compatible,
            state, cost, options, result,
        )
        result.layers.append(trace)

    unmapped = [t for t in app.tasks if t not in result.placement]
    if unmapped:
        # distance_layers covers all tasks of a connected application,
        # so this is a defensive check against future model changes.
        raise MappingError(f"tasks never reached by traversal: {unmapped}")
    return result


def _map_layer(
    app: Application,
    app_id: str,
    index: int,
    tasks: tuple[str, ...],
    requirements: dict,
    compatible,
    state: AllocationState,
    cost: CostFunction,
    options: MappingOptions,
    result: MappingResult,
) -> LayerTrace:
    """Map one distance layer ``Ti`` (paper Fig. 5 inner loop)."""
    # E+/E-: elements of mapped tasks with channels into/out of this
    # layer (lines 7-8).  Platform links are full duplex, so both sets
    # seed the same search; keeping them separate here documents the
    # directed derivation.
    task_set = set(tasks)
    origins_in: set[str] = set()
    origins_out: set[str] = set()
    for channel in app.channels.values():
        if channel.source in result.placement and channel.target in task_set:
            origins_out.add(result.placement[channel.source])
        if channel.target in result.placement and channel.source in task_set:
            origins_in.add(result.placement[channel.target])
    origins = sorted(origins_in | origins_out)
    if not origins:
        # isolated layer (no mapped neighbours): fall back to the
        # elements of the previous layer / anchors
        origins = sorted(set(result.placement.values()))

    search = RingSearch(state, origins, options.respect_congestion)

    # the committed placement and the state are frozen while this
    # layer's GAP runs, so one context serves all its evaluations
    placement, distances = result.placement, search.distances
    context = CostContext(app, app_id, state, placement, distances)

    def pair_cost(task: str, element: ProcessingElement) -> float:
        return cost(
            app, app_id, task, element, state, placement, distances, context
        )

    gap = GapSolver(
        tasks, requirements, compatible, pair_cost, state,
        knapsack=options.knapsack,
    )

    element_position = state.platform._element_position
    element_ids = state.platform.element_ids
    free_by_node = state._free
    failed_elements = state._failed_elements
    #: per-task static position set + requirement components, hoisted
    #: so each candidate probe is hash-probe + a couple of compares
    task_checks = tuple(
        (compatible, task, requirements[task]._data)
        for task in tasks
    )
    # the componentwise layer-minimum lower bound is the GapSolver's —
    # one computation, one source of truth for the soundness argument
    layer_minimums = gap._min_requirement_items

    def availability(element: ProcessingElement) -> bool:
        # id-indexed free lookup with the fits check inlined — this
        # probe runs per candidate element per gathered ring; a failed
        # element offers the empty vector, as free() reports it
        element_id = element_ids[element_position[id(element)]]
        free_data = (
            {} if element_id in failed_elements
            else free_by_node[element_id]._data
        )
        for kind, quantity in layer_minimums:
            have = free_data.get(kind)
            if have is None or quantity > have:
                return False  # cannot host any task of the layer
        for is_compatible, task, requirement_data in task_checks:
            if is_compatible(task, element):
                fits = True
                for kind, quantity in requirement_data.items():
                    have = free_data.get(kind)
                    if have is None or quantity > have:
                        fits = False
                        break
                if fits:
                    return True
        return False

    candidates_found = 0
    gap_invocations = 0

    new_elements = search.gather(
        needed=len(tasks),
        availability=availability,
        extra_rings=options.extra_rings,
        max_rings=options.max_rings,
    )
    candidates_found += len(new_elements)
    gap.solve(new_elements)
    gap_invocations += 1

    while not gap.complete:
        if search.exhausted or (
            options.max_rings is not None and search.ring >= options.max_rings
        ):
            raise MappingError(
                f"layer {index}: search exhausted after {search.ring} rings "
                f"with tasks {list(gap.unmapped)} unmapped",
                code=ReasonCode.MAPPING_SEARCH_EXHAUSTED,
            )
        ring_elements = search.advance()
        if not ring_elements:
            # keep expanding through element-free rings (router rings);
            # exhaustion is handled at the top of the loop
            continue
        candidates_found += len(ring_elements)
        gap.solve(ring_elements)
        gap_invocations += 1

    # commit the layer (the GAP's tentative loads become occupancy)
    assignment = gap.assignment()
    for task in tasks:
        element_name = assignment.element_of[task]
        try:
            state.occupy(element_name, app_id, task, requirements[task])
        except AllocationError as exc:  # pragma: no cover - defensive
            raise MappingError(
                f"layer {index}: committing {task!r} to {element_name} "
                f"failed: {exc}"
            ) from exc
        result.placement[task] = element_name

    return LayerTrace(
        index=index,
        tasks=tasks,
        origins=tuple(origins),
        rings_searched=search.ring,
        candidates_found=candidates_found,
        gap_invocations=gap_invocations,
        assignment=dict(assignment.element_of),
    )
