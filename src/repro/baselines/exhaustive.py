"""Branch-and-bound optimal mapper (the paper's planned ILP comparison).

"In future research, we compare these results with an ILP formulation
to determine the quality of the resource allocations" (Section V).
This module realises that comparison for small instances: an exact
branch-and-bound over task-to-element assignments that minimises the
*total communication distance*

    J(placement) = sum over channels of hop_distance(e_src, e_dst)

subject to per-element resource capacities.  Communication distance is
the objective both the heuristic's communication term and Fig. 8
measure, and — unlike the fragmentation bonus — it is placement-order
independent, so "optimal" is well defined.

Complexity is O(|E|^|T|) in the worst case; the solver refuses
instances beyond a configurable size and is used only in tests and the
A3 ablation benchmark on small applications and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.implementations import Implementation
from repro.apps.taskgraph import Application
from repro.arch.elements import ProcessingElement
from repro.arch.state import AllocationState

#: refuse instances with more than this many task-element combinations
DEFAULT_MAX_COMBINATIONS = 5_000_000


class InstanceTooLargeError(RuntimeError):
    """The instance exceeds the exhaustive solver's budget."""


@dataclass(frozen=True)
class OptimalResult:
    placement: dict[str, str]
    cost: float
    nodes_explored: int


def communication_distance(
    app: Application,
    placement: dict[str, str],
    state: AllocationState,
) -> float:
    """Total hop distance over all channels (the exact objective)."""
    total = 0.0
    for channel in app.channels.values():
        source = placement[channel.source]
        target = placement[channel.target]
        if source == target:
            continue
        distance = state.platform.hop_distance(source, target)
        if distance < 0:
            return float("inf")
        total += distance
    return total


def optimal_map(
    app: Application,
    binding: dict[str, Implementation],
    state: AllocationState,
    max_combinations: int = DEFAULT_MAX_COMBINATIONS,
) -> OptimalResult:
    """Find the minimum-communication-distance feasible placement.

    Leaves ``state`` unchanged: the branch-and-bound tentatively
    occupies elements inside a transaction and unwinds every branch
    via savepoints.  Raises :class:`InstanceTooLargeError` when the candidate space
    exceeds ``max_combinations``, and ``ValueError`` when no feasible
    placement exists at all.
    """
    tasks = sorted(app.tasks)
    candidates: dict[str, list[ProcessingElement]] = {}
    space = 1
    for task in tasks:
        implementation = binding[task]
        options = [
            element
            for _position, element
            in state.platform.static_hosts(implementation).pairs
            if state.is_available(element, implementation.requirement)
        ]
        if not options:
            raise ValueError(f"task {task!r} has no feasible element")
        candidates[task] = options
        space *= len(options)
        if space > max_combinations:
            raise InstanceTooLargeError(
                f"{space} combinations exceed budget {max_combinations}"
            )

    # order tasks by most-constrained-first, then by degree (high-degree
    # tasks prune the distance bound fastest)
    tasks.sort(key=lambda t: (len(candidates[t]), -app.degree(t), t))

    # pairwise distance cache
    distance_cache: dict[tuple[str, str], float] = {}

    def distance(a: str, b: str) -> float:
        if a == b:
            return 0.0
        key = (a, b) if a <= b else (b, a)
        if key not in distance_cache:
            hops = state.platform.hop_distance(key[0], key[1])
            distance_cache[key] = float("inf") if hops < 0 else float(hops)
        return distance_cache[key]

    requirements = {t: binding[t].requirement for t in tasks}
    scratch_id = f"__optimal__{app.name}"

    best_cost = float("inf")
    best_placement: dict[str, str] | None = None
    nodes = 0

    placement: dict[str, str] = {}

    # incident channels per task against already-placed peers
    incident = {
        t: [
            (c.source if c.target == t else c.target)
            for c in app.incident_channels(t)
        ]
        for t in tasks
    }

    def added_cost(task: str, element_name: str) -> float:
        cost = 0.0
        for peer in incident[task]:
            peer_element = placement.get(peer)
            if peer_element is not None:
                cost += distance(element_name, peer_element)
        return cost

    def recurse(index: int, cost_so_far: float) -> None:
        nonlocal best_cost, best_placement, nodes
        if cost_so_far >= best_cost:
            return
        if index == len(tasks):
            best_cost = cost_so_far
            best_placement = dict(placement)
            return
        task = tasks[index]
        requirement = requirements[task]
        options = sorted(
            candidates[task],
            key=lambda e: (added_cost(task, e.name), e.name),
        )
        for element in options:
            if not state.is_available(element, requirement):
                continue
            delta = added_cost(task, element.name)
            nodes += 1
            placement[task] = element.name
            mark = state.savepoint()
            state.occupy(element, scratch_id, task, requirement)
            recurse(index + 1, cost_so_far + delta)
            state.rollback_to(mark)
            del placement[task]

    # explore over the live state inside a transaction: each branch
    # occupies tentatively and unwinds via savepoints, so av(e, t) is
    # evaluated by the same ledger logic the run-time manager uses and
    # the state is bit-identical afterwards (wear included)
    with state.transaction():
        recurse(0, 0.0)
    if best_placement is None:
        raise ValueError(f"no feasible placement for {app.name!r}")
    return OptimalResult(best_placement, best_cost, nodes)
