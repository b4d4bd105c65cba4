"""Simulated-annealing mapper: the slow-but-thorough comparator.

Design-time mapping flows (the tool-chains of the paper's Section I)
can afford search-based optimisation that run-time management cannot.
This baseline brackets the incremental heuristic from the other side
than :mod:`repro.baselines.exhaustive`: it usually beats first-fit and
random comfortably, approaches the branch-and-bound optimum on small
instances given enough iterations, and costs orders of magnitude more
time than MapApplication — which is exactly the trade-off that makes
the paper's low-complexity heuristic interesting.

Objective: total communication distance (the same placement-order-free
objective the exact solver optimises), over feasible placements only.
Moves: relocate one task to another feasible element, or swap two
tasks when both destinations stay feasible.  Cooling: geometric.
Deterministic for a given seed.
"""

from __future__ import annotations

import math
import random

from repro.apps.implementations import Implementation
from repro.apps.taskgraph import Application
from repro.arch.resources import ResourceVector
from repro.arch.state import AllocationError, AllocationState
from repro.core.mapping import MappingError, MappingResult


def _distance(state: AllocationState, cache: dict, a: str, b: str) -> float:
    if a == b:
        return 0.0
    key = (a, b) if a <= b else (b, a)
    value = cache.get(key)
    if value is None:
        hops = state.platform.hop_distance(key[0], key[1])
        value = float("inf") if hops < 0 else float(hops)
        cache[key] = value
    return value


def _total_cost(app, placement, state, cache) -> float:
    return sum(
        _distance(state, cache, placement[c.source], placement[c.target])
        for c in app.channels.values()
    )


def annealed_map(
    app: Application,
    binding: dict[str, Implementation],
    state: AllocationState,
    seed: int = 0,
    iterations: int = 2000,
    initial_temperature: float = 10.0,
    cooling: float = 0.995,
    app_id: str | None = None,
) -> MappingResult:
    """Simulated-annealing placement minimising communication distance.

    Starts from a random feasible placement, anneals, then commits the
    best placement found into ``state`` (like the other mappers).
    Raises :class:`MappingError` when no feasible start exists.
    """
    if not 0 < cooling < 1:
        raise ValueError("cooling must be in (0, 1)")
    app_id = app_id or app.name
    rng = random.Random(seed)
    cache: dict = {}

    # feasible candidate elements per task (static compatibility +
    # current free capacity; intra-solution capacity handled below)
    candidates = {}
    for task in sorted(app.tasks):
        implementation = binding[task]
        options = [
            e.name
            for _position, e
            in state.platform.static_hosts(implementation).pairs
            if state.is_available(e, implementation.requirement)
        ]
        if not options:
            raise MappingError(f"annealing: no element for task {task!r}")
        candidates[task] = options

    requirements = {t: binding[t].requirement for t in app.tasks}

    def feasible(placement: dict[str, str]) -> bool:
        load: dict[str, ResourceVector] = {}
        for task, element in placement.items():
            load[element] = load.get(element, ResourceVector()) + requirements[task]
        return all(
            load_vector.fits_in(state.free(element))
            for element, load_vector in load.items()
        )

    # random feasible start (retry a bounded number of times)
    placement: dict[str, str] | None = None
    for _attempt in range(200):
        trial = {t: rng.choice(candidates[t]) for t in candidates}
        if feasible(trial):
            placement = trial
            break
    if placement is None:
        raise MappingError("annealing: no feasible random start found")

    best = dict(placement)
    best_cost = current_cost = _total_cost(app, placement, state, cache)
    temperature = initial_temperature
    tasks = sorted(app.tasks)

    for _step in range(iterations):
        task = rng.choice(tasks)
        if len(tasks) > 1 and rng.random() < 0.3:
            # swap move
            other = rng.choice(tasks)
            if other == task:
                continue
            trial = dict(placement)
            trial[task], trial[other] = trial[other], trial[task]
        else:
            # relocate move
            trial = dict(placement)
            trial[task] = rng.choice(candidates[task])
        if not feasible(trial):
            continue
        trial_cost = _total_cost(app, trial, state, cache)
        delta = trial_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            placement = trial
            current_cost = trial_cost
            if current_cost < best_cost:
                best = dict(placement)
                best_cost = current_cost
        temperature *= cooling

    result = MappingResult(placement={}, anchors={})
    # commit atomically: a mid-commit failure leaves no partial placement
    with state.transaction():
        for task in tasks:
            element = best[task]
            try:
                state.occupy(element, app_id, task, requirements[task])
            except AllocationError as exc:  # pragma: no cover - feasible()
                raise MappingError(str(exc)) from exc   # guards this
            result.placement[task] = element
    return result
