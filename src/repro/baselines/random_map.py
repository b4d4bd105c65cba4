"""Random feasible mapper: the sanity floor of the mapping comparison.

Any locality-aware heuristic must comfortably beat a mapper that
scatters tasks uniformly over the available elements; the ablation
benchmarks include this floor so regressions in the incremental
algorithm are visible as a shrinking gap.
"""

from __future__ import annotations

import random

from repro.apps.implementations import Implementation
from repro.apps.taskgraph import Application
from repro.arch.state import AllocationError, AllocationState
from repro.core.mapping import MappingError, MappingResult


def random_map(
    app: Application,
    binding: dict[str, Implementation],
    state: AllocationState,
    seed: int = 0,
    app_id: str | None = None,
) -> MappingResult:
    """Assign each task to a uniformly random available element.

    Deterministic for a given ``seed``.  Raises :class:`MappingError`
    when a task has no available element at its turn.  Mutates
    ``state``; callers snapshot/restore around failures.
    """
    app_id = app_id or app.name
    rng = random.Random(seed)
    result = MappingResult(placement={}, anchors={})
    for task in sorted(app.tasks):
        implementation = binding[task]
        candidates = [
            element
            for _position, element
            in state.platform.static_hosts(implementation).pairs
            if state.is_available(element, implementation.requirement)
        ]
        if not candidates:
            raise MappingError(
                f"random map: no element available for task {task!r}"
            )
        chosen = rng.choice(candidates)
        try:
            state.occupy(chosen, app_id, task, implementation.requirement)
        except AllocationError as exc:  # pragma: no cover - guarded above
            raise MappingError(str(exc)) from exc
        result.placement[task] = chosen.name
    return result
