"""First-fit baseline mapper.

The paper's "None" configuration disables the cost function, so the
mapping "depends on the communication minimization that is inherent to
the resulting first-fit search method" (Section IV).  Running
MapApplication with zero weights reproduces that exactly; this module
additionally provides a *plain* first-fit mapper that skips the GAP
machinery altogether — tasks are taken in breadth-first task-graph
order and dropped onto the first element (in platform scan order) that
can host them.  It is the classic strawman against which the
incremental algorithm's locality awareness is measured (ablation A3).
"""

from __future__ import annotations

from collections import deque

from repro.apps.implementations import Implementation
from repro.apps.taskgraph import Application
from repro.arch.state import AllocationError, AllocationState
from repro.core.mapping import MappingError, MappingResult


def first_fit_map(
    app: Application,
    binding: dict[str, Implementation],
    state: AllocationState,
    app_id: str | None = None,
) -> MappingResult:
    """Map tasks first-fit without any locality reasoning.

    Tasks are visited in BFS order from the (alphabetically first)
    minimum-degree task; elements are scanned in platform declaration
    order.  Raises :class:`MappingError` when some task fits nowhere.
    Mutates ``state`` like :func:`repro.core.mapping.map_application`
    does — callers snapshot/restore around failures.
    """
    app_id = app_id or app.name
    order = _bfs_task_order(app)
    result = MappingResult(placement={}, anchors={})
    platform = state.platform
    for task in order:
        implementation = binding[task]
        chosen = None
        for _position, element in platform.static_hosts(implementation).pairs:
            if state.is_available(element, implementation.requirement):
                chosen = element
                break
        if chosen is None:
            raise MappingError(
                f"first-fit: no element available for task {task!r}"
            )
        try:
            state.occupy(chosen, app_id, task, implementation.requirement)
        except AllocationError as exc:  # pragma: no cover - guarded above
            raise MappingError(str(exc)) from exc
        result.placement[task] = chosen.name
    return result


def _bfs_task_order(app: Application) -> list[str]:
    start = min(app.min_degree_tasks())
    seen = {start}
    order = [start]
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for neighbor in sorted(app.neighbors(current)):
            if neighbor not in seen:
                seen.add(neighbor)
                order.append(neighbor)
                queue.append(neighbor)
    # disconnected specifications are rejected by Application.validate,
    # but stay safe if callers skip validation:
    for task in sorted(app.tasks):
        if task not in seen:
            order.append(task)
    return order
