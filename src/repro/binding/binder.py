"""Binding: regret-ordered implementation selection (paper Section II).

"For the binding phase, we use the approach in [9], which selects for
each task an implementation, ordered by the difference between the
cheapest and second cheapest assignment, as in [10]."  The idea is the
classic *regret* (max-difference) heuristic from the knapsack
literature [10]: tasks whose best option is much better than their
runner-up are bound first, because postponing them risks losing a
uniquely good fit.

Binding checks that "the required resources must be available
*somewhere* in the platform" (Section I) — it does not pick locations
(that is the mapping phase) but it does maintain a provisional
capacity pool so that several tasks cannot all be bound against the
same last free element.  Computation-intensive applications therefore
fail predominantly here when the platform fills up, matching Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.implementations import Implementation
from repro.apps.taskgraph import Application
from repro.arch.elements import ProcessingElement
from repro.arch.resources import ResourceVector
from repro.arch.state import AllocationState
from repro.reasons import ReasonCode

#: regret assigned to tasks with a single feasible implementation —
#: they are bound first, before any flexible task eats their capacity.
SINGLE_OPTION_REGRET = float("inf")


class BindingError(RuntimeError):
    """The binding phase found no feasible implementation for a task.

    ``code`` classifies the failure machine-readably; the manager
    copies it onto the :class:`~repro.manager.layout.AllocationFailure`
    it raises (or the :class:`~repro.api.Decision` it returns).
    """

    def __init__(
        self, message: str, code: ReasonCode = ReasonCode.BINDING_INFEASIBLE
    ):
        super().__init__(message)
        self.code = code


@dataclass
class BindingResult:
    """Chosen implementation per task, plus provisioning diagnostics."""

    choice: dict[str, Implementation]
    #: element provisionally charged for each task's requirement (a
    #: feasibility witness, *not* a placement — mapping decides that)
    provisional: dict[str, str] = field(default_factory=dict)
    #: binding order with the regret that drove it (diagnostics)
    order: list[tuple[str, float]] = field(default_factory=list)

    def __getitem__(self, task: str) -> Implementation:
        return self.choice[task]

    def __contains__(self, task: str) -> bool:
        return task in self.choice

    def total_cost(self) -> float:
        return sum(impl.cost for impl in self.choice.values())


class _CapacityPool:
    """Provisional free capacities during one binding run: the live
    capacity index plus an overlay of the few elements this run has
    provisionally charged.

    The regret loop asks for every unbound implementation's best-fit
    element on every round.  Since reservations only ever *shrink* one
    element's capacity, the best-fit answer per implementation shape is
    cached and maintained incrementally: a reserve invalidates only the
    shapes whose cached best is the touched element, and for all others
    the touched element is simply re-compared against the cached best
    (shrinking an element can make it a better best-fit or infeasible,
    never change other elements).  A recomputation asks the state's
    index for the best fit among the uncharged elements and compares
    the charged ones by hand.
    """

    def __init__(self, state: AllocationState):
        self._state = state
        self.platform = state.platform
        #: node id -> (position in ``platform.elements``, provisional
        #: free vector) for every element charged so far
        self._reserved: dict[int, tuple[int, ResourceVector]] = {}
        #: impl.shape -> (impl, best element, best slack) or (impl, None, inf)
        self._best: dict[tuple, tuple[Implementation, ProcessingElement | None, float]] = {}

    def _slack(self, impl: Implementation, position: int, free) -> float | None:
        """Best-fit score of the element at ``position`` with ``free``
        capacity; None when unfit.

        Smaller is better: minimal leftover on the bottleneck resource
        keeps the provisional packing tight, so binding only fails when
        the platform is genuinely close to full.
        """
        if position not in self.platform.static_hosts(impl).positions:
            return None
        requirement = impl.requirement
        if not requirement.fits_in(free):
            return None
        return 1.0 - requirement.bottleneck(free)

    def _scan(self, impl: Implementation) -> tuple[ProcessingElement | None, float]:
        reserved = self._reserved
        ids_by_name = self.platform._ids_by_name
        best_rank = None
        best_slack = float("inf")
        for worst, bucket in self._state.availability.fitting(impl):
            slack = 1.0 - worst
            if slack > best_slack:
                continue
            # the bucket's least name among its uncharged elements
            for ranks in bucket.scores.values():
                for rank in ranks:
                    if slack == best_slack and rank >= best_rank:
                        break
                    if ids_by_name[rank] not in reserved:
                        best_rank, best_slack = rank, slack
                        break
        name_rank = self.platform._name_rank
        for element_id, (position, free) in reserved.items():
            slack = self._slack(impl, position, free)
            if slack is not None and (
                slack < best_slack
                or (slack == best_slack and name_rank[element_id] < best_rank)
            ):
                best_rank, best_slack = name_rank[element_id], slack
        if best_rank is None:
            return None, best_slack
        return self.platform._nodes_by_id[ids_by_name[best_rank]], best_slack

    def feasible_element(self, impl: Implementation) -> ProcessingElement | None:
        """Best-fit element that can still host ``impl``, or None."""
        cached = self._best.get(impl.shape)
        if cached is None:
            if self._reserved:
                best, best_slack = self._scan(impl)
            else:
                # no provisional reservations yet: the answer over the
                # raw state is shared via the availability cache
                best, best_slack = self._state.availability.best_fit(impl)
            self._best[impl.shape] = (impl, best, best_slack)
            return best
        return cached[1]

    def reserve(self, element: ProcessingElement, impl: Implementation) -> None:
        position = self.platform._element_position[id(element)]
        element_id = self.platform._element_ids[position]
        entry = self._reserved.get(element_id)
        free = self._state._free[element_id] if entry is None else entry[1]
        free = free - impl.requirement
        self._reserved[element_id] = (position, free)
        for key, (cached_impl, best, best_slack) in list(self._best.items()):
            if best is None:
                continue  # nothing fit before; a shrink changes nothing
            if best is element:
                # the cached winner shrank: recompute lazily on next ask
                del self._best[key]
                continue
            slack = self._slack(cached_impl, position, free)
            if slack is not None and (
                slack < best_slack
                or (slack == best_slack and element.name < best.name)
            ):
                self._best[key] = (cached_impl, element, slack)


def bind(
    app: Application,
    state: AllocationState,
    quality_weight: float = 0.0,
) -> BindingResult:
    """Select one implementation per task, regret-first.

    ``quality_weight`` biases the per-implementation score by its
    execution time (0 = pure cost, as in the paper's setup; > 0 trades
    cost against speed, an extension hook used by the examples).

    Raises :class:`BindingError` naming the first task that has no
    feasible implementation left.
    """
    pool = _CapacityPool(state)
    result = BindingResult(choice={})
    unbound = sorted(app.tasks)

    def score(impl: Implementation) -> float:
        return impl.cost + quality_weight * impl.execution_time

    # implementations sorted by (score, name) once per bind: the
    # regret of a round needs only the two cheapest *feasible*
    # options, which filtering a sorted list yields without
    # re-sorting per round
    task_options = {
        task: sorted(
            ((score(impl), impl) for impl in app.task(task).implementations),
            key=lambda item: (item[0], item[1].name),
        )
        for task in unbound
    }

    while unbound:
        # evaluate regret for every unbound task against the current pool
        best_task: str | None = None
        best_regret = -1.0
        best_option: tuple[Implementation, ProcessingElement] | None = None
        infeasible_task: str | None = None
        for task in unbound:
            first: tuple | None = None
            second_score: float | None = None
            for impl_score, impl in task_options[task]:
                element = pool.feasible_element(impl)
                if element is None:
                    continue
                if first is None:
                    first = (impl_score, impl, element)
                else:
                    second_score = impl_score
                    break
            if first is None:
                infeasible_task = task
                break
            if second_score is None:
                regret = SINGLE_OPTION_REGRET
            else:
                regret = second_score - first[0]
            if regret > best_regret or (
                regret == best_regret and (best_task is None or task < best_task)
            ):
                best_task = task
                best_regret = regret
                best_option = (first[1], first[2])
        if infeasible_task is not None:
            raise BindingError(
                f"task {infeasible_task!r} of {app.name!r} has no feasible "
                "implementation (insufficient platform resources)",
                code=ReasonCode.NO_FEASIBLE_IMPLEMENTATION,
            )
        assert best_task is not None and best_option is not None
        impl, element = best_option
        pool.reserve(element, impl)
        result.choice[best_task] = impl
        result.provisional[best_task] = element.name
        result.order.append((best_task, best_regret))
        unbound.remove(best_task)

    return result
