"""SolveGAP: the Cohen–Katzir–Raz GAP approximation (Section III-C).

"Adopting the approach of [15], we iterate over the elements Ei that
were discovered in MapApplication.  For every e in Ei, we calculate
for each t in Ti the cost of mapping task t to element e.  We put
these values in a vector c2 ... Another vector c1 contains the cost of
the best known mappings in Mi, initially set to very large values.
We pass both vectors to a knapsack routine that selects for that
single element a subset of tasks with a minimal total cost.  When an
element e picks a task t, the cost of that combination is stored as
c1(t).  Any subsequent evaluations for e' consider the cost reduction
over that combination.  Thus, we only consider remapping a task t, if
the cost reduction c1(t) - c2(t) is positive."

The solver is *stateful across invocations* within one mapping layer:
when MapApplication grows the candidate element set, only the new
elements are processed, "allowing us to reuse the mappings and their
associated cost, as determined in the previous invocation".
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.arch.elements import ProcessingElement
from repro.arch.resources import ResourceVector
from repro.arch.state import AllocationState
from repro.core.knapsack import KnapsackItem, KnapsackSolution, solve_greedy

#: stand-in for "very large values" initialising c1.  Large enough to
#: dominate any real mapping cost, small enough that profit arithmetic
#: stays in float range.
UNMAPPED_COST = 1.0e12

#: signature of the per-pair cost evaluation (task, element) -> cost
PairCost = Callable[[str, ProcessingElement], float]
#: signature of the knapsack oracle
KnapsackSolver = Callable[[list[KnapsackItem], ResourceVector], KnapsackSolution]


@dataclass
class GapAssignment:
    """The evolving solution of one layer's assignment problem."""

    element_of: dict[str, str]
    cost_of: dict[str, float]

    def mapped_tasks(self) -> tuple[str, ...]:
        return tuple(sorted(self.element_of))


class GapSolver:
    """Iterative-knapsack GAP over a growing element set.

    Parameters
    ----------
    tasks:
        The layer's task names (the paper's ``Ti``).
    requirements:
        task name -> bound resource requirement (from the binding
        phase's implementation choice).
    compatible:
        ``compatible(task, element) -> bool`` — static suitability of
        the bound implementation for the element (type/pin match).
    pair_cost:
        ``pair_cost(task, element) -> float`` — the mapping cost
        function, evaluated lazily per new element.
    state:
        Global allocation state; an element's knapsack capacity is its
        *free* capacity.  Tasks only ever move *to* the element being
        processed and each element is processed once, so no tentative
        assignment of this layer sits on an element when its knapsack
        runs.
    knapsack:
        The knapsack oracle (density-greedy + O(T^2) improvement by
        default; swappable for the A2 ablation).
    """

    def __init__(
        self,
        tasks: Iterable[str],
        requirements: dict[str, ResourceVector],
        compatible: Callable[[str, ProcessingElement], bool],
        pair_cost: PairCost,
        state: AllocationState,
        knapsack: KnapsackSolver = solve_greedy,
    ) -> None:
        self.tasks = tuple(tasks)
        missing = [t for t in self.tasks if t not in requirements]
        if missing:
            raise ValueError(f"no requirement for tasks {missing}")
        self.requirements = requirements
        #: per-task requirement components, hoisted once — the
        #: capacity check runs per (task, element) pair per layer
        self._requirement_items = {
            task: tuple(requirements[task]._data.items())
            for task in self.tasks
        }
        #: componentwise minimum over the layer's requirements: a lower
        #: bound on what *any* task needs, so an element that cannot
        #: even host the minimum skips the whole task loop (on a busy
        #: platform that is most elements)
        minimums: dict = {}
        first = True
        for task in self.tasks:
            data = requirements[task]._data
            if first:
                minimums.update(data)
                first = False
            else:
                for kind in list(minimums):
                    quantity = data.get(kind)
                    if quantity is None:
                        del minimums[kind]
                    elif quantity < minimums[kind]:
                        minimums[kind] = quantity
        self._min_requirement_items = tuple(minimums.items())
        self.compatible = compatible
        self.pair_cost = pair_cost
        self.state = state
        self.knapsack = knapsack
        # c1: best known mapping cost per task ("initially set to very
        # large values"); element_of tracks where that best lives.
        self.c1: dict[str, float] = {t: UNMAPPED_COST for t in self.tasks}
        self.element_of: dict[str, str] = {}
        self._elements_seen: set[str] = set()
        #: statistics for the experiment reports
        self.knapsack_calls = 0
        self.evaluations = 0

    # -- queries -------------------------------------------------------------

    @property
    def unmapped(self) -> tuple[str, ...]:
        return tuple(t for t in self.tasks if t not in self.element_of)

    @property
    def complete(self) -> bool:
        return not self.unmapped

    def assignment(self) -> GapAssignment:
        return GapAssignment(dict(self.element_of), {
            t: self.c1[t] for t in self.element_of
        })

    # -- solving ---------------------------------------------------------------

    def solve(self, new_elements: Iterable[ProcessingElement]) -> GapAssignment:
        """Process newly discovered elements, one knapsack each.

        Elements already processed in earlier invocations are skipped,
        as are elements that cannot host even the layer's componentwise
        minimum requirement (a pure lower-bound capacity check — on a
        busy platform that is most candidates, and skipping them leaves
        every observable of the solver untouched).
        """
        seen = self._elements_seen
        minimums = self._min_requirement_items
        state = self.state
        # elements come from the platform's own interned tables, so the
        # identity-keyed position lookup avoids hashing the name
        element_position = state.platform._element_position
        element_ids = state.platform._element_ids
        free_by_node = state._free
        failed_elements = state._failed_elements
        for element in new_elements:
            name = element.name
            if name in seen:
                continue
            seen.add(name)
            element_id = element_ids[element_position[id(element)]]
            capacity = (
                ResourceVector() if element_id in failed_elements
                else free_by_node[element_id]
            )
            capacity_data = capacity._data
            fits = True
            for kind, quantity in minimums:
                have = capacity_data.get(kind)
                if have is None or quantity > have:
                    fits = False
                    break
            if not fits:
                continue
            self._process_element(element, capacity)
        return self.assignment()

    def _process_element(
        self, element: ProcessingElement, capacity: ResourceVector
    ) -> None:
        capacity_data = capacity._data
        items: list[KnapsackItem] = []
        costs: dict[str, float] = {}
        element_name = element.name
        element_of = self.element_of
        compatible = self.compatible
        requirements = self.requirements
        requirement_items = self._requirement_items
        pair_cost = self.pair_cost
        c1 = self.c1
        for task in self.tasks:
            if not compatible(task, element):
                continue
            fits = True
            for kind, quantity in requirement_items[task]:
                have = capacity_data.get(kind)
                if have is None or quantity > have:
                    fits = False
                    break
            if not fits:
                # Note: a task evicted from here by a later swap is not
                # reconsidered — matches the single-pass structure of [15].
                continue
            cost = pair_cost(task, element)
            self.evaluations += 1
            reduction = c1[task] - cost
            if reduction <= 0:
                continue  # only remap on a positive cost reduction
            costs[task] = cost
            items.append(KnapsackItem(task, reduction, requirements[task]))
        if not items:
            return
        solution = self.knapsack(items, capacity)
        self.knapsack_calls += 1
        for task in solution.chosen:
            element_of[task] = element_name
            c1[task] = costs[task]
