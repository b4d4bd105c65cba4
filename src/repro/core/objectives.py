"""Pluggable mapping objectives beyond the paper's two defaults.

Section III: "Various mapping objectives may be defined, like minimal
energy consumption, reducing resource fragmentation, wear leveling, or
load balancing" — and Section II claims the algorithm works "using any
cost function that can be defined for a platform".  This module makes
those sentences concrete: each objective is a small callable scoring a
(task, element) pair in the same context the built-in
:class:`~repro.core.cost.MappingCost` sees (the
:class:`~repro.core.cost.CostFunction` protocol), and
:class:`CompositeCost` sums any weighted set of them into a drop-in
cost function for MapApplication / Kairos.

Provided objectives:

* :class:`CommunicationObjective` / :class:`FragmentationObjective` —
  the paper's two, re-packaged for composition;
* :class:`EnergyObjective` — static per-cycle energy rates per element
  type plus per-hop route energy (the "minimal energy consumption"
  goal);
* :class:`WearLevelingObjective` — penalises elements by accumulated
  allocation count (the :class:`AllocationState` keeps a wear odometer
  that survives releases);
* :class:`LoadBalancingObjective` — penalises elements by current
  utilization, spreading concurrent load.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.arch.elements import ElementType, ProcessingElement
from repro.arch.state import AllocationState
from repro.apps.taskgraph import Application
from repro.core.cost import (
    DEFAULT_DISTANCE_PENALTY,
    CostContext,
    CostFunction,
    CostWeights,
    MappingCost,
    as_cost,
)
from repro.core.search import SparseDistanceMatrix

#: default energy per requested cycle, by element type (abstract
#: J/cycle units; DSPs are the efficient workhorses, the GPP pays a
#: generality tax, the FPGA sits in between per effective cycle)
DEFAULT_ENERGY_RATES = {
    ElementType.DSP: 1.0,
    ElementType.GPP: 2.5,
    ElementType.FPGA: 1.5,
    ElementType.MEMORY: 0.2,
    ElementType.TEST: 0.5,
    ElementType.IO: 0.3,
}
#: default energy per hop and bandwidth unit of a route
DEFAULT_HOP_ENERGY = 0.05


class Objective(CostFunction):
    """One weighted scoring term; subclasses implement :meth:`score`.

    ``score`` takes the protocol's arguments; its ``context`` is the
    layer's :class:`~repro.core.cost.CostContext`, or None on a
    seven-argument call.
    """

    def __init__(self, weight: float = 1.0):
        if weight < 0:
            raise ValueError("objective weight must be non-negative")
        self.weight = weight

    def score(
        self,
        app: Application,
        app_id: str,
        task: str,
        element: ProcessingElement,
        state: AllocationState,
        placement: dict[str, str],
        distances: SparseDistanceMatrix,
        context: CostContext | None = None,
    ) -> float:
        raise NotImplementedError

    def __call__(self, *arguments) -> float:
        if self.weight == 0:
            return 0.0
        return self.weight * self.score(*arguments)


class CommunicationObjective(Objective):
    """The paper's communication-distance term, composition-ready."""

    def __init__(self, weight: float = 1.0,
                 distance_penalty: int = DEFAULT_DISTANCE_PENALTY):
        super().__init__(weight)
        self._inner = MappingCost(CostWeights(1.0, 0.0), distance_penalty)

    def score(self, app, app_id, task, element, state, placement, distances,
              context=None):
        if context is None:
            context = CostContext(app, app_id, state, placement, distances)
        return self._inner.communication_term(task, element, context)


class FragmentationObjective(Objective):
    """The paper's fragmentation term (bonuses enter as negative cost)."""

    def __init__(self, weight: float = 1.0):
        super().__init__(weight)
        self._inner = MappingCost(CostWeights(0.0, 1.0))

    def score(self, app, app_id, task, element, state, placement, distances,
              context=None):
        if context is None:
            context = CostContext(app, app_id, state, placement, distances)
        return -self._inner.fragmentation_bonus(task, element, context)


class EnergyObjective(Objective):
    """Estimated energy of running the task here + moving its data.

    Computation: the bound implementation's requested cycles priced at
    the element type's rate.  Communication: estimated route length to
    each mapped peer times the channel bandwidth times the per-hop
    energy (unknown distances use the communication penalty).
    """

    def __init__(
        self,
        weight: float = 1.0,
        energy_rates: dict | None = None,
        hop_energy: float = DEFAULT_HOP_ENERGY,
        distance_penalty: int = DEFAULT_DISTANCE_PENALTY,
        requirements: dict | None = None,
    ):
        super().__init__(weight)
        self.energy_rates = dict(DEFAULT_ENERGY_RATES)
        if energy_rates:
            self.energy_rates.update(energy_rates)
        self.hop_energy = hop_energy
        self.distance_penalty = distance_penalty
        #: optional task -> ResourceVector map; a task missing from it
        #: counts 1.0 cycles (set by CompositeCost.bind_requirements
        #: before mapping)
        self.requirements = requirements or {}

    def bind_requirements(self, requirements: dict) -> None:
        self.requirements = requirements

    def score(self, app, app_id, task, element, state, placement, distances,
              context=None):
        rate = self.energy_rates.get(element.kind, 1.0)
        requirement = self.requirements.get(task)
        cycles = requirement["cycles"] if requirement is not None else 1.0
        energy = rate * cycles
        if context is None:
            context = CostContext(app, app_id, state, placement, distances)
        peer_ids, _, bandwidths = context[task]
        lookup = context.distances.get_ids
        # -1: an element off the platform is at no known distance
        element_id = context.distances._node_ids.get(element.name, -1)
        for peer_id, bandwidth in zip(peer_ids, bandwidths):
            hops = (
                lookup(element_id, peer_id)
                if peer_id >= 0 and element_id >= 0 else None
            )
            if hops is None:
                hops = self.distance_penalty
            energy += self.hop_energy * hops * bandwidth
        return energy


class WearLevelingObjective(Objective):
    """Prefer elements with the least accumulated allocations.

    The allocation state's wear odometer counts every ``occupy`` an
    element ever served (releases do not decrement), so long-running
    systems rotate load across spare tiles instead of grinding the
    same ones — the "wear of materials" concern of the paper's
    introduction.
    """

    def score(self, app, app_id, task, element, state, placement, distances,
              context=None):
        return float(state.wear(element))


class LoadBalancingObjective(Objective):
    """Prefer currently idle elements (utilization-proportional cost)."""

    def score(self, app, app_id, task, element, state, placement, distances,
              context=None):
        capacity = element.capacity.total()
        if capacity == 0:
            return 0.0
        free = state.free(element).total()
        return (capacity - free) / capacity


class CompositeCost(CostFunction):
    """A weighted sum of objectives, drop-in for MapApplication.

    Follows the :class:`~repro.core.cost.CostFunction` protocol, so it
    can be passed to :func:`repro.core.mapping.map_application` or
    :class:`repro.manager.kairos.Kairos` directly; one context serves
    every objective of an evaluation, and an objective given as a
    plain seven-argument callable is adapted::

        cost = CompositeCost([
            CommunicationObjective(1.0),
            WearLevelingObjective(5.0),
        ])
        manager = Kairos(platform, weights=cost)
    """

    def __init__(self, objectives: Iterable[Objective]):
        self.objectives = tuple(map(as_cost, objectives))
        if not self.objectives:
            raise ValueError("CompositeCost needs at least one objective")

    def bind_requirements(self, requirements: dict) -> None:
        """Feed task requirements to objectives that price them."""
        for objective in self.objectives:
            objective.bind_requirements(requirements)

    def __call__(
        self,
        app: Application,
        app_id: str,
        task: str,
        element: ProcessingElement,
        state: AllocationState,
        placement: dict[str, str],
        distances: SparseDistanceMatrix,
        context: CostContext | None = None,
    ) -> float:
        if context is None:
            context = CostContext(app, app_id, state, placement, distances)
        return sum(
            objective(app, app_id, task, element, state, placement,
                      distances, context)
            for objective in self.objectives
        )
