"""The mapping cost function (paper Section III-D).

"To evaluate the cost of mapping a task t to an element e, we first
look at the total communication distance involved with candidate
element e ... If a required distance lookup fails, a relative high
penalty is given to e ... For yet unmapped tasks the distance is
inherently unknown, and therefore left out of the equation.

The other mapping objective we consider is external resource
fragmentation.  An element e receives decreasing bonuses for neighbor
elements that retain communication peers of t, tasks from the same
application A, or tasks from other applications.  Additionally, the
connectivity of an element e is taken into account as well; elements
on the borders of chips are thus more favorable to use.  The ratio
between these two objectives is given by weight parameters."

The total cost is ``w_comm * distance_term - w_frag * bonus_term``;
lower is better.  :data:`NONE`, :data:`COMMUNICATION`,
:data:`FRAGMENTATION` and :data:`BOTH` are the four configurations of
Figs. 8-10.  Every mapping cost, these and those of
:mod:`repro.core.objectives` alike, follows :class:`CostFunction`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.elements import ProcessingElement
from repro.arch.state import AllocationState
from repro.apps.taskgraph import Application
from repro.core.search import SparseDistanceMatrix

#: graded neighbour bonuses (Section III-D: "decreasing bonuses")
BONUS_PEER = 3.0          #: neighbour hosts a communication peer of t
BONUS_SAME_APP = 2.0      #: neighbour hosts another task of the same app
BONUS_OTHER_APP = 1.0     #: neighbour hosts tasks of other applications
#: weight of the border/connectivity bonus per missing neighbour
BONUS_BORDER = 0.5
#: hop penalty used when the sparse distance matrix has no entry
DEFAULT_DISTANCE_PENALTY = 32


@dataclass(frozen=True)
class CostWeights:
    """The two objective weights of the paper's experiments.

    Fig. 10 samples ``communication`` in [0..25] and ``fragmentation``
    in [0..1000]; (0, 0) disables the cost function entirely (the
    "None" configuration, reducing mapping to first-fit in platform
    search order).
    """

    communication: float = 1.0
    fragmentation: float = 1.0

    def __post_init__(self) -> None:
        if self.communication < 0 or self.fragmentation < 0:
            raise ValueError("cost weights must be non-negative")

    @property
    def disabled(self) -> bool:
        return self.communication == 0 and self.fragmentation == 0


#: The four named configurations of Figs. 8 and 9.
NONE = CostWeights(0.0, 0.0)
COMMUNICATION = CostWeights(1.0, 0.0)
FRAGMENTATION = CostWeights(0.0, 1.0)
BOTH = CostWeights(1.0, 1.0)

NAMED_WEIGHTS: dict[str, CostWeights] = {
    "None": NONE,
    "Communication": COMMUNICATION,
    "Fragmentation": FRAGMENTATION,
    "Both": BOTH,
}


class CostContext(dict):
    """What the evaluations of one mapping layer share.

    The committed placement and the allocation state stay frozen while
    a layer's GAP runs, so the mapping layer builds one context per
    layer (and one per empty-M0 anchor sweep) and passes it as the
    eighth argument of every evaluation.  Indexed by a task name, it
    gives that task's mapped peers as node ids, interned on first use:
    the element id of each incident channel's mapped peer in channel
    order (-1 when the peer sits on no node of the platform), the set
    of elements hosting its mapped neighbours, and the bandwidth of
    each of those channels in the same order.  :attr:`status`
    memoises each neighbour's occupant bonus for the fragmentation
    term.
    """

    __slots__ = ("app", "app_id", "state", "placement", "distances", "status")

    def __init__(self, app, app_id, state, placement, distances) -> None:
        super().__init__()
        self.app = app
        self.app_id = app_id
        self.state = state
        self.placement = placement
        self.distances = distances
        #: neighbour id -> occupant bonus (a pure function of the
        #: neighbour, the app id and the frozen state)
        self.status: dict[int, float] = {}

    def __missing__(self, task: str) -> tuple[tuple, frozenset, tuple]:
        node_ids = self.state.platform._node_ids
        placement = self.placement
        comm_peers = []
        bandwidths = []
        for channel in self.app.incident_channels(task):
            peer = channel.target if channel.source == task else channel.source
            placed = placement.get(peer)
            if placed is not None:
                comm_peers.append(node_ids.get(placed, -1))
                bandwidths.append(channel.bandwidth)
        frag_peers = set()
        for peer in self.app.neighbors(task):
            placed = placement.get(peer)
            if placed is not None and placed in node_ids:
                frag_peers.add(node_ids[placed])
        peers = self[task] = (
            tuple(comm_peers), frozenset(frag_peers), tuple(bandwidths)
        )
        return peers


class CostFunction:
    """The one protocol of every mapping cost.

    A cost is called per (task, element) pair as ``cost(app, app_id,
    task, element, state, placement, distances, context)`` and returns
    a float; lower is better.  ``placement`` maps already-mapped task
    names of the application to element names, ``distances`` is the
    sparse matrix of the layer's platform search and ``context`` the
    layer's :class:`CostContext`.  A caller may leave ``context`` out;
    the cost then builds its own.  :func:`as_cost` adapts a plain
    seven-argument callable.
    """

    __slots__ = ()

    #: ``isolated_cost(busy_neighbors, missing)`` when the cost of an
    #: element, for an application with nothing placed, depends only on
    #: those two counts; the anchor then peeks the state's capacity
    #: index instead of evaluating every available element.
    isolated_cost = None

    def bind_requirements(self, requirements: dict) -> None:
        """Receive task name -> requirement before a mapping run."""

    def __call__(
        self, app, app_id, task, element, state, placement, distances,
        context=None,
    ) -> float:
        raise NotImplementedError


class _PlainCost(CostFunction):
    """A seven-argument cost callable under the protocol."""

    __slots__ = ("function",)

    def __init__(self, function) -> None:
        self.function = function

    def __call__(
        self, app, app_id, task, element, state, placement, distances,
        context=None,
    ) -> float:
        return self.function(
            app, app_id, task, element, state, placement, distances
        )


def as_cost(cost) -> CostFunction:
    """``cost`` itself when it follows the protocol, else adapted."""
    return cost if isinstance(cost, CostFunction) else _PlainCost(cost)


class MappingCost(CostFunction):
    """Evaluates the cost of placing a task onto a candidate element.

    The cost depends on the *committed* placement (anchors and earlier
    layers) and the global allocation state, but not on the tentative
    assignments inside the current GAP layer — so one evaluation per
    (task, element) pair per layer suffices (see the complexity remark
    below paper Fig. 5).
    """

    def __init__(
        self,
        weights: CostWeights = BOTH,
        distance_penalty: int = DEFAULT_DISTANCE_PENALTY,
    ) -> None:
        self.weights = weights
        self.distance_penalty = distance_penalty

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
        """Cost of mapping ``task`` onto ``element``; lower is better."""
        weights = self.weights
        if weights.disabled:
            return 0.0
        if context is None:
            context = CostContext(app, app_id, state, placement, distances)
        cost = 0.0
        if weights.communication:
            cost += weights.communication * self.communication_term(
                task, element, context
            )
        if weights.fragmentation:
            cost -= weights.fragmentation * self.fragmentation_bonus(
                task, element, context
            )
        return cost

    def isolated_cost(self, busy_neighbors: int, missing: int) -> float:
        """What :meth:`__call__` returns with an empty placement, for an
        application that occupies no element yet, on an element with
        ``busy_neighbors`` neighbours hosting tasks and ``missing`` =
        ``max_connectivity`` minus its connectivity.

        No peer is mapped, so the communication term is zero and every
        busy neighbour earns :data:`BONUS_OTHER_APP`; the arithmetic
        mirrors :meth:`fragmentation_bonus` step for step, so the value
        is bit-identical to the full evaluation.
        """
        fragmentation = self.weights.fragmentation
        if self.weights.disabled or not fragmentation:
            return 0.0
        bonus = 0.0
        for _ in range(busy_neighbors):
            bonus += BONUS_OTHER_APP
        bonus += BONUS_BORDER * missing
        return 0.0 - fragmentation * bonus

    # -- objective terms ---------------------------------------------------

    def communication_term(
        self, task: str, element: ProcessingElement, context: CostContext
    ) -> float:
        """Total estimated route length to already-mapped peers.

        Each channel between ``task`` and a mapped peer contributes the
        sparse-matrix distance between ``element`` and the peer's
        element, or :attr:`distance_penalty` when the lookup fails
        (the search never reached one from the other — "we assume a
        large communication distance").  Channels to unmapped tasks
        are left out.
        """
        total = 0.0
        peer_ids = context[task][0]
        if not peer_ids:
            return total
        distances = context.distances
        lookup = distances.get_ids
        element_id = distances._node_ids[element.name]
        penalty = self.distance_penalty
        for peer_id in peer_ids:
            hops = lookup(element_id, peer_id) if peer_id >= 0 else None
            total += penalty if hops is None else hops
        return total

    def fragmentation_bonus(
        self, task: str, element: ProcessingElement, context: CostContext
    ) -> float:
        """Graded neighbourhood bonuses plus the border bonus.

        A neighbour element contributes the *highest* single bonus it
        qualifies for (peer > same app > other app); an element whose
        neighbourhood is already busy is attractive because using it
        does not strand fresh resources.  The border term favours
        low-connectivity elements: filling the chip from its edges
        inward keeps the contiguous free area compact.
        """
        peer_element_ids = context[task][1]
        status = context.status
        app_id = context.app_id
        state = context.state
        platform = state.platform
        all_occupants = state._occupants
        neighbor_ids = platform.element_neighbor_ids(element)
        bonus = 0.0
        for neighbor_id in neighbor_ids:
            if neighbor_id in peer_element_ids:
                bonus += BONUS_PEER
                continue
            cached = status.get(neighbor_id)
            if cached is None:
                occupants = all_occupants[neighbor_id]
                if not occupants:
                    cached = 0.0
                else:
                    for occupant in occupants:
                        if occupant.app_id == app_id:
                            cached = BONUS_SAME_APP
                            break
                    else:
                        cached = BONUS_OTHER_APP
                status[neighbor_id] = cached
            bonus += cached
        # element_connectivity(element) is by definition the length of
        # the adjacency list already in hand
        bonus += BONUS_BORDER * (platform.max_connectivity - len(neighbor_ids))
        return bonus
