"""The one cost protocol: every mapping cost runs on interned ids.

The lockstep property keeps the name-keyed bodies of the paper's two
cost terms (Section III-D) and of the energy objective as a reference
and checks that :class:`MappingCost`, a :class:`CompositeCost` of the
paper objectives plus wear, :class:`EnergyObjective` alone and under a
:class:`CompositeCost`, and :class:`HealthAwareCost` (with and without
penalties)
return the *same float* (``==``) through a shared per-layer
:class:`CostContext` and through the public seven-argument call, over
generated states, placements and distance matrices.  The remaining
tests pin the protocol's edges: the anchor peek and plain
seven-argument callables.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import GeneratorConfig, generate
from repro.arch import AllocationState, ResourceVector, mesh
from repro.arch.faults import Fault
from repro.binding import bind
from repro.core import (
    NAMED_WEIGHTS,
    CommunicationObjective,
    CompositeCost,
    CostWeights,
    EnergyObjective,
    FragmentationObjective,
    MappingCost,
    WearLevelingObjective,
    map_application,
)
from repro.core.cost import (
    BONUS_BORDER,
    BONUS_OTHER_APP,
    BONUS_PEER,
    BONUS_SAME_APP,
    CostContext,
)
from repro.core.search import SparseDistanceMatrix
from repro.manager import Kairos
from repro.resilience import HealthAwareCost, HealthPolicy, HealthRegistry
from tests.conftest import admit_or_raise, chain_app

# -- the name-keyed reference ------------------------------------------------


def reference_communication(penalty, app, task, element, placement,
                            distances) -> float:
    """Route length to mapped peers, resolving every peer by name."""
    total = 0.0
    channels = app.incident_channels(task)
    if not channels:
        return total
    node_ids = distances._node_ids
    rows = distances._rows
    element_id = node_ids[element.name]
    for channel in channels:
        peer = channel.target if channel.source == task else channel.source
        peer_element = placement.get(peer)
        if peer_element is None:
            continue
        peer_id = node_ids.get(peer_element)
        if peer_id is None:
            total += penalty
            continue
        if peer_id == element_id:
            continue  # distance 0
        best = -1
        row = rows.get(element_id)
        if row is not None:
            known = row[peer_id]
            if known >= 0:
                best = known
        row = rows.get(peer_id)
        if row is not None:
            known = row[element_id]
            if 0 <= known and (best < 0 or known < best):
                best = known
        total += penalty if best < 0 else best
    return total


def reference_fragmentation(app, app_id, task, element, state,
                            placement) -> float:
    """Neighbourhood and border bonuses, walking occupants per call."""
    platform = state.platform
    node_ids = platform._node_ids
    peer_element_ids = set()
    for peer in app.neighbors(task):
        placed = placement.get(peer)
        if placed is not None:
            peer_id = node_ids.get(placed)
            if peer_id is not None:
                peer_element_ids.add(peer_id)
    bonus = 0.0
    neighbor_ids = platform.element_neighbor_ids(element)
    for neighbor_id in neighbor_ids:
        if neighbor_id in peer_element_ids:
            bonus += BONUS_PEER
            continue
        occupants = state._occupants[neighbor_id]
        if not occupants:
            continue
        for occupant in occupants:
            if occupant.app_id == app_id:
                bonus += BONUS_SAME_APP
                break
        else:
            bonus += BONUS_OTHER_APP
    bonus += BONUS_BORDER * (platform.max_connectivity - len(neighbor_ids))
    return bonus


def reference_energy(objective, app, task, element, placement,
                     distances) -> float:
    """The energy objective's score, resolving every peer by name."""
    rate = objective.energy_rates.get(element.kind, 1.0)
    requirement = objective.requirements.get(task)
    cycles = requirement["cycles"] if requirement is not None else 1.0
    energy = rate * cycles
    for channel in app.incident_channels(task):
        peer = channel.target if channel.source == task else channel.source
        peer_element = placement.get(peer)
        if peer_element is None:
            continue
        hops = distances.get(element.name, peer_element)
        if hops is None:
            hops = objective.distance_penalty
        energy += objective.hop_energy * hops * channel.bandwidth
    return energy


def reference_cost(weights, penalty, app, app_id, task, element, state,
                   placement, distances) -> float:
    if weights.disabled:
        return 0.0
    cost = 0.0
    if weights.communication:
        cost += weights.communication * reference_communication(
            penalty, app, task, element, placement, distances
        )
    if weights.fragmentation:
        cost -= weights.fragmentation * reference_fragmentation(
            app, app_id, task, element, state, placement
        )
    return cost


# -- generated evaluation settings -------------------------------------------


@st.composite
def settings_(draw):
    """A mesh, an application with some tasks placed (a few on names
    outside the platform), other applications' tasks, wear from
    released tasks, and a sparse distance matrix with random entries."""
    platform = mesh(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    elements = [element.name for element in platform.elements]
    nodes = sorted(platform._node_ids)
    routers = [node for node in nodes if node not in elements]
    app = generate(
        GeneratorConfig(inputs=1, internals=draw(st.integers(0, 4)),
                        outputs=1),
        seed=draw(st.integers(0, 10_000)),
    )
    state = AllocationState(platform)
    small = ResourceVector(cycles=1)
    placement = {}
    for task in sorted(app.tasks):
        where = draw(st.sampled_from(
            [None, None, "ghost"] + elements + routers[:2]
        ))
        if where is None:
            continue
        placement[task] = where
        if where in elements:
            state.occupy(where, "app", task, small)
    for index in range(draw(st.integers(0, 2 * len(elements)))):
        where = draw(st.sampled_from(elements))
        owner = draw(st.sampled_from(["app", "other", "third"]))
        state.occupy(where, owner, f"extra{index}", small)
        if draw(st.booleans()):
            state.vacate(owner, f"extra{index}")  # wear without load
    # entries between elements, some in both directions with different
    # values (the lookup takes the smaller), and a few through routers
    distances = SparseDistanceMatrix(platform)
    for _ in range(draw(st.integers(0, 3 * len(elements)))):
        a, b = draw(st.sampled_from(elements + routers[:2])), draw(
            st.sampled_from(elements)
        )
        for origin, node in draw(st.sampled_from(
            [((a, b),), ((b, a),), ((a, b), (b, a))]
        )):
            distances.record(origin, node, draw(st.integers(0, 12)))
    penalized = draw(st.lists(st.sampled_from(elements), unique=True,
                              max_size=3))
    return app, state, placement, distances, penalized


weights_ = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)


def _sweep(cost, app, state, placement, distances, context):
    """Every (task, element) cost, through ``context`` or (None) the
    public seven-argument call."""
    extra = () if context is None else (context,)
    return [
        cost(app, "app", task, element, state, placement, distances, *extra)
        for task in sorted(app.tasks)
        for element in state.platform.elements
    ]


def _both_paths(cost, app, state, placement, distances):
    """The sweep through one shared context, then through fresh ones."""
    context = CostContext(app, "app", state, placement, distances)
    return (
        _sweep(cost, app, state, placement, distances, context),
        _sweep(cost, app, state, placement, distances, None),
    )


class TestCostLockstep:
    # profile-governed lockstep property (see conftest.py)
    @settings(deadline=None)
    @given(setting=settings_(), penalty=st.integers(1, 64),
           objective_weights=st.tuples(weights_, weights_, weights_),
           repairing_penalty=st.floats(0.5, 20.0),
           energy=st.tuples(weights_, st.floats(0.0, 2.0),
                            st.lists(st.integers(1, 90), max_size=6)))
    def test_cost_lockstep_with_name_reference(
        self, setting, penalty, objective_weights, repairing_penalty, energy
    ):
        app, state, placement, distances, penalized = setting
        pairs = [
            (task, element) for task in sorted(app.tasks)
            for element in state.platform.elements
        ]

        def reference(weights):
            return [
                reference_cost(weights, penalty, app, "app", task, element,
                               state, placement, distances)
                for task, element in pairs
            ]

        # the stock cost under each configuration of Figs. 8-10
        for name, weights in NAMED_WEIGHTS.items():
            expected = reference(weights)
            cost = MappingCost(weights, distance_penalty=penalty)
            for got in _both_paths(cost, app, state, placement, distances):
                assert got == expected, name

        # the paper objectives plus wear, composed
        w_comm, w_frag, w_wear = objective_weights
        composite = CompositeCost([
            CommunicationObjective(w_comm, distance_penalty=penalty),
            FragmentationObjective(w_frag),
            WearLevelingObjective(w_wear),
        ])
        expected = [
            sum((
                0.0 if w_comm == 0 else w_comm * reference_communication(
                    penalty, app, task, element, placement, distances
                ),
                0.0 if w_frag == 0 else w_frag * -reference_fragmentation(
                    app, "app", task, element, state, placement
                ),
                0.0 if w_wear == 0 else w_wear * float(state.wear(element)),
            ))
            for task, element in pairs
        ]
        for got in _both_paths(composite, app, state, placement, distances):
            assert got == expected

        # the energy objective (requirements for some tasks, the rest
        # priced at one cycle), alone and composed with fragmentation
        w_energy, hop_energy, cycles = energy
        requirements = {
            task: ResourceVector(cycles=amount)
            for task, amount in zip(sorted(app.tasks), cycles)
        }
        alone = EnergyObjective(w_energy, hop_energy=hop_energy,
                                distance_penalty=penalty)
        alone.bind_requirements(requirements)
        energies = [
            reference_energy(alone, app, task, element, placement, distances)
            for task, element in pairs
        ]
        expected = [0.0 if w_energy == 0 else w_energy * value
                    for value in energies]
        for got in _both_paths(alone, app, state, placement, distances):
            assert got == expected
        composite = CompositeCost([
            FragmentationObjective(w_frag),
            EnergyObjective(w_energy, hop_energy=hop_energy,
                            distance_penalty=penalty),
        ])
        composite.bind_requirements(requirements)
        expected = [
            sum((
                0.0 if w_frag == 0 else w_frag * -reference_fragmentation(
                    app, "app", task, element, state, placement
                ),
                energy_cost,
            ))
            for (task, element), energy_cost in zip(pairs, expected)
        ]
        for got in _both_paths(composite, app, state, placement, distances):
            assert got == expected

        # the health wrapper, idle and with soft penalties
        registry = HealthRegistry(
            HealthPolicy(repairing_penalty=repairing_penalty)
        )
        wrapped = HealthAwareCost(
            MappingCost(CostWeights(1.0, 1.0), penalty), registry
        )
        plain = reference(CostWeights(1.0, 1.0))
        assert wrapped.isolated_cost is not None
        for got in _both_paths(wrapped, app, state, placement, distances):
            assert got == plain
        for index, name in enumerate(penalized):
            fault = Fault("element", (name,))
            registry.on_fault(fault, now=float(index))
            registry.on_repair(fault, now=float(index) + 0.5)
        expected = [
            value + repairing_penalty if element.name in penalized else value
            for value, (_task, element) in zip(plain, pairs)
        ]
        assert (wrapped.isolated_cost is None) == bool(penalized)
        for got in _both_paths(wrapped, app, state, placement, distances):
            assert got == expected


# -- the protocol's edges ----------------------------------------------------


class TestProtocolEdges:
    def test_plain_seven_argument_callable_is_adapted(self, state3x3):
        """A plain callable maps through ``map_application`` and admits
        through ``Kairos``, with or without a health registry."""
        seen = []

        def prefer_last(app, app_id, task, element, state, placement,
                        distances):
            seen.append(task)
            return -float(state.platform.elements.index(element))

        app = chain_app(3)
        result = map_application(
            app, bind(app, state3x3).choice, state3x3, cost=prefer_last,
        )
        assert set(result.placement) == set(app.tasks)
        assert seen
        for health in (None, HealthRegistry()):
            manager = Kairos(mesh(3, 3), weights=prefer_last,
                             validation_mode="skip", health=health)
            layout = admit_or_raise(manager, chain_app(2), "x")
            assert set(layout.placement) == {"t0", "t1"}

    def test_anchor_peek_follows_isolated_cost(self, monkeypatch):
        """The stock cost and an idle health wrapper anchor through the
        capacity index; a penalised wrapper and other costs sweep."""
        from repro.core import mapping

        sweeps = [0]
        original = mapping.available_elements

        def counting(*args):
            sweeps[0] += 1
            return original(*args)

        monkeypatch.setattr(mapping, "available_elements", counting)
        registry = HealthRegistry()
        stock = MappingCost()
        for cost, expected in (
            (stock, 0),
            (HealthAwareCost(stock, registry), 0),
            (CompositeCost([WearLevelingObjective(1.0)]), 1),
        ):
            sweeps[0] = 0
            state = AllocationState(mesh(3, 3))
            app = chain_app(2)
            map_application(app, bind(app, state).choice, state, cost=cost)
            assert sweeps[0] == expected, cost
        fault = Fault("element", ("dsp_2_2",))
        registry.on_fault(fault, now=0.0)
        registry.on_repair(fault, now=1.0)
        sweeps[0] = 0
        state = AllocationState(mesh(3, 3))
        app = chain_app(2)
        map_application(app, bind(app, state).choice, state,
                        cost=HealthAwareCost(stock, registry))
        assert sweeps[0] == 1
