"""Tests for the pluggable mapping objectives (paper Section III:
energy, wear leveling, load balancing) and the wear odometer."""

from __future__ import annotations

import pytest

from repro.arch import AllocationState, ElementType, ResourceVector, mesh
from repro.binding import bind
from repro.core import (
    CommunicationObjective,
    CompositeCost,
    EnergyObjective,
    FragmentationObjective,
    LoadBalancingObjective,
    WearLevelingObjective,
    map_application,
)
from repro.core.search import SparseDistanceMatrix
from repro.manager import Kairos
from tests.conftest import admit_or_raise, chain_app, diamond_app


@pytest.fixture
def context(state3x3):
    """A minimal evaluation context: (app, app_id, task, ·, state, ·, ·)."""
    app = diamond_app()
    distances = SparseDistanceMatrix(state3x3.platform)
    return app, "app", "a", state3x3, {}, distances


class TestWearOdometer:
    def test_wear_starts_at_zero(self, state3x3):
        assert state3x3.wear("dsp_0_0") == 0

    def test_wear_accumulates_across_release(self, state3x3):
        req = ResourceVector(cycles=10)
        for round_index in range(3):
            state3x3.occupy("dsp_0_0", "a", f"t{round_index}", req)
            state3x3.vacate("a", f"t{round_index}")
        assert state3x3.wear("dsp_0_0") == 3
        assert state3x3.wear("dsp_0_1") == 0

    def test_wear_survives_snapshot_roundtrip(self, state3x3):
        req = ResourceVector(cycles=10)
        state3x3.occupy("dsp_0_0", "a", "t", req)
        snapshot = state3x3.snapshot()
        with state3x3.transaction():
            mark = state3x3.savepoint()
            state3x3.occupy("dsp_0_1", "a", "u", req)
            assert state3x3.snapshot() != snapshot
            state3x3.rollback_to(mark)
        assert state3x3.snapshot() == snapshot
        assert state3x3.wear("dsp_0_0") == 1
        assert state3x3.wear("dsp_0_1") == 0


class TestIndividualObjectives:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WearLevelingObjective(weight=-1)

    def test_zero_weight_short_circuits(self, context):
        app, app_id, task, state, placement, distances = context
        objective = WearLevelingObjective(weight=0.0)
        element = state.platform.element("dsp_0_0")
        assert objective(app, app_id, task, element, state, placement,
                         distances) == 0.0

    def test_wear_objective_prefers_fresh_elements(self, context):
        app, app_id, task, state, placement, distances = context
        state.occupy("dsp_0_0", "x", "t", ResourceVector(cycles=5))
        state.vacate("x", "t")
        objective = WearLevelingObjective(1.0)
        worn = objective(app, app_id, task,
                         state.platform.element("dsp_0_0"),
                         state, placement, distances)
        fresh = objective(app, app_id, task,
                          state.platform.element("dsp_1_1"),
                          state, placement, distances)
        assert worn > fresh

    def test_load_objective_tracks_utilization(self, context):
        app, app_id, task, state, placement, distances = context
        objective = LoadBalancingObjective(1.0)
        element = state.platform.element("dsp_0_0")
        empty = objective(app, app_id, task, element, state, placement,
                          distances)
        state.occupy("dsp_0_0", "x", "t", ResourceVector(cycles=50))
        half = objective(app, app_id, task, element, state, placement,
                         distances)
        assert empty == 0.0
        assert half > empty

    def test_energy_objective_prices_element_kind(self, context):
        app, app_id, task, state, placement, distances = context
        objective = EnergyObjective(1.0)
        objective.bind_requirements({"a": ResourceVector(cycles=40)})
        dsp_cost = objective.score(
            app, app_id, "a", state.platform.element("dsp_0_0"),
            state, placement, distances,
        )
        # a pretend GPP with the same capacity costs more per cycle
        from repro.arch import ProcessingElement
        from repro.arch.elements import default_capacity
        gpp = ProcessingElement("fake_arm", ElementType.GPP,
                                default_capacity(ElementType.GPP))
        gpp_cost = objective.score(
            app, app_id, "a", gpp, state, placement, distances,
        )
        assert gpp_cost > dsp_cost

    def test_energy_objective_counts_route_energy(self, context):
        app, app_id, _task, state, placement, distances = context
        objective = EnergyObjective(1.0, hop_energy=1.0)
        objective.bind_requirements({"b": ResourceVector(cycles=1)})
        placement = {"a": "dsp_0_0"}
        distances.record("dsp_0_1", "dsp_0_0", 3)
        distances.record("dsp_2_2", "dsp_0_0", 8)
        near = objective.score(app, app_id, "b",
                               state.platform.element("dsp_0_1"),
                               state, placement, distances)
        far = objective.score(app, app_id, "b",
                              state.platform.element("dsp_2_2"),
                              state, placement, distances)
        assert far > near

    def test_paper_objectives_delegate(self, context):
        app, app_id, task, state, placement, distances = context
        element = state.platform.element("dsp_0_0")
        comm = CommunicationObjective(2.0)
        frag = FragmentationObjective(1.0)
        assert comm(app, app_id, task, element, state, placement,
                    distances) == 0.0  # no mapped peers yet
        # corner elements yield a positive bonus -> negative cost
        assert frag(app, app_id, task, element, state, placement,
                    distances) < 0.0


class TestCompositeCost:
    def test_sum_of_parts(self, context):
        app, app_id, task, state, placement, distances = context
        element = state.platform.element("dsp_0_0")
        wear = WearLevelingObjective(1.0)
        load = LoadBalancingObjective(1.0)
        composite = CompositeCost([wear, load])
        total = composite(app, app_id, task, element, state, placement,
                          distances)
        parts = (
            wear(app, app_id, task, element, state, placement, distances)
            + load(app, app_id, task, element, state, placement, distances)
        )
        assert total == pytest.approx(parts)

    def test_empty_composite_rejected(self):
        with pytest.raises(ValueError):
            CompositeCost([])

    def test_map_application_accepts_composite(self, state3x3):
        app = chain_app(3)
        binding = bind(app, state3x3)
        cost = CompositeCost([
            CommunicationObjective(1.0),
            EnergyObjective(0.5),
        ])
        result = map_application(app, binding.choice, state3x3, cost=cost)
        assert set(result.placement) == set(app.tasks)

    def test_wear_leveling_spreads_repeated_allocations(self):
        """Repeated allocate/release cycles under wear leveling must
        touch more distinct elements than pure communication mapping."""

        def churn(weights_factory):
            platform = mesh(3, 3)
            manager = Kairos(platform, weights=weights_factory(),
                             validation_mode="skip")
            touched = set()
            for round_index in range(8):
                layout = admit_or_raise(manager, chain_app(2, cycles=30),
                                          f"r{round_index}")
                touched.update(layout.placement.values())
                manager.release(layout.app_id)
            return len(touched)

        from repro.core import COMMUNICATION, MappingCost
        sticky = churn(lambda: MappingCost(COMMUNICATION))
        rotating = churn(lambda: CompositeCost([
            CommunicationObjective(1.0),
            WearLevelingObjective(50.0),
        ]))
        assert rotating > sticky

    def test_kairos_type_check(self):
        with pytest.raises(TypeError):
            Kairos(mesh(2, 2), weights="not a cost")
