"""Unit tests for the allocation state (occupancy, routes, faults,
fragmentation, snapshots)."""

from __future__ import annotations

import pytest

from repro.arch import (
    AllocationError,
    AllocationState,
    ResourceVector,
    TopologyError,
    mesh,
)

REQ = ResourceVector(cycles=30, memory=8)


class TestOccupancy:
    def test_occupy_reduces_free(self, state3x3):
        before = state3x3.free("dsp_0_0")
        state3x3.occupy("dsp_0_0", "app", "t0", REQ)
        after = state3x3.free("dsp_0_0")
        assert after == before - REQ

    def test_vacate_restores_free(self, state3x3):
        before = state3x3.free("dsp_0_0")
        state3x3.occupy("dsp_0_0", "app", "t0", REQ)
        state3x3.vacate("app", "t0")
        assert state3x3.free("dsp_0_0") == before

    def test_over_allocation_rejected(self, state3x3):
        big = ResourceVector(cycles=90)
        state3x3.occupy("dsp_0_0", "app", "t0", big)
        with pytest.raises(AllocationError):
            state3x3.occupy("dsp_0_0", "app", "t1", big)

    def test_double_placement_rejected(self, state3x3):
        state3x3.occupy("dsp_0_0", "app", "t0", REQ)
        with pytest.raises(AllocationError):
            state3x3.occupy("dsp_0_1", "app", "t0", REQ)

    def test_vacate_unknown_task_rejected(self, state3x3):
        with pytest.raises(AllocationError):
            state3x3.vacate("app", "ghost")

    def test_is_available_tracks_free(self, state3x3):
        assert state3x3.is_available("dsp_0_0", ResourceVector(cycles=100))
        state3x3.occupy("dsp_0_0", "app", "t0", ResourceVector(cycles=60))
        assert not state3x3.is_available("dsp_0_0", ResourceVector(cycles=60))
        assert state3x3.is_available("dsp_0_0", ResourceVector(cycles=40))

    def test_occupants_and_placements(self, state3x3):
        state3x3.occupy("dsp_0_0", "a", "t0", REQ)
        state3x3.occupy("dsp_0_0", "b", "t0", REQ)
        assert len(state3x3.occupants("dsp_0_0")) == 2
        assert state3x3.element_of("a", "t0") == "dsp_0_0"
        assert state3x3.element_of("a", "nope") is None
        assert state3x3.placements_of("a") == {"t0": "dsp_0_0"}
        assert state3x3.applications() == ("a", "b")

    def test_unknown_element_rejected(self, state3x3):
        with pytest.raises(TopologyError):
            state3x3.occupy("ghost", "a", "t", REQ)

    def test_unfrozen_platform_rejected(self):
        from repro.arch.topology import Platform
        with pytest.raises(TopologyError):
            AllocationState(Platform("raw"))


class TestRoutes:
    def path(self):
        return ["dsp_0_0", "r_0_0", "r_0_1", "dsp_0_1"]

    def test_reserve_and_release(self, state3x3):
        reservation = state3x3.reserve_route("a", "c0", self.path(), 10.0)
        assert reservation.hops == 3
        assert state3x3.vc_free("r_0_0", "r_0_1") == 3
        assert state3x3.bandwidth_free("r_0_0", "r_0_1") == 90.0
        state3x3.release_route("a", "c0")
        assert state3x3.vc_free("r_0_0", "r_0_1") == 4
        assert state3x3.bandwidth_free("r_0_0", "r_0_1") == 100.0

    def test_direction_independence(self, state3x3):
        state3x3.reserve_route("a", "c0", self.path(), 10.0)
        # reverse direction unaffected
        assert state3x3.vc_free("r_0_1", "r_0_0") == 4

    def test_vc_exhaustion(self, state3x3):
        for index in range(4):
            state3x3.reserve_route("a", f"c{index}", self.path(), 1.0)
        with pytest.raises(AllocationError):
            state3x3.reserve_route("a", "c4", self.path(), 1.0)

    def test_bandwidth_exhaustion(self, state3x3):
        state3x3.reserve_route("a", "c0", self.path(), 70.0)
        with pytest.raises(AllocationError):
            state3x3.reserve_route("a", "c1", self.path(), 40.0)

    def test_failed_reservation_leaves_no_residue(self, state3x3):
        state3x3.reserve_route("a", "c0", self.path(), 70.0)
        before = state3x3.snapshot()
        with pytest.raises(AllocationError):
            state3x3.reserve_route("a", "c1", self.path(), 40.0)
        assert state3x3.snapshot() == before

    def test_duplicate_channel_rejected(self, state3x3):
        state3x3.reserve_route("a", "c0", self.path(), 1.0)
        with pytest.raises(AllocationError):
            state3x3.reserve_route("a", "c0", self.path(), 1.0)

    def test_single_node_path_rejected(self, state3x3):
        with pytest.raises(AllocationError):
            state3x3.reserve_route("a", "c0", ["dsp_0_0"], 1.0)

    def test_reservations_of(self, state3x3):
        state3x3.reserve_route("a", "c0", self.path(), 1.0)
        state3x3.reserve_route("b", "c0", self.path(), 1.0)
        assert len(state3x3.reservations_of("a")) == 1
        assert state3x3.reservation("a", "c0") is not None
        assert state3x3.reservation("a", "zz") is None


class TestReleaseApplication:
    def test_release_clears_everything(self, state3x3):
        baseline = state3x3.snapshot()
        state3x3.occupy("dsp_0_0", "a", "t0", REQ)
        state3x3.occupy("dsp_0_1", "a", "t1", REQ)
        state3x3.reserve_route(
            "a", "c0", ["dsp_0_0", "r_0_0", "r_0_1", "dsp_0_1"], 5.0
        )
        state3x3.release_application("a")
        after = state3x3.snapshot()
        # the wear and epoch odometers intentionally survive releases
        wear = after.pop("wear")
        baseline.pop("wear")
        epoch = after.pop("epoch")
        baseline.pop("epoch")
        assert after == baseline
        assert epoch == 6  # 2 occupies + 1 reserve + 2 vacates + 1 release
        assert wear["dsp_0_0"] == 1 and wear["dsp_0_1"] == 1

    def test_release_is_per_application(self, state3x3):
        state3x3.occupy("dsp_0_0", "a", "t0", REQ)
        state3x3.occupy("dsp_0_0", "b", "t0", REQ)
        state3x3.release_application("a")
        assert state3x3.placements_of("b") == {"t0": "dsp_0_0"}

    def test_release_one_of_many_equals_the_ledger_filter(self):
        state = AllocationState(mesh(4, 4))
        small = ResourceVector(cycles=5, memory=1)
        elements = [e.name for e in state.platform.elements]
        apps = ["a", "b", "c", "d"]
        # interleave the applications in both ledgers
        for step in range(24):
            app = apps[step % len(apps)]
            element = elements[step % len(elements)]
            state.occupy(element, app, f"t{step}", small)
            router = "r" + element[3:]  # dsp_i_j sits on r_i_j
            state.reserve_route(app, f"c{step}", [element, router], 1.0)
        # an aborted release re-files b's entries last in both ledgers
        with pytest.raises(RuntimeError):
            with state.transaction():
                state.release_application("b")
                raise RuntimeError("abort")
        state.check_invariants()

        def brute(app_id):
            placements = [
                (task, element_id)
                for (app, task), element_id in state._placements.items()
                if app == app_id
            ]
            routes = [
                res for (app, _ch), res in state._reservations.items()
                if app == app_id
            ]
            return placements, routes

        nodes = state.platform.nodes
        for app in apps:
            placements, routes = brute(app)
            assert list(state.placements_of(app).items()) == [
                (task, nodes[element_id].name)
                for task, element_id in placements
            ]
            assert state.reservations_of(app) == tuple(routes)
        others = {app: brute(app) for app in apps if app != "b"}
        expected_placements, expected_routes = brute("b")
        calls = []
        vacate, release_route = state.vacate, state.release_route
        state.vacate = lambda app, task: (
            calls.append(task), vacate(app, task)
        )
        state.release_route = lambda app, channel: (
            calls.append(channel), release_route(app, channel)
        )
        state.release_application("b")
        # the vacate order (which feeds the journal) is the ledger order
        assert calls == [task for task, _e in expected_placements] + [
            res.channel_id for res in expected_routes
        ]
        assert brute("b") == ([], [])
        assert state.placements_of("b") == {}
        assert state.reservations_of("b") == ()
        assert not state.has_placements("b")
        assert {app: brute(app) for app in others} == others
        assert state.applications() == ("a", "c", "d")
        state.check_invariants()


class TestFaults:
    def test_failed_element_offers_nothing(self, state3x3):
        state3x3.fail_element("dsp_0_0")
        assert state3x3.free("dsp_0_0") == ResourceVector()
        assert not state3x3.is_available("dsp_0_0", ResourceVector(cycles=1))
        with pytest.raises(AllocationError):
            state3x3.occupy("dsp_0_0", "a", "t", REQ)

    def test_heal_element(self, state3x3):
        state3x3.fail_element("dsp_0_0")
        state3x3.heal_element("dsp_0_0")
        assert state3x3.is_available("dsp_0_0", REQ)

    def test_failed_link_blocks_traversal(self, state3x3):
        state3x3.fail_link("r_0_0", "r_0_1")
        assert state3x3.vc_free("r_0_0", "r_0_1") == 0
        assert not state3x3.can_traverse("r_0_0", "r_0_1", 1.0)
        state3x3.heal_link("r_0_0", "r_0_1")
        assert state3x3.vc_free("r_0_0", "r_0_1") == 4

    def test_fail_unknown_link_rejected(self, state3x3):
        with pytest.raises(TopologyError):
            state3x3.fail_link("r_0_0", "r_2_2")

    def test_failed_sets_exposed(self, state3x3):
        state3x3.fail_element("dsp_1_1")
        state3x3.fail_link("r_0_0", "r_0_1")
        assert state3x3.failed_elements == frozenset({"dsp_1_1"})
        assert frozenset(("r_0_0", "r_0_1")) in state3x3.failed_links


class TestFragmentation:
    def test_empty_platform_zero(self, state3x3):
        assert state3x3.external_fragmentation() == 0.0

    def test_full_platform_zero(self, state3x3):
        for element in state3x3.platform.elements:
            state3x3.occupy(element, "a", f"t_{element.name}", REQ)
        assert state3x3.external_fragmentation() == 0.0

    def test_single_used_corner(self, state3x3):
        state3x3.occupy("dsp_0_0", "a", "t", REQ)
        # corner has 2 adjacent elements; 12 adjacent pairs in a 3x3 mesh
        assert state3x3.external_fragmentation() == pytest.approx(100 * 2 / 12)

    def test_checkerboard_is_maximal(self):
        platform = mesh(2, 2)
        state = AllocationState(platform)
        state.occupy("dsp_0_0", "a", "t0", REQ)
        state.occupy("dsp_1_1", "a", "t1", REQ)
        assert state.external_fragmentation() == 100.0

    def test_utilization(self, state3x3):
        assert state3x3.utilization() == 0.0
        element = state3x3.platform.element("dsp_0_0")
        state3x3.occupy(element, "a", "t", element.capacity)
        assert state3x3.utilization() == pytest.approx(1 / 9)


class TestSnapshots:
    def test_snapshot_is_isolated_from_later_changes(self, state3x3):
        snapshot = state3x3.snapshot()
        state3x3.occupy("dsp_0_0", "a", "t0", REQ)
        assert snapshot["placements"] == {}
