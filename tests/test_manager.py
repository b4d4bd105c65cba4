"""Tests for the Kairos manager: phases, atomicity, release, recovery,
bootstrap plans and metrics."""

from __future__ import annotations

import pytest

from repro.apps import GeneratorConfig, ThroughputConstraint, generate
from repro.arch import ResourceVector, mesh
from repro.manager import (
    AllocationFailure,
    Kairos,
    Phase,
    SequenceRecorder,
    failure_distribution,
    generate_plan,
    summarize_positions,
    timings_by_task_count,
)
from repro.manager.bootstrap import LoadTask, ProgramRoute, StartTask
from tests.conftest import admit_or_raise, chain_app, diamond_app


class TestAllocate:
    def test_successful_allocation(self, mesh3x3):
        manager = Kairos(mesh3x3)
        app = chain_app(3)
        layout = admit_or_raise(manager, app)
        assert set(layout.placement) == set(app.tasks)
        assert layout.app_id in manager.admitted
        assert layout.timings.total > 0

    def test_phase_timings_populated(self, mesh3x3):
        manager = Kairos(mesh3x3, validation_mode="report")
        layout = admit_or_raise(manager, chain_app(3))
        ms = layout.timings.as_milliseconds()
        assert set(ms) == {"binding", "mapping", "routing", "validation"}
        assert all(v >= 0 for v in ms.values())

    def test_skip_validation_mode(self, mesh3x3):
        manager = Kairos(mesh3x3, validation_mode="skip")
        layout = admit_or_raise(manager, chain_app(3))
        assert layout.validation is None
        assert layout.timings.validation == 0.0

    def test_unknown_validation_mode_rejected(self, mesh3x3):
        with pytest.raises(ValueError):
            Kairos(mesh3x3, validation_mode="maybe")

    def test_binding_failure_phase_tagged(self, mesh3x3):
        manager = Kairos(mesh3x3)
        app = chain_app(3, cycles=1000)  # fits nowhere
        with pytest.raises(AllocationFailure) as info:
            admit_or_raise(manager, app)
        assert info.value.phase is Phase.BINDING

    def test_invalid_app_rejected_as_binding_failure(self, mesh3x3):
        from repro.apps import Application
        manager = Kairos(mesh3x3)
        with pytest.raises(AllocationFailure) as info:
            admit_or_raise(manager, Application("empty"))
        assert info.value.phase is Phase.BINDING

    def test_failure_rolls_back_state(self, mesh3x3):
        manager = Kairos(mesh3x3)
        baseline = manager.state.snapshot()
        with pytest.raises(AllocationFailure):
            admit_or_raise(manager, chain_app(3, cycles=1000))
        assert manager.state.snapshot() == baseline
        assert manager.admitted == {}

    def test_enforce_mode_rejects_violations(self, mesh3x3):
        manager = Kairos(mesh3x3, validation_mode="enforce")
        app = chain_app(3)
        app.add_constraint(ThroughputConstraint(1e9))
        baseline = manager.state.snapshot()
        with pytest.raises(AllocationFailure) as info:
            admit_or_raise(manager, app)
        assert info.value.phase is Phase.VALIDATION
        assert manager.state.snapshot() == baseline

    def test_report_mode_admits_violations(self, mesh3x3):
        manager = Kairos(mesh3x3, validation_mode="report")
        app = chain_app(3)
        app.add_constraint(ThroughputConstraint(1e9))
        layout = admit_or_raise(manager, app)
        assert not layout.validation.satisfied

    def test_duplicate_app_id_rejected(self, mesh3x3):
        manager = Kairos(mesh3x3)
        admit_or_raise(manager, chain_app(2), "same")
        with pytest.raises(ValueError):
            admit_or_raise(manager, chain_app(2), "same")

    def test_auto_app_ids_unique(self, mesh3x3):
        manager = Kairos(mesh3x3)
        first = admit_or_raise(manager, chain_app(2))
        second = admit_or_raise(manager, chain_app(2))
        assert first.app_id != second.app_id

    def test_routing_failure_tagged(self):
        # a 1x2 platform: tasks fit but cross-traffic saturates the
        # single corridor after several allocations
        platform = mesh(1, 2, virtual_channels=1,
                        endpoint_virtual_channels=1)
        manager = Kairos(platform, validation_mode="skip")
        phases = []
        for index in range(4):
            app = chain_app(2, cycles=20)
            try:
                admit_or_raise(manager, app, f"a{index}")
            except AllocationFailure as failure:
                phases.append(failure.phase)
        assert Phase.ROUTING in phases


class TestRelease:
    def test_release_restores_resources(self, mesh3x3):
        manager = Kairos(mesh3x3)
        baseline = manager.state.snapshot()
        layout = admit_or_raise(manager, diamond_app())
        manager.release(layout.app_id)
        after = manager.state.snapshot()
        after.pop("wear")   # wear and epoch odometers survive release
        baseline.pop("wear")
        after.pop("epoch")
        baseline.pop("epoch")
        assert after == baseline
        assert manager.admitted == {}

    def test_release_unknown_id_rejected(self, mesh3x3):
        with pytest.raises(KeyError):
            Kairos(mesh3x3).release("ghost")

    def test_release_all(self, mesh3x3):
        manager = Kairos(mesh3x3)
        admit_or_raise(manager, chain_app(2), "a")
        admit_or_raise(manager, chain_app(2), "b")
        manager.release_all()
        assert manager.admitted == {}
        assert manager.utilization() == 0.0

    def test_admit_release_cycles_stable(self, mesh3x3):
        """Admitting and releasing repeatedly never leaks resources."""
        manager = Kairos(mesh3x3)
        baseline = manager.state.snapshot()
        for _ in range(5):
            layout = admit_or_raise(manager, diamond_app())
            manager.release(layout.app_id)
        after = manager.state.snapshot()
        after.pop("wear")   # wear and epoch odometers survive release
        baseline.pop("wear")
        after.pop("epoch")
        baseline.pop("epoch")
        assert after == baseline


class TestRecovery:
    def test_stranded_detection_by_element(self, mesh3x3):
        manager = Kairos(mesh3x3)
        app = chain_app(3)
        layout = admit_or_raise(manager, app, "victim")
        element = layout.placement["t1"]
        manager.state.fail_element(element)
        assert manager.stranded_by_faults() == ("victim",)

    def test_stranded_detection_by_route(self, mesh3x3):
        manager = Kairos(mesh3x3)
        app = chain_app(2)
        layout = admit_or_raise(manager, app, "victim")
        route = next(iter(layout.routes.values()), None)
        if route is None:
            pytest.skip("tasks co-located; no route to fail")
        a, b = route.path[0], route.path[1]
        manager.state.fail_link(a, b)
        assert manager.stranded_by_faults() == ("victim",)

    def test_recover_remaps_victim(self, mesh3x3):
        manager = Kairos(mesh3x3)
        app = chain_app(3, cycles=30)
        layout = admit_or_raise(manager, app, "victim")
        manager.state.fail_element(layout.placement["t0"])
        report = manager.recover({"victim": app})
        assert report.stranded == ("victim",)
        assert "victim" in report.recovered
        new_layout = report.recovered["victim"]
        assert new_layout.placement["t0"] != layout.placement["t0"]

    def test_recover_reports_lost(self):
        platform = mesh(1, 2)
        manager = Kairos(platform, validation_mode="skip")
        app = chain_app(2, cycles=80)
        layout = admit_or_raise(manager, app, "victim")
        # fail one of the two elements: no room to remap both tasks
        manager.state.fail_element(layout.placement["t0"])
        report = manager.recover({"victim": app})
        assert "victim" in report.lost
        assert manager.admitted == {}

    def test_unaffected_apps_untouched(self, mesh4x4):
        manager = Kairos(mesh4x4)
        a = admit_or_raise(manager, chain_app(2, cycles=20), "a")
        b = admit_or_raise(manager, chain_app(2, cycles=20), "b")
        used_by_b = set(b.placement.values()) | {
            node for r in b.routes.values() for node in r.path
        }
        spare = next(
            e.name for e in mesh4x4.elements
            if e.name not in used_by_b
            and e.name not in set(a.placement.values())
        )
        manager.state.fail_element(spare)
        assert manager.stranded_by_faults() == ()


class TestBootstrap:
    def test_plan_covers_layout(self, mesh3x3):
        manager = Kairos(mesh3x3)
        app = diamond_app()
        layout = admit_or_raise(manager, app)
        plan = generate_plan(app, layout)
        loads = plan.loads()
        assert {l.task for l in loads} == set(app.tasks)
        assert {r.channel for r in plan.routes()} == set(layout.routes)
        assert {s.task for s in plan.starts()} == set(app.tasks)

    def test_replaying_plan_reconstructs_layout(self, mesh3x3):
        """The plan is a faithful encoding: replaying it yields exactly
        the layout's placement and routes."""
        manager = Kairos(mesh3x3)
        app = diamond_app()
        layout = admit_or_raise(manager, app)
        plan = generate_plan(app, layout)
        rebuilt_placement = {l.task: l.element for l in plan.loads()}
        assert rebuilt_placement == layout.placement
        rebuilt_routes = {r.channel: r.path for r in plan.routes()}
        assert rebuilt_routes == {
            name: route.path for name, route in layout.routes.items()
        }

    def test_consumers_start_before_producers(self, mesh3x3):
        manager = Kairos(mesh3x3)
        app = chain_app(3)
        layout = admit_or_raise(manager, app)
        plan = generate_plan(app, layout)
        order = [s.task for s in plan.starts()]
        assert order.index("t2") < order.index("t1") < order.index("t0")

    def test_script_render(self, mesh3x3):
        manager = Kairos(mesh3x3)
        app = chain_app(2)
        layout = admit_or_raise(manager, app)
        script = generate_plan(app, layout).as_script()
        assert "load" in script and "start" in script


class TestMetrics:
    def make_recorders(self):
        recorder = SequenceRecorder()
        layout_stub = None
        # synthesise records directly (unit-level)
        from repro.manager.metrics import AttemptRecord
        recorder.records = [
            AttemptRecord(1, "a", True, None, 2.0, 10.0,
                          {"binding": 1.0, "mapping": 2.0,
                           "routing": 0.5, "validation": 3.0}, 4),
            AttemptRecord(2, "b", False, Phase.ROUTING, None, 12.0, {}, 5),
        ]
        other = SequenceRecorder()
        other.records = [
            AttemptRecord(1, "a", False, Phase.BINDING, None, 3.0, {}, 4),
            AttemptRecord(2, "b", True, None, 4.0, 8.0,
                          {"binding": 2.0, "mapping": 1.0,
                           "routing": 0.5, "validation": 1.0}, 4),
        ]
        return [recorder, other]

    def test_summarize_positions(self):
        summaries = summarize_positions(self.make_recorders(), 2)
        assert summaries[0].attempts == 2
        assert summaries[0].successes == 1
        assert summaries[0].success_rate == 50.0
        assert summaries[0].mean_hops == 2.0
        assert summaries[1].mean_hops == 4.0

    def test_failure_distribution(self):
        distribution = failure_distribution(self.make_recorders())
        assert distribution[Phase.ROUTING] == 50.0
        assert distribution[Phase.BINDING] == 50.0
        assert distribution[Phase.MAPPING] == 0.0

    def test_failure_distribution_empty(self):
        assert failure_distribution([])[Phase.BINDING] == 0.0

    def test_timings_by_task_count(self):
        buckets = timings_by_task_count(self.make_recorders())
        assert set(buckets) == {4}
        assert buckets[4]["binding"] == pytest.approx(1.5)
        assert buckets[4]["validation"] == pytest.approx(2.0)
