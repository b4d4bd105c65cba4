"""Cross-module integration tests: full allocation pipelines on
multiple platforms, binary round trips through the manager, admission
sequences, and end-to-end fault recovery on CRISP."""

from __future__ import annotations

import pytest

from repro.apps import (
    GeneratorConfig,
    beamforming_application,
    generate,
    make_dataset,
)
from repro.apps.datasets import DatasetSpec
from repro.arch import ElementType, crisp, heterogeneous_mesh, irregular, mesh
from repro.core import BOTH, CostWeights
from repro.io import pack_application, unpack_application
from repro.manager import AllocationFailure, Kairos, generate_plan
from repro.routing import DijkstraRouter
from tests.conftest import admit_or_raise


def small_app(seed=0):
    return generate(
        GeneratorConfig(inputs=1, internals=3, outputs=1,
                        utilization_low=0.2, utilization_high=0.5),
        seed=seed,
    )


class TestFullPipelineAcrossPlatforms:
    @pytest.mark.parametrize("platform_factory", [
        lambda: mesh(4, 4),
        lambda: heterogeneous_mesh(4, 4),
        lambda: irregular(4, 4, drop_fraction=0.2, seed=2),
        lambda: crisp(packages=2),
    ], ids=["mesh", "hetmesh", "irregular", "crisp2"])
    def test_allocate_on_platform(self, platform_factory):
        """The generic-platform claim: the same manager allocates the
        same app on meshes, heterogeneous grids, irregular fabrics and
        the CRISP chain."""
        platform = platform_factory()
        manager = Kairos(platform, validation_mode="report")
        layout = admit_or_raise(manager, small_app())
        assert layout.validation is not None
        assert layout.validation.throughput.of(
            next(iter(layout.placement))
        ) >= 0
        manager.release(layout.app_id)
        assert manager.utilization() == 0.0

    def test_dijkstra_router_variant(self):
        manager = Kairos(mesh(4, 4), router=DijkstraRouter())
        layout = admit_or_raise(manager, small_app())
        assert layout.routes or layout.local_channels


class TestBeamformerEndToEnd:
    def test_case_study_pipeline(self):
        manager = Kairos(crisp(), weights=CostWeights(1, 1),
                         validation_mode="report")
        app = beamforming_application()
        layout = admit_or_raise(manager, app)
        # all 45 DSPs used (the paper: "requires all 45 DSPs")
        dsp_elements = {
            element for element in layout.placement.values()
            if manager.platform.element(element).kind == ElementType.DSP
        }
        assert len(dsp_elements) == 45
        # constraints hold on the admitted layout
        assert layout.validation.satisfied
        # bootstrap plan covers the full layout
        plan = generate_plan(app, layout)
        assert len(plan.loads()) == 53
        manager.release(layout.app_id)
        assert manager.external_fragmentation() == 0.0

    def test_binary_roundtrip_through_manager(self):
        """Pack the beamformer, load it back, allocate the copy: the
        'binary handler' workflow of Section III-E."""
        manager = Kairos(crisp(), weights=CostWeights(1, 1),
                         validation_mode="skip")
        data = pack_application(beamforming_application())
        restored = unpack_application(data)
        layout = admit_or_raise(manager, restored)
        assert len(layout.placement) == 53


class TestAdmissionSequence:
    def test_sequence_saturates_then_rejects(self):
        manager = Kairos(crisp(), weights=BOTH, validation_mode="skip")
        apps = make_dataset(
            DatasetSpec("computation", "small"), count=30, seed=3
        )
        admitted = rejected = 0
        for index, app in enumerate(apps):
            try:
                admit_or_raise(manager, app, f"a{index}")
                admitted += 1
            except AllocationFailure:
                rejected += 1
        # "Relatively early in the sequence, most platform resources
        # are allocated, resulting in rejection of the remaining
        # applications."
        assert admitted >= 5
        assert rejected >= 5
        assert manager.utilization() > 0.4

    def test_release_mid_sequence_frees_capacity(self):
        manager = Kairos(crisp(), weights=BOTH, validation_mode="skip")
        apps = make_dataset(
            DatasetSpec("computation", "small"), count=40, seed=4
        )
        # fill to first rejection
        admitted_ids = []
        failed_app = None
        for index, app in enumerate(apps):
            try:
                layout = admit_or_raise(manager, app, f"a{index}")
                admitted_ids.append(layout.app_id)
            except AllocationFailure:
                failed_app = app
                break
        if failed_app is None:
            pytest.skip("platform absorbed the whole dataset")
        # release half the admitted applications and retry
        for app_id in admitted_ids[: len(admitted_ids) // 2]:
            manager.release(app_id)
        admit_or_raise(manager, failed_app, "retry")  # must now succeed

    def test_fragmentation_metric_moves_with_occupancy(self):
        manager = Kairos(crisp(), weights=BOTH, validation_mode="skip")
        assert manager.external_fragmentation() == 0.0
        layouts = []
        apps = make_dataset(
            DatasetSpec("communication", "small"), count=6, seed=5
        )
        for index, app in enumerate(apps):
            try:
                layouts.append(admit_or_raise(manager, app, f"a{index}"))
            except AllocationFailure:
                pass
        if layouts:
            assert manager.external_fragmentation() > 0.0
        for layout in layouts:
            manager.release(layout.app_id)
        assert manager.external_fragmentation() == 0.0


class TestFaultRecoveryOnCrisp:
    def test_dsp_failure_recovery(self):
        manager = Kairos(crisp(), weights=BOTH, validation_mode="skip")
        app = generate(
            GeneratorConfig(inputs=1, internals=3, outputs=1,
                            utilization_low=0.3, utilization_high=0.6),
            seed=21,
        )
        layout = admit_or_raise(manager, app, "victim")
        dsp_used = next(
            (element for element in layout.placement.values()
             if manager.platform.element(element).kind == ElementType.DSP),
            None,
        )
        if dsp_used is None:
            pytest.skip("no DSP used by this app")
        manager.state.fail_element(dsp_used)
        report = manager.recover({"victim": app})
        assert "victim" in report.recovered
        new_layout = report.recovered["victim"]
        assert dsp_used not in new_layout.placement.values()

    def test_beamformer_cannot_survive_dsp_loss(self):
        """The beamformer needs all 45 DSPs: losing any one is fatal."""
        manager = Kairos(crisp(), weights=CostWeights(1, 1),
                         validation_mode="skip")
        app = beamforming_application()
        admit_or_raise(manager, app, "beam")
        manager.state.fail_element("p2_dsp_1_0")
        report = manager.recover({"beam": app})
        assert "beam" in report.lost
