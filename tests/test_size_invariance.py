"""Per-admit work is a function of the application, not of the platform.

The same three-application sequence is admitted on an empty 12x12 and
an empty 48x48 mesh.  Every placement lands in the same corner
neighbourhood on both, so any deterministic work count that differs
between the two runs is work that scales with the platform.  Each row
below pins one such count as *equal*, or, for the memory an admitted
application keeps alive, as bounded by a small factor.

Building the platform is the one cost that must grow with it, so the
last rows pin the work that need not: element capacities are shared
constants and the element tables are computed on node ids, so building
a 24x24 mesh constructs and hashes no more resource vectors than a
12x12 one, and hashes no processing element at all; and a cluster of
identical column bands builds its band once, not once per shard.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.api import AdmissionController
from repro.arch import Link, ProcessingElement, ResourceVector, mesh
from repro.cluster import build_shards
from repro.core.cost import MappingCost
from repro.resilience import HealthRegistry
from tests.conftest import chain_app, diamond_app


def _applications() -> tuple:
    return (
        ("first", chain_app(3)),
        ("second", diamond_app()),
        ("third", chain_app(5, cycles=30)),
    )


def _admit_sequence(platform, monkeypatch, **kairos) -> tuple[list, int]:
    """Placements of the three admissions and the number of cost
    evaluations they took, counted on ``MappingCost.__call__`` (the
    class, not an instance), so a wrapped cost such as the health
    registry's is counted too.  ``kairos`` goes to the manager."""
    calls = [0]
    original = MappingCost.__call__

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MappingCost, "__call__", counting)
    controller = AdmissionController(
        platform, validation_mode="skip", **kairos
    )
    placements = []
    for app_id, app in _applications():
        decision = controller.admit(app, app_id)
        assert decision.admitted, decision.failure
        placements.append(dict(decision.layout.placement))
    monkeypatch.setattr(MappingCost, "__call__", original)
    return placements, calls[0]


def test_cost_evaluations_do_not_grow_with_the_mesh(monkeypatch):
    # the anchor of an empty-M0 application is a peek into the state's
    # capacity index, not one cost evaluation per available element
    small_placements, small_calls = _admit_sequence(mesh(12, 12), monkeypatch)
    large_placements, large_calls = _admit_sequence(mesh(48, 48), monkeypatch)
    assert small_placements == large_placements
    assert small_calls > 0
    assert small_calls == large_calls
    # an idle health registry keeps the peek: the same work on both
    # meshes as without a registry
    for size in (12, 48):
        placements, calls = _admit_sequence(
            mesh(size, size), monkeypatch, health=HealthRegistry()
        )
        assert (placements, calls) == (small_placements, small_calls), size


def _retained_bytes(platform) -> int:
    """Bytes still allocated after the three admissions, on a controller
    warmed by one admit + release round of the same applications (so
    one-time caches are already built and not counted)."""
    applications = _applications()
    controller = AdmissionController(platform, validation_mode="skip")
    for app_id, app in applications:
        assert controller.admit(app, app_id).admitted
    for app_id, _ in applications:
        controller.release(app_id)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for app_id, app in applications:
            assert controller.admit(app, app_id).admitted
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return after - before


def test_retained_memory_does_not_grow_with_the_mesh():
    # an admitted application keeps its layout, not the per-layer
    # distance rows (one cell per platform node) its mapping searched
    small = _retained_bytes(mesh(12, 12))
    large = _retained_bytes(mesh(48, 48))
    assert small > 0
    assert large <= 1.5 * small, (small, large)


def _counting(counts: dict, key: str, original):
    def counting(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    return counting


def _construction_counts(size: int) -> dict:
    """Calls of the three methods the element tables once ran per
    element, while building one ``size`` x ``size`` mesh."""
    methods = (
        (ResourceVector, "__init__"),
        (ResourceVector, "__hash__"),
        (ProcessingElement, "__hash__"),
    )
    counts = {f"{cls.__name__}.{name}": 0 for cls, name in methods}
    with pytest.MonkeyPatch.context() as patch:
        for cls, name in methods:
            key = f"{cls.__name__}.{name}"
            patch.setattr(cls, name, _counting(counts, key, getattr(cls, name)))
        mesh(size, size)
    return counts


def test_platform_construction_work_does_not_grow_with_the_mesh():
    small, large = _construction_counts(12), _construction_counts(24)
    assert small == large
    assert large["ProcessingElement.__hash__"] == 0


def _node_and_link_constructions(build) -> dict:
    """Links and processing elements constructed while ``build()`` runs."""
    counts = {"Link": 0, "ProcessingElement": 0}
    with pytest.MonkeyPatch.context() as patch:
        for cls in (Link, ProcessingElement):
            patch.setattr(cls, "__post_init__", _counting(
                counts, cls.__name__, cls.__post_init__
            ))
        build()
    return counts


def test_cluster_builds_its_band_once():
    # four 48x12 shards share one frozen band: the construction work of
    # one mesh(48, 12), not four
    cluster = _node_and_link_constructions(lambda: build_shards(48, 48, 4))
    band = _node_and_link_constructions(lambda: mesh(48, 12))
    assert cluster == band
    assert band == {"Link": 1668, "ProcessingElement": 576}
