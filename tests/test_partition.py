"""Tests for the design-time partitioning phase."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import AllocationState, mesh
from repro.partition import (
    Ceiling,
    Operation,
    OperationGraph,
    OpGraphError,
    PartitionError,
    partition_operations,
    partition_to_application,
    random_operation_graph,
)
from tests.conftest import admit_or_raise


def pipeline_graph(stages: int = 6, cycles: int = 10) -> OperationGraph:
    graph = OperationGraph("pipe")
    for index in range(stages):
        graph.add_operation(Operation(f"op{index}", cycles=cycles, memory=2))
    for index in range(stages - 1):
        graph.add_edge(f"op{index}", f"op{index + 1}", traffic=5.0)
    return graph


class TestOperationGraph:
    def test_duplicate_operation_rejected(self):
        graph = OperationGraph("g")
        graph.add_operation(Operation("a", 1))
        with pytest.raises(OpGraphError):
            graph.add_operation(Operation("a", 2))

    def test_edge_to_unknown_rejected(self):
        graph = OperationGraph("g")
        graph.add_operation(Operation("a", 1))
        with pytest.raises(OpGraphError):
            graph.add_edge("a", "ghost")

    def test_validation(self):
        graph = OperationGraph("g")
        with pytest.raises(OpGraphError):
            graph.validate()
        graph.add_operation(Operation("a", 1))
        graph.add_operation(Operation("b", 1))
        with pytest.raises(OpGraphError):  # disconnected
            graph.validate()
        graph.add_edge("a", "b")
        graph.validate()

    def test_random_graph_connected_and_deterministic(self):
        for seed in range(5):
            graph = random_operation_graph(12, seed=seed)
            assert graph.is_connected()
            assert len(graph) == 12
        a = random_operation_graph(10, seed=3)
        b = random_operation_graph(10, seed=3)
        assert [(e.source, e.target, e.traffic) for e in a.edges] == \
               [(e.source, e.target, e.traffic) for e in b.edges]


class TestPartitioner:
    def test_pipeline_packs_under_ceiling(self):
        graph = pipeline_graph(stages=6, cycles=10)
        partition = partition_operations(graph, Ceiling(cycles=30, memory=32))
        partition.validate(Ceiling(cycles=30, memory=32))
        # 6 ops x 10 cycles, ceiling 30 -> at least 2 clusters
        assert len(partition.clusters) >= 2
        for index in range(len(partition.clusters)):
            assert partition.cluster_cycles(index) <= 30

    def test_heavy_edges_kept_internal(self):
        """The heaviest edge should end up inside a cluster, not cut."""
        graph = OperationGraph("heavy")
        for name in "abcd":
            graph.add_operation(Operation(name, cycles=10))
        graph.add_edge("a", "b", traffic=100.0)  # must stay internal
        graph.add_edge("b", "c", traffic=1.0)
        graph.add_edge("c", "d", traffic=1.0)
        partition = partition_operations(graph, Ceiling(cycles=25))
        assert partition.cluster_of("a") == partition.cluster_of("b")

    def test_oversized_operation_rejected(self):
        graph = OperationGraph("big")
        graph.add_operation(Operation("huge", cycles=1000))
        with pytest.raises(PartitionError):
            partition_operations(graph, Ceiling(cycles=100))

    def test_cut_traffic_accounting(self):
        graph = pipeline_graph(stages=4, cycles=10)
        partition = partition_operations(graph, Ceiling(cycles=20, memory=32))
        # every cluster has 2 ops -> exactly 1 or more cut edges of 5.0
        total = graph.total_traffic()
        cut = partition.cut_traffic()
        assert 0 < cut < total

    def test_singleton_ceiling_yields_singletons(self):
        graph = pipeline_graph(stages=4, cycles=10)
        partition = partition_operations(graph, Ceiling(cycles=10, memory=32))
        assert len(partition.clusters) == 4
        assert partition.cut_traffic() == pytest.approx(graph.total_traffic())

    def test_refinement_never_exceeds_ceiling(self):
        ceiling = Ceiling(cycles=40, memory=16)
        graph = random_operation_graph(20, seed=8, cycles_range=(2, 12),
                                       memory_range=(0, 4))
        partition = partition_operations(graph, ceiling)
        partition.validate(ceiling)


@settings(max_examples=30, deadline=None)
@given(
    operations=st.integers(2, 25),
    seed=st.integers(0, 500),
    ceiling_cycles=st.integers(20, 100),
)
def test_partition_property_valid_and_bounded(operations, seed, ceiling_cycles):
    """Any random operation graph partitions into a valid, complete,
    ceiling-respecting clustering whose cut never exceeds the total."""
    graph = random_operation_graph(
        operations, seed=seed, cycles_range=(2, 15), memory_range=(0, 6),
    )
    ceiling = Ceiling(cycles=ceiling_cycles, memory=64)
    partition = partition_operations(graph, ceiling)
    partition.validate(ceiling)
    assert partition.cut_traffic() <= graph.total_traffic() + 1e-9


class TestToApplication:
    def test_application_structure(self):
        graph = pipeline_graph(stages=6, cycles=10)
        partition = partition_operations(graph, Ceiling(cycles=30, memory=32))
        app = partition_to_application(partition)
        app.validate()
        assert len(app) == len(partition.clusters)
        # channel bandwidth equals the cut traffic
        assert sum(c.bandwidth for c in app.channels.values()) == \
               pytest.approx(partition.cut_traffic())

    def test_requirements_reflect_clusters(self):
        graph = pipeline_graph(stages=4, cycles=12)
        partition = partition_operations(graph, Ceiling(cycles=24, memory=32))
        app = partition_to_application(partition)
        for index, task_name in enumerate(f"task{i}" for i in
                                          range(len(partition.clusters))):
            impl = app.task(task_name).implementations[0]
            assert impl.requirement["cycles"] == partition.cluster_cycles(index)

    def test_end_to_end_partition_then_allocate(self):
        """The full Fig. 1 flow: partition at design time, allocate at
        run time."""
        from repro.manager import Kairos
        graph = random_operation_graph(18, seed=4, cycles_range=(3, 15),
                                       memory_range=(0, 4))
        partition = partition_operations(graph, Ceiling(cycles=60, memory=24))
        app = partition_to_application(partition)
        manager = Kairos(mesh(4, 4), validation_mode="report")
        layout = admit_or_raise(manager, app)
        assert set(layout.placement) == set(app.tasks)
