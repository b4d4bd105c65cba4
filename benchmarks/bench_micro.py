"""Micro-benchmarks of the allocation phases and core primitives.

These track the run-time feasibility claim — "low-complexity
algorithms are required, in order to respond fast enough" — at the
granularity of individual components: a single four-phase allocation,
the mapping phase alone, routing alone, SDF throughput analysis, and
the GAP/knapsack inner loop.
"""

from __future__ import annotations

from repro.apps import GeneratorConfig, beamforming_application, generate
from repro.arch import AllocationState, ResourceVector, crisp, mesh
from repro.binding import bind
from repro.core import BOTH, MappingCost, map_application
from repro.core.knapsack import KnapsackItem, solve_greedy
from repro.experiments import (
    CHURN_BENCH_CONFIG,
    CHURN_BENCH_POOL_SIZE,
    churn_pool,
    run_admission_churn,
)
from repro.manager import Kairos
from repro.routing import BfsRouter
from repro.validation import analyze_throughput, layout_to_sdf


def bench_single_allocation_small(benchmark, platform):
    """One full allocation (bind+map+route) of a 6-task app on CRISP."""
    app = generate(
        GeneratorConfig(inputs=1, internals=4, outputs=1,
                        utilization_low=0.2, utilization_high=0.5),
        seed=3,
    )

    def allocate():
        manager = Kairos(platform, weights=BOTH, validation_mode="skip")
        decision = manager.controller.admit(app)
        manager.release(decision.app_id)

    benchmark(allocate)


def bench_mapping_beamformer(benchmark, platform):
    """The mapping phase alone for the 53-task case study (paper: 21.7 ms)."""
    app = beamforming_application()
    state = AllocationState(platform)
    binding = bind(app, state)

    def run():
        with state.transaction():
            mark = state.savepoint()
            map_application(app, binding.choice, state, cost=MappingCost(BOTH))
            state.rollback_to(mark)

    benchmark(run)


def bench_routing_beamformer(benchmark, platform):
    """The routing phase alone for the case study (paper: 7.4 ms)."""
    app = beamforming_application()
    state = AllocationState(platform)
    binding = bind(app, state)
    mapping = map_application(app, binding.choice, state,
                              cost=MappingCost(BOTH))

    def run():
        with state.transaction():
            mark = state.savepoint()
            BfsRouter().route_application(app, mapping.placement, state)
            state.rollback_to(mark)

    benchmark(run)


def bench_validation_beamformer(benchmark, platform):
    """SDF throughput analysis of the case-study layout (paper: 20.6 ms)."""
    app = beamforming_application()
    state = AllocationState(platform)
    binding = bind(app, state)
    mapping = map_application(app, binding.choice, state,
                              cost=MappingCost(BOTH))
    routing = BfsRouter().route_application(app, mapping.placement, state)
    graph = layout_to_sdf(app, binding.choice, mapping.placement,
                          routing.routes, state)

    benchmark(analyze_throughput, graph)


def bench_knapsack_inner_loop(benchmark):
    """The O(T^2) knapsack on a 16-item instance (the GAP hot path)."""
    items = [
        KnapsackItem(f"t{k}", profit=float((k * 37) % 19 + 1),
                     requirement=ResourceVector(cycles=(k * 13) % 40 + 5,
                                                memory=(k * 7) % 12 + 1))
        for k in range(16)
    ]
    capacity = ResourceVector(cycles=100, memory=32)
    benchmark(solve_greedy, items, capacity)


def bench_binding_beamformer(benchmark, platform):
    """The binding phase alone for the case study (paper: 70.4 ms)."""
    app = beamforming_application()
    state = AllocationState(platform)
    benchmark(bind, app, state)


def bench_admission_churn(benchmark):
    """Sustained allocate/release churn, 12x12 mesh at ~80% utilization.

    The workload of the PR-over-PR perf trajectory: run
    ``python benchmarks/run_admission_bench.py`` to emit the
    machine-readable ``BENCH_admission.json`` (including the
    seed-reference comparison and rollback-scaling micro-benchmarks).
    """
    pool = churn_pool(count=CHURN_BENCH_POOL_SIZE, seed=0)

    def run():
        run_admission_churn(pool, mesh(12, 12), CHURN_BENCH_CONFIG)

    benchmark(run)
