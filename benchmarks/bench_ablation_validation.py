"""A5 — ablation: the state-space oracle vs the validation engine.

Section V future work: "the complexity of the throughput analysis may
be moved to design-time, making the validation approach a lot faster."
The admission path validates with the exact maximum-cycle-ratio engine
(Howard's policy iteration); the paper's self-timed state-space
exploration is its oracle.  On the 53-task beamformer layout (the
validation workload the paper calls problematic) the engine must agree
with the oracle on every actor's rate and beat it on wall-clock time.
"""

from __future__ import annotations

import time

from repro.apps import beamforming_application
from repro.arch import AllocationState
from repro.binding import bind
from repro.core import BOTH, MappingCost, map_application
from repro.routing import BfsRouter
from repro.validation import analyze_throughput, layout_to_sdf, mcr_throughput


def bench_ablation_validation(benchmark, platform):
    app = beamforming_application()
    state = AllocationState(platform)
    binding = bind(app, state)
    mapping = map_application(app, binding.choice, state,
                              cost=MappingCost(BOTH))
    routing = BfsRouter().route_application(app, mapping.placement, state)
    graph = layout_to_sdf(app, binding.choice, mapping.placement,
                          routing.routes, state)

    def run_both():
        started = time.perf_counter()
        oracle = analyze_throughput(graph)
        oracle_time = time.perf_counter() - started
        started = time.perf_counter()
        engine = mcr_throughput(graph)
        engine_time = time.perf_counter() - started
        return oracle, oracle_time, engine, engine_time

    oracle, oracle_time, engine, engine_time = benchmark.pedantic(
        run_both, iterations=1, rounds=3,
    )
    print()
    print(f"oracle (state space): throughput(output)="
          f"{oracle.of('output'):.6f} in {oracle_time * 1000:.1f} ms "
          f"({oracle.firings_simulated} firings)")
    print(f"engine (max cycle ratio): throughput(output)="
          f"{engine.of('output'):.6f} in {engine_time * 1000:.1f} ms")

    # the engine must equal the oracle on every actor of the layout
    for actor in graph.actors:
        rate = oracle.of(actor)
        relative_error = abs(engine.of(actor) - rate) / rate
        assert relative_error < 1e-9, (
            f"{actor}: engines disagree by {relative_error:.2e}"
        )
    # and deliver the promised speed-up
    assert engine_time < oracle_time, (
        f"engine {engine_time * 1000:.1f} ms not faster than "
        f"oracle {oracle_time * 1000:.1f} ms"
    )
