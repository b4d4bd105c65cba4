"""E2 — regenerate Fig. 7: per-phase runtime vs application size.

Prints the mean per-phase milliseconds bucketed by task count and
checks the scaling claims we reproduce: every phase stays in the
run-time range (milliseconds) for realistic application sizes, and
every phase's cost grows with application size.

Known deviation (see EXPERIMENTS.md): the paper reports validation as
the worst-scaling phase.  Our validation computes the layout's exact
maximum cycle ratio (Howard's policy iteration), which at these sizes
costs about as much as binding or routing and less than mapping
(0.15 ms at 3 tasks, 1.5 ms at 15, seed 0 on a 2-vCPU linux VM); it
dominates nowhere, not even on the 53-task case study.
"""

from __future__ import annotations

from repro.experiments import format_fig7, run_fig7
from repro.manager import Phase


def bench_fig7(benchmark, scale, platform):
    result = benchmark.pedantic(
        run_fig7,
        kwargs={"scale": scale, "seed": 0, "platform": platform},
        iterations=1, rounds=1,
    )
    print()
    print(format_fig7(result))

    sizes = sorted(result.series)
    assert sizes, "no successful allocations recorded"
    # run-time feasibility: every phase mean stays below 100 ms for
    # every application size (the paper: "tens of milliseconds" for a
    # whole attempt on a 200 MHz ARM; host Python is comfortably faster)
    for tasks, values in result.series.items():
        for phase in Phase:
            assert values[phase.value] < 100.0, (
                f"{phase.value} took {values[phase.value]:.1f} ms "
                f"at {tasks} tasks"
            )
    small = [s for s in sizes if s <= 6]
    large = [s for s in sizes if s >= 10]
    if small and large:
        def mean_phase(buckets, phase):
            values = [result.series[b][phase.value] for b in buckets]
            return sum(values) / len(values)

        # every phase's cost grows with application size
        for phase in Phase:
            lo = mean_phase(small, phase)
            hi = mean_phase(large, phase)
            assert hi >= lo * 0.8, (
                f"{phase.value} cost shrank with size: {lo:.2f} -> {hi:.2f}"
            )
