"""The complete Fig. 1 flow: partitioning to bootstrapping.

The paper's Fig. 1 spans both sides of the design-time / run-time
boundary.  This scenario walks every box:

  design time:  partitioning   — cluster an operation graph into tasks
                (application specification, packed as a .kair binary)
  run time:     binding        — choose implementations
                mapping        — place tasks (the paper's algorithm)
                routing        — reserve NoC virtual channels
                validation     — SDF throughput analysis
                bootstrapping  — emit the configuration plan

Run:  python examples/design_flow.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import CostWeights, Kairos, crisp, generate_plan
from repro.io import load_application, save_application
from repro.partition import (
    Ceiling,
    partition_operations,
    partition_to_application,
    random_operation_graph,
)
from repro.viz import render_occupancy, render_placement


def main() -> None:
    # ---- design time -----------------------------------------------------
    operations = random_operation_graph(
        24, seed=11, cycles_range=(4, 18), memory_range=(0, 6),
        name="radar_frontend",
    )
    print(f"operation graph: {len(operations)} operations, "
          f"{len(operations.edges)} data edges, "
          f"{operations.total_cycles()} total cycles, "
          f"{operations.total_traffic():.0f} total traffic")

    ceiling = Ceiling(cycles=70, memory=24)  # a comfortable DSP-tile budget
    partition = partition_operations(operations, ceiling)
    print(f"partitioned into {len(partition.clusters)} tasks "
          f"(ceiling {ceiling.cycles} cycles / {ceiling.memory} memory); "
          f"cut traffic {partition.cut_traffic():.0f} "
          f"of {operations.total_traffic():.0f}")

    app = partition_to_application(partition, name="radar_frontend")
    app.validate()
    print(f"application specification: {app}")

    with tempfile.TemporaryDirectory() as workdir:
        binary = Path(workdir) / "radar_frontend.kair"
        save_application(app, binary)
        print(f"packed to {binary.name} ({binary.stat().st_size} bytes)")

        # ---- run time ------------------------------------------------------
        manager = Kairos(crisp(), weights=CostWeights(1.0, 1.0),
                         validation_mode="report")
        shipped = load_application(binary)
        layout = manager.controller.admit(shipped).layout

    print()
    print("per-phase timings (ms):",
          {k: round(v, 2) for k, v in layout.timings.as_milliseconds().items()})
    print(f"hops per channel: {layout.hops_per_channel():.2f}")
    verdict = "satisfied" if layout.validation.satisfied else "violated"
    note = (" (none declared -> vacuously satisfied)"
            if not layout.validation.checks else "")
    print(f"constraints: {verdict}{note}")
    print()
    print("placement on the die:")
    print(render_placement(manager.platform, layout.placement))
    print()
    print("occupancy:")
    print(render_occupancy(manager.state))
    print()
    plan = generate_plan(shipped, layout)
    print(f"bootstrap plan: {len(plan.loads())} loads, "
          f"{len(plan.routes())} routes, {len(plan.starts())} starts")


if __name__ == "__main__":
    main()
