"""Quickstart: allocate one application on the CRISP platform.

Builds the platform of the paper's Fig. 6, generates a small synthetic
streaming application, runs the four-phase allocation (binding,
mapping, routing, validation) and prints the resulting execution
layout, per-phase timings and platform metrics.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    CostWeights,
    GeneratorConfig,
    Kairos,
    crisp,
    generate,
    generate_plan,
)


def main() -> None:
    # the platform of record: 1 ARM + 1 FPGA + 5 packages of
    # 9 DSPs / 2 memories / 1 test unit
    platform = crisp()
    print(f"platform: {platform}")

    # a small synthetic application with I/O pinned to the FPGA/ARM
    app = generate(
        GeneratorConfig(
            inputs=1, internals=4, outputs=1,
            utilization_low=0.2, utilization_high=0.5,
            pin_io_probability=1.0, io_elements=("fpga", "arm"),
        ),
        seed=7,
        name="quickstart_app",
    )
    print(f"application: {app}")

    # the resource manager with both mapping objectives enabled
    manager = Kairos(platform, weights=CostWeights(1.0, 1.0),
                     validation_mode="report")

    layout = manager.controller.admit(app).layout
    print()
    print(layout.describe())
    print()
    print("per-phase timings (ms):",
          {k: round(v, 2) for k, v in layout.timings.as_milliseconds().items()})
    if layout.validation and layout.validation.throughput:
        reference = next(iter(layout.placement))
        print(f"throughput at {reference}: "
              f"{layout.validation.throughput.of(reference):.4f} firings/s")
    print(f"platform fragmentation: {manager.external_fragmentation():.1f}%")
    print(f"platform utilization:   {manager.utilization() * 100:.1f}%")

    # the bootstrapping phase: an ordered hardware-configuration plan
    plan = generate_plan(app, layout)
    print()
    print(plan.as_script())

    manager.release(layout.app_id)
    print()
    print(f"after release: utilization {manager.utilization() * 100:.1f}%")


if __name__ == "__main__":
    main()
