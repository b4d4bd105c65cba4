"""Fault tolerance: surviving element failures by re-allocation.

The paper's opening motivation: run-time resource management exists
"to handle future changes in the application set, and to provide some
degree of fault tolerance, due to imperfect production processes and
wear of materials."  This scenario admits a handful of applications on
CRISP, then injects a deterministic campaign of DSP failures; after
each fault the manager identifies the stranded applications, releases
them and re-allocates on the degraded platform until the capacity is
genuinely gone.

Run:  python examples/fault_tolerance.py
"""

from __future__ import annotations

from repro import CostWeights, GeneratorConfig, Kairos, crisp, generate
from repro.arch.faults import random_element_campaign, stranded_applications


def main() -> None:
    platform = crisp()
    manager = Kairos(platform, weights=CostWeights(1.0, 1.0),
                     validation_mode="skip")

    # admit five moderate applications
    specifications = {}
    for index in range(5):
        app = generate(
            GeneratorConfig(inputs=1, internals=4, outputs=1,
                            utilization_low=0.3, utilization_high=0.6,
                            pin_io_probability=0.5,
                            io_elements=("fpga", "arm")),
            seed=100 + index,
            name=f"stream{index}",
        )
        layout = manager.controller.admit(app, f"stream{index}").layout
        specifications[f"stream{index}"] = app
        print(f"admitted {layout.app_id} on "
              f"{sorted(set(layout.placement.values()))}")

    print()
    campaign = random_element_campaign(
        manager.state, count=12, seed=4, spare=("fpga", "arm"),
    )
    survived = lost = 0
    for round_index in range(len(campaign.faults)):
        fault = campaign.faults[round_index]
        victims = stranded_applications(manager.state, fault)
        campaign.inject_next(manager.state)
        if not victims:
            print(f"fault {round_index:>2}: {fault.target[0]:<14} "
                  "— nobody stranded")
            continue
        report = manager.recover(specifications)
        recovered = sorted(report.recovered)
        dead = sorted(report.lost)
        survived += len(recovered)
        lost += len(dead)
        print(f"fault {round_index:>2}: {fault.target[0]:<14} "
              f"stranded {list(victims)} -> recovered {recovered}"
              + (f", LOST {dead} ({'; '.join(report.lost.values())})"
                 if dead else ""))
        for app_id in dead:
            specifications.pop(app_id, None)

    print()
    print(f"campaign over: {len(manager.admitted)} applications still "
          f"running after {len(campaign.injected)} element faults "
          f"({survived} successful recoveries, {lost} lost)")
    print(f"degraded platform utilization: "
          f"{manager.utilization() * 100:.1f}%")


if __name__ == "__main__":
    main()
