"""Custom mapping objectives: energy, wear leveling, load balancing.

Paper Section III: "Various mapping objectives may be defined, like
minimal energy consumption, reducing resource fragmentation, wear
leveling, or load balancing", and the algorithm works with "any cost
function that can be defined for a platform".  This scenario runs the
same churn workload (applications arriving and leaving repeatedly)
under three cost functions and compares what each optimises:

* the paper default (communication + fragmentation),
* energy-aware (communication + energy),
* wear-levelled (communication + wear) — watch the wear spread drop.

Run:  python examples/custom_objectives.py
"""

from __future__ import annotations

from repro import CostWeights, GeneratorConfig, Kairos, MappingCost, crisp, generate
from repro.core import (
    CommunicationObjective,
    CompositeCost,
    EnergyObjective,
    WearLevelingObjective,
)


def churn(weights, rounds: int = 30):
    """Allocate/release a rotating set of small apps; report stats."""
    platform = crisp()
    manager = Kairos(platform, weights=weights, validation_mode="skip")
    apps = [
        generate(
            GeneratorConfig(inputs=1, internals=3, outputs=1,
                            utilization_low=0.3, utilization_high=0.6),
            seed=40 + index,
            name=f"churn{index}",
        )
        for index in range(4)
    ]
    hops = []
    for round_index in range(rounds):
        app = apps[round_index % len(apps)]
        layout = manager.controller.admit(app, f"r{round_index}").layout
        hops.append(layout.hops_per_channel())
        manager.release(layout.app_id)
    wear_values = sorted(
        (manager.state.wear(e) for e in platform.elements), reverse=True
    )
    dsp_wear = [
        manager.state.wear(e)
        for e in platform.elements if e.kind.value == "dsp"
    ]
    touched = sum(1 for w in wear_values if w > 0)
    return {
        "mean hops/channel": sum(hops) / len(hops),
        "elements ever used": touched,
        "max element wear": wear_values[0],
        "dsp wear spread (max-min)": max(dsp_wear) - min(dsp_wear),
    }


def main() -> None:
    configurations = {
        "paper default (comm+frag)": MappingCost(CostWeights(1.0, 1.0)),
        "energy-aware (comm+energy)": CompositeCost([
            CommunicationObjective(1.0),
            EnergyObjective(0.2),
        ]),
        "wear-levelled (comm+wear)": CompositeCost([
            CommunicationObjective(1.0),
            WearLevelingObjective(25.0),
        ]),
    }
    results = {name: churn(weights) for name, weights in configurations.items()}

    metrics = list(next(iter(results.values())))
    width = max(len(name) for name in results) + 2
    print(f"{'cost function':<{width}}" +
          "".join(f"{metric:>28}" for metric in metrics))
    for name, stats in results.items():
        print(f"{name:<{width}}" +
              "".join(f"{stats[metric]:>28.2f}" for metric in metrics))

    print()
    print("reading: wear leveling touches more elements and flattens the")
    print("per-tile wear spread, paying a modest hops premium; the paper")
    print("default concentrates allocations on the same favourite tiles.")


if __name__ == "__main__":
    main()
