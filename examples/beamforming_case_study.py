"""The Section IV-A case study: a 53-task beamformer on CRISP.

Reproduces the paper's narrative end to end:

1. allocate the beamformer (it needs all 45 DSPs — "a difficult
   mapping problem") and print the per-phase timing breakdown next to
   the paper's numbers;
2. show that disabling either mapping objective loses the admission
   (the Fig. 10 observation), by retrying with communication-only,
   fragmentation-only and disabled cost functions;
3. sweep a small weight grid and render the admission map.

Run:  python examples/beamforming_case_study.py
"""

from __future__ import annotations

from repro import CostWeights, Kairos, beamforming_application, crisp
from repro.experiments import PAPER_CASE_STUDY_MS, format_fig10, run_fig10


def allocate_once(platform, weights: CostWeights) -> str:
    manager = Kairos(platform, weights=weights, validation_mode="report")
    app = beamforming_application()
    decision = manager.controller.admit(app)
    if not decision.admitted:
        return f"REJECTED in {decision.phase.value}"
    layout = decision.layout
    ms = layout.timings.as_milliseconds()
    hops = layout.hops_per_channel()
    manager.release(layout.app_id)
    return (
        f"admitted — binding {ms['binding']:.1f} ms, "
        f"mapping {ms['mapping']:.1f} ms, routing {ms['routing']:.1f} ms, "
        f"validation {ms['validation']:.1f} ms, {hops:.2f} hops/channel"
    )


def main() -> None:
    platform = crisp()
    app = beamforming_application()
    print(f"beamformer: {len(app)} tasks, {len(app.channels)} channels "
          f"(45 DSP-bound tasks on a 45-DSP platform)")
    print()

    print("paper (200 MHz ARM926):",
          ", ".join(f"{k} {v} ms" for k, v in PAPER_CASE_STUDY_MS.items()))
    print("this host, both objectives:",
          allocate_once(platform, CostWeights(1.0, 1.0)))
    print()

    print("objective sensitivity (the Fig. 10 observation):")
    for label, weights in (
        ("none         (0, 0)", CostWeights(0.0, 0.0)),
        ("communication(1, 0)", CostWeights(1.0, 0.0)),
        ("fragmentation(0, 1)", CostWeights(0.0, 1.0)),
        ("both         (1, 1)", CostWeights(1.0, 1.0)),
    ):
        print(f"  {label}: {allocate_once(platform, weights)}")
    print()

    print("admission map over a coarse weight grid "
          "(full grid: REPRO_FIG10_COMM_STEP=1 REPRO_FIG10_FRAG_STEP=10):")
    result = run_fig10(
        comm_weights=(0, 1, 2, 5, 10, 25),
        frag_weights=(0, 10, 50, 100, 400, 1000),
        platform=platform,
    )
    print(format_fig10(result))


if __name__ == "__main__":
    main()
