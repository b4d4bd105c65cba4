"""Experiments E5/E6 — Fig. 10 and the Section IV-A case study.

Fig. 10: "Admission of a beamforming application with various mapping
parameters.  Every point in [0,1,..,25] x [0,10,..,1000] is sampled."
The paper finds that "only specific ratio between the fragmentation
and communication objective results in admission ...  Disabling either
one of the objectives never gives a successful result."

Section IV-A also reports the case-study phase timings: "Allocating
resources for this application takes 70.4 ms for binding, 21.7 ms for
mapping, 7.4 ms for routing, and 20.6 ms for validation."  We measure
the same breakdown (host-Python milliseconds).

The full grid is 26 x 101 = 2626 allocation attempts; the default step
sizes subsample it (settable via ``REPRO_FIG10_COMM_STEP`` /
``REPRO_FIG10_FRAG_STEP``, or run :func:`run_fig10` with steps of 1
and 10 for the paper's full resolution).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.apps.beamforming import beamforming_application
from repro.arch.topology import Platform
from repro.core.cost import CostWeights
from repro.experiments.harness import default_platform
from repro.experiments.reporting import admission_matrix
from repro.manager.kairos import Kairos
from repro.manager.layout import PhaseTimings

#: the paper's sampled axes
PAPER_COMM_RANGE = tuple(range(0, 26))          # 0, 1, .., 25
PAPER_FRAG_RANGE = tuple(range(0, 1001, 10))    # 0, 10, .., 1000

#: the paper's case-study timings, milliseconds (for EXPERIMENTS.md)
PAPER_CASE_STUDY_MS = {
    "binding": 70.4,
    "mapping": 21.7,
    "routing": 7.4,
    "validation": 20.6,
}


@dataclass
class Fig10Result:
    comm_weights: tuple[float, ...]
    frag_weights: tuple[float, ...]
    #: (comm, frag) -> admitted
    admitted: dict[tuple[float, float], bool] = field(default_factory=dict)
    #: (comm, frag) -> failing phase name (absent for admissions)
    failures: dict[tuple[float, float], str] = field(default_factory=dict)

    @property
    def admitted_points(self) -> tuple[tuple[float, float], ...]:
        return tuple(sorted(p for p, ok in self.admitted.items() if ok))

    def admitted_count(self) -> int:
        return sum(1 for ok in self.admitted.values() if ok)

    def row_admits(self, frag: float) -> bool:
        """Does any communication weight admit at this frag weight?"""
        return any(
            ok for (c, f), ok in self.admitted.items() if f == frag
        )

    def column_admits(self, comm: float) -> bool:
        return any(
            ok for (c, f), ok in self.admitted.items() if c == comm
        )


def grid_from_environment() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis subsampling controlled by environment (default coarse)."""
    comm_step = int(os.environ.get("REPRO_FIG10_COMM_STEP", 5))
    frag_step = int(os.environ.get("REPRO_FIG10_FRAG_STEP", 100))
    comm = tuple(range(0, 26, comm_step))
    frag = tuple(range(0, 1001, frag_step))
    return comm, frag


def run_fig10(
    comm_weights=None,
    frag_weights=None,
    platform: Platform | None = None,
    channel_bandwidth: float = 6.0,
) -> Fig10Result:
    """Sample the admission map over the weight grid.

    One allocation attempt per grid point on an *empty* platform
    (validation in report mode, as the admission decision in the paper
    is binding/mapping/routing driven).
    """
    if comm_weights is None or frag_weights is None:
        env_comm, env_frag = grid_from_environment()
        comm_weights = comm_weights or env_comm
        frag_weights = frag_weights or env_frag
    platform = platform or default_platform()
    app = beamforming_application(channel_bandwidth=channel_bandwidth)
    result = Fig10Result(tuple(comm_weights), tuple(frag_weights))
    for comm in comm_weights:
        for frag in frag_weights:
            manager = Kairos(
                platform,
                weights=CostWeights(float(comm), float(frag)),
                validation_mode="skip",
            )
            point = (comm, frag)
            decision = manager.controller.admit(app)
            result.admitted[point] = decision.admitted
            if decision.admitted:
                manager.release(decision.app_id)
            else:
                result.failures[point] = decision.phase.value
    return result


def format_fig10(result: Fig10Result) -> str:
    matrix = admission_matrix(
        result.comm_weights, result.frag_weights, result.admitted
    )
    lines = [
        "Fig. 10 (measured): admission of the beamforming application",
        matrix,
        "",
        f"admitted {result.admitted_count()} of "
        f"{len(result.comm_weights) * len(result.frag_weights)} grid points",
    ]
    return "\n".join(lines)


def case_study_timing(
    platform: Platform | None = None,
    weights: CostWeights = CostWeights(1.0, 1.0),
    repeats: int = 3,
) -> PhaseTimings:
    """E6: the Section IV-A per-phase timing of one admission.

    Runs ``repeats`` full allocations on an empty platform and keeps
    the fastest of each phase (minimum over runs filters scheduler
    noise, standard micro-benchmark practice).
    """
    platform = platform or default_platform()
    app = beamforming_application()
    best = PhaseTimings(
        binding=float("inf"), mapping=float("inf"),
        routing=float("inf"), validation=float("inf"),
    )
    for _ in range(repeats):
        manager = Kairos(platform, weights=weights, validation_mode="report")
        decision = manager.controller.admit(app)
        if not decision.admitted:
            raise decision.failure
        timings = decision.timings
        best.binding = min(best.binding, timings.binding)
        best.mapping = min(best.mapping, timings.mapping)
        best.routing = min(best.routing, timings.routing)
        best.validation = min(best.validation, timings.validation)
        manager.release(decision.app_id)
    return best


def main() -> None:  # pragma: no cover - CLI convenience
    result = run_fig10()
    print(format_fig10(result))
    timings = case_study_timing()
    print("\ncase study (measured ms):", timings.as_milliseconds())
    print("case study (paper ms):   ", PAPER_CASE_STUDY_MS)


if __name__ == "__main__":  # pragma: no cover
    main()
