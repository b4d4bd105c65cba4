"""Validation phase: check performance constraints on a layout.

"The performance constraints given in the application specification
are validated against the performance provided by the execution layout
derived from the previous phases" (Section I).  Latency constraints
are first converted to throughput constraints [12]
(:mod:`repro.apps.constraints`), the layout is translated into an
HSDF graph, and its throughput is computed exactly as the graph's
maximum cycle ratio (:mod:`repro.validation.mcr`, Howard's policy
iteration) — the "a lot faster" analysis of Section V [18].  The
paper's self-timed state-space exploration [5][13]
(:func:`~repro.validation.throughput.analyze_throughput`) is the
oracle the tests hold it to.

Matching the paper's experimental protocol, the resource manager can
run validation in three modes: ``enforce`` (reject on violation),
``report`` (compute, record, never reject — used for Table I, since
"it is difficult to generate reasonable performance constraints
automatically, we do not reject applications in the validation
phase"), and ``skip``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.constraints import ThroughputConstraint, normalize
from repro.apps.implementations import Implementation
from repro.apps.taskgraph import Application
from repro.arch.state import AllocationState, ChannelReservation
from repro.validation.builder import SdfModelOptions, layout_to_sdf
from repro.validation.mcr import mcr_throughput
from repro.validation.throughput import ThroughputResult


class ValidationError(RuntimeError):
    """The layout violates at least one performance constraint."""


@dataclass(frozen=True)
class ConstraintCheck:
    constraint: ThroughputConstraint
    achieved: float
    satisfied: bool


@dataclass
class ValidationReport:
    """Throughput analysis outcome plus per-constraint verdicts."""

    throughput: ThroughputResult | None
    checks: list[ConstraintCheck] = field(default_factory=list)
    deadlocked: bool = False

    @property
    def satisfied(self) -> bool:
        return not self.deadlocked and all(c.satisfied for c in self.checks)

    def violations(self) -> tuple[ConstraintCheck, ...]:
        return tuple(c for c in self.checks if not c.satisfied)


def default_reference_task(app: Application) -> str:
    """The task throughput is measured at when a constraint names none.

    Preference order: first declared ``output``-role task, else the
    first sink (no outgoing channels), else the alphabetically first
    task.  Deterministic by construction.
    """
    outputs = app.roles("output")
    if outputs:
        return min(t.name for t in outputs)
    sinks = [t.name for t in app.tasks.values() if not app.successors(t.name)]
    if sinks:
        return min(sinks)
    return min(app.tasks)


def validate_layout(
    app: Application,
    binding: dict[str, Implementation],
    placement: dict[str, str],
    routes: dict[str, ChannelReservation],
    state: AllocationState,
    options: SdfModelOptions = SdfModelOptions(),
) -> ValidationReport:
    """Compute the layout's throughput and evaluate every constraint.

    Never raises on violation — it *reports*; enforcement policy is
    the manager's job.  Applications without constraints still get a
    throughput analysis (the result feeds Fig. 7's validation-phase
    timing).
    """
    graph = layout_to_sdf(app, binding, placement, routes, state, options)
    result = mcr_throughput(graph)
    report = ValidationReport(throughput=result, deadlocked=result.deadlocked)

    for constraint in normalize(app.constraints):
        reference = constraint.reference_task or default_reference_task(app)
        achieved = 0.0 if result.deadlocked else result.of(reference)
        report.checks.append(
            ConstraintCheck(
                constraint=constraint,
                achieved=achieved,
                satisfied=constraint.satisfied_by(achieved),
            )
        )
    return report
