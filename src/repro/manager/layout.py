"""Execution layouts and the allocation failure taxonomy.

"As a result of these phases, an execution layout defines what
specific resources are allocated to each task and communication
channel in the application" (paper Section I).  The layout is the
contract between the resource manager and the bootstrapping phase.

Failures are classified by phase — the unit of account of Table I
("failure distribution per phase").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.apps.implementations import Implementation
from repro.arch.state import ChannelReservation
from repro.reasons import ReasonCode
from repro.validation.validator import ValidationReport


class Phase(enum.Enum):
    """The four run-time phases of Fig. 1 (plus bootstrapping)."""

    BINDING = "binding"
    MAPPING = "mapping"
    ROUTING = "routing"
    VALIDATION = "validation"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class AllocationFailure(RuntimeError):
    """An allocation attempt was rejected in ``phase``.

    The allocation state has already been rolled back when this is
    raised by the manager.  ``timings`` (when the manager attaches
    them) hold the wall-clock cost of the phases that actually ran
    before the rejection; ``memoized`` flags a rejection the memo
    replayed without running the pipeline (the decision is identical
    either way — see :mod:`repro.manager.kairos`).

    ``code`` is the machine-readable classification of the rejection
    (:class:`~repro.reasons.ReasonCode`): the free-form ``reason``
    explains, the code routes.  Failure sites that know their cause
    pass one; otherwise the phase's generic fallback applies.
    """

    def __init__(
        self,
        phase: Phase,
        app_id: str,
        reason: str,
        code: "ReasonCode | None" = None,
    ):
        super().__init__(f"[{phase.value}] {app_id}: {reason}")
        self.phase = phase
        self.app_id = app_id
        self.reason = reason
        self.code = code if code is not None else ReasonCode.for_phase(phase)
        self.timings: "PhaseTimings | None" = None
        self.memoized = False
        self.gated = False  # always; bench/tracing.py reads it (ROADMAP 7(b))


@dataclass
class PhaseTimings:
    """Wall-clock seconds spent per phase (Fig. 7's quantity)."""

    binding: float = 0.0
    mapping: float = 0.0
    routing: float = 0.0
    validation: float = 0.0
    #: phases :meth:`record` was actually called for — distinguishes a
    #: phase that ran (even in ~0 time) from one never reached, so the
    #: latency histograms only aggregate real phase executions
    _recorded: set = field(default_factory=set, repr=False, compare=False)

    @property
    def total(self) -> float:
        return self.binding + self.mapping + self.routing + self.validation

    def of(self, phase: Phase) -> float:
        return getattr(self, phase.value)

    def record(self, phase: Phase, seconds: float) -> None:
        setattr(self, phase.value, seconds)
        self._recorded.add(phase)

    def recorded_items(self) -> tuple[tuple[str, float], ...]:
        """``(phase name, seconds)`` for phases that actually ran."""
        return tuple(
            (phase.value, getattr(self, phase.value))
            for phase in Phase
            if phase in self._recorded
        )

    def as_milliseconds(self) -> dict[str, float]:
        return {
            phase.value: getattr(self, phase.value) * 1000.0
            for phase in Phase
        }


@dataclass
class ExecutionLayout:
    """Everything the bootstrapper needs to configure the hardware."""

    app_id: str
    app_name: str
    binding: dict[str, Implementation]
    placement: dict[str, str]                   #: task -> element name
    routes: dict[str, ChannelReservation]       #: channel -> reservation
    local_channels: tuple[str, ...] = ()
    validation: ValidationReport | None = None
    timings: PhaseTimings = field(default_factory=PhaseTimings)

    @property
    def elements_used(self) -> frozenset[str]:
        return frozenset(self.placement.values())

    def hops_per_channel(self) -> float:
        """Average links allocated per channel (Fig. 8's metric);
        element-local channels count as zero-hop allocations."""
        count = len(self.routes) + len(self.local_channels)
        if count == 0:
            return 0.0
        return sum(r.hops for r in self.routes.values()) / count

    def total_hops(self) -> int:
        return sum(r.hops for r in self.routes.values())

    def describe(self) -> str:
        lines = [f"execution layout for {self.app_name} ({self.app_id})"]
        for task in sorted(self.placement):
            impl = self.binding[task]
            lines.append(f"  task {task} -> {self.placement[task]} [{impl.name}]")
        for name, route in sorted(self.routes.items()):
            lines.append(
                f"  channel {name}: {' > '.join(route.path)} ({route.hops} hops)"
            )
        for name in self.local_channels:
            lines.append(f"  channel {name}: element-local")
        return "\n".join(lines)
