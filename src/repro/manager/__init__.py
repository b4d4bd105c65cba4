"""The Kairos resource manager: four phases, release, fault recovery."""

from repro.manager.bootstrap import (
    ConfigurationPlan,
    LoadTask,
    ProgramRoute,
    StartTask,
    generate_plan,
)
from repro.manager.kairos import Kairos
from repro.manager.layout import (
    AllocationFailure,
    ExecutionLayout,
    Phase,
    PhaseTimings,
)
from repro.manager.metrics import (
    AttemptRecord,
    PositionSummary,
    SequenceRecorder,
    failure_distribution,
    summarize_positions,
    timings_by_task_count,
)

__all__ = [
    "AllocationFailure",
    "AttemptRecord",
    "ConfigurationPlan",
    "ExecutionLayout",
    "Kairos",
    "LoadTask",
    "Phase",
    "PhaseTimings",
    "PositionSummary",
    "ProgramRoute",
    "SequenceRecorder",
    "StartTask",
    "failure_distribution",
    "generate_plan",
    "summarize_positions",
    "timings_by_task_count",
]
