"""Validation phase: SDF modelling, the maximum-cycle-ratio throughput
engine and its state-space oracle."""

from repro.validation.analysis import (
    InconsistentGraphError,
    dead_actors,
    is_consistent,
    iteration_duration_bound,
    repetition_vector,
)
from repro.validation.builder import (
    SdfModelOptions,
    comm_actor_name,
    layout_to_sdf,
)
from repro.validation.mcr import (
    McrError,
    analytical_throughput,
    maximum_cycle_ratio,
    mcr_throughput,
)
from repro.validation.sdf import Actor, Edge, SdfError, SdfGraph
from repro.validation.throughput import (
    ThroughputError,
    ThroughputResult,
    analyze_throughput,
)
from repro.validation.validator import (
    ConstraintCheck,
    ValidationError,
    ValidationReport,
    default_reference_task,
    validate_layout,
)

__all__ = [
    "Actor",
    "McrError",
    "ConstraintCheck",
    "Edge",
    "InconsistentGraphError",
    "SdfError",
    "SdfGraph",
    "SdfModelOptions",
    "ThroughputError",
    "ThroughputResult",
    "ValidationError",
    "ValidationReport",
    "analytical_throughput",
    "analyze_throughput",
    "comm_actor_name",
    "dead_actors",
    "default_reference_task",
    "is_consistent",
    "iteration_duration_bound",
    "layout_to_sdf",
    "maximum_cycle_ratio",
    "mcr_throughput",
    "repetition_vector",
    "validate_layout",
]
