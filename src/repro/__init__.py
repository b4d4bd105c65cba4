"""repro — reproduction of "Run-time Spatial Resource Management for
Real-Time Applications on Heterogeneous MPSoCs" (ter Braak, Hölzenspies,
Kuper, Hurink, Smit — DATE 2010).

The library implements the Kairos run-time resource manager and every
substrate it depends on:

* :mod:`repro.arch` — heterogeneous MPSoC platform model (elements,
  NoC topology, allocation state, fault injection, CRISP builder),
* :mod:`repro.apps` — annotated task graphs, implementations,
  constraints, the TGFF-like generator, the six paper datasets and the
  53-task beamforming case study,
* :mod:`repro.binding` — regret-ordered implementation selection,
* :mod:`repro.core` — **the paper's contribution**: the incremental
  MapApplication algorithm (ring search + GAP + two-objective cost),
* :mod:`repro.routing` — BFS / Dijkstra virtual-channel routing,
* :mod:`repro.validation` — SDF modelling, maximum-cycle-ratio
  throughput and its state-space oracle,
* :mod:`repro.manager` — the four-phase Kairos manager, bootstrap
  plans, fault recovery and evaluation metrics,
* :mod:`repro.baselines` — first-fit, random and exact mappers,
* :mod:`repro.experiments` — regeneration of Table I and Figs. 7-10,
* :mod:`repro.io` — the Kairos binary application format,
* :mod:`repro.sim` — the discrete-event admission service: event
  kernel, Poisson/MMPP traffic, QoS queue policies, SLA metrics and
  deterministic trace replay (``docs/simulation.md``),
* :mod:`repro.api` — **the public entry layer**: the
  :class:`AdmissionController` plan/commit façade with structured
  :class:`Decision` results and the :class:`PhasePipeline` strategy
  registry (``docs/api.md``).

Quick start::

    from repro import AdmissionController, crisp, beamforming_application

    controller = AdmissionController(crisp())
    decision = controller.admit(beamforming_application())
    print(decision.admitted, decision.layout.timings.as_milliseconds())

What-if probing without holding resources::

    plan = controller.plan(app)       # pipeline runs, state untouched
    ...                               # inspect plan.describe(), timings
    decision = controller.commit(plan)  # cheap apply (replans if stale)
"""

from repro.apps import (
    Application,
    Channel,
    GeneratorConfig,
    Implementation,
    LatencyConstraint,
    Task,
    ThroughputConstraint,
    beamforming_application,
    generate,
    make_dataset,
    paper_datasets,
)
from repro.arch import (
    AllocationState,
    ElementType,
    Platform,
    ProcessingElement,
    ResourceVector,
    Router,
    crisp,
    heterogeneous_mesh,
    irregular,
    line,
    mesh,
    torus,
)
from repro.binding import BindingError, bind
from repro.core import (
    BOTH,
    COMMUNICATION,
    FRAGMENTATION,
    NONE,
    CostWeights,
    MappingCost,
    MappingError,
    MappingOptions,
    map_application,
)
from repro.manager import (
    AllocationFailure,
    ExecutionLayout,
    Kairos,
    Phase,
    generate_plan,
)
from repro.api import (
    AdmissionController,
    Decision,
    PhasePipeline,
    Plan,
)
from repro.reasons import ReasonCode
from repro.routing import BfsRouter, DijkstraRouter, RoutingError
from repro.validation import (
    SdfGraph,
    ValidationReport,
    analyze_throughput,
    validate_layout,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AllocationFailure",
    "AllocationState",
    "Application",
    "Decision",
    "PhasePipeline",
    "Plan",
    "ReasonCode",
    "BOTH",
    "BfsRouter",
    "BindingError",
    "COMMUNICATION",
    "Channel",
    "CostWeights",
    "DijkstraRouter",
    "ElementType",
    "ExecutionLayout",
    "FRAGMENTATION",
    "GeneratorConfig",
    "Implementation",
    "Kairos",
    "LatencyConstraint",
    "MappingCost",
    "MappingError",
    "MappingOptions",
    "NONE",
    "Phase",
    "Platform",
    "ProcessingElement",
    "ResourceVector",
    "Router",
    "RoutingError",
    "SdfGraph",
    "Task",
    "ThroughputConstraint",
    "ValidationReport",
    "analyze_throughput",
    "beamforming_application",
    "bind",
    "crisp",
    "generate",
    "generate_plan",
    "heterogeneous_mesh",
    "irregular",
    "line",
    "make_dataset",
    "map_application",
    "mesh",
    "paper_datasets",
    "torus",
    "validate_layout",
    "__version__",
]
