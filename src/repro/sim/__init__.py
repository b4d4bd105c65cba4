"""repro.sim — discrete-event admission service simulation.

The paper's motivation is that "at design-time, it is unknown when,
and what combinations of applications are requested" — this package
turns that sentence into continuous time.  It layers a seeded
discrete-event kernel, stochastic traffic models, a QoS-queueing
admission service, SLA metrics and a deterministic trace
record/replay facility on top of the transactional Kairos core:

* :mod:`repro.sim.events` — heap-ordered event kernel with
  deterministic tie-breaking,
* :mod:`repro.sim.traffic` — Poisson/MMPP arrivals, exponential and
  lognormal holding times, per-class generator pools,
* :mod:`repro.sim.policies` — the pluggable queue policies (reject,
  bounded FIFO with timeout, priority classes, retry-with-backoff),
* :mod:`repro.sim.service` — the admission service wrapping
  :class:`~repro.manager.kairos.Kairos` with departure-driven
  backfill and fault recovery,
* :mod:`repro.sim.run` — the run loop and :func:`run_simulation`,
* :mod:`repro.sim.recipe` — JSON recipes for either backend, their
  runner and the trace replayer,
* :mod:`repro.sim.metrics` — blocking probability, admission wait
  percentiles, per-class ratios, sim-time utilization series,
* :mod:`repro.sim.trace` — JSONL decision traces, bit-identical
  replay, and trace diffing.

Resilience mode (:class:`~repro.resilience.ResilienceConfig` on
:func:`run_simulation` or the ``"resilience"`` recipe key) adds
transient-fault repair events, the health registry's quarantine
states, and requeue-with-backoff recovery — see ``docs/resilience.md``.
Overload mode (:class:`~repro.overload.OverloadConfig` or the
``"overload"`` recipe key) adds deadline budgets, watermark load
shedding, a retry token budget and brownout degradation — see
``docs/overload.md``.

See ``docs/simulation.md`` for the full semantics.
"""

from repro.sim.events import Event, EventKernel, EventKind, pop_random
from repro.sim.metrics import ClassStats, ServiceMetrics, SimSample, percentile
from repro.sim.policies import (
    POLICIES,
    AdmissionRequest,
    FifoPolicy,
    PriorityPolicy,
    QueuePolicy,
    RejectPolicy,
    RetryPolicy,
    make_policy,
)
from repro.sim.recipe import (
    build_recipe,
    replay_trace,
    run_recipe,
    scheduled_faults,
)
from repro.sim.run import SimulationConfig, SimulationResult, run_simulation
from repro.sim.service import AdmissionService
from repro.sim.trace import (
    TraceFormatError,
    TraceRecorder,
    diff_traces,
    read_trace,
    trace_digest,
    write_trace,
)
from repro.sim.traffic import (
    TRAFFIC_SHAPES,
    ExponentialHolding,
    LognormalHolding,
    MMPPProcess,
    PoissonProcess,
    TrafficClass,
    default_traffic_classes,
    diurnal_mmpp_classes,
    flash_crowd_classes,
    hot_spot_classes,
    make_traffic_classes,
    traffic_pool,
)

__all__ = [
    "AdmissionRequest",
    "AdmissionService",
    "ClassStats",
    "Event",
    "EventKernel",
    "EventKind",
    "ExponentialHolding",
    "FifoPolicy",
    "LognormalHolding",
    "MMPPProcess",
    "POLICIES",
    "PoissonProcess",
    "PriorityPolicy",
    "QueuePolicy",
    "RejectPolicy",
    "RetryPolicy",
    "ServiceMetrics",
    "SimSample",
    "SimulationConfig",
    "SimulationResult",
    "TRAFFIC_SHAPES",
    "TraceFormatError",
    "TraceRecorder",
    "TrafficClass",
    "build_recipe",
    "default_traffic_classes",
    "diff_traces",
    "diurnal_mmpp_classes",
    "flash_crowd_classes",
    "hot_spot_classes",
    "make_policy",
    "make_traffic_classes",
    "percentile",
    "pop_random",
    "read_trace",
    "replay_trace",
    "run_recipe",
    "run_simulation",
    "scheduled_faults",
    "trace_digest",
    "traffic_pool",
    "write_trace",
]
