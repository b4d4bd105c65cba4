"""Machine-readable failure reason codes, shared across every layer.

Before the :mod:`repro.api` façade the library described *why* an
admission failed with free-form f-strings: the negative-result memo, the
:class:`~repro.manager.layout.AllocationFailure` exception, the sim
service's drop records and the fault-recovery report all carried
strings that callers compared verbatim.  This module interns those
strings into one :class:`ReasonCode` enum so a decision can be routed
on (``code is ReasonCode.NO_FEASIBLE_IMPLEMENTATION``) instead of
parsed.

Design constraints:

* **Trace compatibility** — the queue-policy drop reasons
  (``rejected``, ``queue_full``, ``timeout``, ``drained``,
  ``retries_exhausted``) appear literally inside recorded JSONL
  decision traces.  :class:`ReasonCode` is a :class:`~enum.StrEnum`
  whose values are exactly those strings, so passing a member where a
  string went before serialises to identical bytes and pre-existing
  traces replay clean.
* **No upward imports** — this module depends on nothing inside
  :mod:`repro`, so the phase layers (binding, mapping, routing,
  validation), the manager, the sim service and :mod:`repro.api` can
  all share it without import cycles.

Human-readable reasons are *not* going away: every failure still
carries its descriptive message.  The code classifies; the string
explains.
"""

from __future__ import annotations

import enum

__all__ = ["ReasonCode"]


class ReasonCode(enum.StrEnum):
    """Why an admission attempt (or queued request) did not succeed.

    Grouped by the layer that produces them; the generic per-phase
    ``*_INFEASIBLE`` members are fallbacks for failure sites that have
    not attached a more specific code (see :meth:`for_phase`).
    """

    # -- specification problems (pre-pipeline) -------------------------------
    INVALID_SPECIFICATION = "invalid_specification"

    # -- binding phase --------------------------------------------------------
    #: some task has no implementation with any feasible element right
    #: now — raised by the binder's regret rounds
    NO_FEASIBLE_IMPLEMENTATION = "no_feasible_implementation"
    BINDING_INFEASIBLE = "binding_infeasible"

    # -- mapping phase --------------------------------------------------------
    #: no available element for the anchor (starting) task
    MAPPING_NO_ANCHOR = "mapping_no_anchor"
    #: ring search exhausted with tasks still unmapped
    MAPPING_SEARCH_EXHAUSTED = "mapping_search_exhausted"
    MAPPING_INFEASIBLE = "mapping_infeasible"

    # -- routing phase --------------------------------------------------------
    #: an endpoint cannot emit/absorb one more virtual channel
    #: (saturation fast-fail) or no path with capacity exists
    ROUTING_NO_PATH = "routing_no_path"
    ROUTING_SATURATED = "routing_saturated"
    ROUTING_UNMAPPED_ENDPOINT = "routing_unmapped_endpoint"
    ROUTING_INFEASIBLE = "routing_infeasible"

    # -- validation phase -----------------------------------------------------
    #: a throughput/latency constraint is violated (enforce mode)
    VALIDATION_CONSTRAINT = "validation_constraint"
    #: the dataflow graph deadlocks under the layout
    VALIDATION_DEADLOCK = "validation_deadlock"
    VALIDATION_INFEASIBLE = "validation_infeasible"

    # -- fault recovery -------------------------------------------------------
    #: recover() had no specification to re-allocate the app from
    RECOVERY_NO_SPECIFICATION = "recovery_no_specification"
    #: recovery could not re-place the app right now; it sits in the
    #: resilience requeue awaiting a repair or departure
    RECOVERY_DEFERRED = "recovery_deferred"
    #: the requeue retry budget ran out before capacity returned
    RECOVERY_RETRIES_EXHAUSTED = "recovery_retries_exhausted"
    #: the app's natural departure instant passed while it waited in
    #: the requeue — reviving it would leak a resident with no
    #: departure left to fire
    RECOVERY_EXPIRED = "recovery_expired"

    # -- queue-policy outcomes (the sim service's drop reasons; values
    # -- are the exact strings recorded in JSONL traces since PR 2) ----------
    REJECTED = "rejected"
    QUEUE_FULL = "queue_full"
    TIMEOUT = "timeout"
    DRAINED = "drained"
    RETRIES_EXHAUSTED = "retries_exhausted"

    # -- overload control (repro.overload; values are the exact strings
    # -- recorded in JSONL traces when an OverloadConfig is active) ----------
    #: the request's sim-time deadline budget elapsed before admission
    DEADLINE_EXPIRED = "deadline_expired"
    #: shed at arrival by the watermark backpressure controller
    SHED_WATERMARK = "shed_watermark"
    #: the retry policy's token budget was empty (anti-storm brake)
    RETRY_BUDGET_EXHAUSTED = "retry_budget_exhausted"
    #: every routable shard's circuit breaker refused the probe
    BREAKER_OPEN = "breaker_open"

    # -- plan/commit protocol -------------------------------------------------
    #: a plan's capacity epoch no longer matches the state (informational;
    #: commit() replans transparently rather than failing with this)
    EPOCH_CONFLICT = "epoch_conflict"

    # -- sharded cluster (repro.cluster) --------------------------------------
    #: the target shard is not accepting requests (crashed, or demoted
    #: by the liveness registry) — the router spills over to siblings
    SHARD_DOWN = "shard_down"
    #: no routable shard at all: the whole cluster is demoted
    CLUSTER_UNAVAILABLE = "cluster_unavailable"
    #: the coordinator could not split the application into connected
    #: parts, or the two-phase commit exhausted its retry budget
    CROSS_SHARD_INFEASIBLE = "cross_shard_infeasible"

    UNKNOWN = "unknown"

    @classmethod
    def for_phase(cls, phase) -> "ReasonCode":
        """Generic fallback code for a failure in ``phase``.

        ``phase`` is a :class:`repro.manager.layout.Phase` (matched by
        its ``value`` to avoid an import cycle).
        """
        return _PHASE_DEFAULTS.get(getattr(phase, "value", phase), cls.UNKNOWN)


_PHASE_DEFAULTS = {
    "binding": ReasonCode.BINDING_INFEASIBLE,
    "mapping": ReasonCode.MAPPING_INFEASIBLE,
    "routing": ReasonCode.ROUTING_INFEASIBLE,
    "validation": ReasonCode.VALIDATION_INFEASIBLE,
}
