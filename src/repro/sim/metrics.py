"""SLA metrics of the admission service.

The quantities a service operator reads off a teletraffic system:
blocking probability, admission-wait percentiles (p50/p95/p99),
per-class admission ratios, and utilization / fragmentation / queue
depth time-series sampled in sim-time by the kernel's TICK events.
Everything aggregates incrementally so a long run stays O(1) per
decision, and :meth:`ServiceMetrics.summary` renders one JSON-able
dict shared by the CLI, the benchmark runner and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# the percentile arithmetic moved to repro.obs.stats (one shared home
# for it and the manager-metrics means); re-exported here because
# ``from repro.sim.metrics import percentile`` is a public path
from repro.obs.stats import latency_summary, percentile

__all__ = [
    "percentile",
    "SimSample",
    "ClassStats",
    "ServiceMetrics",
]


@dataclass
class SimSample:
    """One TICK observation of the platform and the queue."""

    time: float
    utilization: float
    fragmentation: float
    resident: int
    queue_depth: int


@dataclass
class ClassStats:
    """Per-QoS-class admission accounting."""

    offered: int = 0
    admitted: int = 0
    dropped: int = 0
    waits: list[float] = field(default_factory=list)

    @property
    def admission_ratio(self) -> float:
        return self.admitted / self.offered if self.offered else 0.0


@dataclass
class ServiceMetrics:
    """Aggregates of one simulated service run.

    ``offered`` counts first-time arrivals only; a retried or queued
    request resolves exactly once — admitted or dropped — so
    ``blocking_probability`` is blocking drops over resolved requests,
    the standard Erlang blocking definition.  End-of-run ``drained``
    drops are censored observations (still legitimately waiting at the
    horizon), not blocking, and are excluded from the ratio — without
    that, queueing policies would look worse on shorter runs purely
    from truncation.

    ``warmup`` (sim-time) opens an SLA measurement window: requests
    *resolved* before the warmup instant belong to the fill transient
    — an empty platform admits nearly everything with zero wait, which
    biases blocking probability and wait percentiles optimistic on
    overloaded runs.  The steady-state view (``steady_*`` fields,
    ``summary()["steady_state"]``) counts only post-warmup
    resolutions; the raw counters keep covering the whole run, so a
    warmup of 0 makes both views coincide.  Classification is by
    resolution time (admit or blocking drop), matching when the wait
    observation is actually made.
    """

    warmup: float = 0.0
    offered: int = 0
    admitted: int = 0
    departed: int = 0
    retries: int = 0
    queued: int = 0
    #: drop reason -> count ("rejected", "queue_full", "timeout",
    #: "retries_exhausted", "drained") — the queue-policy members of
    #: :class:`repro.reasons.ReasonCode`; keys are their string values
    drops: dict[str, int] = field(default_factory=dict)
    rejections_by_phase: dict[str, int] = field(default_factory=dict)
    #: pipeline rejections by machine-readable ReasonCode value —
    #: finer-grained than the per-phase counts (e.g. distinguishes
    #: mapping-anchor failures from search exhaustion, both
    #: "mapping")
    rejections_by_code: dict[str, int] = field(default_factory=dict)
    #: wall-clock seconds per pipeline phase, one sample per attempt in
    #: which the phase actually ran (admitted and rejected alike)
    phase_latencies: dict[str, list[float]] = field(default_factory=dict)
    #: admission wait (admit sim-time minus arrival sim-time), admitted only
    waits: list[float] = field(default_factory=list)
    per_class: dict[str, ClassStats] = field(default_factory=dict)
    samples: list[SimSample] = field(default_factory=list)
    faults_injected: int = 0
    recovered: int = 0
    lost: int = 0
    #: post-warmup resolutions only (see the class docstring)
    steady_admitted: int = 0
    steady_blocked: int = 0
    steady_waits: list[float] = field(default_factory=list)
    # -- resilience accounting (all zero / empty on legacy runs) -----------
    repairs_completed: int = 0
    #: health-registry state transitions that emitted quarantine events
    quarantines: int = 0
    #: requeue drain attempts (successful or not)
    recovery_retries: int = 0
    #: applications lost to a fault and later re-admitted via the requeue
    lost_recovered: int = 0
    #: per-repair downtime (repair sim-time minus fault sim-time) — the
    #: observed MTTR distribution
    repair_times: list[float] = field(default_factory=list)
    #: requeue residence time of each lost-then-recovered application
    recovery_latencies: list[float] = field(default_factory=list)
    # -- overload accounting (all zero without an OverloadConfig) ----------
    #: watermark shedding-mode enters + exits
    watermark_transitions: int = 0
    #: brownout level moves (escalations + restorations)
    brownout_transitions: int = 0
    #: deepest brownout level the run reached
    max_brownout_level: int = 0
    #: circuit-breaker automaton edges (cluster runs only)
    breaker_transitions: int = 0
    #: piecewise-constant integral of the element-availability fraction
    _avail_integral: float = 0.0
    _avail_last_time: float = 0.0
    _avail_last_fraction: float = 1.0
    _avail_finalized_at: float | None = None

    # -- recording hooks (called by the service) ---------------------------

    def on_offered(self, class_name: str) -> None:
        self.offered += 1
        self._class(class_name).offered += 1

    def on_admitted(
        self, class_name: str, wait: float, now: float | None = None
    ) -> None:
        self.admitted += 1
        self.waits.append(wait)
        stats = self._class(class_name)
        stats.admitted += 1
        stats.waits.append(wait)
        if now is None or now >= self.warmup:
            self.steady_admitted += 1
            self.steady_waits.append(wait)

    def on_dropped(
        self, class_name: str, reason: str, now: float | None = None
    ) -> None:
        # reason may be a ReasonCode member (a str subclass) or a plain
        # string from a custom policy; store the plain value either way
        reason = str(getattr(reason, "value", reason))
        self.drops[reason] = self.drops.get(reason, 0) + 1
        self._class(class_name).dropped += 1
        # drained drops are censored, not blocking — excluded from the
        # steady-state ratio exactly as from the overall one
        if reason != "drained" and (now is None or now >= self.warmup):
            self.steady_blocked += 1

    def on_overload_drop(self, code) -> None:
        """Intern an overload drop into ``rejections_by_code``.

        Overload sheds (deadline expiry, watermark sheds, retry-budget
        denials) also flow through :meth:`on_dropped` like every other
        drop; this hook additionally interns their
        :class:`~repro.reasons.ReasonCode` so they are distinguishable
        from pipeline rejections and generic timeouts in every surface
        that reads ``rejections_by_code``.
        """
        key = str(getattr(code, "value", code))
        self.rejections_by_code[key] = (
            self.rejections_by_code.get(key, 0) + 1
        )

    def on_phase_rejection(self, phase: str, code=None) -> None:
        self.rejections_by_phase[phase] = (
            self.rejections_by_phase.get(phase, 0) + 1
        )
        if code is not None:
            key = str(getattr(code, "value", code))
            self.rejections_by_code[key] = (
                self.rejections_by_code.get(key, 0) + 1
            )

    def on_attempt_timings(self, timings) -> None:
        """Record one attempt's per-phase wall-clock seconds.

        ``timings`` is a :class:`~repro.manager.layout.PhaseTimings`;
        only phases that actually ran contribute a sample, so a
        rejection in binding does not pollute the mapping histogram
        with zeros.
        """
        if timings is None:
            return
        latencies = self.phase_latencies
        for phase, seconds in timings.recorded_items():
            bucket = latencies.get(phase)
            if bucket is None:
                bucket = latencies[phase] = []
            bucket.append(seconds)

    def phase_latency_summary(self) -> dict:
        """Per-phase wall-clock p50/p95/p99 (milliseconds) + counts.

        Delegates to :func:`repro.obs.stats.latency_summary` — the
        arithmetic (nearest-rank percentiles, ×1000 scaling) is
        byte-identical to the pre-obs inline version.
        """
        return {
            phase: latency_summary(samples)
            for phase, samples in sorted(self.phase_latencies.items())
        }

    def on_availability(self, now: float, fraction: float) -> None:
        """The element-availability fraction changed at ``now``.

        Maintains a piecewise-constant integral: the previous fraction
        is credited for the elapsed span, then the new one takes over.
        Call :meth:`finalize_availability` at the horizon to close the
        last span.
        """
        if now > self._avail_last_time:
            self._avail_integral += self._avail_last_fraction * (
                now - self._avail_last_time
            )
            self._avail_last_time = now
        self._avail_last_fraction = fraction

    def finalize_availability(self, duration: float) -> None:
        self.on_availability(duration, self._avail_last_fraction)
        self._avail_finalized_at = duration

    @property
    def availability(self) -> float:
        """Time-averaged fraction of elements available, in [0, 1]."""
        horizon = self._avail_finalized_at
        if horizon is None or horizon <= 0:
            return 1.0
        return self._avail_integral / horizon

    @property
    def mttr(self) -> float:
        """Mean observed time-to-repair (NaN when nothing repaired)."""
        if not self.repair_times:
            return math.nan
        return sum(self.repair_times) / len(self.repair_times)

    def _class(self, name: str) -> ClassStats:
        if name not in self.per_class:
            self.per_class[name] = ClassStats()
        return self.per_class[name]

    # -- derived quantities ------------------------------------------------

    @property
    def dropped(self) -> int:
        return sum(self.drops.values())

    @property
    def blocking_probability(self) -> float:
        blocked = self.dropped - self.drops.get("drained", 0)
        resolved = self.admitted + blocked
        return blocked / resolved if resolved else 0.0

    @property
    def steady_blocking_probability(self) -> float:
        resolved = self.steady_admitted + self.steady_blocked
        return self.steady_blocked / resolved if resolved else 0.0

    def wait_percentiles(self) -> dict[str, float]:
        return {
            "p50": percentile(self.waits, 50),
            "p95": percentile(self.waits, 95),
            "p99": percentile(self.waits, 99),
        }

    def steady_wait_percentiles(self) -> dict[str, float]:
        return {
            "p50": percentile(self.steady_waits, 50),
            "p95": percentile(self.steady_waits, 95),
            "p99": percentile(self.steady_waits, 99),
        }

    def mean_utilization(self, skip: int = 0) -> float:
        trace = [s.utilization for s in self.samples[skip:]]
        return sum(trace) / len(trace) if trace else 0.0

    def peak_queue_depth(self) -> int:
        return max((s.queue_depth for s in self.samples), default=0)

    def summary(self) -> dict:
        """One JSON-able report (CLI, bench and docs all render this)."""
        waits = self.wait_percentiles()
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "departed": self.departed,
            "dropped": self.dropped,
            "drops_by_reason": dict(sorted(self.drops.items())),
            "rejections_by_phase": dict(
                sorted(self.rejections_by_phase.items())
            ),
            "rejections_by_code": dict(
                sorted(self.rejections_by_code.items())
            ),
            "queued": self.queued,
            "retries": self.retries,
            "phase_latency": self.phase_latency_summary(),
            "blocking_probability": self.blocking_probability,
            "admission_wait": {
                key: (None if math.isnan(value) else value)
                for key, value in waits.items()
            },
            "steady_state": {
                "warmup": self.warmup,
                "admitted": self.steady_admitted,
                "blocked": self.steady_blocked,
                "blocking_probability": self.steady_blocking_probability,
                "admission_wait": {
                    key: (None if math.isnan(value) else value)
                    for key, value in self.steady_wait_percentiles().items()
                },
            },
            "per_class": {
                name: {
                    "offered": stats.offered,
                    "admitted": stats.admitted,
                    "dropped": stats.dropped,
                    "admission_ratio": stats.admission_ratio,
                    "wait_p95": (
                        None if not stats.waits
                        else percentile(stats.waits, 95)
                    ),
                }
                for name, stats in sorted(self.per_class.items())
            },
            "mean_utilization": self.mean_utilization(),
            "peak_queue_depth": self.peak_queue_depth(),
            "faults": {
                "injected": self.faults_injected,
                "recovered": self.recovered,
                "lost": self.lost,
            },
            "overload": {
                "deadline_expired": self.drops.get("deadline_expired", 0),
                "shed_watermark": self.drops.get("shed_watermark", 0),
                "retry_budget_exhausted": self.drops.get(
                    "retry_budget_exhausted", 0
                ),
                "breaker_open": self.rejections_by_code.get(
                    "breaker_open", 0
                ),
                "watermark_transitions": self.watermark_transitions,
                "brownout_transitions": self.brownout_transitions,
                "max_brownout_level": self.max_brownout_level,
                "breaker_transitions": self.breaker_transitions,
            },
            "resilience": {
                "repairs_completed": self.repairs_completed,
                "quarantines": self.quarantines,
                "recovery_retries": self.recovery_retries,
                "lost_recovered": self.lost_recovered,
                "availability": self.availability,
                "mttr": (None if math.isnan(self.mttr) else self.mttr),
                "recovery_latency": {
                    key: (None if math.isnan(value) else value)
                    for key, value in {
                        "p50": percentile(self.recovery_latencies, 50),
                        "p95": percentile(self.recovery_latencies, 95),
                    }.items()
                },
            },
        }
