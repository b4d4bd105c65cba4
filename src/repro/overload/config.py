"""Overload-control policies and the JSON-able `OverloadConfig` bundle.

Every sub-policy is a frozen dataclass with ``describe()`` /
``from_params()`` so the bundle round-trips through recipe headers
exactly like :class:`~repro.resilience.ResilienceConfig`.  Each field
of :class:`OverloadConfig` is optional — ``None`` disables that
component entirely, and a fully-``None`` config is behaviourally
identical to no config at all.  The recipe key is emitted only when a
config is present, so pre-overload recipes (and the traces recorded
from them) stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "BreakerPolicy",
    "BrownoutPolicy",
    "DeadlinePolicy",
    "OverloadConfig",
    "RetryBudgetPolicy",
    "WatermarkPolicy",
]


@dataclass(frozen=True)
class DeadlinePolicy:
    """Absolute sim-time admission deadlines.

    Every arrival is stamped with ``arrival + budget`` (per-class
    overrides win); a queued request whose deadline passes is dropped
    with :data:`~repro.reasons.ReasonCode.DEADLINE_EXPIRED` — a
    distinct traced outcome, not a generic timeout — and the retry
    policy refuses to schedule a retry that could only land past the
    deadline, skipping the doomed probe entirely.
    """

    budget: float = 25.0
    #: class name -> budget override (e.g. tighter interactive SLOs)
    class_budgets: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError("deadline budget must be positive")
        for name, budget in self.class_budgets.items():
            if budget <= 0:
                raise ValueError(
                    f"deadline budget for class {name!r} must be positive"
                )

    def budget_for(self, class_name: str) -> float:
        return self.class_budgets.get(class_name, self.budget)

    def describe(self) -> dict:
        return {
            "budget": self.budget,
            "class_budgets": dict(sorted(self.class_budgets.items())),
        }

    @classmethod
    def from_params(cls, params: "dict | DeadlinePolicy | None"):
        if params is None or isinstance(params, cls):
            return params
        return cls(
            budget=float(params.get("budget", 25.0)),
            class_budgets={
                str(name): float(budget)
                for name, budget in (
                    params.get("class_budgets") or {}
                ).items()
            },
        )


@dataclass(frozen=True)
class WatermarkPolicy:
    """High/low queue-occupancy watermarks with hysteresis shedding.

    When queue occupancy (depth / capacity) reaches ``high`` the
    policy enters *shedding* mode; it exits once occupancy falls back
    to ``low``.  While shedding, arrivals with ``priority <
    protect_priority`` are dropped at admission time with
    :data:`~repro.reasons.ReasonCode.SHED_WATERMARK` instead of aging
    out in the queue.  With the default traffic classes
    (interactive=2, bursty=1, batch=0) the default protects
    interactive traffic and sheds the rest.
    """

    high: float = 0.75
    low: float = 0.375
    protect_priority: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.high <= 1.0:
            raise ValueError("watermark high must lie in (0, 1]")
        if not 0.0 <= self.low < self.high:
            raise ValueError("watermark low must lie in [0, high)")

    def describe(self) -> dict:
        return {
            "high": self.high,
            "low": self.low,
            "protect_priority": self.protect_priority,
        }

    @classmethod
    def from_params(cls, params: "dict | WatermarkPolicy | None"):
        if params is None or isinstance(params, cls):
            return params
        return cls(
            high=float(params.get("high", 0.75)),
            low=float(params.get("low", 0.375)),
            protect_priority=int(params.get("protect_priority", 2)),
        )


@dataclass(frozen=True)
class RetryBudgetPolicy:
    """A token bucket throttling the retry policy's re-arrivals.

    Each scheduled retry costs one token; tokens refill at
    ``refill_rate`` per unit sim-time up to ``capacity``.  A retry
    denied for lack of tokens drops the request with
    :data:`~repro.reasons.ReasonCode.RETRY_BUDGET_EXHAUSTED` — the
    brake that stops a saturated mesh amplifying its own load.
    """

    capacity: float = 16.0
    refill_rate: float = 0.5

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("retry budget capacity must be at least 1")
        if self.refill_rate <= 0:
            raise ValueError("retry budget refill_rate must be positive")

    def describe(self) -> dict:
        return {"capacity": self.capacity, "refill_rate": self.refill_rate}

    @classmethod
    def from_params(cls, params: "dict | RetryBudgetPolicy | None"):
        if params is None or isinstance(params, cls):
            return params
        return cls(
            capacity=float(params.get("capacity", 16.0)),
            refill_rate=float(params.get("refill_rate", 0.5)),
        )


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-shard circuit breaker: closed → open → half-open.

    A closed breaker trips when at least ``min_samples`` of the last
    ``window`` probe outcomes are recorded and the failure fraction
    reaches ``failure_threshold``.  An open breaker refuses probes for
    ``cooldown`` sim-time, then admits up to ``half_open_probes``
    trial probes: one success closes it, one failure re-opens it.
    """

    window: int = 8
    failure_threshold: float = 0.5
    min_samples: int = 4
    cooldown: float = 10.0
    half_open_probes: int = 2

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("breaker window must be at least 1")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError("breaker failure_threshold must lie in (0, 1]")
        if not 1 <= self.min_samples <= self.window:
            raise ValueError("breaker min_samples must lie in [1, window]")
        if self.cooldown <= 0:
            raise ValueError("breaker cooldown must be positive")
        if self.half_open_probes < 1:
            raise ValueError("breaker half_open_probes must be at least 1")

    def describe(self) -> dict:
        return {
            "window": self.window,
            "failure_threshold": self.failure_threshold,
            "min_samples": self.min_samples,
            "cooldown": self.cooldown,
            "half_open_probes": self.half_open_probes,
        }

    @classmethod
    def from_params(cls, params: "dict | BreakerPolicy | None"):
        if params is None or isinstance(params, cls):
            return params
        return cls(
            window=int(params.get("window", 8)),
            failure_threshold=float(params.get("failure_threshold", 0.5)),
            min_samples=int(params.get("min_samples", 4)),
            cooldown=float(params.get("cooldown", 10.0)),
            half_open_probes=int(params.get("half_open_probes", 2)),
        )


@dataclass(frozen=True)
class BrownoutPolicy:
    """Sustained-pressure hysteresis driving the degradation ladder.

    Each queue-occupancy observation at or above ``high`` raises
    pressure, each at or below ``low`` raises relief, anything in the
    hysteresis band resets both.  ``step_up`` consecutive high observations
    escalate one ladder level (to at most ``max_level``); ``step_down``
    consecutive low ones restore a level.  The ladder (see
    :class:`~repro.overload.brownout.BrownoutController`): 1 — swap
    the mapper to ``first_fit``; 2 — cap the ring-search depth at
    ``ring_cap``.
    """

    high: float = 0.75
    low: float = 0.25
    step_up: int = 2
    step_down: int = 3
    max_level: int = 2
    ring_cap: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.high <= 1.0:
            raise ValueError("brownout high must lie in (0, 1]")
        if not 0.0 <= self.low < self.high:
            raise ValueError("brownout low must lie in [0, high)")
        if self.step_up < 1 or self.step_down < 1:
            raise ValueError("brownout steps must be at least 1")
        if not 1 <= self.max_level <= 2:
            raise ValueError("brownout max_level must lie in [1, 2]")
        if self.ring_cap < 1:
            raise ValueError("brownout ring_cap must be at least 1")

    def describe(self) -> dict:
        return {
            "high": self.high,
            "low": self.low,
            "step_up": self.step_up,
            "step_down": self.step_down,
            "max_level": self.max_level,
            "ring_cap": self.ring_cap,
        }

    @classmethod
    def from_params(cls, params: "dict | BrownoutPolicy | None"):
        if params is None or isinstance(params, cls):
            return params
        return cls(
            high=float(params.get("high", 0.75)),
            low=float(params.get("low", 0.25)),
            step_up=int(params.get("step_up", 2)),
            step_down=int(params.get("step_down", 3)),
            max_level=int(params.get("max_level", 2)),
            ring_cap=int(params.get("ring_cap", 2)),
        )


@dataclass(frozen=True)
class OverloadConfig:
    """The sim-facing overload bundle; every component optional.

    Present in a recipe under the ``"overload"`` key; absent means no
    overload control at all — recipes and traces recorded before this
    subsystem replay byte-identically.  ``describe()`` emits only the
    enabled components, so a config survives a recipe round trip
    byte-for-byte.
    """

    deadline: DeadlinePolicy | None = None
    watermark: WatermarkPolicy | None = None
    retry_budget: RetryBudgetPolicy | None = None
    breaker: BreakerPolicy | None = None
    brownout: BrownoutPolicy | None = None

    @classmethod
    def defaults(cls) -> "OverloadConfig":
        """Every component enabled with its default policy."""
        return cls(
            deadline=DeadlinePolicy(),
            watermark=WatermarkPolicy(),
            retry_budget=RetryBudgetPolicy(),
            breaker=BreakerPolicy(),
            brownout=BrownoutPolicy(),
        )

    def describe(self) -> dict:
        """JSON-able form for recipe headers (see :func:`from_spec`)."""
        spec: dict = {}
        if self.deadline is not None:
            spec["deadline"] = self.deadline.describe()
        if self.watermark is not None:
            spec["watermark"] = self.watermark.describe()
        if self.retry_budget is not None:
            spec["retry_budget"] = self.retry_budget.describe()
        if self.breaker is not None:
            spec["breaker"] = self.breaker.describe()
        if self.brownout is not None:
            spec["brownout"] = self.brownout.describe()
        return spec

    @classmethod
    def from_spec(cls, spec: "dict | OverloadConfig | None"):
        """Coerce a recipe value into a config (None stays None)."""
        if spec is None or isinstance(spec, cls):
            return spec
        return cls(
            deadline=DeadlinePolicy.from_params(spec.get("deadline")),
            watermark=WatermarkPolicy.from_params(spec.get("watermark")),
            retry_budget=RetryBudgetPolicy.from_params(
                spec.get("retry_budget")
            ),
            breaker=BreakerPolicy.from_params(spec.get("breaker")),
            brownout=BrownoutPolicy.from_params(spec.get("brownout")),
        )
