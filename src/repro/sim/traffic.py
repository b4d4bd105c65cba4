"""Traffic models: stochastic arrivals, holding times, generator pools.

Arrival processes produce inter-arrival gaps (Poisson, or a
Markov-modulated Poisson process for bursty ON/OFF traffic); holding
times say how long an admitted application stays resident
(exponential, or lognormal for heavy-tailed batch jobs).  A
:class:`TrafficClass` bundles one of each with a QoS priority and a
deterministic pool of generated applications, mirroring the paper's
"in-house developed application generator" datasets.

Every draw takes an explicit :class:`random.Random` so the simulation
stays deterministic for a given seed.

Named **traffic shapes** (:data:`TRAFFIC_SHAPES`,
:func:`make_traffic_classes`) are seeded, recipe-serializable presets
over the same machinery: ``default`` (the canonical three-class mix),
``hot_spot`` (load concentrated in one aggressive class),
``diurnal_mmpp`` (day/night modulation of every class) and
``flash_crowd`` (the overload bench's surge, lifted into the
library).  A recipe's ``classes`` stanza selects one by name — see
:func:`repro.sim.recipe.build_recipe` — which is what lets the
scenario sweep (:mod:`repro.scenarios`) treat traffic as an axis.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from random import Random

from repro.apps.generator import GeneratorConfig, generate
from repro.apps.taskgraph import Application
from repro.arch.elements import ElementType


# -- holding-time distributions --------------------------------------------


@dataclass(frozen=True)
class ExponentialHolding:
    """Memoryless residency: classic teletraffic holding time."""

    mean: float

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError("holding mean must be positive")

    def sample(self, rng: Random) -> float:
        return rng.expovariate(1.0 / self.mean)


@dataclass(frozen=True)
class LognormalHolding:
    """Heavy-tailed residency; ``median`` is exp(mu) of the underlying
    normal, ``sigma`` its standard deviation."""

    median: float
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma <= 0:
            raise ValueError("median and sigma must be positive")

    @property
    def mean(self) -> float:
        return self.median * math.exp(self.sigma**2 / 2.0)

    def sample(self, rng: Random) -> float:
        return rng.lognormvariate(math.log(self.median), self.sigma)


# -- arrival processes ------------------------------------------------------


@dataclass(frozen=True)
class PoissonProcess:
    """Stationary Poisson arrivals at ``rate`` per unit sim-time."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("arrival rate must be positive")

    def next_interarrival(self, rng: Random) -> float:
        return rng.expovariate(self.rate)

    def mean_rate(self) -> float:
        return self.rate


class MMPPProcess:
    """Markov-modulated Poisson process over cyclic phases.

    ``phases`` is a sequence of ``(rate, mean_dwell)`` pairs; the
    process spends Exp(mean_dwell)-distributed time in each phase
    emitting Poisson arrivals at that phase's rate, then advances to
    the next phase cyclically (the classic 2-phase instance is bursty
    ON/OFF traffic).  A rate of 0.0 is allowed — a silent phase.

    The object is stateful (current phase + residual dwell), so each
    :class:`TrafficClass` owns its own instance.
    """

    def __init__(self, phases: tuple[tuple[float, float], ...]) -> None:
        if not phases:
            raise ValueError("MMPP needs at least one phase")
        for rate, dwell in phases:
            if rate < 0 or dwell <= 0:
                raise ValueError("phase rates must be >=0, dwells positive")
        if not any(rate > 0 for rate, _ in phases):
            raise ValueError("at least one phase must have a positive rate")
        self.phases = tuple((float(r), float(d)) for r, d in phases)
        self.phase = 0
        self._residual: float | None = None

    def reset(self) -> None:
        """Return to the initial phase with no residual dwell.

        Called by :func:`repro.sim.run.run_simulation` at start-up
        so a :class:`TrafficClass` (and thus its stateful MMPP) can be
        reused across runs without the first run's modulation state
        leaking into the second — required for replay determinism.
        """
        self.phase = 0
        self._residual = None

    def next_interarrival(self, rng: Random) -> float:
        """Gap to the next arrival, advancing phases as dwells expire."""
        elapsed = 0.0
        while True:
            rate, dwell = self.phases[self.phase]
            if self._residual is None:
                self._residual = rng.expovariate(1.0 / dwell)
            gap = rng.expovariate(rate) if rate > 0 else math.inf
            if gap < self._residual:
                self._residual -= gap
                return elapsed + gap
            elapsed += self._residual
            self._residual = None
            self.phase = (self.phase + 1) % len(self.phases)

    def mean_rate(self) -> float:
        """Long-run arrival rate (dwell-weighted phase average)."""
        total_dwell = sum(d for _, d in self.phases)
        return sum(r * d for r, d in self.phases) / total_dwell


# -- traffic classes --------------------------------------------------------


@dataclass(frozen=True)
class TrafficClass:
    """One QoS class: arrivals, holding, priority and its app pool.

    Applications are drawn from ``pool`` round-robin (the service
    tracks the cursor), so the request stream is a deterministic
    function of the arrival process alone.
    """

    name: str
    arrivals: PoissonProcess | MMPPProcess
    holding: ExponentialHolding | LognormalHolding
    pool: tuple[Application, ...]
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.pool:
            raise ValueError(f"traffic class {self.name!r} has an empty pool")

    def offered_load(self) -> float:
        """Erlang offered load: mean arrival rate x mean holding."""
        return self.arrivals.mean_rate() * self.holding.mean


def traffic_pool(count: int, seed: int, **bands) -> tuple[Application, ...]:
    """A deterministic pool of DSP applications for one traffic class,
    generated from :func:`pool_configs`."""
    return tuple(
        generate(config, seed=app_seed)
        for config, app_seed in pool_configs(count, seed, **bands)
    )


def pool_configs(
    count: int,
    seed: int,
    *,
    internals_low: int = 1,
    internals_high: int = 4,
    utilization_low: float = 0.25,
    utilization_high: float = 0.6,
) -> list[tuple[GeneratorConfig, int]]:
    """``(generator config, seed)`` of each application of a pool.

    Sizes cycle through ``[internals_low, internals_high]`` so the
    packing keeps producing both successes and failures near
    saturation — same recipe as the churn benchmark pool, with the
    size band as a knob.  A shape built over these instead of
    :func:`traffic_pool` checks its arguments without generating.
    """
    if count < 1:
        raise ValueError("pool needs at least one application")
    if internals_low < 0 or internals_low > internals_high:
        raise ValueError("need 0 <= internals_low <= internals_high")
    span = internals_high - internals_low + 1
    return [
        (
            GeneratorConfig(
                inputs=1,
                internals=internals_low + index % span,
                outputs=1,
                target_kinds=((ElementType.DSP, 1.0),),
                utilization_low=utilization_low,
                utilization_high=utilization_high,
            ),
            seed * 10_000 + index,
        )
        for index in range(count)
    ]


def default_traffic_classes(
    seed: int = 0,
    rate_scale: float = 1.0,
    pool_size: int = 8,
    pool_factory: Callable = traffic_pool,
) -> tuple[TrafficClass, ...]:
    """The canonical three-class mix used by the CLI and benchmarks.

    * ``interactive`` — high priority, frequent small apps, short
      exponential residency,
    * ``batch`` — low priority, larger apps, heavy-tailed lognormal
      residency,
    * ``bursty`` — mid priority, ON/OFF MMPP arrivals.

    ``rate_scale`` multiplies every arrival rate, turning the same mix
    from underload into overload without touching the class structure.
    """
    if rate_scale <= 0:
        raise ValueError("rate_scale must be positive")
    return (
        TrafficClass(
            name="interactive",
            arrivals=PoissonProcess(0.9 * rate_scale),
            holding=ExponentialHolding(6.0),
            pool=pool_factory(
                pool_size, seed * 100 + 1,
                internals_low=1, internals_high=3,
                utilization_low=0.25, utilization_high=0.5,
            ),
            priority=2,
        ),
        TrafficClass(
            name="batch",
            arrivals=PoissonProcess(0.45 * rate_scale),
            holding=LognormalHolding(median=12.0, sigma=0.6),
            pool=pool_factory(
                pool_size, seed * 100 + 2,
                internals_low=3, internals_high=6,
                utilization_low=0.35, utilization_high=0.65,
            ),
            priority=0,
        ),
        TrafficClass(
            name="bursty",
            arrivals=MMPPProcess(
                ((1.6 * rate_scale, 8.0), (0.05 * rate_scale, 16.0))
            ),
            holding=ExponentialHolding(5.0),
            pool=pool_factory(
                pool_size, seed * 100 + 3,
                internals_low=2, internals_high=4,
                utilization_low=0.3, utilization_high=0.55,
            ),
            priority=1,
        ),
    )


# -- named traffic shapes ---------------------------------------------------


def hot_spot_classes(
    seed: int = 0,
    rate_scale: float = 1.0,
    pool_size: int = 8,
    hot_share: float = 0.8,
    pool_factory: Callable = traffic_pool,
) -> tuple[TrafficClass, ...]:
    """Load concentrated in one aggressive class (the "hot spot").

    A two-class mix with the same total mean arrival rate as the
    default mix (≈1.92 per unit sim-time at ``rate_scale=1``):
    ``hot_share`` of it arrives as the ``hot`` class — mid-size apps,
    long residency, high priority — and the rest as small background
    fill.  Stresses the packing very differently from the balanced
    default mix: the platform saturates on one demand profile instead
    of averaging over three.
    """
    if rate_scale <= 0:
        raise ValueError("rate_scale must be positive")
    if not 0.0 < hot_share < 1.0:
        raise ValueError("hot_share must lie strictly in (0, 1)")
    total = 1.92 * rate_scale
    return (
        TrafficClass(
            name="hot",
            arrivals=PoissonProcess(total * hot_share),
            holding=LognormalHolding(median=10.0, sigma=0.5),
            pool=pool_factory(
                pool_size, seed * 100 + 11,
                internals_low=3, internals_high=5,
                utilization_low=0.35, utilization_high=0.6,
            ),
            priority=2,
        ),
        TrafficClass(
            name="background",
            arrivals=PoissonProcess(total * (1.0 - hot_share)),
            holding=ExponentialHolding(5.0),
            pool=pool_factory(
                pool_size, seed * 100 + 12,
                internals_low=1, internals_high=2,
                utilization_low=0.25, utilization_high=0.45,
            ),
            priority=0,
        ),
    )


def diurnal_mmpp_classes(
    seed: int = 0,
    rate_scale: float = 1.0,
    pool_size: int = 8,
    day_dwell: float = 30.0,
    night_dwell: float = 30.0,
    night_fraction: float = 0.1,
    pool_factory: Callable = traffic_pool,
) -> tuple[TrafficClass, ...]:
    """Day/night modulation: every class is an MMPP over two phases.

    Each class spends Exp(``day_dwell``) sim-time at its busy rate and
    Exp(``night_dwell``) at ``night_fraction`` of it, cyclically — a
    compressed diurnal cycle.  The busy rates reuse the default mix's
    levels, so at ``night_fraction=1`` this degenerates to (roughly)
    the default mix; at the default 0.1 the service alternates between
    overload and near-idle, exercising queue drains, fill transients
    and the fast path's epoch churn in both directions.
    """
    if rate_scale <= 0:
        raise ValueError("rate_scale must be positive")
    if day_dwell <= 0 or night_dwell <= 0:
        raise ValueError("dwell times must be positive")
    if not 0.0 < night_fraction <= 1.0:
        raise ValueError("night_fraction must lie in (0, 1]")

    def diurnal(rate: float) -> MMPPProcess:
        return MMPPProcess((
            (rate, day_dwell),
            (rate * night_fraction, night_dwell),
        ))

    return (
        TrafficClass(
            name="interactive",
            arrivals=diurnal(0.9 * rate_scale),
            holding=ExponentialHolding(6.0),
            pool=pool_factory(
                pool_size, seed * 100 + 1,
                internals_low=1, internals_high=3,
                utilization_low=0.25, utilization_high=0.5,
            ),
            priority=2,
        ),
        TrafficClass(
            name="batch",
            arrivals=diurnal(0.45 * rate_scale),
            holding=LognormalHolding(median=12.0, sigma=0.6),
            pool=pool_factory(
                pool_size, seed * 100 + 2,
                internals_low=3, internals_high=6,
                utilization_low=0.35, utilization_high=0.65,
            ),
            priority=0,
        ),
        TrafficClass(
            name="bursty",
            arrivals=diurnal(1.6 * rate_scale),
            holding=ExponentialHolding(5.0),
            pool=pool_factory(
                pool_size, seed * 100 + 3,
                internals_low=2, internals_high=4,
                utilization_low=0.3, utilization_high=0.55,
            ),
            priority=1,
        ),
    )


def flash_crowd_classes(
    seed: int = 0,
    rate_scale: float = 1.0,
    pool_size: int = 8,
    surge: float = 4.0,
    pool_factory: Callable = traffic_pool,
) -> tuple[TrafficClass, ...]:
    """The overload bench's flash crowd as a named library preset.

    The default three-class mix with every arrival rate multiplied by
    ``surge`` — holding times, pools, priorities and class structure
    untouched, so the *same* population suddenly arrives ``surge``
    times as fast.  This is exactly the ad-hoc ``rate_scale = base *
    load`` construction ``benchmarks/run_overload_bench.py`` used
    before it was lifted here (the bench now calls this preset), which
    keeps its decision streams bit-identical.
    """
    if surge <= 0:
        raise ValueError("surge must be positive")
    return default_traffic_classes(
        seed=seed, rate_scale=rate_scale * surge, pool_size=pool_size,
        pool_factory=pool_factory,
    )


#: shape name -> factory(seed, rate_scale, pool_size, **params);
#: the ``classes`` stanza of a recipe selects one by name.  "default"
#: keeps its historical spelling so legacy recipes (and the traces
#: recorded from them) stay byte-identical.  Every factory builds its
#: pools with ``pool_factory``: :func:`traffic_pool` generates them,
#: :func:`pool_configs` only checks their arguments.
TRAFFIC_SHAPES: dict[str, Callable[..., tuple[TrafficClass, ...]]] = {
    "default": default_traffic_classes,
    "hot_spot": hot_spot_classes,
    "diurnal_mmpp": diurnal_mmpp_classes,
    "flash_crowd": flash_crowd_classes,
}


def make_traffic_classes(
    shape: str = "default",
    seed: int = 0,
    rate_scale: float = 1.0,
    pool_size: int = 8,
    **params,
) -> tuple[TrafficClass, ...]:
    """Instantiate a named traffic shape (fresh, stateful processes).

    ``params`` are forwarded to the shape factory (e.g.
    ``surge=2.0`` for ``flash_crowd``); unknown shapes raise
    ``ValueError`` listing the registry.
    """
    factory = TRAFFIC_SHAPES.get(shape)
    if factory is None:
        raise ValueError(
            f"unknown traffic shape {shape!r}; "
            f"choose from {sorted(TRAFFIC_SHAPES)}"
        )
    return factory(
        seed=seed, rate_scale=rate_scale, pool_size=pool_size, **params
    )
