"""Declarative scenario matrices: axes -> seeded cells.

A :class:`ScenarioMatrix` is the cross product of three axis groups —
*topology* (platform specs, see
:func:`repro.sim.recipe.platform_from_spec`), *traffic* (named shapes
from :data:`repro.sim.traffic.TRAFFIC_SHAPES`, plus the synthetic
``"fault_storm"`` condition which drives the default mix through a
correlated :class:`~repro.arch.faults.FaultCampaign` storm) and
*strategy* (registered mappers, shard counts).
:meth:`ScenarioMatrix.expand` turns every combination into a
:class:`ScenarioCell` holding a complete, JSON-able recipe plus a per-cell seed derived from the
matrix seed and the cell's decision-relevant coordinates with
:func:`zlib.crc32` — stable across processes (unlike builtin
``hash``), so a parallel sweep reproduces a serial one bit-for-bit.

Every axis value (topology, traffic, mapper, shards) lives inside
the recipe that :func:`repro.sim.recipe.run_recipe` runs.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field, fields

from repro.api.pipeline import available_strategies
from repro.sim.recipe import _parse_platform_spec, build_recipe
from repro.sim.traffic import TRAFFIC_SHAPES

__all__ = [
    "ScenarioCell",
    "ScenarioMatrix",
    "smoke_matrix",
    "default_matrix",
    "large_matrix",
    "storm_matrix",
    "cluster_matrix",
]

#: synthetic traffic condition: default mix under a correlated fault storm
FAULT_STORM = "fault_storm"
#: the tuple-valued fields whose cross product is the matrix
_AXES = ("topologies", "traffic", "mappers", "shards")


@dataclass(frozen=True)
class ScenarioCell:
    """One fully-resolved point of the matrix: axes + recipe + seed."""

    cell_id: str
    topology: str
    traffic: str
    mapper: str
    shards: int
    seed: int
    recipe: dict

    def axes(self) -> dict:
        """The axis coordinates alone (labels for grouping/reports)."""
        return {
            "topology": self.topology,
            "traffic": self.traffic,
            "mapper": self.mapper,
            "shards": self.shards,
        }

    def payload(self) -> dict:
        """The picklable work unit handed to a sweep worker."""
        return {
            "cell_id": self.cell_id,
            "axes": self.axes(),
            "recipe": self.recipe,
            "seed": self.seed,
        }


def _cell_seed(matrix_seed: int, cell_id: str) -> int:
    """Deterministic, process-stable per-cell seed."""
    return (matrix_seed * 1_000_003 + zlib.crc32(cell_id.encode())) % (
        1 << 31
    )


@dataclass(frozen=True)
class ScenarioMatrix:
    """The cross product of topology x traffic x strategy axes.

    Axis tuples multiply; scalars (policy, duration, rates, ...) are
    shared by every cell.  ``duration_overrides`` maps a topology spec
    to a different horizon so 64x64 cells can run shorter than 12x12
    ones without forking the matrix.  Validation happens at
    construction — axis typos fail before any platform is built.
    """

    name: str
    topologies: tuple[str, ...]
    traffic: tuple[str, ...] = ("default",)
    mappers: tuple[str, ...] = ("kairos",)
    shards: tuple[int, ...] = (1,)
    policy: str = "fifo"
    duration: float = 20.0
    seed: int = 0
    rate_scale: float = 1.0
    pool_size: int = 8
    sample_interval: float = 5.0
    warmup: float = 0.0
    storm_epicenters: int = 3
    storm_radius: int = 2
    duration_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis in _AXES:
            if not getattr(self, axis):
                raise ValueError(f"matrix axis {axis!r} must be non-empty")
        for spec in self.topologies:
            _parse_platform_spec(spec)
        known_shapes = set(TRAFFIC_SHAPES) | {FAULT_STORM}
        for shape in self.traffic:
            if shape not in known_shapes:
                raise ValueError(
                    f"unknown traffic shape {shape!r}; choose from "
                    f"{sorted(known_shapes)}"
                )
        registered = available_strategies()["mapper"]
        for mapper in self.mappers:
            if mapper not in registered:
                raise ValueError(
                    f"unknown mapper {mapper!r}; registered: {registered}"
                )
        for count in self.shards:
            if count < 1:
                raise ValueError("shard counts must be >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        for spec, horizon in self.duration_overrides.items():
            _parse_platform_spec(spec)
            if horizon <= 0:
                raise ValueError(
                    f"duration override for {spec!r} must be positive"
                )

    # -- expansion ---------------------------------------------------------

    def expand(self) -> list[ScenarioCell]:
        """Every axis combination as a seeded, recipe-carrying cell.

        Expansion order is fixed (topology, traffic, mapper, shards
        nested left-to-right), so cell order — and with it the report
        layout — is deterministic.
        """
        return [
            self._build_cell(*combo)
            for combo in itertools.product(
                self.topologies, self.traffic, self.mappers, self.shards,
            )
        ]

    def _build_cell(
        self, topology: str, traffic: str, mapper: str, shards: int,
    ) -> ScenarioCell:
        cell_id = f"{topology}|{traffic}|{mapper}|sh{shards}"
        # the seed ignores the mapper: mappers of one condition face
        # the same arrivals, which makes best-mapper tables an
        # apples-to-apples comparison (asserted in tests)
        condition_id = f"{topology}|{traffic}|sh{shards}"
        seed = _cell_seed(self.seed, condition_id)
        duration = float(
            self.duration_overrides.get(topology, self.duration)
        )
        storm = traffic == FAULT_STORM
        try:
            recipe = build_recipe(
                platform=topology,
                duration=duration,
                seed=seed,
                policy=self.policy,
                rate_scale=self.rate_scale,
                pool_size=self.pool_size,
                sample_interval=self.sample_interval,
                warmup=self.warmup,
                traffic="default" if storm else traffic,
                mapper=mapper,
                faults=self.storm_epicenters if storm else 0,
                fault_storm=self.storm_radius if storm else 0,
                # one shard is the plain service, not a 1-shard cluster
                shards=shards if shards > 1 else None,
            )
        except ValueError as exc:
            raise ValueError(f"cell {cell_id!r}: {exc}") from None
        return ScenarioCell(
            cell_id=cell_id,
            topology=topology,
            traffic=traffic,
            mapper=mapper,
            shards=shards,
            seed=seed,
            recipe=recipe,
        )

    # -- (de)serialisation -------------------------------------------------

    def describe(self) -> dict:
        """A JSON-able spec; :meth:`from_spec` round-trips it."""
        spec = {}
        for item in fields(self):
            value = getattr(self, item.name)
            spec[item.name] = list(value) if isinstance(
                value, tuple) else value
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "ScenarioMatrix":
        """Build a matrix from a JSON dict (tuple axes may be lists)."""
        known = {item.name for item in fields(cls)}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(
                f"unknown matrix keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs = dict(spec)
        for axis in _AXES:
            if axis in kwargs:
                kwargs[axis] = tuple(kwargs[axis])
        return cls(**kwargs)


# -- presets ----------------------------------------------------------------


def smoke_matrix(seed: int = 0) -> ScenarioMatrix:
    """Tiny 2x2x2 grid for CI gates: seconds, not minutes."""
    return ScenarioMatrix(
        name="smoke",
        topologies=("mesh:6x6", "fat_tree:16"),
        traffic=("default", "hot_spot"),
        mappers=("kairos", "first_fit"),
        duration=8.0,
        seed=seed,
        rate_scale=2.0,
        sample_interval=2.0,
    )


def default_matrix(seed: int = 0) -> ScenarioMatrix:
    """The canonical grid: 4 topologies x 4 traffic shapes x 4 mappers.

    ``optimal`` is excluded on purpose: the exhaustive baseline
    raises on instances past its size guard, which on 12x12-class
    platforms means every admission degenerates to a mapping failure
    — a vacuous column, not a comparison.
    """
    return ScenarioMatrix(
        name="default",
        topologies=(
            "mesh:12x12", "torus:12x12", "hetmesh:12x12", "fat_tree:144",
        ),
        traffic=("default", "hot_spot", "diurnal_mmpp", "flash_crowd"),
        mappers=("kairos", "first_fit", "random", "annealing"),
        duration=30.0,
        seed=seed,
        rate_scale=4.0,
    )


def storm_matrix(seed: int = 0) -> ScenarioMatrix:
    """Fault storms across the mapper axis on the canonical mesh."""
    return ScenarioMatrix(
        name="storm",
        topologies=("mesh:12x12",),
        traffic=(FAULT_STORM,),
        mappers=("kairos", "first_fit", "random", "annealing"),
        duration=30.0,
        seed=seed,
        rate_scale=4.0,
        storm_epicenters=3,
        storm_radius=2,
    )


def large_matrix(seed: int = 0) -> ScenarioMatrix:
    """48x48 and 64x64 cells, one each: the scaling data points."""
    return ScenarioMatrix(
        name="large",
        topologies=("mesh:48x48", "mesh:64x64"),
        traffic=("default",),
        mappers=("kairos",),
        duration=20.0,
        seed=seed,
        rate_scale=16.0,
        sample_interval=10.0,
    )


def cluster_matrix(seed: int = 0) -> ScenarioMatrix:
    """Sharded admission across traffic shapes (kairos mapper only)."""
    return ScenarioMatrix(
        name="cluster",
        topologies=("mesh:12x12",),
        traffic=("default", "hot_spot", "flash_crowd"),
        mappers=("kairos",),
        shards=(1, 2, 4),
        duration=30.0,
        seed=seed,
        rate_scale=4.0,
    )
