"""Recipes: reproducible run descriptions for either backend.

:func:`build_recipe` / :func:`run_recipe` / :func:`replay_trace` drive
either backend from a JSON recipe — a ``shards`` key makes it a
cluster run — so a recorded run can be reproduced bit-identically
(see ``docs/simulation.md``).  :data:`BACKEND_KEYS` names the keys
only one backend runs; building, running and the CLI's flags all read
their unset values from it.
"""

from __future__ import annotations

from repro.api.pipeline import PhasePipeline
from repro.arch.builders import (
    crisp,
    fat_tree,
    heterogeneous_mesh,
    mesh,
    torus,
)
from repro.arch.faults import (
    Fault,
    random_campaign,
    random_element_campaign,
    storm_campaign,
)
from repro.arch.state import AllocationState
from repro.arch.topology import Platform
from repro.obs import Observability
from repro.overload import OverloadConfig
from repro.resilience import RecoveryPolicy, ResilienceConfig
from repro.sim.policies import make_policy
from repro.sim.run import SimulationConfig, SimulationResult, run_simulation
from repro.sim.trace import diff_traces, read_trace, write_trace
from repro.sim.traffic import make_traffic_classes, pool_configs

#: the recipe keys only one backend runs, each mapped to the value that
#: means *unset*; in emission order
BACKEND_KEYS = {
    "plain": {
        "faults": 0,
        "mapper": "kairos",
        "mapper_params": None,
        "fault_mttr": None,
        "fault_links": 0.0,
        "fault_storm": 0,
        "resilience": None,
    },
    "cluster": {
        "kills": 0,
        "downtime": 20.0,
        "heartbeat": None,
        "recovery": None,
        "allow_split": True,
    },
}

#: why a recipe of one backend refuses a set key of the other
_FOREIGN = {
    "plain": "cluster-only recipe keys; set shards for a cluster run",
    "cluster": (
        "cannot be combined with shards: every shard runs the "
        "kairos mapper, and a cluster models failure as shard kills"
    ),
}


def _backend_knobs(keys: dict, backend: str) -> dict:
    """``backend``'s :data:`BACKEND_KEYS`, read from ``keys``.

    A missing key, or an empty ``mapper_params``, reads as unset.  A
    set key of the other backend raises ``ValueError``; keys of
    neither table are ignored, so retired keys still replay.
    """
    knobs, stray = {}, []
    for side, table in BACKEND_KEYS.items():
        for key, unset in table.items():
            value = keys.get(key, unset)
            if key == "mapper_params" and not value:
                value = unset
            if side == backend:
                knobs[key] = value
            elif value != unset:
                stray.append(key)
    if stray:
        raise ValueError(f"{', '.join(stray)}: {_FOREIGN[backend]}")
    return knobs


def build_recipe(
    platform: str = "12x12",
    duration: float = 120.0,
    seed: int = 0,
    policy: str = "fifo",
    policy_params: dict | None = None,
    rate_scale: float = 1.0,
    pool_size: int = 8,
    sample_interval: float = 5.0,
    warmup: float = 0.0,
    overload: "OverloadConfig | dict | None" = None,
    traffic: str = "default",
    traffic_params: dict | None = None,
    shards: int | None = None,
    **backend,
) -> dict:
    """A JSON-able description that :func:`run_recipe` reproduces exactly.

    The recipe is also the trace header written by ``repro sim
    --record``, which is what makes ``--replay`` self-contained.
    ``warmup`` sets the SLA warmup window (metrics only; the decision
    stream is independent of it, so traces recorded without the key
    replay unchanged).  ``traffic`` names a shape from
    :data:`~repro.sim.traffic.TRAFFIC_SHAPES` (``traffic_params`` are
    forwarded to the preset).

    ``backend`` takes the keys of :data:`BACKEND_KEYS`.  A plain
    recipe always carries ``faults`` (random element faults spread
    over the run) and the rest only when set, so older recipes — and
    the traces recorded from them — stay byte-identical: ``mapper`` /
    ``mapper_params`` (the placement strategy from the pipeline
    registry), ``fault_mttr`` (transient faults repaired that much
    sim-time after injection), ``fault_links`` (fraction of the
    campaign drawn as link faults), ``fault_storm`` (blast radius of
    correlated storms, turning ``faults`` into an epicenter count) and
    ``resilience`` (see :class:`~repro.resilience.ResilienceConfig`).

    ``shards`` makes the recipe a cluster run: the mesh is split into
    that many column bands, each a shard of a
    :class:`~repro.cluster.ClusterManager`, and the platform is
    recorded as its bare ``"RxC"`` shape.  A cluster recipe carries
    ``kills`` (evenly spaced shard kills, each revived ``downtime``
    later), ``heartbeat`` (a :class:`~repro.cluster.LivenessPolicy`
    spec), ``recovery`` and ``allow_split``.  Every shard runs the
    kairos pipeline and a cluster models failure as shard kills, so a
    set key of the other backend raises ``ValueError``.
    """
    family, dims = _parse_platform_spec(platform)
    unknown = set(backend).difference(*BACKEND_KEYS.values())
    if unknown:
        raise TypeError(
            f"build_recipe() got an unexpected keyword argument "
            f"{min(unknown)!r}"
        )
    knobs = _backend_knobs(backend, "plain" if shards is None else "cluster")
    resolved = make_policy(policy, policy_params)  # validate early
    make_traffic_classes(  # check shape + params early, generating no pool
        traffic, seed=seed, rate_scale=rate_scale, pool_size=pool_size,
        pool_factory=pool_configs, **(traffic_params or {}),
    )
    recipe = {
        "platform": platform,
        "duration": duration,
        "seed": seed,
        "sample_interval": sample_interval,
        "warmup": warmup,
        "policy": resolved.describe(),
        "classes": {
            "kind": traffic,
            "seed": seed,
            "rate_scale": rate_scale,
            "pool_size": pool_size,
        },
    }
    if traffic_params:
        recipe["classes"]["params"] = dict(traffic_params)
    overload = OverloadConfig.from_spec(overload)
    if overload is not None:
        # emitted only when set: pre-overload recipes (and the traces
        # recorded from them) stay byte-identical
        recipe["overload"] = overload.describe()
    if shards is not None:
        from repro.cluster.registry import LivenessPolicy
        from repro.cluster.shard import band_width
        from repro.cluster.sim import scheduled_kills

        if family != "mesh":
            raise ValueError(
                f"platform spec {platform!r}: shards partition a mesh "
                f"('RxC'), not a {family}"
            )
        band_width(dims[1], shards)
        # the bare shape every cluster recipe has always recorded
        recipe["platform"] = platform.partition(":")[2] or platform
        heartbeat, recovery = knobs["heartbeat"], knobs["recovery"]
        if not isinstance(heartbeat, LivenessPolicy):
            heartbeat = LivenessPolicy.from_params(heartbeat)
        if not isinstance(recovery, RecoveryPolicy):
            recovery = RecoveryPolicy.from_params(recovery)
        kills = knobs["kills"]
        if kills:
            # validate the campaign fits the horizon before emitting it
            scheduled_kills(shards, kills, duration, knobs["downtime"])
        recipe.update(
            shards=shards,
            heartbeat=heartbeat.describe(),
            recovery=recovery.describe(),
            allow_split=knobs["allow_split"],
            kills=kills,
        )
        if kills:
            recipe["downtime"] = knobs["downtime"]
        return recipe
    if knobs["fault_mttr"] is not None and knobs["fault_mttr"] <= 0:
        raise ValueError("fault_mttr must be positive (or None)")
    if not 0.0 <= knobs["fault_links"] <= 1.0:
        raise ValueError("fault_links must lie in [0, 1]")
    if knobs["fault_storm"] < 0:
        raise ValueError("fault_storm must be non-negative")
    recipe["faults"] = knobs["faults"]
    if knobs["mapper_params"]:
        # parameters name their mapper, even the default one
        recipe["mapper"] = knobs["mapper"]
        knobs["mapper_params"] = dict(knobs["mapper_params"])
    if knobs["resilience"] is not None:
        knobs["resilience"] = ResilienceConfig.from_spec(
            knobs["resilience"]
        ).describe()
    for key, unset in BACKEND_KEYS["plain"].items():
        if knobs[key] != unset:
            recipe[key] = knobs[key]
    if "mapper" in recipe:
        PhasePipeline(  # validate
            mapper=recipe["mapper"], mapper_params=knobs["mapper_params"]
        )
    return recipe


#: builders reachable from a ``family:shape`` platform spec
_PLATFORM_FAMILIES = ("mesh", "torus", "hetmesh", "fat_tree")


def _parse_platform_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    """Validate a spec without building it; -> ``(family, dims)``.

    Accepted forms: ``"crisp"``; ``"RxC"`` (legacy, -> mesh);
    ``"mesh:RxC"``; ``"torus:RxC"``; ``"hetmesh:RxC"``;
    ``"fat_tree:N"`` or ``"fat_tree:N:arity"``.  Kept separate from
    :func:`platform_from_spec` so a 64x64 matrix cell can be
    validated at expansion time without paying to build it.
    """
    if spec == "crisp":
        return "crisp", ()
    family, _, shape = spec.partition(":")
    if not shape:
        family, shape = "mesh", spec  # legacy bare "RxC"
    if family not in _PLATFORM_FAMILIES:
        raise ValueError(
            f"platform spec {spec!r}: unknown family {family!r} "
            f"(choose from {', '.join(_PLATFORM_FAMILIES)}, "
            "'crisp', or bare 'RxC')"
        )
    try:
        if family == "fat_tree":
            dims = tuple(int(part) for part in shape.split(":"))
            if len(dims) not in (1, 2):
                raise ValueError
        else:
            dims = tuple(int(part) for part in shape.lower().split("x"))
            if len(dims) != 2:
                raise ValueError
    except ValueError:
        raise ValueError(
            f"platform spec {spec!r}: malformed shape {shape!r}"
        ) from None
    if any(dim < 1 for dim in dims):
        raise ValueError(f"platform spec {spec!r}: dimensions must be >= 1")
    if family == "fat_tree" and dims[0] < 2:
        raise ValueError(f"platform spec {spec!r}: need at least 2 leaves")
    return family, dims


def platform_from_spec(spec: str) -> Platform:
    """Build the platform a spec describes.

    ``"crisp"`` and bare ``"RxC"`` (-> mesh) are the legacy forms;
    ``"mesh:RxC"``, ``"torus:RxC"``, ``"hetmesh:RxC"`` and
    ``"fat_tree:N[:arity]"`` select the other builders (see
    :func:`_parse_platform_spec`).
    """
    family, dims = _parse_platform_spec(spec)
    if family == "crisp":
        return crisp()
    if family == "mesh":
        return mesh(*dims)
    if family == "torus":
        return torus(*dims)
    if family == "hetmesh":
        return heterogeneous_mesh(*dims)
    return fat_tree(*dims)


def scheduled_faults(
    platform: Platform,
    count: int,
    duration: float,
    seed: int,
    mttr: float | None = None,
    link_fraction: float = 0.0,
    storm_radius: int = 0,
) -> tuple[tuple[float, Fault], ...]:
    """A deterministic fault campaign spread evenly over the run.

    Defaults reproduce the legacy scenario exactly — ``count`` random
    permanent element faults.  ``mttr`` makes every fault transient;
    ``link_fraction`` mixes in link faults; ``storm_radius`` switches
    to correlated storms, where ``count`` becomes the number of
    epicenters and the campaign grows to each storm's whole blast
    region (times then spread over the actual fault count).
    """
    if count < 1:
        return ()
    state = AllocationState(platform)
    if storm_radius > 0:
        campaign = storm_campaign(
            state, count, radius=storm_radius, seed=seed + 1,
            repair_after=mttr,
        )
    elif link_fraction > 0:
        campaign = random_campaign(
            state, count, seed=seed + 1, link_fraction=link_fraction,
            repair_after=mttr,
        )
    else:
        campaign = random_element_campaign(
            state, count, seed=seed + 1, repair_after=mttr
        )
    pending = len(campaign.faults)
    times = tuple(
        duration * (index + 1) / (pending + 1) for index in range(pending)
    )
    return campaign.schedule(times)



def run_recipe(
    recipe: dict,
    trace_path=None,
    obs: Observability | None = None,
) -> SimulationResult:
    """Execute a recipe; optionally write the JSONL trace (header first).

    The one place that tells the backends apart: a recipe with a
    ``"shards"`` key runs
    :func:`~repro.cluster.sim.run_cluster_simulation`, any other
    :func:`~repro.sim.run.run_simulation`; a set key of the other
    backend raises ``ValueError`` as in :func:`build_recipe`.
    ``obs`` is deliberately *not* part of the recipe: metrics and
    spans observe the run without influencing it.
    """
    cluster = "shards" in recipe
    knobs = _backend_knobs(recipe, "cluster" if cluster else "plain")
    classes_spec = recipe["classes"]
    classes = make_traffic_classes(
        classes_spec.get("kind", "default"),
        seed=classes_spec["seed"],
        rate_scale=classes_spec["rate_scale"],
        pool_size=classes_spec["pool_size"],
        **(classes_spec.get("params") or {}),
    )
    policy = make_policy(
        recipe["policy"]["name"], recipe["policy"].get("params") or {}
    )
    config = SimulationConfig(
        duration=recipe["duration"],
        seed=recipe["seed"],
        sample_interval=recipe["sample_interval"],
        warmup=float(recipe.get("warmup", 0.0)),
    )
    overload = OverloadConfig.from_spec(recipe.get("overload"))
    if cluster:
        # repro.cluster imports this module: import it at call time
        from repro.cluster.registry import LivenessPolicy
        from repro.cluster.sim import run_cluster_simulation, scheduled_kills

        _family, (rows, cols) = _parse_platform_spec(recipe["platform"])
        shard_count = int(recipe["shards"])
        kills = scheduled_kills(
            shard_count, int(knobs["kills"]), config.duration,
            float(knobs["downtime"]),
        )
        result = run_cluster_simulation(
            rows, cols, shard_count, classes, policy, config,
            kills=kills,
            liveness=LivenessPolicy.from_params(knobs["heartbeat"]),
            recovery=RecoveryPolicy.from_params(knobs["recovery"]),
            allow_split=bool(knobs["allow_split"]),
            obs=obs,
            overload=overload,
        )
    else:
        platform = platform_from_spec(recipe["platform"])
        faults = scheduled_faults(
            platform, int(knobs["faults"]),
            config.duration, config.seed,
            mttr=knobs["fault_mttr"],
            link_fraction=float(knobs["fault_links"]),
            storm_radius=int(knobs["fault_storm"]),
        )
        result = run_simulation(
            platform, classes, policy, config, faults=faults,
            resilience=ResilienceConfig.from_spec(knobs["resilience"]),
            obs=obs,
            overload=overload,
            mapper=knobs["mapper"],
            mapper_params=knobs["mapper_params"],
        )
    result.recipe = recipe
    if trace_path is not None:
        write_trace(trace_path, result.trace, header=recipe)
    return result


def replay_trace(path) -> tuple[bool, list[str], SimulationResult]:
    """Re-run a recorded trace's recipe and diff the decision streams.

    Any header replays — plain or cluster, :func:`run_recipe` picks
    the backend.  Returns ``(identical, differences, fresh_result)``;
    an empty difference list certifies bit-identical event ordering
    and admission decisions.
    """
    header, records = read_trace(path)
    if header is None:
        raise ValueError(f"{path}: trace has no recipe header; cannot replay")
    try:
        result = run_recipe(header)
    except KeyError as exc:
        # a mutated/truncated header is user input, not a library bug:
        # surface a structured error, never a raw stack trace
        raise ValueError(
            f"{path}: trace header is not a valid recipe "
            f"(missing key {exc})"
        ) from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(
            f"{path}: trace header is not a valid recipe ({exc!r})"
        ) from exc
    differences = diff_traces(records, result.trace)
    return not differences, differences, result
