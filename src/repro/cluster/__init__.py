"""repro.cluster — sharded admission with liveness and 2PC.

Partitions a large platform into disjoint regions, each owned by an
admission :class:`Shard` (a full Kairos + façade stack of its own).
A :class:`ShardRouter` turns application ids into deterministic probe
orders; a :class:`LivenessRegistry` tracks heartbeats through
``live → stale → dead`` with probation hysteresis and demotes shards
on missed beats or fault storms; a :class:`ClusterCoordinator` admits
applications too large for one shard by splitting their task graph and
running an all-or-unwind two-phase commit over the plan/commit façade.
:class:`ClusterManager` ties it together behind the same duck-typed
surface as a single Kairos, so the sim service and the recovery engine
drive a cluster without modification.

See ``docs/cluster.md`` for the partitioning model, the liveness
automaton, the 2PC failure matrix and the determinism contract.
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    ClusterLayout,
    split_application,
)
from repro.cluster.registry import (
    LivenessPolicy,
    LivenessRegistry,
    LivenessTransition,
    ShardLiveness,
)
from repro.cluster.router import ShardRouter, placement_hint
from repro.cluster.service import ClusterManager
from repro.cluster.shard import Shard, build_shards
from repro.cluster.sim import (
    ClusterAdmissionService,
    build_cluster_recipe,
    replay_cluster_trace,
    run_cluster_recipe,
    run_cluster_simulation,
    scheduled_kills,
)

__all__ = [
    "ClusterAdmissionService",
    "ClusterCoordinator",
    "ClusterLayout",
    "ClusterManager",
    "LivenessPolicy",
    "LivenessRegistry",
    "LivenessTransition",
    "Shard",
    "ShardLiveness",
    "ShardRouter",
    "build_cluster_recipe",
    "build_shards",
    "placement_hint",
    "replay_cluster_trace",
    "run_cluster_recipe",
    "run_cluster_simulation",
    "scheduled_kills",
    "split_application",
]
