"""Routing phase: per-channel path search with virtual-channel reservation.

"We use virtual channels to time-share communication resources in the
platform [11].  The less complex breadth-first search is used for
routing, because it has no noticeable performance differences in terms
of successful routes and energy consumption, compared to Dijkstra's
algorithm [11]."  (Paper Section II.)

Both routers are provided: :class:`BfsRouter` (the paper's default)
and :class:`DijkstraRouter` (the comparator, with a congestion-aware
edge cost) — ablation A1 benchmarks them against each other.  A route
claims one virtual channel plus the channel's bandwidth on every
directed link it crosses; channels whose endpoints share an element
need no network resources at all.

Internally both routers search over the platform's ``(neighbour,
directed slot)`` pair table — the per-hop capacity check is three
array reads instead of string hashing — and translate back to names
only in the public ``find_path`` wrapper and the reservations they
return.  The BFS never enqueues a degree-1 node, and a route to a
degree-1 target checks that target's one link first and ends when its
neighbour is discovered (see :meth:`BfsRouter.find_path_ids`).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.apps.taskgraph import Application, Channel
from repro.arch.state import AllocationError, AllocationState, ChannelReservation
from repro.reasons import ReasonCode


class RoutingError(RuntimeError):
    """The routing phase could not establish every channel.

    ``code`` classifies the failure machine-readably (see
    :class:`~repro.reasons.ReasonCode`); the manager copies it onto
    the failure object / decision it produces.
    """

    def __init__(
        self, message: str, code: ReasonCode = ReasonCode.ROUTING_INFEASIBLE
    ):
        super().__init__(message)
        self.code = code


@dataclass
class RoutingResult:
    """Reservations made for one application's channels."""

    routes: dict[str, ChannelReservation] = field(default_factory=dict)
    #: channels whose tasks share an element (no network route needed)
    local_channels: tuple[str, ...] = ()

    @property
    def total_hops(self) -> int:
        return sum(r.hops for r in self.routes.values())

    def hops_per_channel(self) -> float:
        """Average allocated links per channel (the Fig. 8 metric).

        Local channels count as zero-hop allocations.
        """
        count = len(self.routes) + len(self.local_channels)
        if count == 0:
            return 0.0
        return self.total_hops / count


class BaseRouter:
    """Shared channel-iteration and reservation logic."""

    def route_application(
        self,
        app: Application,
        placement: dict[str, str],
        state: AllocationState,
        app_id: str | None = None,
    ) -> RoutingResult:
        """Route every channel of ``app``; raises :class:`RoutingError`.

        Channels are processed by descending bandwidth (fattest first:
        they have the fewest path options), ties broken by name for
        determinism.  Reservations mutate ``state``; the caller is
        responsible for transaction/rollback on failure.
        """
        app_id = app_id or app.name
        platform = state.platform
        node_ids = platform._node_ids
        result = RoutingResult()
        local: list[str] = []
        ordered = app.channels_by_bandwidth()
        # Saturation fast-fail: a channel whose mapped source element
        # cannot emit one more virtual channel (or whose target cannot
        # absorb one) is unroutable whatever the path search does, so
        # the attempt is rejected before any BFS runs or reservations
        # are made.  Purely a necessary condition — surviving channels
        # still go through the full search below.  Note the failure
        # *reason* may name a different channel than the sequential
        # search would (a later locally-saturated channel is detected
        # before an earlier mid-mesh dead end); the decision and its
        # phase are identical either way.
        neighbor_pairs = platform._neighbor_pairs
        slot_bw = platform._slot_bw
        bw_used = state._bw_used
        saturated = state._slot_saturated
        failed_links = state._failed_links
        for channel in ordered:
            source = placement.get(channel.source)
            target = placement.get(channel.target)
            if source is None or target is None:
                break  # the main loop raises the unmapped-endpoint error
            if source == target:
                continue
            bandwidth = channel.bandwidth
            for endpoint, reverse in (
                (node_ids[source], 0), (node_ids[target], 1)
            ):
                for _neighbor, slot in neighbor_pairs[endpoint]:
                    if reverse:
                        slot ^= 1
                    if (
                        not saturated[slot]
                        and slot_bw[slot] - bw_used[slot] >= bandwidth
                        and not (
                            failed_links and (slot >> 1) in failed_links
                        )
                    ):
                        break
                else:
                    raise RoutingError(
                        f"no route for channel {channel.name!r} "
                        f"({source} -> {target}, bw {bandwidth:g})",
                        code=ReasonCode.ROUTING_SATURATED,
                    )
        for channel in ordered:
            source = placement.get(channel.source)
            target = placement.get(channel.target)
            if source is None or target is None:
                raise RoutingError(
                    f"channel {channel.name!r} has unmapped endpoints",
                    code=ReasonCode.ROUTING_UNMAPPED_ENDPOINT,
                )
            if source == target:
                local.append(channel.name)
                continue
            source_id, target_id = node_ids[source], node_ids[target]
            id_path = self.find_path_ids(
                state, source_id, target_id, channel.bandwidth
            )
            if id_path is None:
                raise RoutingError(
                    f"no route for channel {channel.name!r} "
                    f"({source} -> {target}, bw {channel.bandwidth:g})",
                    code=ReasonCode.ROUTING_NO_PATH,
                )
            try:
                reservation = state.reserve_route_ids(
                    app_id, channel.name, id_path, channel.bandwidth
                )
            except AllocationError as exc:  # pragma: no cover - find_path
                raise RoutingError(str(exc)) from exc   # guarantees capacity
            result.routes[channel.name] = reservation
        result.local_channels = tuple(local)
        return result

    def find_path(
        self,
        state: AllocationState,
        source: str,
        target: str,
        bandwidth: float,
    ) -> list[str] | None:
        """Name-based wrapper over :meth:`find_path_ids`."""
        platform = state.platform
        id_path = self.find_path_ids(
            state,
            platform.node_id(source),
            platform.node_id(target),
            bandwidth,
        )
        if id_path is None:
            return None
        nodes = platform.nodes
        return [nodes[node_id].name for node_id in id_path]

    def find_path_ids(
        self,
        state: AllocationState,
        source_id: int,
        target_id: int,
        bandwidth: float,
    ) -> list[int] | None:
        raise NotImplementedError


class BfsRouter(BaseRouter):
    """Breadth-first (minimum-hop) routing — the paper's default."""

    def find_path_ids(
        self,
        state: AllocationState,
        source_id: int,
        target_id: int,
        bandwidth: float,
    ) -> list[int] | None:
        """The minimum-hop path over usable links, or None.

        The BFS parent of a node is fixed at discovery, so each rule
        below returns the exact path of the plain search:

        * the search ends when the target is discovered rather than
          dequeued;
        * a degree-1 node gets a parent but is never enqueued — its
          one link leads back to that parent;
        * a degree-1 target is reachable only through its one link, so
          that link is checked into the target before any search (a
          wall returns None at once), and the search ends when the
          target's neighbour is discovered.
        """
        platform = state.platform
        neighbor_pairs = platform._neighbor_pairs
        leaf = platform._leaf_mask
        slot_bw = platform._slot_bw
        bw_used = state._bw_used
        saturated = state._slot_saturated
        failed_links = state._failed_links
        if source_id == target_id:
            return [source_id]
        stop_id = target_id
        if leaf[target_id]:
            ((stop_id, slot),) = neighbor_pairs[target_id]
            slot ^= 1  # the access link, into the target
            if (
                saturated[slot]
                or slot_bw[slot] - bw_used[slot] < bandwidth
                or (failed_links and (slot >> 1) in failed_links)
            ):
                return None
            if stop_id == source_id:
                return [source_id, target_id]
        # parent id per visited node (a node is visited iff it has a
        # parent), sized by the visited region rather than the platform
        parents = {source_id: -1}  # -1 marks the root
        queue = deque((source_id,))
        while queue:
            current = queue.popleft()
            for neighbor, slot in neighbor_pairs[current]:
                if neighbor in parents:
                    continue
                if saturated[slot]:
                    continue
                if slot_bw[slot] - bw_used[slot] < bandwidth:
                    continue
                if failed_links and (slot >> 1) in failed_links:
                    continue
                parents[neighbor] = current
                if neighbor == stop_id:
                    path = _unwind(parents, stop_id)
                    if stop_id != target_id:
                        path.append(target_id)
                    return path
                if not leaf[neighbor]:
                    queue.append(neighbor)
        return None


class DijkstraRouter(BaseRouter):
    """Congestion-aware shortest-path routing (the [11] comparator).

    Edge cost is ``1 + congestion_weight * utilization`` of the
    directed link, so lightly loaded detours are preferred over
    saturated shortcuts.  With ``congestion_weight = 0`` this reduces
    to BFS up to tie-breaking.
    """

    def __init__(self, congestion_weight: float = 1.0):
        if congestion_weight < 0:
            raise ValueError("congestion_weight must be non-negative")
        self.congestion_weight = congestion_weight

    def find_path_ids(
        self,
        state: AllocationState,
        source_id: int,
        target_id: int,
        bandwidth: float,
    ) -> list[int] | None:
        platform = state.platform
        neighbor_pairs = platform._neighbor_pairs
        slot_bw = platform.slot_bw
        bw_used = state._bw_used
        saturated = state._slot_saturated
        failed_links = state._failed_links
        nodes = platform.nodes
        congestion_weight = self.congestion_weight
        infinity = float("inf")
        parents = {source_id: -1}
        best = {source_id: 0.0}
        done: set[int] = set()
        # ties broken by node *name* to keep historical determinism
        heap = [(0.0, nodes[source_id].name, source_id)]
        while heap:
            cost, _name, current = heapq.heappop(heap)
            if current in done:
                continue
            done.add(current)
            if current == target_id:
                return _unwind(parents, target_id)
            for neighbor, slot in neighbor_pairs[current]:
                if neighbor in done:
                    continue
                if saturated[slot]:
                    continue
                capacity = slot_bw[slot]
                if capacity - bw_used[slot] < bandwidth:
                    continue
                if failed_links and (slot >> 1) in failed_links:
                    continue
                edge = 1.0 + congestion_weight * (bw_used[slot] / capacity)
                candidate = cost + edge
                if candidate < best.get(neighbor, infinity):
                    best[neighbor] = candidate
                    parents[neighbor] = current
                    heapq.heappush(
                        heap, (candidate, nodes[neighbor].name, neighbor)
                    )
        return None


def _unwind(parents: dict[int, int], target_id: int) -> list[int]:
    path = [target_id]
    while parents[path[-1]] != -1:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def release_routes(
    state: AllocationState, app_id: str, result: RoutingResult
) -> None:
    """Release every reservation in ``result`` (failure cleanup)."""
    for channel_name in list(result.routes):
        state.release_route(app_id, channel_name)
        del result.routes[channel_name]
