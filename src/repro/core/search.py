"""Platform search: ring-wise BFS for candidate elements (Section III-B).

"In every iteration, we start searching in the topological
neighborhood of the elements that were allocated in the previous
iteration.  From the location of the elements Ei-1, a breadth-first
search (BFS) is started.  When the partial mapping Mi-1 contains more
than one element, we start this search at multiple locations ...  In
this search, we keep track of the distance between a newly discovered
element and the origins of the BFS, to estimate the cost of the
communication routes."

:class:`RingSearch` runs one BFS *per origin element* in lockstep
rings, so the sparse distance matrix records, for every discovered
node, its distance to each individual origin — exactly what the
mapping cost function needs to estimate route lengths to already-mapped
communication peers.  Links without a free virtual channel are not
traversed (a congestion-aware search keeps the distance estimates
honest and avoids proposing unreachable elements).

Both classes operate on the interned integer ids a frozen platform
provides (see :mod:`repro.arch.topology`): BFS frontiers are id lists
walked over the ``(neighbour, slot)`` pair table, visited sets are
per-origin byte masks, and distances live in origin-indexed rows — one
array cell per node — instead of a dict keyed by string pairs.  A
degree-1 node (every element of the stock builders) is recorded but
never enters a frontier: it was discovered through its only link, so
expanding it could discover nothing.  Names appear only at the public
boundaries (``origins``, ``advance()``'s returned elements, and
name-based ``record``/``get`` lookups).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.arch.elements import ProcessingElement
from repro.arch.state import AllocationState
from repro.arch.topology import Platform


class SparseDistanceMatrix:
    """Distances discovered so far, keyed by (origin element, node).

    "A sparse distance matrix is built while searching the platform
    for elements.  If a required distance lookup fails, a relative
    high penalty is given" (Section III-D) — the penalty policy lives
    in the cost function; this class just answers ``get`` with None
    for unknown pairs.  Lookups are symmetric.

    The matrix is bound to a frozen platform and stores origin-indexed
    rows (one distance cell per node id).  Each mapping layer's
    :class:`RingSearch` owns one, and it is dropped with the search:
    nothing outlives the layer it estimated routes for.
    """

    __slots__ = ("_platform", "_node_ids", "_rows")

    def __init__(self, platform: Platform) -> None:
        self._platform = platform
        self._node_ids = platform._node_ids
        #: origin node id -> per-node distance row (-1 = unknown)
        self._rows: dict[int, list[int]] = {}

    def row(self, origin_id: int) -> list[int]:
        """The (mutable) distance row of ``origin_id`` (hot path)."""
        rows = self._rows
        row = rows.get(origin_id)
        if row is None:
            row = rows[origin_id] = [-1] * self._platform.node_count
        return row

    def record(self, origin: str, node: str, distance: int) -> None:
        node_ids = self._node_ids
        row = self.row(node_ids[origin])
        node_id = node_ids[node]
        if row[node_id] < 0 or distance < row[node_id]:
            row[node_id] = distance

    def get(self, a: str, b: str) -> int | None:
        if a == b:
            return 0
        node_ids = self._node_ids
        id_a = node_ids.get(a)
        id_b = node_ids.get(b)
        if id_a is None or id_b is None:
            return None
        return self.get_ids(id_a, id_b)

    def get_ids(self, id_a: int, id_b: int) -> int | None:
        """The one symmetric lookup, over node ids (:meth:`get` too)."""
        if id_a == id_b:
            return 0
        best: int | None = None
        rows = self._rows
        row = rows.get(id_a)
        if row is not None:
            known = row[id_b]
            if known >= 0:
                best = known
        row = rows.get(id_b)
        if row is not None:
            known = row[id_a]
            if 0 <= known and (best is None or known < best):
                best = known
        return best


class RingSearch:
    """Lockstep per-origin BFS producing rings of candidate elements.

    ``advance()`` expands every origin's frontier by one hop and
    returns the processing elements discovered for the first time by
    *any* origin in that ring (the paper's ``Ei,j``).  An empty return
    with :attr:`exhausted` set means the reachable platform has been
    fully explored — the mapping iteration must then fail.

    With ``respect_congestion`` a link is a wall when it has failed or
    is saturated in both directions, so distance estimates reflect the
    platform's *current* connectivity.

    Leaves (degree-1 nodes) never enter a frontier, so a ring that
    discovered only leaves ends with an empty one; it still counts as
    non-empty.  The search is exhausted only after a ring discovers
    nothing, exactly as if the leaves had been expanded, so
    :attr:`ring` and :attr:`exhausted` follow the plain BFS after
    every ``advance()``.
    """

    def __init__(
        self,
        state: AllocationState,
        origins: Iterable[ProcessingElement | str],
        respect_congestion: bool = True,
    ) -> None:
        self.state = state
        self.platform = state.platform
        self.respect_congestion = respect_congestion
        node_ids = self.platform._node_ids
        origin_ids: list[int] = []
        origin_names: list[str] = []
        for origin in origins:
            name = origin if isinstance(origin, str) else origin.name
            if name not in origin_names:
                origin_names.append(name)
                origin_ids.append(node_ids[name])
        if not origin_names:
            raise ValueError("RingSearch needs at least one origin element")
        self.origins = tuple(origin_names)
        self._origin_ids = tuple(origin_ids)
        # per-origin BFS state: byte visited masks and id frontiers
        node_count = self.platform.node_count
        self.distances = SparseDistanceMatrix(self.platform)
        self._visited = [bytearray(node_count) for _ in origin_ids]
        self._seen_elements = bytearray(node_count)
        self._frontier: list[list[int]] = []
        self._exhausted = False  # maintained by advance()
        self._ring = 0
        for index, origin_id in enumerate(origin_ids):
            self._visited[index][origin_id] = 1
            self._frontier.append([origin_id])
            self._seen_elements[origin_id] = 1
            self.distances.row(origin_id)[origin_id] = 0

    @property
    def ring(self) -> int:
        """Number of rings expanded so far (the paper's ``j``)."""
        return self._ring

    @property
    def exhausted(self) -> bool:
        """True once a ring discovered no node: nothing is left to expand."""
        return self._exhausted

    def advance(self) -> list[ProcessingElement]:
        """Expand one ring; return globally new candidate elements."""
        if self._exhausted:
            return []
        self._ring += 1
        ring = self._ring
        platform = self.platform
        neighbor_pairs = platform._neighbor_pairs
        leaf = platform._leaf_mask
        nodes = platform._nodes_by_id
        is_element = platform._is_element_mask
        seen = self._seen_elements
        respect_congestion = self.respect_congestion
        state = self.state
        failed_links = state._failed_links
        saturated = state._slot_saturated
        new_elements: list[ProcessingElement] = []
        discovered = False
        for index, origin_id in enumerate(self._origin_ids):
            frontier = self._frontier[index]
            if not frontier:
                continue
            visited = self._visited[index]
            row = self.distances.row(origin_id)
            next_frontier: list[int] = []
            for node_id in frontier:
                for neighbor_id, slot in neighbor_pairs[node_id]:
                    if visited[neighbor_id]:
                        continue
                    if respect_congestion:
                        if failed_links and (slot >> 1) in failed_links:
                            continue
                        if saturated[slot] and saturated[slot ^ 1]:
                            continue
                    visited[neighbor_id] = 1
                    discovered = True
                    if not leaf[neighbor_id]:
                        next_frontier.append(neighbor_id)
                    # first visit of this (origin, node) pair — the
                    # visited mask guarantees the cell is still unset,
                    # so the minimum-keeping compare is unnecessary
                    row[neighbor_id] = ring
                    if is_element[neighbor_id] and not seen[neighbor_id]:
                        seen[neighbor_id] = 1
                        new_elements.append(nodes[neighbor_id])
            self._frontier[index] = next_frontier
        self._exhausted = not discovered
        return new_elements

    def gather(
        self,
        needed: int,
        availability,
        extra_rings: int = 1,
        max_rings: int | None = None,
    ) -> list[ProcessingElement]:
        """Expand rings until ``needed`` available elements are found.

        ``availability(element) -> bool`` decides whether an element
        counts towards ``needed`` (typically: at least one task of the
        current layer fits on it).  Per Section III-B, "once we have
        discovered enough elements ... a single additional search step
        is performed" — controlled by ``extra_rings`` — so later
        objectives (fragmentation) have slack to choose from.

        Returns all *new* candidate elements found by this call, in
        discovery order.  The caller decides what to do when the
        search exhausts before ``needed`` is reached (the returned
        list is simply shorter in that case).
        """
        found: list[ProcessingElement] = []
        useful = 0
        while useful < needed and not self.exhausted:
            if max_rings is not None and self._ring >= max_rings:
                break
            ring_elements = self.advance()
            for element in ring_elements:
                found.append(element)
                if availability(element):
                    useful += 1
        for _ in range(extra_rings):
            if self.exhausted:
                break
            if max_rings is not None and self._ring >= max_rings:
                break
            found.extend(self.advance())
        return found
