"""The platform graph: elements, routers and links.

A platform ``P = <E, L>`` "provides resources through the processing
elements E, which are connected with the links L" (paper Section III).
We model the interconnect explicitly as a graph whose nodes are
processing elements and NoC routers, and whose edges are physical
links.  Every link carries a virtual-channel count and a bandwidth
capacity; their run-time occupancy is tracked by
:class:`repro.arch.state.AllocationState`, not here — the topology is
immutable once frozen.

Two derived views are central to the algorithms:

* **hop distances** over the full node graph (used by the mapping cost
  function and the routers), and
* the **element adjacency graph** — two elements are adjacent when they
  share a router or sit on directly-linked routers — which defines the
  "pairs of adjacent elements" in the paper's external-fragmentation
  metric and the neighbour bonuses of the mapping cost function.

Freezing also *interns* every node and link to a dense integer id and
precomputes id-based adjacency and link tables.  The run-time hot
paths (allocation state ledgers, ring search, routing) operate on
these ids — array indexing instead of string hashing — and translate
back to names only at public API boundaries:

* ``node_id`` / ``node_by_id`` — name ↔ dense node id,
* ``neighbor_pairs(i)`` — the adjacency of node ``i`` as one table of
  ``(neighbour id, directed link slot)`` pairs, in link insertion
  order; it is the only id adjacency table (``directed_slot(a, b)``
  scans ``a``'s pairs),
* ``is_leaf_id(i)`` — the degree-1 mask: a node with exactly one
  link.  Every element of the stock builders is a leaf; the BFS
  kernels record leaves but never expand them, since a leaf's one
  link is the one it was discovered through,
* directed link slots: link ``l`` (id ``k``) owns slots ``2k`` and
  ``2k + 1`` for its two directions, so ``slot ^ 1`` is always the
  reverse direction; ``slot >> 1`` recovers the undirected link id,
* ``slot_vc`` / ``slot_bw`` — per-slot capacity arrays mirroring the
  :class:`Link` attributes.

Freezing also partitions the elements into **element classes** by
``(kind, capacity)`` — all that static compatibility reads of an
element — from which :meth:`Platform.static_hosts` answers "which
elements can ever host this implementation", once per shape.

The element adjacency, its pairs, the name order and the classes are
all computed on node ids (a class hashes each distinct capacity object
once); ``element_neighbors`` and ``element_pairs`` are derived from the
id tables on each call, so freezing builds no set of elements.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from repro.arch.elements import Node, ProcessingElement, Router, is_element


class TopologyError(ValueError):
    """Raised for malformed platform construction."""


@dataclass(frozen=True)
class Link:
    """An undirected physical link between two platform nodes.

    ``virtual_channels`` is the number of time-shared logical channels
    the link supports per direction [11]; ``bandwidth`` is the
    capacity (abstract units/s) shared by the virtual channels of one
    direction.
    """

    a: Node
    b: Node
    virtual_channels: int = 4
    bandwidth: float = 100.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-link on {self.a}")
        if self.virtual_channels < 1:
            raise TopologyError("a link needs at least one virtual channel")
        if self.bandwidth <= 0:
            raise TopologyError("link bandwidth must be positive")

    def endpoints(self) -> tuple[Node, Node]:
        return (self.a, self.b)

    def other(self, node: Node) -> Node:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"{node} is not an endpoint of {self}")

    def key(self) -> frozenset[str]:
        return frozenset((self.a.name, self.b.name))


class StaticHosts(NamedTuple):
    """Where one implementation shape can statically run: three views
    of the same elements, each in platform scan order, plus the
    element classes they make up."""

    #: ``(position, element)``, position indexing ``platform.elements``
    pairs: tuple[tuple[int, ProcessingElement], ...]
    positions: frozenset[int]
    #: ``(node_id, element)``, for scans over the allocation ledgers
    nodes: tuple[tuple[int, ProcessingElement], ...]
    #: indices into ``element_classes`` whose union is exactly these
    #: elements, or None when they cover only part of a class (a pin)
    classes: tuple[int, ...] | None


class Platform:
    """An immutable-after-freeze heterogeneous MPSoC model.

    Build by adding nodes and links, then call :meth:`freeze` (the
    builders in :mod:`repro.arch.builders` do this for you).  After
    freezing, the derived adjacency and element-neighbour structures
    are computed once and shared by all allocation state objects.
    """

    def __init__(self, name: str = "platform"):
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._links: dict[frozenset[str], Link] = {}
        self._adjacency: dict[str, list[Node]] = {}
        self._frozen = False
        # id interning tables, populated by freeze() (see module docstring)
        self._node_ids: dict[str, int] = {}
        self._nodes_by_id: tuple[Node, ...] = ()
        #: per node id, its ``(neighbour id, directed slot)`` pairs
        self._neighbor_pairs: tuple[tuple[tuple[int, int], ...], ...] = ()
        #: per node id, True when it has exactly one link
        self._leaf_mask: tuple[bool, ...] = ()
        self._links_by_id: tuple[Link, ...] = ()
        self._slot_vc: tuple[int, ...] = ()
        self._slot_bw: tuple[float, ...] = ()
        self._is_element_mask: tuple[bool, ...] = ()
        self._element_ids: tuple[int, ...] = ()
        self._element_position: dict[int, int] = {}
        self._elements_tuple: tuple[ProcessingElement, ...] = ()
        self._routers_tuple: tuple[Router, ...] = ()
        self._element_neighbor_ids: dict[str, tuple[int, ...]] = {}
        self._element_neighbor_table: tuple[tuple[int, ...], ...] = ()
        self._element_pair_ids: tuple[tuple[int, int], ...] = ()
        #: element node ids in name order, and each id's place in it
        self._ids_by_name: tuple[int, ...] = ()
        self._name_rank: tuple[int, ...] = ()
        #: largest :meth:`element_connectivity` (the border-bonus base)
        self.max_connectivity = 0
        # static compatibility tables (see static_hosts)
        self._element_classes: tuple[tuple[int, ...], ...] = ()
        #: class index per node id (-1 for routers)
        self._class_of_id: tuple[int, ...] = ()
        self._hosts_by_positions: dict[tuple[int, ...], StaticHosts] = {}
        self._hosts_by_shape: dict[tuple, StaticHosts] = {}

    # -- construction -------------------------------------------------

    def add_node(self, node: Node) -> Node:
        self._require_mutable()
        if node.name in self._nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._adjacency[node.name] = []
        return node

    def add_element(self, element: ProcessingElement) -> ProcessingElement:
        if not isinstance(element, ProcessingElement):
            raise TopologyError(f"{element!r} is not a ProcessingElement")
        return self.add_node(element)

    def add_router(self, router: Router) -> Router:
        if not isinstance(router, Router):
            raise TopologyError(f"{router!r} is not a Router")
        return self.add_node(router)

    def add_link(
        self,
        a: Node | str,
        b: Node | str,
        virtual_channels: int = 4,
        bandwidth: float = 100.0,
    ) -> Link:
        self._require_mutable()
        node_a = self._resolve(a)
        node_b = self._resolve(b)
        link = Link(node_a, node_b, virtual_channels, bandwidth)
        key = frozenset((node_a.name, node_b.name))
        if key in self._links:
            raise TopologyError(f"duplicate link {node_a}—{node_b}")
        self._links[key] = link
        self._adjacency[node_a.name].append(node_b)
        self._adjacency[node_b.name].append(node_a)
        return link

    def freeze(self) -> "Platform":
        """Finalize the topology and precompute derived structures."""
        if self._frozen:
            return self
        self._frozen = True
        self._intern()
        self._compute_element_adjacency()
        return self

    def _intern(self) -> None:
        """Assign dense integer ids to nodes and links (see docstring)."""
        nodes = self._nodes_by_id = tuple(self._nodes.values())
        node_ids = self._node_ids = {
            node.name: index for index, node in enumerate(nodes)
        }
        mask = self._is_element_mask = tuple(map(is_element, nodes))
        self._element_ids = tuple(compress(range(len(nodes)), mask))
        self._elements_tuple = tuple(compress(nodes, mask))
        self._routers_tuple = tuple(
            node for node, flag in zip(nodes, mask) if not flag
        )
        # position of each element object in ``elements`` (identity-
        # keyed: the tuple holds the references, so ids stay valid) —
        # lets hot loops map an element back to its scan position
        # without hashing its name
        self._element_position = {
            id(element): position
            for position, element in enumerate(self._elements_tuple)
        }
        # classes by (kind, capacity); the memo on the capacity object
        # hashes each distinct vector once, not once per element
        classes: dict[tuple, list[int]] = {}
        memo: dict[tuple, list[int]] = {}
        for position, element in enumerate(self._elements_tuple):
            key = (element.kind, id(element.capacity))
            members = memo.get(key)
            if members is None:
                members = memo[key] = classes.setdefault(
                    (element.kind, element.capacity), []
                )
            members.append(position)
        self._element_classes = tuple(map(tuple, classes.values()))
        class_of = [-1] * len(nodes)
        for index, members in enumerate(self._element_classes):
            for position in members:
                class_of[self._element_ids[position]] = index
        self._class_of_id = tuple(class_of)
        self._links_by_id = tuple(self._links.values())
        slot_vc: list[int] = []
        slot_bw: list[float] = []
        # links in insertion order, so each node's pairs follow the
        # order of its name-based adjacency list
        pairs: list[list[tuple[int, int]]] = [[] for _ in nodes]
        for link_id, link in enumerate(self._links_by_id):
            id_a = node_ids[link.a.name]
            id_b = node_ids[link.b.name]
            pairs[id_a].append((id_b, 2 * link_id))
            pairs[id_b].append((id_a, 2 * link_id + 1))
            slot_vc += [link.virtual_channels, link.virtual_channels]
            slot_bw += [link.bandwidth, link.bandwidth]
        self._slot_vc = tuple(slot_vc)
        self._slot_bw = tuple(slot_bw)
        self._neighbor_pairs = tuple(map(tuple, pairs))
        self._leaf_mask = tuple(len(own) == 1 for own in pairs)

    def _require_mutable(self) -> None:
        if self._frozen:
            raise TopologyError("platform is frozen; cannot modify topology")

    def _resolve(self, node: Node | str) -> Node:
        if isinstance(node, str):
            try:
                return self._nodes[node]
            except KeyError:
                raise TopologyError(f"unknown node {node!r}") from None
        if self._nodes.get(node.name) is not node:
            raise TopologyError(f"node {node!r} does not belong to this platform")
        return node

    # -- basic queries -------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def __contains__(self, node: Node | str) -> bool:
        name = node if isinstance(node, str) else node.name
        return name in self._nodes

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def element(self, name: str) -> ProcessingElement:
        node = self.node(name)
        if not is_element(node):
            raise TopologyError(f"{name!r} is a router, not an element")
        return node

    @property
    def nodes(self) -> tuple[Node, ...]:
        if self._frozen:
            return self._nodes_by_id
        return tuple(self._nodes.values())

    @property
    def elements(self) -> tuple[ProcessingElement, ...]:
        if self._frozen:
            return self._elements_tuple
        return tuple(n for n in self._nodes.values() if is_element(n))

    @property
    def routers(self) -> tuple[Router, ...]:
        if self._frozen:
            return self._routers_tuple
        return tuple(n for n in self._nodes.values() if not is_element(n))

    @property
    def links(self) -> tuple[Link, ...]:
        if self._frozen:
            return self._links_by_id
        return tuple(self._links.values())

    def link_between(self, a: Node | str, b: Node | str) -> Link:
        name_a = a if isinstance(a, str) else a.name
        name_b = b if isinstance(b, str) else b.name
        try:
            return self._links[frozenset((name_a, name_b))]
        except KeyError:
            raise TopologyError(f"no link between {name_a} and {name_b}") from None

    def neighbors(self, node: Node | str) -> tuple[Node, ...]:
        name = node if isinstance(node, str) else node.name
        try:
            return tuple(self._adjacency[name])
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def degree(self, node: Node | str) -> int:
        return len(self.neighbors(node))

    # -- interned-id queries (frozen platforms only) ---------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def slot_count(self) -> int:
        """Number of directed link slots (two per undirected link)."""
        return 2 * len(self._links)

    def node_id(self, node: Node | str) -> int:
        """Dense integer id of a node (frozen platforms only)."""
        self._require_frozen()
        name = node if isinstance(node, str) else node.name
        try:
            return self._node_ids[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def node_by_id(self, node_id: int) -> Node:
        return self._nodes_by_id[node_id]

    def neighbor_pairs(self, node_id: int) -> tuple[tuple[int, int], ...]:
        """``(neighbour id, directed slot node -> neighbour)`` per link
        of ``node_id``, in link insertion order."""
        self._require_frozen()
        return self._neighbor_pairs[node_id]

    def is_leaf_id(self, node_id: int) -> bool:
        """True when ``node_id`` has exactly one link."""
        return self._leaf_mask[node_id]

    @property
    def element_ids(self) -> tuple[int, ...]:
        """Node ids of processing elements, in declaration order."""
        self._require_frozen()
        return self._element_ids

    def is_element_id(self, node_id: int) -> bool:
        return self._is_element_mask[node_id]

    def directed_slot(self, a_id: int, b_id: int) -> int:
        """The directed slot of link ``a -> b``; raises if not linked.

        The reverse direction is always ``slot ^ 1``, the undirected
        link id ``slot >> 1``.
        """
        for other, slot in self._neighbor_pairs[a_id]:
            if other == b_id:
                return slot
        name_a = self._nodes_by_id[a_id].name
        name_b = self._nodes_by_id[b_id].name
        raise TopologyError(f"no link between {name_a} and {name_b}")

    def link_by_id(self, link_id: int) -> Link:
        return self._links_by_id[link_id]

    @property
    def slot_vc(self) -> tuple[int, ...]:
        """Per-slot virtual-channel capacities."""
        return self._slot_vc

    @property
    def slot_bw(self) -> tuple[float, ...]:
        """Per-slot bandwidth capacities."""
        return self._slot_bw

    # -- static compatibility (frozen platforms only) ---------------------

    @property
    def element_classes(self) -> tuple[tuple[int, ...], ...]:
        """Positions in ``elements`` of each ``(kind, capacity)`` class."""
        self._require_frozen()
        return self._element_classes

    def static_hosts(self, impl) -> StaticHosts:
        """The elements whose kind (or name, for a pin) and total
        capacity admit ``impl``; occupancy is ignored.

        Answered once per implementation *shape*: equal shapes receive
        the same object, and shapes that fit the same elements share
        it too, so the per-shape table costs one pointer per entry.
        """
        hosts = self._hosts_by_shape.get(impl.shape)
        if hosts is None:
            self._require_frozen()
            hosts = self._hosts_by_shape[impl.shape] = self._derive_hosts(impl)
        return hosts

    def _derive_hosts(self, impl) -> StaticHosts:
        elements = self._elements_tuple
        classes = self._element_classes
        if impl.target_element is not None:
            # a pin names at most one element: a class of its own
            node = self._nodes.get(impl.target_element)
            pinned = self._element_position.get(id(node))
            classes = () if pinned is None else ((pinned,),)
        # one runs_on per class; classes interleave in ``elements``,
        # sorting merges them back into platform scan order
        positions = tuple(sorted(
            position
            for members in classes
            if impl.runs_on(elements[members[0]])
            for position in members
        ))
        hosts = self._hosts_by_positions.get(positions)
        if hosts is None:
            element_ids = self._element_ids
            class_of = self._class_of_id
            touched = sorted({class_of[element_ids[p]] for p in positions})
            whole = sum(
                len(self._element_classes[c]) for c in touched
            ) == len(positions)
            hosts = self._hosts_by_positions[positions] = StaticHosts(
                tuple((p, elements[p]) for p in positions),
                frozenset(positions),
                tuple((element_ids[p], elements[p]) for p in positions),
                tuple(touched) if whole else None,
            )
        return hosts

    # -- distances and neighbourhoods -----------------------------------

    def bfs_distances(
        self, origins: Iterable[Node], limit: int | None = None
    ) -> dict[Node, int]:
        """Hop distances from a set of origins over the full node graph.

        The mapping phase "keeps track of the distance between a newly
        discovered element and the origins of the BFS, to estimate the
        cost of the communication routes" (Section III-B); this is that
        primitive.  ``limit`` bounds the search radius.
        """
        distances: dict[Node, int] = {}
        queue: deque[Node] = deque()
        for origin in origins:
            node = self._resolve_frozen(origin)
            if node not in distances:
                distances[node] = 0
                queue.append(node)
        while queue:
            node = queue.popleft()
            depth = distances[node]
            if limit is not None and depth >= limit:
                continue
            for neighbor in self._adjacency[node.name]:
                if neighbor not in distances:
                    distances[neighbor] = depth + 1
                    queue.append(neighbor)
        return distances

    def hop_distance(self, a: Node | str, b: Node | str) -> int:
        """Shortest hop count between two nodes (``-1`` if disconnected)."""
        node_a = self._resolve_frozen(a)
        node_b = self._resolve_frozen(b)
        if node_a == node_b:
            return 0
        distances = self.bfs_distances([node_a])
        return distances.get(node_b, -1)

    def neighborhood(self, nodes: Iterable[Node], ring: int) -> set[Node]:
        """The set of nodes at hop distance exactly ``ring`` from ``nodes``."""
        if ring < 0:
            raise ValueError("ring must be non-negative")
        distances = self.bfs_distances(nodes, limit=ring)
        return {node for node, depth in distances.items() if depth == ring}

    def is_connected(self) -> bool:
        if not self._nodes:
            return True
        first = next(iter(self._nodes.values()))
        return len(self.bfs_distances([first])) == len(self._nodes)

    def _resolve_frozen(self, node: Node | str) -> Node:
        if isinstance(node, str):
            return self.node(node)
        if node.name not in self._nodes:
            raise TopologyError(f"node {node!r} does not belong to this platform")
        return node

    # -- element adjacency (fragmentation substrate) --------------------

    def _compute_element_adjacency(self) -> None:
        """Two elements are adjacent when they share a router, sit on
        directly-linked routers, or are directly linked to each other.

        This matches the intuitive "neighbouring tiles" notion of a
        NoC: in a mesh with one element per router, the elements of
        neighbouring routers are adjacent.  Computed on node ids:
        neighbours in name order, pairs by ``(min name, max name)``.
        """
        nodes, pairs = self._nodes_by_id, self._neighbor_pairs
        is_element_id = self._is_element_mask
        self._ids_by_name = tuple(
            sorted(self._element_ids, key=lambda i: nodes[i].name)
        )
        rank = [-1] * len(nodes)
        for position, node_id in enumerate(self._ids_by_name):
            rank[node_id] = position
        self._name_rank = tuple(rank)
        # the elements linked to each node (read for routers only)
        attached: list[list[int]] = [[] for _ in nodes]
        for element_id in self._element_ids:
            for other, _ in pairs[element_id]:
                attached[other].append(element_id)
        # per node id (routers: empty), also the capacity index's table
        table: list[tuple[int, ...]] = [()] * len(nodes)
        for element_id in self._element_ids:
            reachable: set[int] = set()
            for first, _ in pairs[element_id]:
                if is_element_id[first]:
                    reachable.add(first)
                    continue
                # first is a router: elements on it, and on adjacent routers
                reachable.update(attached[first])
                for second, _ in pairs[first]:
                    if not is_element_id[second]:
                        reachable.update(attached[second])
            reachable.discard(element_id)
            table[element_id] = tuple(sorted(reachable, key=rank.__getitem__))
        self._element_neighbor_table = tuple(table)
        self._element_neighbor_ids = {
            nodes[i].name: table[i] for i in self._element_ids
        }
        # adjacency is symmetric, so each pair is met once from its
        # lower-ranked end, in (rank a, rank b) order
        self._element_pair_ids = tuple(
            (a, b) for a in self._ids_by_name for b in table[a]
            if rank[b] > rank[a]
        )
        self.max_connectivity = max(
            map(len, self._element_neighbor_ids.values()), default=0
        )

    def element_neighbors(self, element: ProcessingElement | str) -> tuple[ProcessingElement, ...]:
        """Adjacent elements of ``element`` (see class docstring)."""
        nodes = self._nodes_by_id
        return tuple(nodes[i] for i in self.element_neighbor_ids(element))

    @property
    def element_pairs(self) -> tuple[tuple[ProcessingElement, ProcessingElement], ...]:
        """All unordered pairs of adjacent elements.

        The denominator of the paper's external resource fragmentation:
        "the percentage of pairs of adjacent elements of which only one
        element is used, over all pairs of adjacent elements".
        """
        nodes = self._nodes_by_id
        return tuple((nodes[a], nodes[b]) for a, b in self.element_pair_ids)

    def element_connectivity(self, element: ProcessingElement | str) -> int:
        """Number of adjacent elements — low values mean border tiles."""
        return len(self.element_neighbor_ids(element))

    def element_neighbor_ids(self, element: ProcessingElement | str) -> tuple[int, ...]:
        """Node ids of the adjacent elements of ``element``."""
        self._require_frozen()
        name = element if isinstance(element, str) else element.name
        try:
            return self._element_neighbor_ids[name]
        except KeyError:
            raise TopologyError(f"unknown element {name!r}") from None

    @property
    def element_pair_ids(self) -> tuple[tuple[int, int], ...]:
        """:attr:`element_pairs` as node-id pairs (fragmentation hot path)."""
        self._require_frozen()
        return self._element_pair_ids

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise TopologyError("platform must be frozen first (call freeze())")

    # -- misc ------------------------------------------------------------

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"<Platform {self.name!r}: {len(self.elements)} elements, "
            f"{len(self.routers)} routers, {len(self._links)} links>"
        )
