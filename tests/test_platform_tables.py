"""Platform tables equal a name-based reference.

``Platform.freeze()`` computes element adjacency, element classes and
the name order on node ids, and derives the name views from them.  The
reference below derives the same tables from names and element objects
alone, the way the paper states them: two elements are adjacent when
they are linked, share a router or sit on directly-linked routers
(Section III-A's "pairs of adjacent elements"), and elements fall into
classes by ``(kind, capacity)``.  Every table is compared with it on
every stock builder and on random irregular and hand-built platforms
(element-element links, elements on two routers, equal capacities in
distinct objects, one capacity object shared by two kinds).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    ElementType,
    Platform,
    ProcessingElement,
    ResourceVector,
    Router,
    crisp,
    default_capacity,
    fat_tree,
    heterogeneous_mesh,
    irregular,
    line,
    mesh,
    torus,
)
from repro.arch.elements import is_element


def reference_tables(platform: Platform) -> dict:
    """Every table ``freeze()`` publishes, derived from names."""
    neighbors: dict[str, list[str]] = {}
    for element in platform.elements:
        reachable: set[str] = set()
        for first in platform.neighbors(element):
            if is_element(first):
                reachable.add(first.name)
                continue
            for second in platform.neighbors(first):
                if is_element(second):
                    reachable.add(second.name)
                    continue
                for third in platform.neighbors(second):
                    if is_element(third):
                        reachable.add(third.name)
        reachable.discard(element.name)
        neighbors[element.name] = sorted(reachable)
    pairs = sorted({
        tuple(sorted((name, other)))
        for name, found in neighbors.items() for other in found
    })
    classes: dict[tuple, list[int]] = {}
    for position, element in enumerate(platform.elements):
        classes.setdefault((element.kind, element.capacity), []).append(position)
    names = sorted(neighbors)
    rank = {name: position for position, name in enumerate(names)}
    return {
        "neighbors": neighbors,
        "pairs": pairs,
        "classes": tuple(map(tuple, classes.values())),
        "ids_by_name": tuple(platform.node_id(name) for name in names),
        "name_rank": tuple(rank.get(node.name, -1) for node in platform.nodes),
        "max_connectivity": max(map(len, neighbors.values()), default=0),
    }


def assert_tables_match(platform: Platform) -> None:
    expected = reference_tables(platform)
    name_of = [node.name for node in platform.nodes]
    for node_id, node in enumerate(platform.nodes):
        if not is_element(node):
            assert platform._element_neighbor_table[node_id] == ()
            assert platform._class_of_id[node_id] == -1
            continue
        names = expected["neighbors"][node.name]
        for key in (node, node.name):
            found = platform.element_neighbors(key)
            assert [e.name for e in found] == names, node.name
            assert all(e is platform.node(e.name) for e in found)
            ids = platform.element_neighbor_ids(key)
            assert [name_of[i] for i in ids] == names, node.name
        assert platform._element_neighbor_table[node_id] == ids
        assert platform.element_connectivity(node) == len(names)
    assert [
        (a.name, b.name) for a, b in platform.element_pairs
    ] == expected["pairs"]
    assert all(
        a is platform.node(a.name) and b is platform.node(b.name)
        for a, b in platform.element_pairs
    )
    assert [
        (name_of[a], name_of[b]) for a, b in platform.element_pair_ids
    ] == expected["pairs"]
    assert platform.element_classes == expected["classes"]
    for index, members in enumerate(expected["classes"]):
        for position in members:
            node_id = platform.element_ids[position]
            assert platform._class_of_id[node_id] == index
    assert platform._ids_by_name == expected["ids_by_name"]
    assert platform._name_rank == expected["name_rank"]
    assert platform.max_connectivity == expected["max_connectivity"]


STOCK = {
    "mesh5x7": lambda: mesh(5, 7),
    "mesh1x1": lambda: mesh(1, 1),
    "torus4x5": lambda: torus(4, 5),
    "line6": lambda: line(6),
    "irregular6x6": lambda: irregular(6, 6, drop_fraction=0.3, seed=3),
    "fat_tree20a3": lambda: fat_tree(20, arity=3),
    "crisp": crisp,
    "crisp2pkg": lambda: crisp(packages=2),
    "hetmesh5x5": lambda: heterogeneous_mesh(5, 5),
}


@pytest.mark.parametrize("name", sorted(STOCK))
def test_stock_builder_tables_equal_the_reference(name):
    assert_tables_match(STOCK[name]())


#: capacities a hand-built element may carry: the shared DSP constant,
#: an equal vector in its own object, a smaller DSP and the shared
#: memory constant (which a DSP may carry too)
CAPACITIES = (
    lambda: default_capacity(ElementType.DSP),
    lambda: ResourceVector(cycles=100, memory=32),
    lambda: ResourceVector(cycles=40, memory=12),
    lambda: default_capacity(ElementType.MEMORY),
)


@st.composite
def hand_built(draw) -> Platform:
    """Random graphs of routers and elements: any node may link to any
    other, and names are not in declaration order."""
    count = draw(st.integers(1, 10))
    is_router = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    names = draw(st.permutations([f"n{index:02d}" for index in range(count)]))
    platform = Platform("hand_built")
    nodes = []
    for name, router in zip(names, is_router):
        if router:
            nodes.append(platform.add_router(Router(name)))
            continue
        kind = draw(st.sampled_from((ElementType.DSP, ElementType.MEMORY)))
        capacity = draw(st.sampled_from(CAPACITIES))()
        nodes.append(
            platform.add_element(ProcessingElement(name, kind, capacity))
        )
    links = draw(st.sets(st.tuples(
        st.integers(0, count - 1), st.integers(0, count - 1)
    ).filter(lambda pair: pair[0] < pair[1]), max_size=3 * count))
    for a, b in draw(st.permutations(sorted(links))):
        platform.add_link(nodes[a], nodes[b])
    return platform.freeze()


@settings(deadline=None)
@given(platform=hand_built())
def test_hand_built_tables_equal_the_reference(platform):
    assert_tables_match(platform)


def _mixed_capacities(row: int, col: int) -> ProcessingElement:
    capacity = CAPACITIES[(row * 7 + col * 3) % len(CAPACITIES)]()
    return ProcessingElement(f"pe_{col}_{row}", ElementType.DSP, capacity)


@settings(deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    drop_fraction=st.sampled_from((0.0, 0.25, 0.6, 0.9)),
    seed=st.integers(0, 1_000),
    mixed=st.booleans(),
)
def test_irregular_tables_equal_the_reference(
    rows, cols, drop_fraction, seed, mixed
):
    factory = {"element_factory": _mixed_capacities} if mixed else {}
    assert_tables_match(
        irregular(rows, cols, drop_fraction=drop_fraction, seed=seed, **factory)
    )


def test_the_hand_built_shapes_occur():
    """The shapes the strategy is there for: an element linked to an
    element, an element on two routers, and a router between them."""
    platform = Platform("shapes")
    for name in ("r0", "r1", "r2"):
        platform.add_router(Router(name))
    for name in ("e_bridge", "d_tail", "c_solo", "b_far", "a_near"):
        platform.add_element(ProcessingElement(
            name, ElementType.DSP, default_capacity(ElementType.DSP)
        ))
    for a, b in (
        ("e_bridge", "r0"), ("e_bridge", "r1"), ("r1", "r2"),
        ("b_far", "r2"), ("a_near", "r0"), ("d_tail", "a_near"),
        ("c_solo", "d_tail"),
    ):
        platform.add_link(a, b)
    platform.freeze()
    assert_tables_match(platform)
    assert [e.name for e in platform.element_neighbors("e_bridge")] == [
        "a_near", "b_far",
    ]
    assert [e.name for e in platform.element_neighbors("d_tail")] == [
        "a_near", "c_solo",
    ]
