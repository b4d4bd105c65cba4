"""Id-interning tests: the integer tables agree name-for-name with the
name-based views (and with the frozen seed implementation) on every
builder topology, including after fault injection and under random
link loads."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.apps.generator import GeneratorConfig, generate
from repro.apps.implementations import Implementation, pinned_implementation
from repro.arch import (
    AllocationState,
    ElementType,
    Platform,
    ProcessingElement,
    ResourceVector,
    Router,
    TopologyError,
    crisp,
    fat_tree,
    heterogeneous_mesh,
    irregular,
    mesh,
    torus,
)
from repro.core.search import RingSearch
from repro.routing import BfsRouter, DijkstraRouter

from benchmarks.seed_reference.router import BfsRouter as SeedBfsRouter
from benchmarks.seed_reference.router import DijkstraRouter as SeedDijkstraRouter
from benchmarks.seed_reference.search import RingSearch as SeedRingSearch
from benchmarks.seed_reference.state import AllocationState as SeedState


def _two_dsp_capacities(row: int, col: int) -> ProcessingElement:
    """Alternating full and reduced DSP tiles: two element classes of
    one kind, which no stock builder yields."""
    capacity = (
        ResourceVector(cycles=100, memory=32) if (row + col) % 2 == 0
        else ResourceVector(cycles=40, memory=12)
    )
    return ProcessingElement(f"dsp_{row}_{col}", ElementType.DSP, capacity)


def platforms():
    return [
        mesh(3, 3),
        mesh(4, 6),
        torus(3, 4),
        irregular(4, 4, drop_fraction=0.3, seed=2),
        crisp(packages=2),
        fat_tree(16),
        heterogeneous_mesh(4, 4),
        mesh(4, 4, _two_dsp_capacities),
    ]


PLATFORM_IDS = ["mesh3x3", "mesh4x6", "torus3x4", "irregular4x4",
                "crisp2pkg", "fattree16", "hetmesh4x4", "twodsp4x4"]


@pytest.fixture(params=range(len(PLATFORM_IDS)), ids=PLATFORM_IDS)
def platform(request):
    return platforms()[request.param]


class TestIdTables:
    def test_node_id_roundtrip(self, platform):
        for node in platform.nodes:
            node_id = platform.node_id(node.name)
            assert platform.node_by_id(node_id) is node
        assert platform.node_count == len(platform.nodes)

    def test_unknown_node_id_rejected(self, platform):
        with pytest.raises(TopologyError):
            platform.node_id("ghost")

    def test_neighbor_ids_agree_with_neighbors(self, platform):
        for node in platform.nodes:
            node_id = platform.node_id(node.name)
            by_id = [
                platform.node_by_id(n).name
                for n, _slot in platform.neighbor_pairs(node_id)
            ]
            by_name = [n.name for n in platform.neighbors(node.name)]
            assert by_id == by_name

    def test_directed_slots_pair_and_match_links(self, platform):
        for link in platform.links:
            id_a = platform.node_id(link.a.name)
            id_b = platform.node_id(link.b.name)
            forward = platform.directed_slot(id_a, id_b)
            backward = platform.directed_slot(id_b, id_a)
            assert forward ^ 1 == backward
            assert forward >> 1 == backward >> 1
            assert platform.link_by_id(forward >> 1) is link
            assert platform.slot_vc[forward] == link.virtual_channels
            assert platform.slot_bw[backward] == link.bandwidth

    def test_leaf_mask_is_exactly_one_neighbor(self, platform):
        for node in platform.nodes:
            node_id = platform.node_id(node.name)
            assert platform.is_leaf_id(node_id) == (platform.degree(node) == 1)

    def test_neighbor_slots_are_consistent(self, platform):
        for node in platform.nodes:
            node_id = platform.node_id(node.name)
            for neighbor_id, slot in platform.neighbor_pairs(node_id):
                assert platform.directed_slot(node_id, neighbor_id) == slot

    def test_element_ids_agree_with_elements(self, platform):
        names_by_id = [
            platform.node_by_id(i).name for i in platform.element_ids
        ]
        assert names_by_id == [e.name for e in platform.elements]
        for node in platform.nodes:
            node_id = platform.node_id(node.name)
            from repro.arch.elements import is_element
            assert platform.is_element_id(node_id) == is_element(node)

    def test_element_pair_ids_agree_with_element_pairs(self, platform):
        by_id = [
            (platform.node_by_id(a).name, platform.node_by_id(b).name)
            for a, b in platform.element_pair_ids
        ]
        by_name = [(a.name, b.name) for a, b in platform.element_pairs]
        assert by_id == by_name

    def test_element_neighbor_ids_agree(self, platform):
        for element in platform.elements:
            by_id = [
                platform.node_by_id(i).name
                for i in platform.element_neighbor_ids(element.name)
            ]
            by_name = [e.name for e in platform.element_neighbors(element)]
            assert by_id == by_name


    def test_max_connectivity_is_the_largest_element_connectivity(
        self, platform
    ):
        assert platform.max_connectivity == max(
            platform.element_connectivity(e) for e in platform.elements
        )


def _implementation_pool(platform) -> list[Implementation]:
    """Generated implementations of every default target kind, plus
    the shapes the generator never draws and the pinned corner cases."""
    pool = [
        implementation
        for seed in range(12)
        for task in generate(GeneratorConfig(), seed).tasks.values()
        for implementation in task.implementations
    ]
    pinned_to = platform.elements[len(platform.elements) // 2]
    pool += [
        Implementation("mem", ResourceVector(memory=64),
                       target_kind=ElementType.MEMORY),
        Implementation("huge", ResourceVector(cycles=10_000),
                       target_kind=ElementType.DSP),
        Implementation("free", ResourceVector(),
                       target_kind=ElementType.DSP),
        pinned_implementation("pin", pinned_to.name, ResourceVector()),
        pinned_implementation(
            "pin_too_big", pinned_to.name, pinned_to.capacity * 2
        ),
        pinned_implementation(
            "pin_router", platform.routers[0].name, ResourceVector()
        ),
        pinned_implementation("pin_ghost", "ghost", ResourceVector()),
    ]
    return pool


class TestStaticHosts:
    CLASS_COUNTS = dict(zip(PLATFORM_IDS, [1, 1, 1, 1, 5, 1, 2, 2]))

    def test_classes_partition_the_elements(self, platform, request):
        classes = platform.element_classes
        expected = self.CLASS_COUNTS[request.node.callspec.id]
        assert len(classes) == expected
        assert sorted(p for cls in classes for p in cls) == list(
            range(len(platform.elements))
        )
        for cls in classes:
            assert list(cls) == sorted(cls)
            assert len({
                (platform.elements[p].kind, platform.elements[p].capacity)
                for p in cls
            }) == 1

    def test_views_equal_brute_force_runs_on_in_scan_order(self, platform):
        for implementation in _implementation_pool(platform):
            brute = tuple(
                (i, e) for i, e in enumerate(platform.elements)
                if implementation.runs_on(e)
            )
            hosts = platform.static_hosts(implementation)
            assert hosts.pairs == brute, implementation
            assert hosts.positions == frozenset(i for i, _e in brute)
            assert hosts.nodes == tuple(
                (platform.element_ids[i], e) for i, e in brute
            )

    def test_pinned_cases_resolve_to_one_element_or_none(self, platform):
        sizes = {
            implementation.name: len(platform.static_hosts(implementation).pairs)
            for implementation in _implementation_pool(platform)
            if implementation.pinned
        }
        assert sizes == {
            "pin": 1, "pin_too_big": 0, "pin_router": 0, "pin_ghost": 0,
        }

    def test_two_classes_of_one_kind_merge_into_scan_order(self):
        platform = platforms()[PLATFORM_IDS.index("twodsp4x4")]
        matched = {
            len(platform.static_hosts(implementation).pairs)
            for implementation in _implementation_pool(platform)
            if implementation.target_kind is ElementType.DSP
        }
        # nothing, the full-size class alone, both classes interleaved
        assert matched == {0, 8, 16}
        both = platform.static_hosts(
            Implementation("free", ResourceVector(),
                           target_kind=ElementType.DSP)
        )
        assert [i for i, _e in both.pairs] == list(range(16))

    def test_equal_shapes_share_one_answer(self, platform):
        first, second = (
            Implementation(name, ResourceVector(cycles=20, memory=4),
                           cost=cost, target_kind=ElementType.DSP)
            for name, cost in (("a", 1.0), ("b", 2.0))
        )
        assert platform.static_hosts(first) is platform.static_hosts(second)
        # a different shape that fits the same classes shares the tuples
        third = Implementation("c", ResourceVector(cycles=21, memory=4),
                               target_kind=ElementType.DSP)
        assert platform.static_hosts(third) is platform.static_hosts(first)

    def test_unfrozen_platform_rejected(self):
        from repro.arch import Platform

        with pytest.raises(TopologyError):
            Platform().static_hosts(
                pinned_implementation("pin", "ghost", ResourceVector())
            )


def _twin_states(platform_factory):
    """A live state and a seed-reference state over identical platforms."""
    return (
        AllocationState(platform_factory()),
        SeedState(platform_factory()),
    )


def _inject_faults(state) -> None:
    elements = state.platform.elements
    state.fail_element(elements[len(elements) // 2].name)
    router_links = [
        link for link in state.platform.links
        if link.a.name.startswith("r") and link.b.name.startswith("r")
    ]
    if router_links:
        link = router_links[len(router_links) // 3]
        state.fail_link(link.a.name, link.b.name)


def _occupy_some(state) -> None:
    requirement = ResourceVector(cycles=30, memory=4)
    for index, element in enumerate(state.platform.elements):
        if index % 3 == 0:
            try:
                state.occupy(element.name, "load", f"t{index}", requirement)
            except Exception:
                pass
    reservable = [
        link for link in state.platform.links
        if not link.a.name.startswith("r") or not link.b.name.startswith("r")
    ]
    for index, link in enumerate(reservable[:5]):
        state.reserve_route(
            "load", f"c{index}", [link.a.name, link.b.name], 10.0
        )


@pytest.mark.parametrize(
    "factory", [lambda: mesh(4, 4), lambda: torus(3, 3), lambda: crisp(packages=2)],
    ids=["mesh", "torus", "crisp"],
)
class TestSeedAgreement:
    def test_router_paths_match_seed(self, factory):
        live, seed = _twin_states(factory)
        for state in (live, seed):
            _occupy_some(state)
            _inject_faults(state)
        elements = [e.name for e in live.platform.elements]
        probes = [
            (elements[i], elements[-1 - i])
            for i in range(0, len(elements) // 2, 3)
        ]
        live_router, seed_router = BfsRouter(), SeedBfsRouter()
        for source, target in probes:
            if source == target:
                continue
            live_path = live_router.find_path(live, source, target, 5.0)
            seed_path = seed_router.find_path(seed, source, target, 5.0)
            assert live_path == seed_path, (source, target)

    def test_ring_search_matches_seed(self, factory):
        live, seed = _twin_states(factory)
        for state in (live, seed):
            _occupy_some(state)
            _inject_faults(state)
        elements = [e.name for e in live.platform.elements]
        origins = [elements[0], elements[len(elements) // 2]]
        live_search = RingSearch(live, origins)
        seed_search = SeedRingSearch(seed, origins)
        while not (live_search.exhausted and seed_search.exhausted):
            live_ring = [e.name for e in live_search.advance()]
            seed_ring = [e.name for e in seed_search.advance()]
            assert live_ring == seed_ring
        for origin in origins:
            for node in live.platform.nodes:
                assert live_search.distances.get(origin, node.name) == \
                    seed_search.distances.get(origin, node.name)

    def test_dijkstra_lengths_match_seed_bfs(self, factory):
        """Dijkstra with zero congestion weight stays hop-minimal."""
        live, _seed = _twin_states(factory)
        elements = [e.name for e in live.platform.elements]
        router = DijkstraRouter(congestion_weight=0.0)
        bfs = BfsRouter()
        for source, target in zip(elements[:6], reversed(elements[:6])):
            if source == target:
                continue
            a = router.find_path(live, source, target, 1.0)
            b = bfs.find_path(live, source, target, 1.0)
            assert a is not None and b is not None
            assert len(a) == len(b)

    def test_dijkstra_paths_match_seed(self, factory):
        """Congestion-weighted Dijkstra returns the seed's exact path."""
        live, seed = _twin_states(factory)
        for state in (live, seed):
            _occupy_some(state)
            _inject_faults(state)
            # uneven link load, so the congestion weight steers paths
            for index, link in enumerate(state.platform.links[::3]):
                a, b = link.a.name, link.b.name
                bandwidth = 5.0 * (1 + index % 4)
                if state.can_traverse(a, b, bandwidth):
                    state.reserve_route("skew", f"s{index}", [a, b], bandwidth)
        elements = [e.name for e in live.platform.elements]
        probes = [
            (source, target)
            for source in elements[::2] for target in elements[1::3]
            if source != target
        ]
        seed_router = SeedDijkstraRouter()
        expected = {
            probe: seed_router.find_path(seed, *probe, 5.0) for probe in probes
        }
        live_router = DijkstraRouter()
        # forward, then backward on the same state: no search may leak
        # working memory into the next
        for probe in probes + probes[::-1]:
            assert live_router.find_path(live, *probe, 5.0) == \
                expected[probe], probe


def _hand_built() -> Platform:
    """Shapes no builder yields: an element on two routers (a non-leaf
    element that carries transit), an element linked only to another
    element, a degree-1 router, a component of two leaves and an
    element with no link at all."""
    platform = Platform("hand_built")
    capacity = ResourceVector(cycles=100, memory=32)
    for name in ("r0", "r1", "r2", "r3", "stub"):
        platform.add_router(Router(name))
    for name in ("bridge", "e0", "e1", "e2", "tail",
                 "island_a", "island_b", "lone"):
        platform.add_element(ProcessingElement(name, ElementType.DSP, capacity))
    for a, b in (
        ("e0", "r0"), ("e1", "r1"), ("bridge", "r0"), ("bridge", "r1"),
        ("r0", "r2"), ("r2", "r3"), ("r3", "r1"), ("e2", "r2"),
        ("tail", "e2"), ("stub", "r3"), ("island_a", "island_b"),
    ):
        platform.add_link(a, b)
    return platform.freeze()


KERNEL_PLATFORMS = {
    "mesh3x3": lambda: mesh(3, 3),
    "torus3x3": lambda: torus(3, 3),
    "crisp1pkg": lambda: crisp(packages=1),
    "fattree8": lambda: fat_tree(8),
    "handbuilt": _hand_built,
}

#: (link index, forward?, load) — the index wraps around the link count
LINK_LOADS = st.lists(
    st.tuples(
        st.integers(0, 10_000), st.booleans(),
        st.sampled_from(("saturate", "short", "light", "fail")),
    ),
    max_size=16,
)


def _loaded_twins(name, loads):
    """A live and a seed-reference state with the same directed link
    loads: all virtual channels taken, 20 bandwidth units left (enough
    for a 5-unit channel, too little for a 40-unit one), one light
    channel, or the link failed."""
    live, seed = _twin_states(KERNEL_PLATFORMS[name])
    links = live.platform.links
    for index, (link_index, forward, load) in enumerate(loads):
        link = links[link_index % len(links)]
        a, b = link.a.name, link.b.name
        if not forward:
            a, b = b, a
        for state in (live, seed):
            if load == "fail":
                state.fail_link(a, b)
                continue
            channels, bandwidth = {
                "saturate": (link.virtual_channels, 0.5),
                "short": (1, link.bandwidth - 20.0),
                "light": (1, 1.0),
            }[load]
            for channel in range(channels):
                if state.can_traverse(a, b, bandwidth):
                    state.reserve_route(
                        "load", f"l{index}_{channel}", [a, b], bandwidth
                    )
    return live, seed


class TestLoadedSeedAgreement:
    """Both BFS kernels equal the seed reference under random link
    loads and failures: leaf targets behind walled access links (in
    either direction), unreachable targets, and a hand-built platform
    whose elements are not all leaves."""

    @settings(deadline=None)
    @given(name=st.sampled_from(sorted(KERNEL_PLATFORMS)), loads=LINK_LOADS)
    def test_bfs_router_matches_seed_on_every_pair(self, name, loads):
        live, seed = _loaded_twins(name, loads)
        nodes = [node.name for node in live.platform.nodes]
        live_router, seed_router = BfsRouter(), SeedBfsRouter()
        for bandwidth in (5.0, 40.0):
            for source in nodes:
                for target in nodes:
                    assert live_router.find_path(
                        live, source, target, bandwidth
                    ) == seed_router.find_path(
                        seed, source, target, bandwidth
                    ), (source, target, bandwidth)

    @settings(deadline=None)
    @given(
        name=st.sampled_from(sorted(KERNEL_PLATFORMS)),
        loads=LINK_LOADS,
        picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
        respect_congestion=st.booleans(),
    )
    def test_ring_search_matches_seed_ring_by_ring(
        self, name, loads, picks, respect_congestion
    ):
        live, seed = _loaded_twins(name, loads)
        elements = [e.name for e in live.platform.elements]
        origins = [elements[pick % len(elements)] for pick in picks]
        live_search = RingSearch(live, origins, respect_congestion)
        seed_search = SeedRingSearch(seed, origins, respect_congestion)
        # one advance past exhaustion too: it must change nothing
        for _ in range(live.platform.node_count + 2):
            live_ring = [e.name for e in live_search.advance()]
            seed_ring = [e.name for e in seed_search.advance()]
            assert live_ring == seed_ring
            assert live_search.ring == seed_search.ring
            assert live_search.exhausted == seed_search.exhausted
        assert live_search.exhausted
        for origin in origins:
            for node in live.platform.nodes:
                assert live_search.distances.get(origin, node.name) == \
                    seed_search.distances.get(origin, node.name)
