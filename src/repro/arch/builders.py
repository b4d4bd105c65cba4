"""Platform builders: meshes, lines, irregular fabrics, and CRISP.

The paper stresses that the mapping algorithm "works on a variety of
platforms" — unlike region-based approaches it does not assume a
homogeneous mesh (Section II).  These builders provide the platform
zoo used by the tests and experiments:

* :func:`mesh` / :func:`torus` — classic NoC grids (one element per
  router) with a configurable element-type pattern,
* :func:`line` — a degenerate pipeline topology,
* :func:`irregular` — a seeded random partial mesh, exercising the
  "heterogeneous or irregular architectures" claim,
* :func:`fat_tree` — an indirect tree fabric whose links widen toward
  the root (the classic datacenter/NoC hierarchy: elements at the
  leaves, routers in a balanced arity-ary tree),
* :func:`crisp` — a reconstruction of the CRISP platform of Fig. 6:
  one ARM, one FPGA, and five packages of 9 DSPs + 2 memories + 1
  hardware test unit, chained by a NoC that is deliberately less
  connected than a full mesh.

Two virtual-channel budgets apply everywhere: ``virtual_channels`` for
router—router links (the scarce NoC resource) and
``endpoint_virtual_channels`` for element—router links (a network
interface multiplexes many logical ports, so the first hop is rarely
the bottleneck).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

from repro.arch.elements import (
    ElementType,
    ProcessingElement,
    Router,
    default_capacity,
)
from repro.arch.topology import Platform

#: Signature of the per-tile element factory used by the grid builders.
ElementFactory = Callable[[int, int], ProcessingElement]

#: default virtual channels on element—router links
ENDPOINT_VCS = 16
#: default bandwidth multiplier for element—router links (a network
#: interface is provisioned wider than one NoC link)
ENDPOINT_BANDWIDTH_FACTOR = 4.0


def _dsp_factory(row: int, col: int) -> ProcessingElement:
    return ProcessingElement(
        name=f"dsp_{row}_{col}",
        kind=ElementType.DSP,
        capacity=default_capacity(ElementType.DSP),
        position=(float(col), float(row)),
    )


def _grid_tiles(
    platform: Platform,
    rows: int,
    cols: int,
    element_factory: ElementFactory,
    endpoint_virtual_channels: int,
    endpoint_bandwidth: float,
) -> dict[tuple[int, int], Router]:
    """One router per grid cell, each with its element linked to it."""
    routers = {}
    for row in range(rows):
        for col in range(cols):
            router = routers[(row, col)] = platform.add_router(
                Router(f"r_{row}_{col}", position=(float(col), float(row)))
            )
            element = platform.add_element(element_factory(row, col))
            platform.add_link(
                element, router, endpoint_virtual_channels, endpoint_bandwidth
            )
    return routers


def mesh(
    rows: int,
    cols: int,
    element_factory: ElementFactory = _dsp_factory,
    virtual_channels: int = 4,
    bandwidth: float = 100.0,
    name: str | None = None,
    endpoint_virtual_channels: int = ENDPOINT_VCS,
    endpoint_bandwidth: float | None = None,
) -> Platform:
    """A ``rows`` x ``cols`` NoC mesh with one element per router."""
    if rows < 1 or cols < 1:
        raise ValueError("mesh dimensions must be positive")
    platform = Platform(name or f"mesh_{rows}x{cols}")
    routers = _grid_tiles(
        platform, rows, cols, element_factory, endpoint_virtual_channels,
        endpoint_bandwidth if endpoint_bandwidth is not None else bandwidth,
    )
    for row in range(rows):
        for col in range(cols):
            if col + 1 < cols:
                platform.add_link(
                    routers[(row, col)], routers[(row, col + 1)],
                    virtual_channels, bandwidth,
                )
            if row + 1 < rows:
                platform.add_link(
                    routers[(row, col)], routers[(row + 1, col)],
                    virtual_channels, bandwidth,
                )
    return platform.freeze()


def torus(
    rows: int,
    cols: int,
    element_factory: ElementFactory = _dsp_factory,
    virtual_channels: int = 4,
    bandwidth: float = 100.0,
    endpoint_virtual_channels: int = ENDPOINT_VCS,
    endpoint_bandwidth: float | None = None,
) -> Platform:
    """A mesh with wrap-around links in both dimensions."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs at least 3x3 to avoid duplicate links")
    platform = Platform(f"torus_{rows}x{cols}")
    routers = _grid_tiles(
        platform, rows, cols, element_factory, endpoint_virtual_channels,
        endpoint_bandwidth if endpoint_bandwidth is not None else bandwidth,
    )
    for row in range(rows):
        for col in range(cols):
            platform.add_link(
                routers[(row, col)], routers[(row, (col + 1) % cols)],
                virtual_channels, bandwidth,
            )
            platform.add_link(
                routers[(row, col)], routers[((row + 1) % rows, col)],
                virtual_channels, bandwidth,
            )
    return platform.freeze()


def line(
    length: int,
    element_factory: ElementFactory = _dsp_factory,
    virtual_channels: int = 4,
    bandwidth: float = 100.0,
    endpoint_virtual_channels: int = ENDPOINT_VCS,
    endpoint_bandwidth: float | None = None,
) -> Platform:
    """A 1 x ``length`` pipeline of router+element tiles."""
    return mesh(
        1, length, element_factory, virtual_channels, bandwidth,
        name=f"line_{length}",
        endpoint_virtual_channels=endpoint_virtual_channels,
        endpoint_bandwidth=endpoint_bandwidth,
    )


def irregular(
    rows: int,
    cols: int,
    drop_fraction: float = 0.25,
    seed: int = 0,
    element_factory: ElementFactory = _dsp_factory,
    virtual_channels: int = 4,
    bandwidth: float = 100.0,
    endpoint_virtual_channels: int = ENDPOINT_VCS,
    endpoint_bandwidth: float | None = None,
) -> Platform:
    """A mesh with a random fraction of router—router links removed.

    Links are only removed when the platform stays connected, so the
    result is always a usable (if lopsided) fabric.  Deterministic for
    a given ``seed``.
    """
    if not 0 <= drop_fraction < 1:
        raise ValueError("drop_fraction must be in [0, 1)")
    rng = random.Random(seed)
    platform = Platform(f"irregular_{rows}x{cols}_s{seed}")
    routers = _grid_tiles(
        platform, rows, cols, element_factory, endpoint_virtual_channels,
        endpoint_bandwidth if endpoint_bandwidth is not None else bandwidth,
    )
    mesh_links = []
    for row in range(rows):
        for col in range(cols):
            if col + 1 < cols:
                mesh_links.append(((row, col), (row, col + 1)))
            if row + 1 < rows:
                mesh_links.append(((row, col), (row + 1, col)))
    rng.shuffle(mesh_links)
    to_drop = int(len(mesh_links) * drop_fraction)
    kept = set(map(tuple, mesh_links))
    # Tentatively drop links, keeping the router graph connected.
    for candidate in mesh_links:
        if to_drop == 0:
            break
        trial = kept - {candidate}
        if _routers_connected(routers, trial):
            kept = trial
            to_drop -= 1
    for a, b in sorted(kept):
        platform.add_link(routers[a], routers[b], virtual_channels, bandwidth)
    return platform.freeze()


def _routers_connected(routers: dict, links: set) -> bool:
    if not routers:
        return True
    adjacency: dict = {key: [] for key in routers}
    for a, b in links:
        adjacency[a].append(b)
        adjacency[b].append(a)
    start = next(iter(routers))
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return len(seen) == len(routers)


# ---------------------------------------------------------------------------
# The CRISP platform (paper Fig. 6)
# ---------------------------------------------------------------------------

#: Tile pattern of one CRISP package: a 3x4 grid of 9 DSPs, 2 memory
#: tiles and 1 hardware test unit.  Memories sit mid-package and the
#: test unit in a corner, loosely following the die photo of Fig. 6.
_PACKAGE_PATTERN: Sequence[Sequence[ElementType]] = (
    (ElementType.DSP, ElementType.DSP, ElementType.DSP, ElementType.TEST),
    (ElementType.DSP, ElementType.MEMORY, ElementType.MEMORY, ElementType.DSP),
    (ElementType.DSP, ElementType.DSP, ElementType.DSP, ElementType.DSP),
)

_PACKAGE_LABELS = {
    ElementType.DSP: "dsp", ElementType.MEMORY: "mem", ElementType.TEST: "test",
}

PACKAGE_ROWS = len(_PACKAGE_PATTERN)
PACKAGE_COLS = len(_PACKAGE_PATTERN[0])
CRISP_PACKAGES = 5
CRISP_DSP_COUNT = 45


def crisp(
    virtual_channels: int = 4,
    bandwidth: float = 100.0,
    packages: int = CRISP_PACKAGES,
    endpoint_virtual_channels: int = ENDPOINT_VCS,
    endpoint_bandwidth: float | None = None,
) -> Platform:
    """Reconstruct the CRISP MPSoC of paper Fig. 6.

    One ARM926 general-purpose processor (right), one FPGA (left) and
    ``packages`` packages, each a 3x4 tile grid of 9 DSPs, 2 memories
    and 1 hardware test unit on a router mesh.  Consecutive packages
    are bridged by only two inter-package links (rows 0 and 2), which
    makes the fabric "less connected [than] a fully meshed platform"
    (Section IV), exactly the property the fragmentation experiments
    exploit.
    """
    if packages < 1:
        raise ValueError("need at least one package")
    platform = Platform(f"crisp_{packages}pkg")
    routers: dict[tuple[int, int, int], Router] = {}

    for pkg in range(packages):
        x_offset = 1 + pkg * (PACKAGE_COLS + 1)
        for row in range(PACKAGE_ROWS):
            for col in range(PACKAGE_COLS):
                router = platform.add_router(
                    Router(
                        f"p{pkg}_r_{row}_{col}",
                        position=(float(x_offset + col), float(row)),
                    )
                )
                routers[(pkg, row, col)] = router
                kind = _PACKAGE_PATTERN[row][col]
                element = ProcessingElement(
                    name=f"p{pkg}_{_PACKAGE_LABELS[kind]}_{row}_{col}",
                    kind=kind,
                    capacity=default_capacity(kind),
                    position=(float(x_offset + col), float(row)),
                )
                platform.add_element(element)
                platform.add_link(
                    element, router, endpoint_virtual_channels,
                    endpoint_bandwidth if endpoint_bandwidth is not None else bandwidth,
                )
        # intra-package mesh links
        for row in range(PACKAGE_ROWS):
            for col in range(PACKAGE_COLS):
                if col + 1 < PACKAGE_COLS:
                    platform.add_link(
                        routers[(pkg, row, col)], routers[(pkg, row, col + 1)],
                        virtual_channels, bandwidth,
                    )
                if row + 1 < PACKAGE_ROWS:
                    platform.add_link(
                        routers[(pkg, row, col)], routers[(pkg, row + 1, col)],
                        virtual_channels, bandwidth,
                    )

    # inter-package bridges: two links per package boundary (rows 0, 2)
    for pkg in range(packages - 1):
        for row in (0, PACKAGE_ROWS - 1):
            platform.add_link(
                routers[(pkg, row, PACKAGE_COLS - 1)],
                routers[(pkg + 1, row, 0)],
                virtual_channels, bandwidth,
            )

    # FPGA on the left, attached to package 0's left edge
    fpga_router = platform.add_router(Router("fpga_r", position=(0.0, 1.0)))
    fpga = platform.add_element(
        ProcessingElement(
            name="fpga",
            kind=ElementType.FPGA,
            capacity=default_capacity(ElementType.FPGA),
            position=(0.0, 1.0),
        )
    )
    platform.add_link(
        fpga, fpga_router, endpoint_virtual_channels,
        endpoint_bandwidth if endpoint_bandwidth is not None else bandwidth,
    )
    platform.add_link(fpga_router, routers[(0, 0, 0)], virtual_channels, bandwidth)
    platform.add_link(
        fpga_router, routers[(0, PACKAGE_ROWS - 1, 0)], virtual_channels, bandwidth
    )

    # ARM on the right, attached to the last package's right edge
    arm_x = 1 + packages * (PACKAGE_COLS + 1)
    arm_router = platform.add_router(Router("arm_r", position=(float(arm_x), 1.0)))
    arm = platform.add_element(
        ProcessingElement(
            name="arm",
            kind=ElementType.GPP,
            capacity=default_capacity(ElementType.GPP),
            position=(float(arm_x), 1.0),
        )
    )
    platform.add_link(
        arm, arm_router, endpoint_virtual_channels,
        endpoint_bandwidth if endpoint_bandwidth is not None else bandwidth,
    )
    last = packages - 1
    platform.add_link(
        arm_router, routers[(last, 0, PACKAGE_COLS - 1)],
        virtual_channels, bandwidth,
    )
    platform.add_link(
        arm_router, routers[(last, PACKAGE_ROWS - 1, PACKAGE_COLS - 1)],
        virtual_channels, bandwidth,
    )
    return platform.freeze()


def fat_tree(
    leaves: int,
    arity: int = 4,
    element_factory: ElementFactory = _dsp_factory,
    virtual_channels: int = 4,
    bandwidth: float = 100.0,
    fatness: float = 2.0,
    endpoint_virtual_channels: int = ENDPOINT_VCS,
    endpoint_bandwidth: float | None = None,
) -> Platform:
    """A fat tree: ``leaves`` elements under a balanced router tree.

    Each leaf router hosts one element; every ``arity`` routers of a
    level share one parent, up to a single root.  Router—router links
    *widen* toward the root — the level-``l`` uplink carries
    ``virtual_channels * 2**l`` virtual channels and
    ``bandwidth * fatness**l`` bandwidth — which is what makes the
    tree "fat": aggregate capacity is preserved up the hierarchy
    instead of funneling into a root bottleneck.  Any hop count
    between two leaves is at most twice the tree depth, so large
    fabrics are *shallower* than the equivalent mesh — the topology
    axis the scenario sweeps use to contrast with grid diameter.

    Deterministic: no randomness, stable names (``dsp_0_<i>`` leaves,
    ``ft_r<level>_<index>`` routers).
    """
    if leaves < 2:
        raise ValueError("fat tree needs at least 2 leaves")
    if arity < 2:
        raise ValueError("fat tree arity must be at least 2")
    if fatness < 1.0:
        raise ValueError("fatness must be at least 1.0 (widening links)")
    platform = Platform(f"fat_tree_{leaves}a{arity}")
    # leaf level: one router + one element per leaf
    level_routers: list[Router] = []
    for index in range(leaves):
        router = platform.add_router(
            Router(f"ft_r0_{index}", position=(float(index), 0.0))
        )
        level_routers.append(router)
        element = platform.add_element(element_factory(0, index))
        platform.add_link(
            element, router, endpoint_virtual_channels,
            endpoint_bandwidth if endpoint_bandwidth is not None else bandwidth,
        )
    # upper levels: every `arity` children share one parent; the
    # child->parent link is the fat one (wider per level)
    level = 0
    while len(level_routers) > 1:
        level += 1
        uplink_vcs = virtual_channels * 2 ** (level - 1)
        uplink_bandwidth = bandwidth * fatness ** (level - 1)
        parents: list[Router] = []
        for start in range(0, len(level_routers), arity):
            children = level_routers[start:start + arity]
            x = sum(r.position[0] for r in children) / len(children)
            parent = platform.add_router(
                Router(f"ft_r{level}_{len(parents)}",
                       position=(x, float(level)))
            )
            parents.append(parent)
            for child in children:
                platform.add_link(
                    child, parent, uplink_vcs, uplink_bandwidth
                )
        level_routers = parents
    return platform.freeze()


def heterogeneous_mesh(
    rows: int,
    cols: int,
    pattern: Sequence[ElementType] = (
        ElementType.DSP,
        ElementType.DSP,
        ElementType.DSP,
        ElementType.MEMORY,
    ),
    virtual_channels: int = 4,
    bandwidth: float = 100.0,
    endpoint_virtual_channels: int = ENDPOINT_VCS,
    endpoint_bandwidth: float | None = None,
) -> Platform:
    """A mesh whose element types cycle through ``pattern`` row-major."""
    if not pattern:
        raise ValueError("pattern must not be empty")

    def factory(row: int, col: int) -> ProcessingElement:
        kind = pattern[(row * cols + col) % len(pattern)]
        label = kind.value
        return ProcessingElement(
            name=f"{label}_{row}_{col}",
            kind=kind,
            capacity=default_capacity(kind),
            position=(float(col), float(row)),
        )

    return mesh(
        rows, cols, factory, virtual_channels, bandwidth,
        name=f"hetmesh_{rows}x{cols}",
        endpoint_virtual_channels=endpoint_virtual_channels,
        endpoint_bandwidth=endpoint_bandwidth,
    )
