"""Platform substrate: elements, topology, state, builders, faults.

This package models the heterogeneous MPSoC the resource manager runs
on — the paper's ``P = <E, L>`` with typed processing elements, NoC
routers, capacity-limited links, and the run-time occupancy ledger.
"""

from repro.arch.builders import (
    crisp,
    fat_tree,
    heterogeneous_mesh,
    irregular,
    line,
    mesh,
    torus,
)
from repro.arch.elements import (
    ElementType,
    ProcessingElement,
    Router,
    default_capacity,
    is_element,
)
from repro.arch.resources import (
    ZERO,
    ResourceError,
    ResourceVector,
    fraction_of,
    vector_sum,
)
from repro.arch.state import (
    AllocationError,
    AllocationState,
    ChannelReservation,
    Occupant,
)
from repro.arch.topology import Link, Platform, TopologyError

__all__ = [
    "AllocationError",
    "AllocationState",
    "ChannelReservation",
    "ElementType",
    "Link",
    "Occupant",
    "Platform",
    "ProcessingElement",
    "ResourceError",
    "ResourceVector",
    "Router",
    "TopologyError",
    "ZERO",
    "crisp",
    "default_capacity",
    "fat_tree",
    "fraction_of",
    "heterogeneous_mesh",
    "irregular",
    "is_element",
    "line",
    "mesh",
    "torus",
    "vector_sum",
]
