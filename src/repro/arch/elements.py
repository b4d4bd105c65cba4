"""Processing elements and routers: the nodes of the platform graph.

The platform provides resources "through the processing elements E,
which are connected with the links L" (paper Section III).  Elements are
typed — the CRISP platform of Fig. 6 mixes an ARM (general-purpose
processor), an FPGA, DSP cores, memory tiles and hardware test units —
and each element carries a capacity :class:`~repro.arch.resources.ResourceVector`.

Routers are modelled as separate nodes so that hop counts and link
contention match a network-on-chip: element—router and router—router
links both count as hops for the distance/route accounting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.arch.resources import ResourceVector


class ElementType(enum.Enum):
    """The heterogeneous element kinds appearing in the CRISP platform."""

    GPP = "gpp"          #: general-purpose processor (the ARM926)
    DSP = "dsp"          #: digital signal processor core
    FPGA = "fpga"        #: reconfigurable fabric
    MEMORY = "memory"    #: on-chip memory tile
    TEST = "test"        #: hardware test unit (dependability support)
    IO = "io"            #: dedicated I/O interface tile

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ProcessingElement:
    """A typed compute/storage tile with a fixed resource capacity.

    Identity is the ``name``; two elements with the same name are the
    same element.  ``capacity`` is the total the element offers when
    completely free; the run-time free amount is tracked by
    :class:`repro.arch.state.AllocationState`.
    """

    name: str
    kind: ElementType
    capacity: ResourceVector
    #: free-form coordinates for visualisation / debugging (not used by
    #: any algorithm — the algorithms only see graph topology).
    position: tuple[float, float] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("processing element needs a non-empty name")

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<PE {self.name} ({self.kind.value})>"


@dataclass(frozen=True)
class Router:
    """A NoC router: pure interconnect, offers no task resources."""

    name: str
    position: tuple[float, float] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("router needs a non-empty name")

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<Router {self.name}>"


#: Nodes of the platform graph.
Node = ProcessingElement | Router


def is_element(node: Node) -> bool:
    """True for nodes that can host tasks (i.e. processing elements)."""
    return isinstance(node, ProcessingElement)


#: Reference capacities per element kind (see :func:`default_capacity`).
#: Vectors are immutable, so every element of a kind shares one.
_DEFAULT_CAPACITIES = {
    ElementType.DSP: ResourceVector(cycles=100, memory=32),
    ElementType.GPP: ResourceVector(cycles=60, memory=256, io=16),
    ElementType.FPGA: ResourceVector(fabric=100, memory=128, io=32),
    ElementType.MEMORY: ResourceVector(memory=256),
    ElementType.TEST: ResourceVector(cycles=10),
    ElementType.IO: ResourceVector(io=8, memory=16),
}


def default_capacity(kind: ElementType) -> ResourceVector:
    """Reference capacities per element kind.

    These mirror the qualitative description of the CRISP tiles: DSPs
    are compute-heavy with modest local memory, memory tiles offer
    storage only, the ARM is a smaller general-purpose core that also
    exposes an I/O interface, and the FPGA offers fabric plus I/O.
    Quantities are abstract units; only ratios matter to the
    experiments.  Every call for one kind returns the same vector.
    """
    return _DEFAULT_CAPACITIES[kind]
