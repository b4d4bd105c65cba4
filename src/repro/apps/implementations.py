"""Task implementations: the binding phase's alternatives.

"For each task, multiple implementations may be provided by different
IP manufacturers, using multiple QoS levels, or targeting different
memory types and I/O interfaces" (paper Section I).  An implementation
states *where* it can run (an element type, or one specific element
for fixed I/O interfaces), *what* it consumes (a resource vector),
*how fast* it runs (execution time per firing, feeding the SDF
validation model) and *how much it costs* to prefer it (an abstract
scalar: energy, licensing, QoS penalty...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.elements import ElementType, ProcessingElement
from repro.arch.resources import ResourceVector


class ImplementationError(ValueError):
    """Raised for malformed implementation specifications."""


@dataclass(frozen=True)
class Implementation:
    """One executable variant of a task.

    Exactly one of the two targeting modes applies:

    * ``target_kind`` set, ``target_element`` None — the implementation
      runs on any element of that type (the common case);
    * ``target_element`` set — the implementation is pinned to one
      named element ("locations may be fixed in the binding phase",
      Section III-A), which makes its task a mapping anchor in ``T0``.
    """

    name: str
    requirement: ResourceVector
    execution_time: float = 1.0
    cost: float = 1.0
    target_kind: ElementType | None = None
    target_element: str | None = None
    #: everything static compatibility depends on, as one derived key
    #: that hashes without a Python-level call: the platform answers
    #: ``static_hosts`` per shape, not per implementation object
    shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ImplementationError("implementation needs a non-empty name")
        if (self.target_kind is None) == (self.target_element is None):
            raise ImplementationError(
                f"implementation {self.name!r} must target either an element "
                "type or a specific element (exactly one)"
            )
        if self.execution_time <= 0:
            raise ImplementationError(
                f"implementation {self.name!r} needs positive execution time"
            )
        if self.cost < 0:
            raise ImplementationError(
                f"implementation {self.name!r} has negative cost"
            )
        object.__setattr__(self, "shape", (
            None if self.target_kind is None else self.target_kind.value,
            self.target_element,
            frozenset(self.requirement._data.items()),
        ))

    def runs_on(self, element: ProcessingElement) -> bool:
        """Static compatibility: type/pin match and capacity is sufficient.

        Run-time availability (enough *free* resources) is the
        allocation state's ``av(e, t)``; this check ignores occupancy.
        Platform-wide scans iterate
        :meth:`repro.arch.topology.Platform.static_hosts` instead of
        asking this per element.
        """
        if self.target_element is not None:
            matches = element.name == self.target_element
        else:
            matches = element.kind == self.target_kind
        return matches and self.requirement.fits_in(element.capacity)

    @property
    def pinned(self) -> bool:
        """True when this implementation is fixed to one element."""
        return self.target_element is not None

    def __repr__(self) -> str:
        where = self.target_element or str(self.target_kind)
        return f"<Impl {self.name} on {where}, cost={self.cost}>"


def dsp_implementation(
    name: str,
    cycles: int,
    memory: int = 0,
    execution_time: float = 1.0,
    cost: float = 1.0,
) -> Implementation:
    """Shorthand for the ubiquitous DSP-targeted implementation."""
    return Implementation(
        name=name,
        requirement=ResourceVector(cycles=cycles, memory=memory),
        execution_time=execution_time,
        cost=cost,
        target_kind=ElementType.DSP,
    )


def pinned_implementation(
    name: str,
    element: str,
    requirement: ResourceVector,
    execution_time: float = 1.0,
    cost: float = 1.0,
) -> Implementation:
    """Shorthand for a fixed-location (I/O interface) implementation."""
    return Implementation(
        name=name,
        requirement=requirement,
        execution_time=execution_time,
        cost=cost,
        target_element=element,
    )
