"""Resource vectors: the quantitative currency of the resource manager.

The paper (Section III) uses "a vector notation ... to denote the
resources provided by elements, and the resources required by
implementations" [14].  A :class:`ResourceVector` maps named resource
kinds (processor cycles, memory bytes, I/O interfaces, accelerator
slices, ...) to non-negative quantities and supports the small algebra
the allocation phases need:

* ``a + b`` / ``a - b`` — element-wise accumulation and release,
* ``a.fits_in(b)`` — can a requirement ``a`` be satisfied by a free
  capacity ``b`` (element-wise ``<=`` over the union of kinds),
* ``a.bottleneck(b)`` — the utilization of the scarcest resource, used
  by the knapsack density heuristic.

Vectors are immutable; the mutable bookkeeping lives in
:class:`repro.arch.state.AllocationState`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Union

Number = Union[int, float]

#: Canonical resource kind names used across the library.  Anything
#: hashable works as a kind; these constants merely avoid typos.
CYCLES = "cycles"
MEMORY = "memory"
IO = "io"
FABRIC = "fabric"


class ResourceError(ValueError):
    """Raised for invalid resource arithmetic (e.g. negative release)."""


class ResourceVector(Mapping[str, Number]):
    """An immutable, non-negative vector of named resource quantities.

    Missing kinds are treated as zero, so vectors over different kind
    sets compose naturally::

        >>> need = ResourceVector(cycles=70, memory=16)
        >>> free = ResourceVector(cycles=100, memory=64, io=1)
        >>> need.fits_in(free)
        True
        >>> (free - need)["cycles"]
        30
    """

    __slots__ = ("_data",)

    def __init__(self, mapping: Mapping[str, Number] | None = None, **kinds: Number):
        data: dict[str, Number] = {}
        if mapping:
            data.update(mapping)
        data.update(kinds)
        for kind, quantity in data.items():
            if quantity < 0:
                raise ResourceError(
                    f"resource quantity for {kind!r} must be non-negative, "
                    f"got {quantity!r}"
                )
        # Drop explicit zeros so equality/iteration see a canonical form.
        object.__setattr__(
            self, "_data", {k: v for k, v in data.items() if v != 0}
        )

    # -- Mapping protocol -------------------------------------------------

    def __getitem__(self, kind: str) -> Number:
        return self._data.get(kind, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, kind: object) -> bool:
        return kind in self._data

    # -- Immutability ------------------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ResourceVector is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the validating
        # constructor (the default protocol would set the slot directly)
        return (type(self), (dict(self._data),))

    def __hash__(self) -> int:
        return hash(frozenset(self._data.items()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResourceVector):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == {k: v for k, v in other.items() if v != 0}
        return NotImplemented

    # -- Algebra -----------------------------------------------------------
    #
    # These run inside every occupy/vacate/availability check, so they
    # loop over the raw component dicts instead of going through the
    # Mapping protocol, and build known-canonical results without the
    # validating constructor.

    @classmethod
    def _unsafe(cls, data: dict[str, Number]) -> "ResourceVector":
        """Wrap an already-canonical component dict (no zeros/negatives)."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "_data", data)
        return vector

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        # both operands are canonical (positive components), so the sum is too
        data = dict(self._data)
        for kind, quantity in other._data.items():
            base = data.get(kind)
            data[kind] = quantity if base is None else base + quantity
        return ResourceVector._unsafe(data)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Element-wise difference; raises if any component goes negative.

        Releasing more than was allocated is always a bookkeeping bug,
        so it fails loudly rather than clamping.
        """
        if not isinstance(other, ResourceVector):
            return NotImplemented
        data = dict(self._data)
        for kind, quantity in other._data.items():
            value = data.get(kind, 0) - quantity
            if value < 0:
                raise ResourceError(
                    f"subtraction drives {kind!r} negative "
                    f"({data.get(kind, 0)} - {quantity})"
                )
            if value == 0:
                data.pop(kind, None)
            else:
                data[kind] = value
        return ResourceVector._unsafe(data)

    def __mul__(self, scalar: Number) -> "ResourceVector":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        if scalar < 0:
            raise ResourceError("cannot scale a resource vector negatively")
        return ResourceVector({k: v * scalar for k, v in self._data.items()})

    __rmul__ = __mul__

    def fits_in(self, capacity: "ResourceVector") -> bool:
        """True when this requirement is satisfiable by ``capacity``."""
        available = capacity._data
        for kind, quantity in self._data.items():
            other = available.get(kind)
            if other is None or quantity > other:
                return False
        return True

    def dominates(self, other: "ResourceVector") -> bool:
        """True when every component of ``self`` is >= the one in ``other``."""
        return other.fits_in(self)

    def bottleneck(self, capacity: "ResourceVector") -> float:
        """Utilization of the scarcest resource if placed into ``capacity``.

        Returns the maximum ratio ``self[k] / capacity[k]`` over the
        kinds this vector requires.  A requirement of a kind the
        capacity lacks yields ``inf``.  The empty requirement yields 0.
        """
        data = capacity._data
        worst = 0.0
        for kind, quantity in self._data.items():
            available = data.get(kind, 0)
            if available == 0:
                return float("inf")
            ratio = quantity / available
            if ratio > worst:
                worst = ratio
        return worst

    def total(self) -> Number:
        """Sum of all components (a crude scalar size, used in reports)."""
        return sum(self._data.values())

    def kinds(self) -> frozenset[str]:
        return frozenset(self._data)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._data.items()))
        return f"ResourceVector({inner})"


#: The zero vector — the identity of ``+`` and the bottom of ``fits_in``.
ZERO = ResourceVector()


def vector_sum(vectors) -> ResourceVector:
    """Sum an iterable of resource vectors (empty sum is :data:`ZERO`)."""
    total = ZERO
    for vector in vectors:
        total = total + vector
    return total


def fraction_of(capacity: ResourceVector, fraction: float) -> ResourceVector:
    """A requirement asking for ``fraction`` of each kind in ``capacity``.

    Used by the synthetic generator: "tasks use between 70% and 100% of
    the element's resources" (paper Section IV).  Quantities are
    rounded down to integers when the capacity component is integral,
    but never below 1 so a positive fraction always requests something.
    """
    if not 0 < fraction <= 1:
        raise ResourceError(f"fraction must be in (0, 1], got {fraction}")
    result: dict[str, Number] = {}
    for kind, quantity in capacity.items():
        amount = quantity * fraction
        if isinstance(quantity, int):
            result[kind] = max(1, int(amount))
        else:
            result[kind] = amount
    return ResourceVector(result)
