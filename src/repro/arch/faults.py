"""Fault injection and fault-driven remapping support.

One of the stated motivations for *run-time* resource management is
"to provide some degree of fault tolerance, due to imperfect
production processes and wear of materials" (paper abstract) and "to
circumvent hardware faults" (Section I).  This module provides the
scenario machinery: deterministic fault campaigns over a platform, and
the bookkeeping needed to find which applications a fault strands.

The actual re-allocation is performed by the manager
(:meth:`repro.manager.kairos.Kairos.recover`), which releases the
affected applications and retries their allocation on the degraded
platform.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.arch.state import AllocationState


@dataclass(frozen=True)
class Fault:
    """A single fault event.

    ``repair_after`` makes the fault *transient*: the capacity returns
    that much sim-time after injection (an MTTR draw), applied through
    the state's journaled ``heal_element`` / ``heal_link`` so
    transactions and capacity epochs stay bit-exact.  ``None`` (the
    default, and the only pre-resilience behaviour) means permanent.
    """

    kind: str  # "element" or "link"
    target: tuple[str, ...]  # (element,) or (node_a, node_b)
    repair_after: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("element", "link"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        expected = 1 if self.kind == "element" else 2
        if len(self.target) != expected:
            raise ValueError(
                f"{self.kind} fault expects {expected} target(s), got {self.target}"
            )
        if self.repair_after is not None and self.repair_after <= 0:
            raise ValueError("repair_after must be positive (or None)")


def apply_fault(state: AllocationState, fault: Fault) -> None:
    """Inject ``fault`` into the live state (journaled, epoch-bumping)."""
    if fault.kind == "element":
        state.fail_element(fault.target[0])
    else:
        state.fail_link(fault.target[0], fault.target[1])


def apply_repair(state: AllocationState, fault: Fault) -> None:
    """Undo ``fault``'s capacity loss (journaled, epoch-bumping).

    Healing is idempotent at the state level — repairing an element a
    later permanent fault re-failed is a no-op, exactly what a repair
    crew finding the tile already re-broken would do.
    """
    if fault.kind == "element":
        state.heal_element(fault.target[0])
    else:
        state.heal_link(fault.target[0], fault.target[1])


@dataclass
class FaultCampaign:
    """An ordered list of faults to inject, with an audit trail."""

    faults: list[Fault] = field(default_factory=list)
    injected: list[Fault] = field(default_factory=list)

    def add_element_fault(self, element: str) -> "FaultCampaign":
        self.faults.append(Fault("element", (element,)))
        return self

    def add_link_fault(self, a: str, b: str) -> "FaultCampaign":
        self.faults.append(Fault("link", (a, b)))
        return self

    def inject_next(self, state: AllocationState) -> Fault | None:
        """Inject the next pending fault; returns it, or None when done."""
        index = len(self.injected)
        if index >= len(self.faults):
            return None
        fault = self.faults[index]
        apply_fault(state, fault)
        self.injected.append(fault)
        return fault

    def inject_all(self, state: AllocationState) -> list[Fault]:
        injected = []
        while (fault := self.inject_next(state)) is not None:
            injected.append(fault)
        return injected

    def schedule(
        self, times: Sequence[float]
    ) -> tuple[tuple[float, Fault], ...]:
        """Pair each pending fault with an injection time, in order.

        The ``(time, fault)`` pairs feed the discrete-event simulation
        (:func:`repro.sim.run.run_simulation`), which injects each
        fault at its sim-time instant and immediately runs
        :meth:`repro.manager.kairos.Kairos.recover`.  ``times`` must be
        non-decreasing and provide one instant per pending fault
        (already-injected faults are excluded, matching
        :meth:`inject_next`'s notion of progress).
        """
        pending = self.faults[len(self.injected):]
        if len(times) != len(pending):
            raise ValueError(
                f"need {len(pending)} times, got {len(times)}"
            )
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("fault times must be non-decreasing")
        return tuple(zip(times, pending))


def random_element_campaign(
    state: AllocationState,
    count: int,
    seed: int = 0,
    spare: Iterable[str] = (),
    repair_after: float | None = None,
) -> FaultCampaign:
    """A campaign failing ``count`` random elements, excluding ``spare``.

    ``spare`` typically contains the I/O-anchored elements (the ARM and
    FPGA on CRISP) so the scenario stays mappable at all.
    Deterministic for a given seed.  ``repair_after`` makes every fault
    transient with that MTTR (see :class:`Fault`).
    """
    rng = random.Random(seed)
    protected = set(spare)
    candidates = sorted(
        e.name for e in state.platform.elements if e.name not in protected
    )
    if count > len(candidates):
        raise ValueError(
            f"cannot fail {count} elements; only {len(candidates)} candidates"
        )
    campaign = FaultCampaign()
    for name in rng.sample(candidates, count):
        campaign.faults.append(
            Fault("element", (name,), repair_after=repair_after)
        )
    return campaign


def _link_candidates(
    state: AllocationState, spare: Iterable[str]
) -> list[tuple[str, str]]:
    """Undirected link endpoint pairs, excluding links touching ``spare``.

    Sorted by endpoint names so the candidate order — and therefore the
    seeded sample — is independent of platform construction order.
    """
    protected = set(spare)
    pairs = []
    for link in state.platform.links:
        a, b = sorted((link.a.name, link.b.name))
        if a in protected or b in protected:
            continue
        pairs.append((a, b))
    pairs.sort()
    return pairs


def random_link_campaign(
    state: AllocationState,
    count: int,
    seed: int = 0,
    spare: Iterable[str] = (),
    repair_after: float | None = None,
) -> FaultCampaign:
    """A campaign failing ``count`` random links.

    The link-side twin of :func:`random_element_campaign`: seeded and
    deterministic, and ``spare`` protection extends to links — any link
    with a protected *endpoint* is excluded, so a spared I/O element
    cannot be cut off by losing its last connection.
    """
    rng = random.Random(seed)
    candidates = _link_candidates(state, spare)
    if count > len(candidates):
        raise ValueError(
            f"cannot fail {count} links; only {len(candidates)} candidates"
        )
    campaign = FaultCampaign()
    for a, b in rng.sample(candidates, count):
        campaign.faults.append(Fault("link", (a, b), repair_after=repair_after))
    return campaign


def random_campaign(
    state: AllocationState,
    count: int,
    seed: int = 0,
    spare: Iterable[str] = (),
    link_fraction: float = 0.0,
    repair_after: float | None = None,
) -> FaultCampaign:
    """A mixed element+link campaign: ``round(count * link_fraction)``
    link faults, the rest element faults, interleaved by a seeded
    shuffle so the two kinds arrive mixed rather than batched.

    ``spare`` protects both the named elements and every link touching
    them; determinism follows from the three seeded sub-draws
    (elements, links, interleaving) using fixed seed offsets.
    """
    if not 0.0 <= link_fraction <= 1.0:
        raise ValueError("link_fraction must lie in [0, 1]")
    link_count = round(count * link_fraction)
    element_count = count - link_count
    faults: list[Fault] = []
    if element_count:
        faults.extend(
            random_element_campaign(
                state, element_count, seed=seed, spare=spare,
                repair_after=repair_after,
            ).faults
        )
    if link_count:
        faults.extend(
            random_link_campaign(
                state, link_count, seed=seed + 1, spare=spare,
                repair_after=repair_after,
            ).faults
        )
    random.Random(seed + 2).shuffle(faults)
    campaign = FaultCampaign()
    campaign.faults.extend(faults)
    return campaign


def region_elements(
    state: AllocationState, center: str, radius: int
) -> tuple[str, ...]:
    """Element names within ``radius`` hops of ``center`` in the
    element-adjacency graph (radius 0 is just the center), sorted."""
    platform = state.platform
    frontier = [center]
    seen = {center}
    for _ in range(radius):
        frontier = [
            neighbor.name
            for name in frontier
            for neighbor in platform.element_neighbors(name)
            if neighbor.name not in seen
        ]
        seen.update(frontier)
    return tuple(sorted(seen))


def storm_campaign(
    state: AllocationState,
    epicenters: int,
    radius: int = 1,
    seed: int = 0,
    spare: Iterable[str] = (),
    repair_after: float | None = None,
) -> FaultCampaign:
    """A correlated fault storm: seeded epicenters, each taking down its
    whole element neighbourhood (``radius`` hops) at once.

    Models spatially correlated failure — a power-domain brown-out or a
    thermal hot-spot kills a *region*, not a uniform random sprinkle.
    ``spare`` elements are never epicenters and are filtered out of the
    blast radii; faults are ordered storm by storm, elements sorted
    within one storm, so injection order is deterministic.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    rng = random.Random(seed)
    protected = set(spare)
    candidates = sorted(
        e.name for e in state.platform.elements if e.name not in protected
    )
    if epicenters > len(candidates):
        raise ValueError(
            f"cannot place {epicenters} epicenters; only "
            f"{len(candidates)} candidates"
        )
    campaign = FaultCampaign()
    struck: set[str] = set()
    for center in rng.sample(candidates, epicenters):
        for name in region_elements(state, center, radius):
            if name in protected or name in struck:
                continue
            struck.add(name)
            campaign.faults.append(
                Fault("element", (name,), repair_after=repair_after)
            )
    return campaign


def stranded_applications(state: AllocationState, fault: Fault) -> tuple[str, ...]:
    """Application ids that lose a placement or a route to ``fault``."""
    stranded: set[str] = set()
    if fault.kind == "element":
        element = fault.target[0]
        for occupant in state.occupants(element):
            stranded.add(occupant.app_id)
        for app_id in state.applications():
            for reservation in state.reservations_of(app_id):
                if element in reservation.path:
                    stranded.add(app_id)
    else:
        a, b = fault.target
        for app_id in state.applications():
            for reservation in state.reservations_of(app_id):
                path = reservation.path
                for hop_a, hop_b in zip(path, path[1:]):
                    if {hop_a, hop_b} == {a, b}:
                        stranded.add(app_id)
                        break
    return tuple(sorted(stranded))


def degrade_sequence(
    state: AllocationState,
    campaign: FaultCampaign,
) -> Sequence[tuple[Fault, tuple[str, ...]]]:
    """Inject the full campaign, recording who is stranded at each step."""
    trail = []
    while True:
        index = len(campaign.injected)
        if index >= len(campaign.faults):
            break
        fault = campaign.faults[index]
        victims = stranded_applications(state, fault)
        campaign.inject_next(state)
        trail.append((fault, victims))
    return trail
