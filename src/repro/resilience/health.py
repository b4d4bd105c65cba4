"""Element and link health: the registry behind graceful degradation.

The paper motivates run-time management with fault tolerance — "to
circumvent hardware faults" from imperfect production and wear — and
a binary alive/dead model undersells that story: real hardware
*flaps* (a thermal throttle clears, a marginal via re-anneals), and a
tile that has failed three times this hour is a worse bet than one
that never has, even while both are nominally up.

:class:`HealthRegistry` tracks a small per-element / per-link state
machine driven by fault and repair events::

    live ──fault──▶ dead ──repair──▶ repairing
                                        │ probation elapsed
                     ┌──────────────────┤
                     ▼                  ▼
      (few faults) live        suspect / degraded (wear)
                     ▲                  │
                     └── clean window ──┘   (degraded is sticky)

``dead`` is the *hard* state — the allocation state's failed sets
already exclude those resources from every phase.  The other states
are *soft*: ``repairing``, ``suspect`` and ``degraded`` elements stay
usable but carry an avoidance penalty that
:class:`HealthAwareCost` adds to the mapping cost, so placement
drifts away from flaky silicon while capacity is plentiful and
returns to it under pressure — graceful degradation instead of a
cliff.  Hysteresis (the probation windows) keeps a flapping element
from oscillating between trusted and avoided on every event.

Determinism: transitions depend only on the event sequence and the
observation times the caller supplies — the registry draws no
randomness and reads no wall clock, so simulation traces that
include health-driven decisions replay bit-identically.

This registry is also the liveness component ROADMAP item 2's shard
demotion will reuse (the RuntimeRegistry live/stale/dead pattern).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.arch.faults import Fault
from repro.core.cost import CostFunction, as_cost

__all__ = [
    "HealthAwareCost",
    "HealthPolicy",
    "HealthRegistry",
    "HealthState",
    "HealthTransition",
]


class HealthState(enum.StrEnum):
    """Health of one element or link; values appear in trace records."""

    LIVE = "live"
    #: recently repaired or flaky — usable, softly avoided
    SUSPECT = "suspect"
    #: worn (repeatedly faulted) — usable, permanently discounted
    DEGRADED = "degraded"
    #: currently failed — excluded hard by the allocation state
    DEAD = "dead"
    #: repair completed, probation running — usable, strongly avoided
    REPAIRING = "repairing"


@dataclass(frozen=True)
class HealthPolicy:
    """Tunables of the health automaton.

    ``probation`` is the hysteresis window (sim-time): a repaired
    resource spends it in ``repairing``, then settles by lifetime
    fault count — ``degraded`` at ``degrade_after`` or more faults
    (sticky wear), ``suspect`` at ``suspect_after`` or more (another
    clean probation window promotes it back to ``live``), ``live``
    below that.  The penalties are mapping-cost addends; zero
    disables avoidance of that state.
    """

    probation: float = 10.0
    suspect_after: int = 2
    degrade_after: int = 4
    repairing_penalty: float = 6.0
    suspect_penalty: float = 3.0
    degraded_penalty: float = 1.5

    def __post_init__(self) -> None:
        if self.probation <= 0:
            raise ValueError("probation must be positive")
        if self.suspect_after < 1:
            raise ValueError("suspect_after must be at least 1")
        if self.degrade_after < self.suspect_after:
            raise ValueError("degrade_after must be >= suspect_after")
        for name in ("repairing_penalty", "suspect_penalty",
                     "degraded_penalty"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def describe(self) -> dict:
        """JSON-able parameters (recipe headers round-trip through this)."""
        return {
            "probation": self.probation,
            "suspect_after": self.suspect_after,
            "degrade_after": self.degrade_after,
            "repairing_penalty": self.repairing_penalty,
            "suspect_penalty": self.suspect_penalty,
            "degraded_penalty": self.degraded_penalty,
        }

    @classmethod
    def from_params(cls, params: dict | None) -> "HealthPolicy":
        return cls(**(params or {}))


@dataclass(frozen=True)
class HealthTransition:
    """One state change, for trace records and metrics."""

    kind: str  # "element" or "link"
    target: tuple[str, ...]
    previous: HealthState
    state: HealthState


class _Entry:
    """Mutable health record of one resource."""

    __slots__ = ("state", "faults", "repaired_at", "settled_at")

    def __init__(self) -> None:
        self.state = HealthState.LIVE
        self.faults = 0
        self.repaired_at = 0.0
        self.settled_at = 0.0


class HealthRegistry:
    """Per-element / per-link health, driven by fault and repair events.

    Entries are created lazily — a resource that never faulted is
    ``live`` with zero penalty and costs nothing to ask about.  The
    element-penalty dict is exposed *by identity* to
    :class:`HealthAwareCost`, so penalty updates reach the mapping
    hot path without any per-call indirection.

    Whoever mutates the registry must revoke epoch-keyed decision
    caches when a *soft* penalty changes without a ledger mutation
    (promotions out of ``repairing``/``suspect``): call
    :meth:`~repro.arch.state.AllocationState.touch` when
    :meth:`observe` returns transitions.  Fault and repair events
    bump the epoch through ``fail_*``/``heal_*`` anyway.
    """

    def __init__(self, policy: HealthPolicy | None = None) -> None:
        self.policy = policy or HealthPolicy()
        self._elements: dict[str, _Entry] = {}
        self._links: dict[tuple[str, str], _Entry] = {}
        #: element name -> current soft penalty (shared by identity
        #: with HealthAwareCost; never rebound)
        self._element_penalties: dict[str, float] = {}

    # -- event hooks --------------------------------------------------------

    def on_fault(self, fault: Fault, now: float) -> list[HealthTransition]:
        """A fault hit ``fault.target``: mark it dead, count the wear."""
        entry, key = self._entry(fault)
        previous = entry.state
        entry.faults += 1
        entry.state = HealthState.DEAD
        self._set_penalty(fault, key, 0.0)
        if previous is HealthState.DEAD:
            return []
        return [HealthTransition(fault.kind, fault.target, previous,
                                 HealthState.DEAD)]

    def on_repair(self, fault: Fault, now: float) -> list[HealthTransition]:
        """``fault.target`` was repaired: probation starts now."""
        entry, key = self._entry(fault)
        previous = entry.state
        if previous is not HealthState.DEAD:
            # a repair crew arriving after a heal-by-other-means (or a
            # double repair) changes nothing
            return []
        entry.state = HealthState.REPAIRING
        entry.repaired_at = now
        self._set_penalty(fault, key, self.policy.repairing_penalty)
        return [HealthTransition(fault.kind, fault.target, previous,
                                 HealthState.REPAIRING)]

    def observe(self, now: float) -> list[HealthTransition]:
        """Advance every probation that has elapsed by ``now``.

        Deterministic given the call times; iteration order is sorted
        so the emitted transition order never depends on dict history.
        """
        transitions: list[HealthTransition] = []
        policy = self.policy
        for kind, key, entry in self._entries_sorted():
            target = (key,) if kind == "element" else key
            if entry.state is HealthState.REPAIRING:
                if now - entry.repaired_at >= policy.probation:
                    if entry.faults >= policy.degrade_after:
                        settled = HealthState.DEGRADED
                        penalty = policy.degraded_penalty
                    elif entry.faults >= policy.suspect_after:
                        settled = HealthState.SUSPECT
                        penalty = policy.suspect_penalty
                    else:
                        settled = HealthState.LIVE
                        penalty = 0.0
                    transitions.append(HealthTransition(
                        kind, target, entry.state, settled
                    ))
                    entry.state = settled
                    entry.settled_at = now
                    self._set_penalty_key(kind, key, penalty)
            elif entry.state is HealthState.SUSPECT:
                if now - entry.settled_at >= policy.probation:
                    transitions.append(HealthTransition(
                        kind, target, entry.state, HealthState.LIVE
                    ))
                    entry.state = HealthState.LIVE
                    self._set_penalty_key(kind, key, 0.0)
        return transitions

    # -- queries ------------------------------------------------------------

    def element_state(self, name: str) -> HealthState:
        entry = self._elements.get(name)
        return HealthState.LIVE if entry is None else entry.state

    def link_state(self, a: str, b: str) -> HealthState:
        entry = self._links.get(self._link_key(a, b))
        return HealthState.LIVE if entry is None else entry.state

    def element_penalty(self, name: str) -> float:
        return self._element_penalties.get(name, 0.0)

    def fault_count(self, fault_or_name: Fault | str) -> int:
        if isinstance(fault_or_name, str):
            entry = self._elements.get(fault_or_name)
        else:
            entry = self._entry(fault_or_name, create=False)[0]
        return 0 if entry is None else entry.faults

    @property
    def element_penalties(self) -> dict[str, float]:
        """The live penalty dict (identity-shared with the cost wrapper)."""
        return self._element_penalties

    def summary(self) -> dict:
        """State counts, JSON-able (metrics and the CLI render this)."""
        counts: dict[str, int] = {}
        for _kind, _key, entry in self._entries_sorted():
            counts[entry.state.value] = counts.get(entry.state.value, 0) + 1
        return {
            "tracked": len(self._elements) + len(self._links),
            "states": dict(sorted(counts.items())),
            "penalized_elements": len(self._element_penalties),
        }

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _link_key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def _entry(self, fault: Fault, create: bool = True):
        if fault.kind == "element":
            key = fault.target[0]
            table = self._elements
        else:
            key = self._link_key(*fault.target)
            table = self._links
        entry = table.get(key)
        if entry is None and create:
            entry = table[key] = _Entry()
        return entry, key

    def _entries_sorted(self):
        for key in sorted(self._elements):
            yield "element", key, self._elements[key]
        for key in sorted(self._links):
            yield "link", key, self._links[key]

    def _set_penalty(self, fault: Fault, key, penalty: float) -> None:
        self._set_penalty_key(fault.kind, key, penalty)

    def _set_penalty_key(self, kind: str, key, penalty: float) -> None:
        # only element penalties feed the mapping cost; link health is
        # tracked for observability (routing already avoids dead links
        # hard via the failed set and saturation walls)
        if kind != "element":
            return
        if penalty > 0.0:
            self._element_penalties[key] = penalty
        else:
            self._element_penalties.pop(key, None)


class HealthAwareCost(CostFunction):
    """Wrap a mapping cost with the registry's soft penalties.

    Bit-identity contract: with no penalized elements the wrapper
    returns the base cost *unchanged* (not ``base + 0.0`` — the exact
    same float object path), and it offers the base's
    ``isolated_cost`` anchor peek, so a manager with a health registry
    attached makes byte-identical decisions to one without until the
    first soft penalty actually exists.  The context and the task
    requirements are forwarded to the base.
    """

    __slots__ = ("base", "registry", "_penalties")

    def __init__(self, base, registry: HealthRegistry) -> None:
        self.base = as_cost(base)
        self.registry = registry
        self._penalties = registry.element_penalties  # identity share

    @property
    def isolated_cost(self):
        return None if self._penalties else self.base.isolated_cost

    def bind_requirements(self, requirements: dict) -> None:
        self.base.bind_requirements(requirements)

    def __call__(
        self, app, app_id, task, element, state, placement, distances,
        context=None,
    ) -> float:
        cost = self.base(
            app, app_id, task, element, state, placement, distances, context
        )
        penalties = self._penalties
        if not penalties:
            return cost
        penalty = penalties.get(element.name)
        if penalty is None:
            return cost
        return cost + penalty
