"""Run-time allocation state of a platform.

The :class:`Platform` is immutable; everything that changes while
applications come and go lives here:

* per-element free resource vectors,
* which tasks of which applications occupy each element,
* per-directed-link virtual-channel and bandwidth ledgers,
* failed (faulty) elements and links, and
* the external-resource-fragmentation metric of Section III-A:
  "the percentage of pairs of adjacent elements of which only one
  element is used, over all pairs of adjacent elements in the
  platform".

A whole allocation attempt (binding, mapping, routing, validation) must
be atomic — a failure in any phase must leave no residue.  Atomicity is
provided by a **transaction journal**: every mutation appends an undo
entry while a transaction is open, and rollback replays those entries
in reverse.  Rollback cost is therefore O(mutations performed), not
O(platform size), which is what keeps failed-admission recovery flat
as platforms grow.  Use::

    with state.transaction():
        state.occupy(...)
        state.reserve_route(...)
        # raising any exception rolls everything back

Within a transaction, :meth:`savepoint` / :meth:`rollback_to` provide
partial undo (used by the exhaustive baseline's branch-and-bound).

The state also maintains **capacity epochs** for the admission fast
path (see :mod:`repro.manager.kairos`): a monotonic mutation counter
(:attr:`epoch`) bumped by every committed mutation, plus per-resource-
kind aggregate free counters — platform-wide and per element kind —
updated incrementally by occupy/vacate/fail/heal.  Both are journaled
like every other ledger, so a rolled-back attempt restores them
bit-exactly; equal epochs therefore certify identical allocation
state, which is what makes negative-result memoization sound.

:meth:`snapshot` — a full O(platform) copy of every ledger — is for
whole-state capture and comparison, not rollback.

Internally all ledgers are arrays indexed by the interned integer ids
the platform assigns at freeze time (see :mod:`repro.arch.topology`);
the name-based public methods translate at the boundary.

Package-internal contract: the ledger arrays ``_free``, ``_vc_used``,
``_bw_used``, ``_failed_elements`` and ``_failed_links`` are read
directly (never written) by the hot loops in
:mod:`repro.routing.router`, :mod:`repro.core.search` and
:mod:`repro.core.mapping` — hoisting them once per search avoids a
method call per hop.  A representation change here must update those
three modules (and nothing else; external code uses the public API).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.arch.elements import Node, ProcessingElement
from repro.arch.resources import ResourceError, ResourceVector
from repro.arch.topology import Platform, TopologyError


class AllocationError(RuntimeError):
    """Raised when an occupy/reserve request cannot be satisfied."""


@dataclass(frozen=True)
class Occupant:
    """A task instance resident on an element."""

    app_id: str
    task_id: str
    requirement: ResourceVector


@dataclass(frozen=True)
class ChannelReservation:
    """A reserved route: one virtual channel + bandwidth per hop."""

    app_id: str
    channel_id: str
    path: tuple[str, ...]  # node names, source element ... target element
    bandwidth: float

    @property
    def hops(self) -> int:
        return len(self.path) - 1


#: journal op codes (first element of every undo entry)
_OP_OCCUPY = 0
_OP_VACATE = 1
_OP_RESERVE = 2
_OP_RELEASE = 3
_OP_FAIL_ELEMENT = 4
_OP_HEAL_ELEMENT = 5
_OP_FAIL_LINK = 6
_OP_HEAL_LINK = 7

#: below this magnitude a drained bandwidth ledger snaps back to zero,
#: so float accumulation drift cannot shadow a fully free link
_BW_EPSILON = 1e-9


class AvailabilityCache:
    """Epoch-stamped per-implementation availability summaries.

    Several callers ask the same question about the same specification
    pool many times per admission attempt: *which elements can host
    this implementation right now?*  The admission gate needs "at
    least one", the mapping phase's anchor detection needs "exactly
    one, and which".  Both are answered by one platform scan whose
    result is a pure function of (implementation, allocation state) —
    so the scan is cached and keyed by the capacity epoch: any
    mutation invalidates wholesale, and within one epoch (one gate
    check plus the binding phase, which never mutates state) every
    repeat is O(1).

    ``summary(impl)`` returns ``(count, first)`` where ``count`` is
    0, 1 or 2 (2 meaning *two or more*) and ``first`` is the first
    available element in platform scan order (None when count is 0).
    ``best_fit(impl)`` returns the binder's best-fit answer over the
    raw state — ``(element, slack)`` with minimal leftover on the
    bottleneck resource, name-tie-broken — which the binding phase's
    provisional pool reuses for its pristine (pre-reservation) round.
    Both come from one platform scan.
    """

    __slots__ = ("_state", "_epoch", "_summaries", "memo")

    def __init__(self, state: "AllocationState") -> None:
        self._state = state
        self._epoch = -1
        #: id(impl) -> (impl, count, first, best, best_slack) — impl
        #: kept in the value so a recycled id can never alias a dead
        #: object
        self._summaries: dict[int, tuple] = {}
        #: free-form epoch-scoped memo for callers whose derived values
        #: are pure functions of (their key, allocation state) — e.g.
        #: the mapping phase's anchor-element choice.  Cleared together
        #: with the summaries whenever the epoch moves.
        self.memo: dict = {}

    def summary(self, impl) -> tuple[int, ProcessingElement | None]:
        entry = self._entry(impl)
        return entry[1], entry[2]

    def best_fit(self, impl) -> tuple[ProcessingElement | None, float]:
        entry = self._entry(impl)
        return entry[3], entry[4]

    def available(self, impl) -> tuple:
        """All currently available elements, in platform scan order."""
        return self._entry(impl)[5]

    def epoch_memo(self) -> dict:
        """The epoch-scoped free-form memo (cleared on any mutation)."""
        if self._epoch != self._state._epoch:
            self._summaries.clear()
            self.memo.clear()
            self._epoch = self._state._epoch
        return self.memo

    def _entry(self, impl) -> tuple:
        state = self._state
        epoch = state._epoch
        if self._epoch != epoch:
            self._summaries.clear()
            self.memo.clear()
            self._epoch = epoch
        key = id(impl)
        cached = self._summaries.get(key)
        if cached is not None and cached[0] is impl:
            return cached
        entry = self._scan(impl)
        self._summaries[key] = entry
        return entry

    def _scan(self, impl) -> tuple:
        state = self._state
        platform = state.platform
        requirement_items = tuple(impl.requirement._data.items())
        failed = state._failed_elements
        count = 0
        first: ProcessingElement | None = None
        best: ProcessingElement | None = None
        best_slack = float("inf")
        available_elements: list = []
        # fits + bottleneck fused over the state's per-kind free
        # arrays: identical comparisons and divisions (in the same
        # order) as ResourceVector.fits_in / .bottleneck, but each
        # probe is one flat-array read; the one- and two-kind
        # requirement shapes (virtually every generated implementation)
        # skip the inner loop entirely.  A requirement kind no element
        # ever offered has no array — nothing can fit.
        free_arrays = state._free_arrays
        arity = len(requirement_items)
        array_a = array_b = None
        quantity_a = quantity_b = None
        if arity == 1:
            ((kind_a, quantity_a),) = requirement_items
            array_a = free_arrays.get(kind_a)
            if array_a is None:
                return (impl, 0, None, None, best_slack, ())
        elif arity == 2:
            (kind_a, quantity_a), (kind_b, quantity_b) = requirement_items
            array_a = free_arrays.get(kind_a)
            array_b = free_arrays.get(kind_b)
            if array_a is None or array_b is None:
                return (impl, 0, None, None, best_slack, ())
        for element_id, element in platform.static_hosts(impl).nodes:
            if failed and element_id in failed:
                continue
            if arity == 1:
                have = array_a[element_id]
                if quantity_a > have:
                    continue
                worst = quantity_a / have
            elif arity == 2:
                have = array_a[element_id]
                if quantity_a > have:
                    continue
                worst = quantity_a / have
                have = array_b[element_id]
                if quantity_b > have:
                    continue
                ratio = quantity_b / have
                if ratio > worst:
                    worst = ratio
            else:
                available = state._free[element_id]._data
                worst = 0.0
                for kind, quantity in requirement_items:
                    have = available.get(kind)
                    if have is None or quantity > have:
                        worst = -1.0
                        break
                    ratio = quantity / have
                    if ratio > worst:
                        worst = ratio
                if worst < 0.0:
                    continue
            if count == 0:
                first = element
                count = 1
            elif count == 1:
                count = 2
            available_elements.append(element)
            slack = 1.0 - worst
            if slack < best_slack or (
                slack == best_slack
                and best is not None and element.name < best.name
            ):
                best = element
                best_slack = slack
        return (impl, count, first, best, best_slack,
                tuple(available_elements))


class _Transaction:
    """Context manager returned by :meth:`AllocationState.transaction`."""

    __slots__ = ("_state", "_mark")

    def __init__(self, state: "AllocationState") -> None:
        self._state = state
        self._mark = 0

    def __enter__(self) -> "AllocationState":
        self._mark = self._state._tx_begin()
        return self._state

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._state._tx_commit()
        else:
            self._state._tx_rollback(self._mark)
        return False


class AllocationState:
    """Mutable occupancy ledger over a frozen :class:`Platform`."""

    def __init__(self, platform: Platform):
        if not platform.frozen:
            raise TopologyError("AllocationState requires a frozen platform")
        self.platform = platform
        mask = platform._is_element_mask
        self._free: list[ResourceVector | None] = [
            node.capacity if mask[index] else None
            for index, node in enumerate(platform._nodes_by_id)
        ]
        self._occupants: list[list[Occupant] | None] = [
            [] if flag else None for flag in mask
        ]
        # directed link ledgers, indexed by slot (2 per undirected link)
        self._vc_used: list[int] = [0] * platform.slot_count
        self._bw_used: list[float] = [0.0] * platform.slot_count
        # virtual-channel saturation mask: _slot_saturated[slot] == 1
        # iff _vc_used[slot] >= platform._slot_vc[slot].  Maintained at
        # every vc mutation so the BFS inner loops (router, ring
        # search) pay one byte read per hop instead of two list reads
        # and a compare.
        self._slot_saturated = bytearray(
            1 if vc <= 0 else 0 for vc in platform._slot_vc
        )
        self._reservations: dict[tuple[str, str], ChannelReservation] = {}
        #: directed slots of each reservation, parallel to _reservations
        self._res_slots: dict[tuple[str, str], tuple[int, ...]] = {}
        self._placements: dict[tuple[str, str], int] = {}  # (app, task) -> id
        # wear odometer: total occupations ever served per element
        # (releases do not decrement; see WearLevelingObjective)
        self._wear: list[int] = [0] * platform.node_count
        self._failed_elements: set[int] = set()
        self._failed_links: set[int] = set()  # undirected link ids
        # cached totals so utilization() is O(1) (it runs per admission)
        self._total_capacity = sum(
            e.capacity.total() for e in platform.elements
        )
        self._allocated_total: float = 0
        # capacity epochs: every committed mutation bumps the counter;
        # rollback restores it, so equal epochs mean identical state
        self._epoch = 0
        #: element kind per node id (None for routers), for the
        #: per-kind aggregate updates on the occupy/vacate hot path
        self._kind_by_id = [
            node.kind if mask[index] else None
            for index, node in enumerate(platform._nodes_by_id)
        ]
        # aggregate free counters over NON-FAILED elements: platform
        # totals per resource kind, and the same split per element kind
        self._agg_free: dict = {}
        self._agg_free_kind: dict = {}
        self._recompute_aggregates()
        # per-kind mirror of the free vectors (node-id-indexed flat
        # arrays, zero for missing kinds): the platform-wide scans of
        # the availability cache and the mapping probes index these
        # instead of hashing into each element's component dict.
        # Maintained by occupy/vacate (and their undos) cell-exactly —
        # every write copies the value the vector ledger carries.
        self._free_arrays: dict = {}
        self._rebuild_free_arrays()
        # transaction journal: None when no transaction is open
        self._journal: list[tuple] | None = None
        self._tx_depth = 0
        self._availability: AvailabilityCache | None = None

    # -- transactions ------------------------------------------------------

    def transaction(self) -> _Transaction:
        """Open an atomic scope: any exception rolls every mutation back.

        Transactions nest; an inner rollback undoes only the inner
        scope.  Rollback cost is proportional to the mutations made
        inside the scope, never to the platform size.
        """
        return _Transaction(self)

    def in_transaction(self) -> bool:
        return self._journal is not None

    def savepoint(self) -> int:
        """A mark for partial rollback inside an open transaction."""
        if self._journal is None:
            raise AllocationError("savepoint() requires an open transaction")
        return len(self._journal)

    def rollback_to(self, mark: int) -> None:
        """Undo every mutation made since ``mark`` (newest first)."""
        journal = self._journal
        if journal is None:
            raise AllocationError("rollback_to() requires an open transaction")
        while len(journal) > mark:
            self._undo(journal.pop())
        # a later committed mutation will re-reach the epoch values this
        # rolled-back span used, so any cache entries stamped with an
        # uncommitted (greater) epoch must not survive — they observed
        # state that no longer exists.  Entries stamped at or before
        # the restored epoch observed exactly the restored state and
        # stay valid.
        cache = self._availability
        if cache is not None and cache._epoch > self._epoch:
            cache._epoch = -1

    def _tx_begin(self) -> int:
        if self._journal is None:
            self._journal = []
        self._tx_depth += 1
        return len(self._journal)

    def _tx_commit(self) -> None:
        self._tx_depth -= 1
        if self._tx_depth == 0:
            self._journal = None

    def _tx_rollback(self, mark: int) -> None:
        self.rollback_to(mark)
        self._tx_depth -= 1
        if self._tx_depth == 0:
            self._journal = None

    def _undo(self, entry: tuple) -> None:
        # Undo entries carry the exact pre-mutation values (old free
        # vector, old bandwidth per slot, old allocated total) and
        # restore them verbatim.  Inverting the arithmetic instead
        # ((x + b) - b) is not bit-exact for float quantities, and the
        # journal must leave a snapshot() equal to the pre-mutation one.
        op = entry[0]
        if op == _OP_OCCUPY:
            _op, element_id, key, old_free, old_allocated, agg = entry
            occupant = self._occupants[element_id].pop()
            self._free[element_id] = old_free
            del self._placements[key]
            self._wear[element_id] -= 1
            self._allocated_total = old_allocated
            self._agg_restore(element_id, agg)
            self._mirror_free(element_id, occupant.requirement._data)
        elif op == _OP_VACATE:
            (_op, element_id, key, occupant, index,
             old_free, old_allocated, agg) = entry
            self._occupants[element_id].insert(index, occupant)
            self._free[element_id] = old_free
            self._placements[key] = element_id
            self._allocated_total = old_allocated
            self._agg_restore(element_id, agg)
            self._mirror_free(element_id, occupant.requirement._data)
        elif op == _OP_RESERVE:
            _op, key, old_bws = entry
            self._reservations.pop(key)
            slots = self._res_slots.pop(key)
            vc_used, bw_used = self._vc_used, self._bw_used
            slot_vc = self.platform._slot_vc
            saturated = self._slot_saturated
            for position in range(len(slots) - 1, -1, -1):
                slot = slots[position]
                used = vc_used[slot]
                if used == slot_vc[slot]:
                    saturated[slot] = 0
                vc_used[slot] = used - 1
                bw_used[slot] = old_bws[position]
        elif op == _OP_RELEASE:
            _op, key, reservation, slots, old_bws = entry
            self._reservations[key] = reservation
            self._res_slots[key] = slots
            vc_used, bw_used = self._vc_used, self._bw_used
            slot_vc = self.platform._slot_vc
            saturated = self._slot_saturated
            for position in range(len(slots) - 1, -1, -1):
                slot = slots[position]
                used = vc_used[slot] + 1
                vc_used[slot] = used
                if used >= slot_vc[slot]:
                    saturated[slot] = 1
                bw_used[slot] = old_bws[position]
        elif op == _OP_FAIL_ELEMENT:
            _op, element_id, was_failed, agg = entry
            if not was_failed:
                self._failed_elements.discard(element_id)
                self._agg_restore(element_id, agg)
        elif op == _OP_HEAL_ELEMENT:
            _op, element_id, was_failed, agg = entry
            if was_failed:
                self._failed_elements.add(element_id)
                self._agg_restore(element_id, agg)
        elif op == _OP_FAIL_LINK:
            _op, link_id, was_failed = entry
            if not was_failed:
                self._failed_links.discard(link_id)
        elif op == _OP_HEAL_LINK:
            _op, link_id, was_failed = entry
            if was_failed:
                self._failed_links.add(link_id)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown journal op {op}")
        # every journaled mutation bumped the epoch by exactly one, so
        # undoing one entry rewinds it by exactly one — after a full
        # rollback the epoch (an int) matches its pre-transaction value
        # bit-exactly, and the negative-result memo stays sound
        self._epoch -= 1

    # -- capacity epochs and aggregate free counters -----------------------

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter (the fast path's cache key).

        Every committed mutation bumps it; rollback restores it along
        with the ledgers, so two observations with equal epochs are
        guaranteed to see identical allocation state.  It never
        decreases below a previously *committed* value — only a
        rollback can rewind it, and a rollback rewinds the state too.
        """
        return self._epoch

    def touch(self) -> None:
        """Bump the epoch without mutating any ledger.

        Epoch-keyed caches (the admission gate's negative-result memo,
        the sim service's per-request short-circuit) assume a decision
        is a pure function of (spec, state-at-epoch).  When something
        *outside* the ledgers that decisions depend on changes — the
        health registry shifting soft avoidance penalties is the one
        such input — the certificate must be revoked even though the
        ledgers are untouched.  Bumping the epoch does exactly that:
        "equal epochs certify identical state" stays true (the bump
        only makes identical states *look* distinct, costing cache
        hits, never soundness).

        Disallowed inside an open transaction: rollback accounting
        rewinds the epoch by exactly one per journal entry, and an
        unjournaled bump would break that bit-exact rewind.
        """
        if self._journal is not None:
            raise AllocationError("touch() is illegal inside a transaction")
        self._epoch += 1

    @property
    def availability(self) -> AvailabilityCache:
        """Epoch-cached implementation availability (see the class doc)."""
        if self._availability is None:
            self._availability = AvailabilityCache(self)
        return self._availability

    def aggregate_free(self) -> dict:
        """Total free per resource kind over non-failed elements (copy)."""
        return dict(self._agg_free)

    def aggregate_free_by_kind(self) -> dict:
        """Per-element-kind split of :meth:`aggregate_free` (copies)."""
        return {
            kind: dict(values)
            for kind, values in self._agg_free_kind.items()
        }

    def _agg_entries(self, element_id: int, vector: ResourceVector) -> tuple:
        """Pre-mutation aggregate values touched by ``vector`` (undo data)."""
        by_kind = self._agg_free_kind.setdefault(
            self._kind_by_id[element_id], {}
        )
        agg = self._agg_free
        return tuple(
            (resource, agg.get(resource, 0), by_kind.get(resource, 0))
            for resource in vector._data
        )

    def _agg_apply(
        self, element_id: int, vector: ResourceVector, sign: int
    ) -> None:
        by_kind = self._agg_free_kind.setdefault(
            self._kind_by_id[element_id], {}
        )
        agg = self._agg_free
        for resource, quantity in vector._data.items():
            delta = quantity if sign > 0 else -quantity
            agg[resource] = agg.get(resource, 0) + delta
            by_kind[resource] = by_kind.get(resource, 0) + delta

    def _agg_restore(self, element_id: int, entries: tuple) -> None:
        by_kind = self._agg_free_kind.setdefault(
            self._kind_by_id[element_id], {}
        )
        agg = self._agg_free
        for resource, total, per_kind in entries:
            agg[resource] = total
            by_kind[resource] = per_kind

    def _rebuild_free_arrays(self) -> None:
        arrays: dict = {}
        node_count = self.platform.node_count
        for element_id in self.platform.element_ids:
            for kind, quantity in self._free[element_id]._data.items():
                array = arrays.get(kind)
                if array is None:
                    array = arrays[kind] = [0] * node_count
                array[element_id] = quantity
        self._free_arrays = arrays

    def _mirror_free(self, element_id: int, kinds) -> None:
        """Copy the named components of ``_free[element_id]`` into the
        per-kind arrays (called after every free-vector update)."""
        data = self._free[element_id]._data
        arrays = self._free_arrays
        for kind in kinds:
            array = arrays.get(kind)
            if array is None:
                array = arrays[kind] = [0] * self.platform.node_count
            array[element_id] = data.get(kind, 0)

    def _recompute_aggregates(self) -> None:
        agg: dict = {}
        agg_kind: dict = {}
        failed = self._failed_elements
        for element_id in self.platform.element_ids:
            if element_id in failed:
                continue
            kind = self._kind_by_id[element_id]
            by_kind = agg_kind.get(kind)
            if by_kind is None:
                by_kind = agg_kind[kind] = {}
            for resource, quantity in self._free[element_id]._data.items():
                agg[resource] = agg.get(resource, 0) + quantity
                by_kind[resource] = by_kind.get(resource, 0) + quantity
        self._agg_free = agg
        self._agg_free_kind = agg_kind

    def _unapply_slots(self, slots: tuple[int, ...], bandwidth: float) -> None:
        vc_used, bw_used = self._vc_used, self._bw_used
        slot_vc = self.platform._slot_vc
        saturated = self._slot_saturated
        for slot in slots:
            used = vc_used[slot]
            if used == slot_vc[slot]:
                saturated[slot] = 0
            vc_used[slot] = used - 1
            bw_used[slot] -= bandwidth
            if vc_used[slot] == 0 and abs(bw_used[slot]) < _BW_EPSILON:
                bw_used[slot] = 0.0

    # -- element occupancy ------------------------------------------------

    def free(self, element: ProcessingElement | str) -> ResourceVector:
        """Remaining capacity of ``element`` (zero if failed)."""
        element_id = self._element_id(element)
        if element_id in self._failed_elements:
            return ResourceVector()
        return self._free[element_id]

    def is_available(
        self, element: ProcessingElement | str, requirement: ResourceVector
    ) -> bool:
        """The paper's ``av(e, t)``: can ``element`` still host ``requirement``?"""
        return requirement.fits_in(self.free(element))

    def occupy(
        self,
        element: ProcessingElement | str,
        app_id: str,
        task_id: str,
        requirement: ResourceVector,
    ) -> None:
        """Allocate ``requirement`` of ``element`` to a task."""
        element_id = self._element_id(element)
        if element_id in self._failed_elements:
            raise AllocationError(
                f"element {self.platform._nodes_by_id[element_id].name} "
                "is marked failed"
            )
        key = (app_id, task_id)
        if key in self._placements:
            raise AllocationError(f"task {task_id!r} of {app_id!r} already placed")
        old_free = self._free[element_id]
        try:
            self._free[element_id] = old_free - requirement
        except ResourceError as exc:
            name = self.platform._nodes_by_id[element_id].name
            raise AllocationError(
                f"element {name} cannot host {task_id!r}: {exc}"
            ) from exc
        self._occupants[element_id].append(Occupant(app_id, task_id, requirement))
        self._placements[key] = element_id
        self._wear[element_id] += 1
        old_allocated = self._allocated_total
        self._allocated_total = old_allocated + requirement.total()
        if self._journal is not None:
            self._journal.append(
                (_OP_OCCUPY, element_id, key, old_free, old_allocated,
                 self._agg_entries(element_id, requirement))
            )
        self._agg_apply(element_id, requirement, -1)
        self._mirror_free(element_id, requirement._data)
        self._epoch += 1

    def vacate(self, app_id: str, task_id: str) -> None:
        """Release the resources a task held."""
        key = (app_id, task_id)
        try:
            element_id = self._placements.pop(key)
        except KeyError:
            raise AllocationError(
                f"task {task_id!r} of {app_id!r} is not placed"
            ) from None
        occupants = self._occupants[element_id]
        for index, occupant in enumerate(occupants):
            if occupant.app_id == app_id and occupant.task_id == task_id:
                del occupants[index]
                old_free = self._free[element_id]
                self._free[element_id] = old_free + occupant.requirement
                old_allocated = self._allocated_total
                self._allocated_total = (
                    old_allocated - occupant.requirement.total()
                )
                # a failed element's free capacity is excluded from the
                # aggregates, so vacating a task stranded on one must
                # not add its share back
                failed = element_id in self._failed_elements
                if self._journal is not None:
                    self._journal.append(
                        (_OP_VACATE, element_id, key, occupant, index,
                         old_free, old_allocated,
                         () if failed else self._agg_entries(
                             element_id, occupant.requirement))
                    )
                if not failed:
                    self._agg_apply(element_id, occupant.requirement, 1)
                self._mirror_free(element_id, occupant.requirement._data)
                self._epoch += 1
                return
        raise AssertionError("placement table and occupant list disagree")

    def occupants(self, element: ProcessingElement | str) -> tuple[Occupant, ...]:
        return tuple(self._occupants[self._element_id(element)])

    def occupants_id(self, element_id: int) -> list[Occupant]:
        """Id-based occupant list (hot path; treat as read-only)."""
        return self._occupants[element_id]

    def element_of(self, app_id: str, task_id: str) -> str | None:
        """Element name hosting a task, or None when unplaced."""
        element_id = self._placements.get((app_id, task_id))
        if element_id is None:
            return None
        return self.platform._nodes_by_id[element_id].name

    def placements_of(self, app_id: str) -> dict[str, str]:
        """task_id -> element name for one application."""
        nodes = self.platform._nodes_by_id
        return {
            task: nodes[element_id].name
            for (app, task), element_id in self._placements.items()
            if app == app_id
        }

    def wear(self, element: ProcessingElement | str) -> int:
        """Total occupations this element ever served (never decreases)."""
        return self._wear[self._element_id(element)]

    def is_used(self, element: ProcessingElement | str) -> bool:
        """True when the element hosts at least one task."""
        return bool(self._occupants[self._element_id(element)])

    def used_elements(self) -> tuple[str, ...]:
        nodes = self.platform._nodes_by_id
        occupants = self._occupants
        return tuple(
            nodes[element_id].name
            for element_id in self.platform.element_ids
            if occupants[element_id]
        )

    def applications(self) -> tuple[str, ...]:
        """Identifiers of all applications with at least one placement."""
        return tuple(sorted({app for app, _task in self._placements}))

    # -- link ledger --------------------------------------------------------

    def vc_free(self, a: Node | str, b: Node | str) -> int:
        """Free virtual channels on the directed link a -> b."""
        slot = self.platform.directed_slot(self._node_id(a), self._node_id(b))
        if (slot >> 1) in self._failed_links:
            return 0
        return self.platform._slot_vc[slot] - self._vc_used[slot]

    def bandwidth_free(self, a: Node | str, b: Node | str) -> float:
        slot = self.platform.directed_slot(self._node_id(a), self._node_id(b))
        if (slot >> 1) in self._failed_links:
            return 0.0
        return self.platform._slot_bw[slot] - self._bw_used[slot]

    def can_traverse(self, a: Node | str, b: Node | str, bandwidth: float) -> bool:
        """Can one more channel with ``bandwidth`` cross link a -> b?"""
        slot = self.platform.directed_slot(self._node_id(a), self._node_id(b))
        return self.can_traverse_slot(slot, bandwidth)

    def can_traverse_slot(self, slot: int, bandwidth: float) -> bool:
        """Id-based :meth:`can_traverse` over a directed slot (hot path)."""
        platform = self.platform
        return (
            self._vc_used[slot] < platform._slot_vc[slot]
            and platform._slot_bw[slot] - self._bw_used[slot] >= bandwidth
            and (slot >> 1) not in self._failed_links
        )

    def reserve_route(
        self,
        app_id: str,
        channel_id: str,
        path: Iterable[Node | str],
        bandwidth: float,
    ) -> ChannelReservation:
        """Reserve one virtual channel + bandwidth along ``path``.

        ``path`` is a node sequence from the source element to the
        target element.  All-or-nothing: verified first, then applied.
        """
        ids = [self._node_id(node) for node in path]
        return self.reserve_route_ids(app_id, channel_id, ids, bandwidth)

    def reserve_route_ids(
        self,
        app_id: str,
        channel_id: str,
        id_path: list[int],
        bandwidth: float,
    ) -> ChannelReservation:
        """Id-based :meth:`reserve_route` (hot path for the routers)."""
        if len(id_path) < 2:
            names = [self.platform._nodes_by_id[i].name for i in id_path]
            raise AllocationError(f"route for {channel_id!r} has no hops: {names}")
        key = (app_id, channel_id)
        if key in self._reservations:
            raise AllocationError(f"channel {channel_id!r} already routed")
        directed = self.platform._directed_slots
        try:
            slots = tuple(
                directed[(a, b)] for a, b in zip(id_path, id_path[1:])
            )
        except KeyError:
            # re-resolve through the validating accessor for the
            # canonical TopologyError on a non-adjacent pair
            slots = tuple(
                self.platform.directed_slot(a, b)
                for a, b in zip(id_path, id_path[1:])
            )
        for slot in slots:
            if not self.can_traverse_slot(slot, bandwidth):
                link = self.platform.link_by_id(slot >> 1)
                a, b = (link.a, link.b) if slot % 2 == 0 else (link.b, link.a)
                raise AllocationError(
                    f"link {a.name}->{b.name} lacks capacity for "
                    f"channel {channel_id!r}"
                )
        vc_used, bw_used = self._vc_used, self._bw_used
        slot_vc = self.platform._slot_vc
        saturated = self._slot_saturated
        journal = self._journal
        old_bws = [] if journal is not None else None
        for slot in slots:
            used = vc_used[slot] + 1
            vc_used[slot] = used
            if used >= slot_vc[slot]:
                saturated[slot] = 1
            if old_bws is not None:
                old_bws.append(bw_used[slot])
            bw_used[slot] += bandwidth
        nodes = self.platform._nodes_by_id
        reservation = ChannelReservation(
            app_id, channel_id,
            tuple(nodes[i].name for i in id_path), bandwidth,
        )
        self._reservations[key] = reservation
        self._res_slots[key] = slots
        if journal is not None:
            journal.append((_OP_RESERVE, key, tuple(old_bws)))
        self._epoch += 1
        return reservation

    def release_route(self, app_id: str, channel_id: str) -> None:
        key = (app_id, channel_id)
        try:
            reservation = self._reservations.pop(key)
        except KeyError:
            raise AllocationError(f"channel {channel_id!r} is not routed") from None
        slots = self._res_slots.pop(key)
        journal = self._journal
        old_bws = (
            tuple(self._bw_used[slot] for slot in slots)
            if journal is not None else None
        )
        self._unapply_slots(slots, reservation.bandwidth)
        if journal is not None:
            journal.append((_OP_RELEASE, key, reservation, slots, old_bws))
        self._epoch += 1

    def reservation(self, app_id: str, channel_id: str) -> ChannelReservation | None:
        return self._reservations.get((app_id, channel_id))

    def reservations_of(self, app_id: str) -> tuple[ChannelReservation, ...]:
        return tuple(
            res for (app, _ch), res in self._reservations.items() if app == app_id
        )

    # -- whole-application release -----------------------------------------

    def release_application(self, app_id: str) -> None:
        """Vacate every task and route of ``app_id`` (idempotent)."""
        for task_id in list(self.placements_of(app_id)):
            self.vacate(app_id, task_id)
        for reservation in self.reservations_of(app_id):
            self.release_route(app_id, reservation.channel_id)

    # -- fault injection -----------------------------------------------------

    def fail_element(self, element: ProcessingElement | str) -> None:
        """Mark an element faulty: it stops offering resources.

        Resident tasks are *not* evicted automatically — re-allocation
        policy belongs to the manager layer (see
        :mod:`repro.arch.faults`).
        """
        element_id = self._element_id(element)
        was_failed = element_id in self._failed_elements
        agg = () if was_failed else self._agg_entries(
            element_id, self._free[element_id]
        )
        if self._journal is not None:
            self._journal.append(
                (_OP_FAIL_ELEMENT, element_id, was_failed, agg)
            )
        if not was_failed:
            self._agg_apply(element_id, self._free[element_id], -1)
        self._failed_elements.add(element_id)
        self._epoch += 1

    def heal_element(self, element: ProcessingElement | str) -> None:
        element_id = self._element_id(element)
        was_failed = element_id in self._failed_elements
        agg = self._agg_entries(
            element_id, self._free[element_id]
        ) if was_failed else ()
        if self._journal is not None:
            self._journal.append(
                (_OP_HEAL_ELEMENT, element_id, was_failed, agg)
            )
        if was_failed:
            self._agg_apply(element_id, self._free[element_id], 1)
        self._failed_elements.discard(element_id)
        self._epoch += 1

    def fail_link(self, a: Node | str, b: Node | str) -> None:
        slot = self.platform.directed_slot(  # validates link existence
            self._node_id(a), self._node_id(b)
        )
        link_id = slot >> 1
        if self._journal is not None:
            self._journal.append(
                (_OP_FAIL_LINK, link_id, link_id in self._failed_links)
            )
        self._failed_links.add(link_id)
        self._epoch += 1

    def heal_link(self, a: Node | str, b: Node | str) -> None:
        pair = (self._node_id(a), self._node_id(b))
        slot = self.platform._directed_slots.get(pair)
        if slot is None:
            return  # unknown links were never failed; healing is a no-op
        link_id = slot >> 1
        if self._journal is not None:
            self._journal.append(
                (_OP_HEAL_LINK, link_id, link_id in self._failed_links)
            )
        self._failed_links.discard(link_id)
        self._epoch += 1

    def is_failed(self, element: ProcessingElement | str) -> bool:
        return self._element_id(element) in self._failed_elements

    @property
    def failed_elements(self) -> frozenset[str]:
        nodes = self.platform._nodes_by_id
        return frozenset(
            nodes[element_id].name for element_id in self._failed_elements
        )

    @property
    def failed_links(self) -> frozenset[frozenset[str]]:
        """Endpoint-name pairs of links currently marked failed."""
        links = self.platform._links_by_id
        return frozenset(links[link_id].key() for link_id in self._failed_links)

    # -- metrics ---------------------------------------------------------------

    def external_fragmentation(self) -> float:
        """Paper Section III-A's external resource fragmentation, in percent.

        The percentage of adjacent element pairs of which exactly one
        element is used, over all adjacent element pairs.
        """
        pairs = self.platform.element_pair_ids
        if not pairs:
            return 0.0
        occupants = self._occupants
        mixed = sum(
            1 for a, b in pairs if bool(occupants[a]) != bool(occupants[b])
        )
        return 100.0 * mixed / len(pairs)

    def utilization(self) -> float:
        """Fraction of total platform capacity currently allocated.

        O(1): the totals are maintained incrementally by occupy/vacate
        rather than re-summed over every element per call.
        """
        if not self._total_capacity:
            return 0.0
        return self._allocated_total / self._total_capacity

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """A comparable copy of the mutable ledgers: two snapshots are
        equal iff the states are bit-identical.  O(platform size)."""
        platform = self.platform
        nodes = platform._nodes_by_id
        links = platform._links_by_id
        vc_used: dict[tuple[str, str], int] = {}
        bw_used: dict[tuple[str, str], float] = {}
        for slot, used in enumerate(self._vc_used):
            bw = self._bw_used[slot]
            if not used and abs(bw) < _BW_EPSILON:
                continue
            link = links[slot >> 1]
            pair = (
                (link.a.name, link.b.name) if slot % 2 == 0
                else (link.b.name, link.a.name)
            )
            if used:
                vc_used[pair] = used
            if abs(bw) >= _BW_EPSILON:
                bw_used[pair] = bw
        return {
            "free": {
                nodes[element_id].name: self._free[element_id]
                for element_id in platform.element_ids
            },
            "occupants": {
                nodes[element_id].name: list(self._occupants[element_id])
                for element_id in platform.element_ids
            },
            "vc_used": vc_used,
            "bw_used": bw_used,
            "reservations": dict(self._reservations),
            "placements": {
                key: nodes[element_id].name
                for key, element_id in self._placements.items()
            },
            "wear": {
                nodes[element_id].name: self._wear[element_id]
                for element_id in platform.element_ids
            },
            "failed_elements": set(self.failed_elements),
            "failed_links": set(self.failed_links),
            # the incremental total, epoch and aggregates verbatim, so
            # equality also certifies the journal restored them exactly
            "allocated_total": self._allocated_total,
            "epoch": self._epoch,
            "agg_free": dict(self._agg_free),
            "agg_free_kind": {
                kind: dict(values)
                for kind, values in self._agg_free_kind.items()
            },
        }

    # -- helpers ------------------------------------------------------------

    def _element_id(self, element: ProcessingElement | str) -> int:
        name = element if isinstance(element, str) else element.name
        element_id = self.platform._node_ids.get(name)
        if element_id is None or not self.platform._is_element_mask[element_id]:
            raise TopologyError(f"unknown element {name!r}")
        return element_id

    def _node_id(self, node: Node | str) -> int:
        name = node if isinstance(node, str) else node.name
        node_id = self.platform._node_ids.get(name)
        if node_id is None:
            raise TopologyError(f"unknown node {name!r}")
        return node_id

    def __repr__(self) -> str:
        return (
            f"<AllocationState on {self.platform.name}: "
            f"{len(self.used_elements())}/{len(self.platform.elements)} "
            f"elements used, {len(self._reservations)} routes>"
        )
