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

The state also maintains a **capacity epoch** for the admission fast
path (see :mod:`repro.manager.kairos`): a monotonic mutation counter
(:attr:`epoch`) bumped by every committed mutation.  Every journal
entry moves it by exactly one, so a rolled-back attempt restores it
bit-exactly; equal epochs therefore certify identical allocation
state, which is what makes negative-result memoization sound.

Availability questions (:class:`AvailabilityCache`) are answered from
a **capacity index**: per element class, the non-failed elements
grouped by current free vector, each group split by the elements'
busy-neighbour counts.  The sites that journal occupy/vacate/fail/heal
adjust it and their undo entries adjust it back, so a query visits the
distinct free vectors of a class rather than its elements.
:meth:`check_invariants` rebuilds it from the ledgers.

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

from bisect import bisect_left, insort
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


class _Bucket:
    """The non-failed elements of one element class whose free vector
    is currently ``vector`` (``key`` is its components as a frozenset,
    which hashes in C and caches its hash).

    ``scores`` holds their name ranks in name order, split by the
    elements' anchor score — busy neighbours and missing connectivity,
    the only per-element inputs of the stock mapping cost with an empty
    placement, packed as ``busy * stride + missing`` (see
    :attr:`AllocationState._score`).
    """

    __slots__ = ("key", "vector", "data", "scores")

    def __init__(self, key: frozenset, vector: ResourceVector) -> None:
        self.key = key
        self.vector = vector
        self.data = vector._data
        self.scores: dict[int, list[int]] = {}

    def first_rank(self) -> int:
        """Least name rank in the bucket."""
        return min([ranks[0] for ranks in self.scores.values()])

    def view(self) -> tuple:
        return (self.vector, self.scores)


def _bottleneck(requirement: tuple, data: dict) -> float:
    """``requirement.bottleneck(free)`` when it fits ``free``'s
    components ``data``, else -1.0 — the comparisons and divisions of
    ``ResourceVector.fits_in`` / ``.bottleneck``, fused."""
    worst = 0.0
    for kind, quantity in requirement:
        have = data.get(kind)
        if have is None or quantity > have:
            return -1.0
        ratio = quantity / have
        if ratio > worst:
            worst = ratio
    return worst


def _add_entry(table: dict, key: tuple[str, str], value) -> None:
    """File ``value`` under ``table[app_id][item]`` for ``key = (app_id,
    item)``, appended last like the ledger insert it mirrors."""
    app_id, item = key
    entries = table.get(app_id)
    if entries is None:
        entries = table[app_id] = {}
    entries[item] = value


def _drop_entry(table: dict, key: tuple[str, str]) -> None:
    """Undo :func:`_add_entry`; an application left empty is dropped."""
    app_id, item = key
    entries = table[app_id]
    del entries[item]
    if not entries:
        del table[app_id]


class AvailabilityCache:
    """Which elements can host an implementation right now.

    The mapping phase's anchor detection needs "exactly one, and
    which", the binder's pristine round the best fit — ``(element,
    slack)`` with minimal leftover on the bottleneck resource,
    name-tie-broken — and the stock anchor rule the cheapest element.
    Every answer is a query over the state's capacity index: per
    element class, the elements grouped by current free vector.  A
    query tests each *distinct free vector* of the implementation's
    static-host classes once, so its cost follows the number of
    distinct vectors, not the number of elements.

    ``summary(impl)`` returns ``(count, sole)`` where ``count`` is
    0, 1 or 2 (2 meaning *two or more*) and ``sole`` is the available
    element when count is 1 (None otherwise);
    ``best_fit(impl)`` returns ``(element, slack)``.  Both come from
    one pass, kept per implementation shape until the epoch moves
    (within one epoch the binder and the anchors ask about the same
    shapes).
    """

    __slots__ = ("_state", "_epoch", "_summaries")

    def __init__(self, state: "AllocationState") -> None:
        self._state = state
        self._epoch = -1
        #: impl.shape -> (count, sole, best, best_slack)
        self._summaries: dict[tuple, tuple] = {}

    def summary(self, impl) -> tuple[int, ProcessingElement | None]:
        entry = self._entry(impl)
        return entry[0], entry[1]

    def best_fit(self, impl) -> tuple[ProcessingElement | None, float]:
        entry = self._entry(impl)
        return entry[2], entry[3]

    def available(self, impl) -> tuple:
        """All currently available elements, in no particular order."""
        platform = self._state.platform
        nodes, ids_by_name = platform._nodes_by_id, platform._ids_by_name
        return tuple(
            nodes[ids_by_name[rank]]
            for _worst, bucket in self.fitting(impl)
            for ranks in bucket.scores.values()
            for rank in ranks
        )

    def cheapest(self, impl, cost_of) -> ProcessingElement | None:
        """The available element of least ``(cost_of(busy, missing),
        name)``, where ``busy`` counts its neighbours hosting tasks and
        ``missing`` is ``max_connectivity`` minus its connectivity."""
        stride = self._state._stride
        values: dict = {}
        best = None
        for _worst, bucket in self.fitting(impl):
            for score, ranks in bucket.scores.items():
                value = values.get(score)
                if value is None:
                    value = values[score] = cost_of(*divmod(score, stride))
                candidate = (value, ranks[0])
                if best is None or candidate < best:
                    best = candidate
        if best is None:
            return None
        platform = self._state.platform
        return platform._nodes_by_id[platform._ids_by_name[best[1]]]

    def fitting(self, impl):
        """``(worst, bucket)`` for every bucket of ``impl``'s static
        hosts whose free vector can host it; ``worst`` is the bottleneck
        ratio, so ``1.0 - worst`` is the best-fit slack."""
        state = self._state
        hosts = state.platform.static_hosts(impl)
        requirement = tuple(impl.requirement._data.items())
        if hosts.classes is None:
            # a pin inside a larger class: its element on its own
            buckets = [
                state._single_bucket(element_id)
                for element_id, _element in hosts.nodes
                if state._bucket_of[element_id] is not None
            ]
        elif len(hosts.classes) == 1:
            buckets = state._index[hosts.classes[0]].values()
        else:
            index = state._index
            buckets = [
                bucket for c in hosts.classes for bucket in index[c].values()
            ]
        for bucket in buckets:
            worst = _bottleneck(requirement, bucket.data)
            if worst >= 0.0:
                yield worst, bucket

    def _entry(self, impl) -> tuple:
        epoch = self._state._epoch
        if self._epoch != epoch:
            self._summaries.clear()
            self._epoch = epoch
        entry = self._summaries.get(impl.shape)
        if entry is None:
            entry = self._summaries[impl.shape] = self._scan(impl)
        return entry

    def _scan(self, impl) -> tuple:
        count = 0
        best_rank = None
        best_slack = float("inf")
        for worst, bucket in self.fitting(impl):
            if count < 2:
                count += sum(map(len, bucket.scores.values()))
            slack = 1.0 - worst
            if slack <= best_slack:
                rank = bucket.first_rank()
                if slack < best_slack or rank < best_rank:
                    best_rank = rank
                    best_slack = slack
        platform = self._state.platform
        best = (
            None if best_rank is None
            else platform._nodes_by_id[platform._ids_by_name[best_rank]]
        )
        # with one element available, it is also the best fit
        return min(count, 2), best if count == 1 else None, best, best_slack


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
        #: per application id: task id -> element id, and channel id ->
        #: reservation — the application's keys of ``_placements`` and
        #: ``_reservations`` in the same relative order (maintained at
        #: the same sites and undone by the same journal entries), so
        #: per-application reads never scan the whole ledgers
        self._app_tasks: dict[str, dict[str, int]] = {}
        self._app_routes: dict[str, dict[str, ChannelReservation]] = {}
        # the capacity index (see "the capacity index" below): static
        # per-element tables first, then the live parts
        self._class_of = platform._class_of_id
        self._neighbors = platform._element_neighbor_table
        self._rank = platform._name_rank
        self._stride = platform.max_connectivity + 1
        self._score, self._index, self._bucket_of = self._build_index()
        # transaction journal: None when no transaction is open; the
        # epoch the outermost transaction began at
        self._journal: list[tuple] | None = None
        self._tx_depth = 0
        self._tx_epoch = 0
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
        # rolled-back span used, so cached summaries stamped with an
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
            self._tx_epoch = self._epoch
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
            _op, element_id, key, old_free, old_allocated = entry
            occupants = self._occupants[element_id]
            occupants.pop()
            self._free[element_id] = old_free
            del self._placements[key]
            _drop_entry(self._app_tasks, key)
            self._wear[element_id] -= 1
            self._allocated_total = old_allocated
            self._refile(element_id)
            if not occupants:
                self._flip_busy(element_id, -1)
        elif op == _OP_VACATE:
            (_op, element_id, key, occupant, index,
             old_free, old_allocated) = entry
            occupants = self._occupants[element_id]
            occupants.insert(index, occupant)
            self._free[element_id] = old_free
            self._placements[key] = element_id
            _add_entry(self._app_tasks, key, element_id)
            self._allocated_total = old_allocated
            if self._bucket_of[element_id] is not None:
                self._refile(element_id)
            if len(occupants) == 1:
                self._flip_busy(element_id, 1)
        elif op == _OP_RESERVE:
            _op, key, old_bws = entry
            self._reservations.pop(key)
            _drop_entry(self._app_routes, key)
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
            _add_entry(self._app_routes, key, reservation)
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
            _op, element_id, was_failed = entry
            if not was_failed:
                self._failed_elements.discard(element_id)
                self._file(element_id)
        elif op == _OP_HEAL_ELEMENT:
            _op, element_id, was_failed = entry
            if was_failed:
                self._failed_elements.add(element_id)
                self._unfile(element_id)
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

    # -- capacity epochs ---------------------------------------------------

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

        Epoch-keyed caches (the manager's negative-result memo)
        assume a decision is a pure function of (spec, state-at-epoch).
        When something *outside* the ledgers that decisions depend on
        changes — the health registry shifting soft avoidance penalties
        is the one such input — the certificate must be revoked even
        though the ledgers are untouched.  Bumping the epoch does exactly that:
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

    # -- the capacity index -------------------------------------------------
    #
    # Per element class, the non-failed elements grouped by current free
    # vector (``_index[class][key]`` is a :class:`_Bucket`), plus two
    # per-element arrays: ``_score``, the anchor score ``busy * _stride
    # + missing`` — ``busy`` neighbours hosting tasks (kept for failed
    # elements too), ``missing`` = ``max_connectivity`` minus the
    # element's connectivity — and ``_bucket_of``, the bucket it is
    # filed in (None while failed).  Every site that changes a free
    # vector, an occupant list's emptiness or a failure flag — occupy /
    # vacate / fail / heal and their undos — refiles the element or
    # rescores its neighbours, so the index never needs a rebuild;
    # :meth:`check_invariants` compares it with one.

    def _build_index(self) -> tuple[list, list, list]:
        platform, neighbors = self.platform, self._neighbors
        max_connectivity, stride = platform.max_connectivity, self._stride
        score = [
            (max_connectivity - len(ids)) if flag else 0
            for ids, flag in zip(neighbors, platform._is_element_mask)
        ]
        for element_id in platform.element_ids:
            if self._occupants[element_id]:
                for neighbor_id in neighbors[element_id]:
                    score[neighbor_id] += stride
        index: list[dict] = [{} for _ in platform.element_classes]
        bucket_of: list = [None] * platform.node_count
        for element_id in platform.element_ids:
            if element_id in self._failed_elements:
                continue
            vector = self._free[element_id]
            key = frozenset(vector._data.items())
            buckets = index[self._class_of[element_id]]
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = _Bucket(key, vector)
            bucket.scores.setdefault(score[element_id], []).append(
                self._rank[element_id]
            )
            bucket_of[element_id] = bucket
        for buckets in index:
            for bucket in buckets.values():
                for ranks in bucket.scores.values():
                    ranks.sort()
        return score, index, bucket_of

    def _file(self, element_id: int) -> None:
        """Add a non-failed element to the bucket of its free vector."""
        vector = self._free[element_id]
        key = frozenset(vector._data.items())
        buckets = self._index[self._class_of[element_id]]
        bucket = buckets.get(key)
        score = self._score[element_id]
        rank = self._rank[element_id]
        if bucket is None:
            bucket = buckets[key] = _Bucket(key, vector)
        ranks = bucket.scores.get(score)
        if ranks is None:
            bucket.scores[score] = [rank]
        else:
            insort(ranks, rank)
        self._bucket_of[element_id] = bucket

    def _unfile(self, element_id: int) -> None:
        """Remove an element from its bucket (it failed, or its free
        vector changed and :meth:`_file` follows)."""
        bucket = self._bucket_of[element_id]
        self._bucket_of[element_id] = None
        scores = bucket.scores
        score = self._score[element_id]
        ranks = scores[score]
        if len(ranks) > 1:
            del ranks[bisect_left(ranks, self._rank[element_id])]
        elif len(scores) > 1:
            del scores[score]
        else:
            del self._index[self._class_of[element_id]][bucket.key]

    def _refile(self, element_id: int) -> None:
        """Move a filed element to the bucket of its new free vector."""
        self._unfile(element_id)
        self._file(element_id)

    def _flip_busy(self, element_id: int, delta: int) -> None:
        """``element_id`` started (+1) or stopped (-1) hosting tasks:
        each neighbour's busy count, and its score, moves by ``delta``."""
        score, bucket_of, rank_of = self._score, self._bucket_of, self._rank
        step = delta * self._stride
        for neighbor_id in self._neighbors[element_id]:
            old = score[neighbor_id]
            new = score[neighbor_id] = old + step
            bucket = bucket_of[neighbor_id]
            if bucket is None:
                continue
            scores = bucket.scores
            rank = rank_of[neighbor_id]
            ranks = scores[old]
            if len(ranks) == 1:
                del scores[old]
            else:
                del ranks[bisect_left(ranks, rank)]
            ranks = scores.get(new)
            if ranks is None:
                scores[new] = [rank]
            else:
                insort(ranks, rank)

    def _single_bucket(self, element_id: int) -> _Bucket:
        """A detached one-element bucket (for a pin inside a class)."""
        vector = self._free[element_id]
        bucket = _Bucket(frozenset(vector._data.items()), vector)
        bucket.scores[self._score[element_id]] = [self._rank[element_id]]
        return bucket

    def has_placements(self, app_id: str) -> bool:
        """True when any task of ``app_id`` occupies an element."""
        return app_id in self._app_tasks

    def check_invariants(self) -> None:
        """Recompute every derived structure from the raw ledgers (free
        vectors, occupant lists, placements, failure flags, journal)
        and raise AssertionError where the incrementally maintained
        copy differs: the capacity index, busy-neighbour counts,
        bucket links, per-app task counts, the allocated total and the
        epoch.  O(platform); for tests."""

        def check(ok: bool, what: str) -> None:
            if not ok:
                raise AssertionError(f"AllocationState invariant: {what}")

        def close(a, b) -> bool:
            # exact for integer quantities; float sums may differ by
            # the rounding of their summation order
            return a == b or abs(a - b) <= 1e-9 * (1.0 + abs(b))

        score, index, bucket_of = self._build_index()
        check(score == self._score, "busy-neighbour counts")
        check(
            [{k: b.view() for k, b in buckets.items()} for buckets in index]
            == [{k: b.view() for k, b in buckets.items()}
                for buckets in self._index],
            "capacity index buckets",
        )
        for element_id in self.platform.element_ids:
            bucket = self._bucket_of[element_id]
            if bucket_of[element_id] is None:
                check(bucket is None, "failed element filed")
            else:
                check(
                    bucket is self._index[self._class_of[element_id]].get(
                        frozenset(self._free[element_id]._data.items())
                    ) and bucket.vector == self._free[element_id],
                    "bucket link",
                )
            check(
                self._wear[element_id] >= len(self._occupants[element_id]),
                "wear below occupancy",
            )
        for table, ledger, what in (
            (self._app_tasks, self._placements, "per-application tasks"),
            (self._app_routes, self._reservations, "per-application routes"),
        ):
            rebuilt: dict[str, dict] = {}
            for key, value in ledger.items():
                _add_entry(rebuilt, key, value)
            # list the items: dict equality ignores the order that the
            # vacate / release sequence of release_application follows
            check(
                {app: list(items.items()) for app, items in rebuilt.items()}
                == {app: list(items.items()) for app, items in table.items()},
                what,
            )
        check(
            sum(map(len, filter(None, self._occupants)))
            == len(self._placements),
            "occupants vs placements",
        )
        allocated = sum(
            occupant.requirement.total()
            for occupants in self._occupants if occupants
            for occupant in occupants
        )
        check(close(self._allocated_total, allocated), "allocated total")
        if self._journal is not None:
            # every journaled mutation moved the epoch by exactly one
            check(
                self._epoch == self._tx_epoch + len(self._journal),
                "epoch vs journal depth",
            )
        # each placement came from an occupy, each occupation that has
        # ended from a vacate, each route and fault from at least one op
        occupations = sum(self._wear)
        check(
            self._epoch >= 2 * occupations - len(self._placements)
            + len(self._reservations) + len(self._failed_elements)
            + len(self._failed_links),
            "epoch below the mutations the ledgers record",
        )

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
        occupants = self._occupants[element_id]
        occupants.append(Occupant(app_id, task_id, requirement))
        self._placements[key] = element_id
        _add_entry(self._app_tasks, key, element_id)
        self._wear[element_id] += 1
        old_allocated = self._allocated_total
        self._allocated_total = old_allocated + requirement.total()
        if self._journal is not None:
            self._journal.append(
                (_OP_OCCUPY, element_id, key, old_free, old_allocated)
            )
        self._refile(element_id)
        if len(occupants) == 1:
            self._flip_busy(element_id, 1)
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
                if self._journal is not None:
                    self._journal.append(
                        (_OP_VACATE, element_id, key, occupant, index,
                         old_free, old_allocated)
                    )
                # a failed element is not filed in the capacity index
                if self._bucket_of[element_id] is not None:
                    self._refile(element_id)
                _drop_entry(self._app_tasks, key)
                if not occupants:
                    self._flip_busy(element_id, -1)
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
            for task, element_id in self._app_tasks.get(app_id, {}).items()
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
        return tuple(sorted(self._app_tasks))

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
        directed_slot = self.platform.directed_slot
        slots = tuple(
            directed_slot(a, b) for a, b in zip(id_path, id_path[1:])
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
        _add_entry(self._app_routes, key, reservation)
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
        _drop_entry(self._app_routes, key)
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
        return tuple(self._app_routes.get(app_id, {}).values())

    # -- whole-application release -----------------------------------------

    def release_application(self, app_id: str) -> None:
        """Vacate every task and route of ``app_id`` (idempotent).

        Costs O(the application's tasks and routes), not O(ledgers).
        """
        for task_id in list(self._app_tasks.get(app_id, ())):
            self.vacate(app_id, task_id)
        for channel_id in list(self._app_routes.get(app_id, ())):
            self.release_route(app_id, channel_id)

    # -- fault injection -----------------------------------------------------

    def fail_element(self, element: ProcessingElement | str) -> None:
        """Mark an element faulty: it stops offering resources.

        Resident tasks are *not* evicted automatically — re-allocation
        policy belongs to the manager layer (see
        :mod:`repro.arch.faults`).
        """
        element_id = self._element_id(element)
        was_failed = element_id in self._failed_elements
        if self._journal is not None:
            self._journal.append((_OP_FAIL_ELEMENT, element_id, was_failed))
        if not was_failed:
            self._unfile(element_id)
        self._failed_elements.add(element_id)
        self._epoch += 1

    def heal_element(self, element: ProcessingElement | str) -> None:
        element_id = self._element_id(element)
        was_failed = element_id in self._failed_elements
        if self._journal is not None:
            self._journal.append((_OP_HEAL_ELEMENT, element_id, was_failed))
        self._failed_elements.discard(element_id)
        if was_failed:
            self._file(element_id)
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
        id_a, id_b = self._node_id(a), self._node_id(b)
        try:
            slot = self.platform.directed_slot(id_a, id_b)
        except TopologyError:
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
            # the incremental total and epoch verbatim, so equality
            # also certifies the journal restored them exactly
            "allocated_total": self._allocated_total,
            "epoch": self._epoch,
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
