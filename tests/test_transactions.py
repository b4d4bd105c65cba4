"""Property-style tests of the transaction journal.

The central invariant: for ANY interleaving of occupy / vacate /
reserve / release / fault-inject / heal operations, wrapping the batch
in ``state.transaction()`` and aborting restores exactly the state the
legacy ``snapshot()``/``restore()`` pair restores — and committing it
leaves exactly the state plain application leaves.
"""

from __future__ import annotations

import random

import pytest

from repro.arch import (
    AllocationError,
    AllocationState,
    ResourceVector,
    mesh,
)

REQ = ResourceVector(cycles=20, memory=4)


class _Abort(Exception):
    """Sentinel raised to trigger a transaction rollback."""


def _random_ops(rng: random.Random, state: AllocationState, count: int) -> list:
    """Generate ``count`` applicable operations by trial against ``state``.

    The returned descriptors replay deterministically on any state
    that has seen the same history.
    """
    platform = state.platform
    elements = [e.name for e in platform.elements]
    links = [(link.a.name, link.b.name) for link in platform.links]
    ops: list[tuple] = []
    placed: list[tuple[str, str]] = []
    routed: list[tuple[str, str]] = []
    serial = 0
    while len(ops) < count:
        choice = rng.random()
        if choice < 0.35:
            element = rng.choice(elements)
            task = f"t{serial}"
            serial += 1
            try:
                state.occupy(element, "app", task, REQ)
            except AllocationError:
                continue
            placed.append(("app", task))
            ops.append(("occupy", element, "app", task))
        elif choice < 0.5 and placed:
            app, task = placed.pop(rng.randrange(len(placed)))
            state.vacate(app, task)
            ops.append(("vacate", app, task))
        elif choice < 0.65:
            a, b = rng.choice(links)
            element = rng.choice(elements)
            channel = f"c{serial}"
            serial += 1
            path = [a, b]
            try:
                state.reserve_route("app", channel, path, 5.0)
            except AllocationError:
                continue
            routed.append(("app", channel))
            ops.append(("reserve", "app", channel, tuple(path)))
        elif choice < 0.75 and routed:
            app, channel = routed.pop(rng.randrange(len(routed)))
            state.release_route(app, channel)
            ops.append(("release", app, channel))
        elif choice < 0.85:
            element = rng.choice(elements)
            if rng.random() < 0.5:
                state.fail_element(element)
                ops.append(("fail_element", element))
            else:
                state.heal_element(element)
                ops.append(("heal_element", element))
        else:
            a, b = rng.choice(links)
            if rng.random() < 0.5:
                state.fail_link(a, b)
                ops.append(("fail_link", a, b))
            else:
                state.heal_link(a, b)
                ops.append(("heal_link", a, b))
    return ops


def _apply(state: AllocationState, op: tuple) -> None:
    kind = op[0]
    if kind == "occupy":
        state.occupy(op[1], op[2], op[3], REQ)
    elif kind == "vacate":
        state.vacate(op[1], op[2])
    elif kind == "reserve":
        state.reserve_route(op[1], op[2], list(op[3]), 5.0)
    elif kind == "release":
        state.release_route(op[1], op[2])
    elif kind == "fail_element":
        state.fail_element(op[1])
    elif kind == "heal_element":
        state.heal_element(op[1])
    elif kind == "fail_link":
        state.fail_link(op[1], op[2])
    elif kind == "heal_link":
        state.heal_link(op[1], op[2])
    else:  # pragma: no cover - test bug
        raise AssertionError(f"unknown op {op}")


@pytest.mark.parametrize("seed", range(12))
def test_abort_equals_snapshot_restore(seed):
    """Rolled-back transaction == the pre-batch snapshot, any interleaving."""
    rng = random.Random(seed)
    scratch = AllocationState(mesh(3, 3))
    prefix = _random_ops(rng, scratch, 6)     # non-empty starting state
    batch = _random_ops(rng, scratch, 10)     # the aborted batch

    state = AllocationState(mesh(3, 3))
    for op in prefix:
        _apply(state, op)
    snapshot = state.snapshot()

    with pytest.raises(_Abort):
        with state.transaction():
            for op in batch:
                _apply(state, op)
            raise _Abort()

    assert state.snapshot() == snapshot
    state.check_invariants()


@pytest.mark.parametrize("seed", range(6))
def test_commit_equals_plain_application(seed):
    """A committed transaction leaves exactly the plainly-applied state."""
    rng = random.Random(1000 + seed)
    scratch = AllocationState(mesh(3, 3))
    ops = _random_ops(rng, scratch, 12)

    state_tx = AllocationState(mesh(3, 3))
    with state_tx.transaction():
        for op in ops:
            _apply(state_tx, op)

    state_plain = AllocationState(mesh(3, 3))
    for op in ops:
        _apply(state_plain, op)

    assert state_tx.snapshot() == state_plain.snapshot()
    assert not state_tx.in_transaction()


def test_mid_transaction_exception_rolls_back_completely():
    state = AllocationState(mesh(3, 3))
    state.occupy("dsp_0_0", "resident", "t0", REQ)
    baseline = state.snapshot()
    with pytest.raises(AllocationError):
        with state.transaction():
            state.occupy("dsp_0_1", "app", "t1", REQ)
            state.reserve_route(
                "app", "c0", ["dsp_0_1", "r_0_1", "r_0_0", "dsp_0_0"], 5.0
            )
            state.fail_element("dsp_2_2")
            # blows up: dsp_0_0 cannot host another near-full task
            state.occupy("dsp_0_0", "app", "t2", ResourceVector(cycles=99))
    assert state.snapshot() == baseline
    assert state.utilization() == pytest.approx(REQ.total() / (9 * 132))


def test_nested_transaction_rolls_back_inner_only():
    state = AllocationState(mesh(3, 3))
    with state.transaction():
        state.occupy("dsp_0_0", "app", "outer", REQ)
        with pytest.raises(_Abort):
            with state.transaction():
                state.occupy("dsp_0_1", "app", "inner", REQ)
                raise _Abort()
        assert state.element_of("app", "inner") is None
        assert state.element_of("app", "outer") == "dsp_0_0"
    assert state.element_of("app", "outer") == "dsp_0_0"


def test_savepoint_partial_rollback():
    state = AllocationState(mesh(3, 3))
    with state.transaction():
        state.occupy("dsp_0_0", "app", "kept", REQ)
        mark = state.savepoint()
        state.occupy("dsp_0_1", "app", "undone", REQ)
        state.fail_element("dsp_2_2")
        state.rollback_to(mark)
        assert state.element_of("app", "undone") is None
        assert not state.is_failed("dsp_2_2")
    assert state.element_of("app", "kept") == "dsp_0_0"


def test_savepoint_requires_open_transaction():
    state = AllocationState(mesh(3, 3))
    with pytest.raises(AllocationError):
        state.savepoint()
    with pytest.raises(AllocationError):
        state.rollback_to(0)


def test_wear_rolls_back_with_the_transaction():
    """Wear survives releases but an aborted attempt never happened."""
    state = AllocationState(mesh(3, 3))
    state.occupy("dsp_0_0", "app", "t0", REQ)
    state.vacate("app", "t0")
    assert state.wear("dsp_0_0") == 1
    with pytest.raises(_Abort):
        with state.transaction():
            state.occupy("dsp_0_0", "app", "t1", REQ)
            assert state.wear("dsp_0_0") == 2
            raise _Abort()
    assert state.wear("dsp_0_0") == 1


def test_float_bandwidth_rollback_is_bit_exact():
    """Undo restores the exact pre-mutation ledger values: inverting
    the arithmetic ((1.1 + 2.2) - 2.2 != 1.1) would leave float drift
    that the pre-mutation snapshot does not carry."""
    path = ["dsp_0_0", "r_0_0", "r_0_1", "dsp_0_1"]
    state = AllocationState(mesh(3, 3))
    state.reserve_route("resident", "base", path, 1.1)
    baseline = state.snapshot()
    with pytest.raises(_Abort):
        with state.transaction():
            state.reserve_route("app", "drift", path, 2.2)
            raise _Abort()
    assert state.snapshot() == baseline
    # exact equality, not approx: the ledger must be bit-identical
    assert state.bandwidth_free("r_0_0", "r_0_1") == 100.0 - 1.1


def test_utilization_is_maintained_incrementally():
    state = AllocationState(mesh(3, 3))
    element = state.platform.element("dsp_0_0")
    assert state.utilization() == 0.0
    state.occupy(element, "app", "t", element.capacity)
    assert state.utilization() == pytest.approx(1 / 9)
    with pytest.raises(_Abort):
        with state.transaction():
            other = state.platform.element("dsp_1_1")
            state.occupy(other, "app", "t2", other.capacity)
            assert state.utilization() == pytest.approx(2 / 9)
            raise _Abort()
    assert state.utilization() == pytest.approx(1 / 9)
    state.vacate("app", "t")
    assert state.utilization() == 0.0


class TestNestedTransactionCaches:
    """AvailabilityCache + capacity-epoch rewind under *nested*
    transactions with interleaved savepoint/rollback_to — the edge
    cases the fast-path tests only assert for flat transactions."""

    def _impl(self, cycles=60):
        from repro.apps import dsp_implementation

        return dsp_implementation(f"i{cycles}", cycles=cycles)

    def _assert_cache_matches_scan(self, state, impl):
        cached = sorted(e.name for e in state.availability.available(impl))
        brute = sorted(
            e.name
            for e in state.platform.elements
            if not state.is_failed(e)
            and impl.requirement.fits_in(state.free(e))
            and impl.runs_on(e)
        )
        assert cached == brute

    def test_epoch_rewind_through_nested_scopes(self):
        state = AllocationState(mesh(3, 3))
        impl = self._impl()
        outer_epoch = state.epoch

        class Boom(RuntimeError):
            pass

        with state.transaction():
            state.occupy("dsp_0_0", "a", "t0", ResourceVector(cycles=50))
            mid_epoch = state.epoch
            assert mid_epoch == outer_epoch + 1
            mark = state.savepoint()
            state.occupy("dsp_0_1", "a", "t1", ResourceVector(cycles=50))
            self._assert_cache_matches_scan(state, impl)
            with pytest.raises(Boom):
                with state.transaction():  # nested scope
                    state.occupy(
                        "dsp_0_2", "a", "t2", ResourceVector(cycles=50)
                    )
                    inner_mark = state.savepoint()
                    state.fail_element("dsp_1_0")
                    self._assert_cache_matches_scan(state, impl)
                    state.rollback_to(inner_mark)
                    assert state.epoch == mid_epoch + 2
                    self._assert_cache_matches_scan(state, impl)
                    raise Boom()
            # the nested rollback undid only the inner scope
            assert state.epoch == mid_epoch + 1
            self._assert_cache_matches_scan(state, impl)
            state.rollback_to(mark)
            assert state.epoch == mid_epoch
            self._assert_cache_matches_scan(state, impl)
        assert state.epoch == mid_epoch  # outer scope committed
        self._assert_cache_matches_scan(state, impl)

    def test_epoch_collision_across_nested_rollbacks_is_harmless(self):
        # entries stamped at an uncommitted epoch must never be served
        # after a rollback re-reaches that epoch value with different
        # state — here through two *nested* rolled-back scopes
        state = AllocationState(mesh(2, 2))
        impl = self._impl(90)
        names = [e.name for e in state.platform.elements]
        state.occupy(names[0], "a", "t0", ResourceVector(cycles=50))

        class Boom(RuntimeError):
            pass

        with pytest.raises(Boom):
            with state.transaction():
                state.occupy(names[1], "a", "t1", ResourceVector(cycles=50))
                with pytest.raises(Boom):
                    with state.transaction():
                        state.occupy(
                            names[2], "a", "t2", ResourceVector(cycles=50)
                        )
                        count, first = state.availability.summary(impl)
                        assert count == 1 and first.name == names[3]
                        raise Boom()
                count, _first = state.availability.summary(impl)
                assert count == 2
                raise Boom()
        # same epoch values are now re-reached with different history
        state.occupy(names[3], "b", "t", ResourceVector(cycles=50))
        state.occupy(names[1], "b", "t2", ResourceVector(cycles=50))
        count, first = state.availability.summary(impl)
        assert count == 1 and first.name == names[2]
        self._assert_cache_matches_scan(state, impl)

    def test_interleaved_savepoints_restore_aggregates_bit_exactly(self):
        rng = random.Random(31)
        state = AllocationState(mesh(3, 3))
        impl = self._impl(40)
        elements = [e.name for e in state.platform.elements]
        with state.transaction():
            checkpoints = []
            for step in range(40):
                roll = rng.random()
                if roll < 0.45:
                    try:
                        state.occupy(
                            rng.choice(elements), "app", f"t{step}",
                            ResourceVector(cycles=rng.randint(5, 40)),
                        )
                    except AllocationError:
                        pass
                elif roll < 0.6:
                    state.fail_element(rng.choice(elements))
                elif roll < 0.7:
                    state.heal_element(rng.choice(elements))
                elif roll < 0.85 or not checkpoints:
                    checkpoints.append((
                        state.savepoint(), state.epoch,
                        state.snapshot(),
                        sorted(
                            e.name
                            for e in state.availability.available(impl)
                        ),
                    ))
                else:
                    mark, epoch, snapshot, avail = checkpoints.pop(
                        rng.randrange(len(checkpoints))
                    )
                    state.rollback_to(mark)
                    # later checkpoints are now invalid marks
                    checkpoints = [
                        c for c in checkpoints if c[0] <= mark
                    ]
                    assert state.epoch == epoch
                    assert state.snapshot() == snapshot
                    state.check_invariants()
                    assert sorted(
                        e.name
                        for e in state.availability.available(impl)
                    ) == avail
                self._assert_cache_matches_scan(state, impl)
