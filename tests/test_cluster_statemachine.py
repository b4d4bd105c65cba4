"""Stateful property test: random cluster interleavings hold invariants.

A Hypothesis ``RuleBasedStateMachine`` drives a 2-shard cluster
through arbitrary interleavings of admissions, releases, plan/commit
rounds, shard kills, revivals, fault reports and heartbeat pulses —
the concurrency schedule a real deployment would produce, minus the
threads.  After **every** rule the machine re-checks the cross-shard
invariants:

* ``verify_integrity()`` stays empty — no interleaving of 2PC rounds,
  kills and releases ever leaks an orphan part or double-books one;
* the routable set is always a subset of the registered shards, and
  dead/probation shards never appear in it;
* utilization stays within [0, 1] on every shard;
* every shard's allocation state matches its rebuild from the ledgers
  (``check_invariants``: capacity index, aggregates, epoch);
* bookkeeping and residency agree up to legitimate strandedness
  (a booked part is either resident or its shard has been killed).

Teardown releases everything and asserts the cluster drains to zero —
whatever the interleaving did, no allocation survives its owner.

Example budgets come from the tiered profiles in ``conftest.py``
(``HYPOTHESIS_PROFILE=determinism`` sweeps ~500 schedules).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ClusterManager, build_shards
from repro.cluster.registry import ROUTABLE_STATES
from repro.resilience import RecoveryEngine
from tests.conftest import chain_app


class ClusterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = ClusterManager(build_shards(2, 4, 2))
        self.now = 0.0
        self.next_id = 0
        self.live_books: set[str] = set()

    # -- helpers -------------------------------------------------------------

    def _shard(self, index: int):
        return self.cluster.shards[index % len(self.cluster.shards)]

    def _fresh_id(self, prefix: str) -> str:
        self.next_id += 1
        return f"{prefix}{self.next_id}"

    # -- rules ---------------------------------------------------------------

    @rule(size=st.integers(min_value=1, max_value=3))
    def admit(self, size):
        app_id = self._fresh_id("app")
        decision = self.cluster.admit(chain_app(size), app_id)
        if decision.admitted:
            self.live_books.add(app_id)
        else:
            assert app_id not in self.cluster.admitted

    @precondition(lambda self: self.live_books)
    @rule(pick=st.integers(min_value=0))
    def release(self, pick):
        app_id = sorted(self.live_books)[pick % len(self.live_books)]
        self.live_books.discard(app_id)
        self.cluster.release(app_id)
        assert app_id not in self.cluster.admitted

    @rule(index=st.integers(min_value=0, max_value=1))
    def plan_probe_holds_nothing(self, index):
        shard = self._shard(index)
        if not shard.alive:
            assert shard.plan(chain_app(1), self._fresh_id("probe")) is None
            return
        before = shard.utilization()
        shard.plan(chain_app(1), self._fresh_id("probe"))
        assert shard.utilization() == before

    @rule(index=st.integers(min_value=0, max_value=1))
    def plan_commit_release_round_trips(self, index):
        shard = self._shard(index)
        if not shard.alive:
            return
        part_id = self._fresh_id("direct")
        before = shard.utilization()
        plan = shard.plan(chain_app(1), part_id)
        if plan is None or not plan.ok:
            return
        decision = shard.commit(plan)
        if decision.admitted:
            assert shard.release(part_id)
        assert shard.utilization() == before

    @rule(index=st.integers(min_value=0, max_value=1))
    def kill(self, index):
        shard = self._shard(index)
        if shard.alive:
            shard.kill()
            assert shard.manager.admitted == {}

    @rule(index=st.integers(min_value=0, max_value=1))
    def revive(self, index):
        shard = self._shard(index)
        if not shard.alive:
            shard.revive()

    @rule(index=st.integers(min_value=0, max_value=1))
    def note_fault(self, index):
        self.cluster.liveness.note_fault(
            self._shard(index).shard_id, self.now
        )

    @rule(step=st.floats(min_value=0.5, max_value=4.0))
    def pulse(self, step):
        self.now += step
        for shard in self.cluster.shards:
            if shard.alive:
                shard.beat()
                self.cluster.liveness.heartbeat(shard.shard_id, self.now)
        self.cluster.liveness.observe(self.now)

    @precondition(lambda self: self.live_books)
    @rule()
    def recover_stranded(self):
        stranded = self.cluster.stranded_by_faults()
        outcome = RecoveryEngine(self.cluster).recovery_pass(now=self.now)
        assert tuple(outcome.stranded) == stranded
        # a recovery pass resolves every stranded app one way or the
        # other: re-placed, lost, or parked in the requeue (in which
        # case its bookkeeping is gone until re-admission)
        for app_id in stranded:
            if app_id not in self.cluster.admitted:
                self.live_books.discard(app_id)
        assert self.cluster.stranded_by_faults() == ()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def integrity_holds(self):
        assert self.cluster.verify_integrity() == []

    @invariant()
    def routable_set_is_consistent(self):
        liveness = self.cluster.liveness
        routable = liveness.routable_ids()
        assert set(routable) <= set(liveness.shard_ids)
        for shard_id in liveness.shard_ids:
            assert (shard_id in routable) == (
                liveness.state(shard_id) in ROUTABLE_STATES
            )

    @invariant()
    def state_indices_match_ledgers(self):
        for shard in self.cluster.shards:
            shard.manager.state.check_invariants()

    @invariant()
    def utilization_bounded(self):
        for shard in self.cluster.shards:
            assert 0.0 <= shard.utilization() <= 1.0
        assert 0.0 <= self.cluster.utilization() <= 1.0

    @invariant()
    def books_match_residency_up_to_kills(self):
        for app_id, parts in self.cluster.admitted.items():
            for shard_id, part_id in parts:
                shard = self.cluster.by_id[shard_id]
                resident = part_id in shard.manager.admitted
                # not resident is legal only as kill strandedness:
                # the books survive, the allocation does not
                if not resident:
                    assert app_id in self.cluster.stranded_by_faults()

    def teardown(self):
        self.cluster.release_all()
        assert self.cluster.admitted == {}
        assert self.cluster.utilization() == 0.0
        assert self.cluster.verify_integrity() == []


TestClusterMachine = ClusterMachine.TestCase
TestClusterMachine.settings = settings(deadline=None, stateful_step_count=30)
