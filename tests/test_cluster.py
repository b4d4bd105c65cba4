"""The cluster subsystem: liveness, routing, 2PC, lockstep, campaigns.

Pins the contracts ``docs/cluster.md`` documents:

* the liveness automaton (``live → stale → dead`` with probation
  hysteresis, fault-storm demotion, the sliding window) driven purely
  by caller-supplied sim-time — the wall-clock regression test patches
  every ``time`` primitive to explode and runs the full automaton;
* deterministic routing — CRC32 placement hints, ring spill-over,
  liveness filtering, and the killed-but-undetected window covered by
  ``SHARD_DOWN`` rejections;
* the two-phase commit — all-or-unwind on mid-commit shard death (no
  partial allocation survives, asserted via ``verify_integrity``),
  bounded retry on transient failures, immediate abort on
  ``SHARD_DOWN``, structural task-graph splitting;
* one recipe builder for both backends — ``shards`` is the only key
  that makes a cluster run, and mixing single-manager keys (mapper,
  fault campaigns, resilience) with cluster keys (kills, heartbeat,
  ...) raises ``ValueError``;
* the single-shard lockstep contract — a 1-shard cluster replays the
  unsharded service digest-for-digest — plus the committed fixtures,
  every one replayed by the one replayer, with the shard-kill trace
  (``tests/data/cluster_shard_kill.jsonl``, the cluster twin of
  ``pre_resilience_faults.jsonl``) also digest-pinned;
* the end-to-end kill campaign: kill → missed heartbeats → demotion →
  recovery re-placement → probation → revival, draining to zero with
  clean integrity.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.controller import Decision
from repro.arch import AllocationError, ResourceVector, mesh
from repro.cluster import (
    ClusterManager,
    LivenessPolicy,
    LivenessRegistry,
    Shard,
    ShardLiveness,
    ShardRouter,
    build_shards,
    placement_hint,
    split_application,
)
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.registry import ROUTABLE_STATES
from repro.manager.layout import Phase, PhaseTimings
from repro.overload import OverloadConfig
from repro.reasons import ReasonCode
from repro.resilience import RecoveryEngine
from repro.sim import AdmissionService, build_recipe, replay_trace, run_recipe
from repro.sim.trace import read_trace, trace_digest
from tests.conftest import chain_app, simple_dsp_task

FIXTURES = Path(__file__).parent / "data"

#: the canonical shard-kill campaign (2 shards on 8x8, one mid-run
#: kill whose downtime crosses ``dead_after``: the full
#: kill → stale → dead → recovery → probation → live arc in ~1s)
KILL_RECIPE = dict(
    platform="8x8", shards=2, duration=40.0, seed=0, policy="fifo",
    rate_scale=6.0, pool_size=6, sample_interval=5.0,
    kills=1, downtime=15.0,
)

#: the 1-shard lockstep workload (mirrored by the unsharded recipe)
LOCKSTEP = dict(
    platform="6x6", duration=30.0, seed=3, policy="fifo",
    rate_scale=4.0, pool_size=6, sample_interval=5.0,
)


def records_of(trace: list[dict], kind: str) -> list[dict]:
    return [record for record in trace if record["kind"] == kind]


# -- liveness automaton ------------------------------------------------------


def registered(policy: LivenessPolicy | None = None) -> LivenessRegistry:
    registry = LivenessRegistry(policy)
    registry.register("s0", now=0.0)
    return registry


class TestLivenessAutomaton:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            LivenessPolicy(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            LivenessPolicy(stale_after=5.0, dead_after=5.0)
        with pytest.raises(ValueError):
            LivenessPolicy(heartbeat_interval=3.0, stale_after=2.5)
        with pytest.raises(ValueError):
            LivenessPolicy(probation=0.0)
        with pytest.raises(ValueError):
            LivenessPolicy(storm_faults=0)
        with pytest.raises(ValueError):
            LivenessPolicy(storm_window=0.0)

    def test_policy_round_trips_through_describe(self):
        policy = LivenessPolicy(stale_after=2.0, dead_after=4.0)
        assert LivenessPolicy.from_params(policy.describe()) == policy
        assert LivenessPolicy.from_params(None) == LivenessPolicy()

    def test_silence_walks_live_stale_dead(self):
        registry = registered()
        assert registry.observe(1.0) == []  # inside the deadline
        (stale,) = registry.observe(3.0)  # silence 3.0 >= 2.5
        assert (stale.previous, stale.state) == (
            ShardLiveness.LIVE, ShardLiveness.STALE
        )
        assert stale.reason == "missed_heartbeats"
        assert registry.routable("s0")  # stale keeps taking traffic
        (dead,) = registry.observe(5.0)  # silence 5.0 >= 5.0
        assert dead.state is ShardLiveness.DEAD
        assert not registry.routable("s0")
        assert registry.routable_ids() == ()

    def test_beat_restores_stale_to_live(self):
        registry = registered()
        registry.observe(3.0)
        (back,) = registry.heartbeat("s0", 3.5)
        assert (back.state, back.reason) == (
            ShardLiveness.LIVE, "heartbeat_resumed"
        )
        assert registry.observe(4.0) == []  # deadline refreshed

    def test_revival_serves_probation_before_trust(self):
        registry = registered()
        registry.observe(5.0)
        (revived,) = registry.heartbeat("s0", 6.0)
        assert (revived.state, revived.reason) == (
            ShardLiveness.PROBATION, "revived"
        )
        assert not registry.routable("s0")  # revival is not trust
        registry.heartbeat("s0", 7.0)
        registry.heartbeat("s0", 8.0)
        assert registry.observe(8.0) == []  # probation still running
        registry.heartbeat("s0", 9.0)
        (live,) = registry.observe(9.0)  # 9.0 - 6.0 >= probation 3.0
        assert (live.state, live.reason) == (
            ShardLiveness.LIVE, "probation_elapsed"
        )
        assert registry.routable("s0")

    def test_flapping_in_probation_demotes_again(self):
        registry = registered()
        registry.observe(5.0)
        registry.heartbeat("s0", 6.0)  # probation starts, then silence
        (flapped,) = registry.observe(9.0)  # silence 3.0 >= stale_after
        assert (flapped.state, flapped.reason) == (
            ShardLiveness.DEAD, "flapped"
        )

    def test_fault_storm_demotes_a_beating_shard(self):
        registry = registered(LivenessPolicy(storm_faults=3,
                                             storm_window=10.0))
        assert registry.note_fault("s0", 1.0) == []
        assert registry.note_fault("s0", 2.0) == []
        registry.heartbeat("s0", 2.5)  # heartbeats keep arriving
        (storm,) = registry.note_fault("s0", 3.0)
        assert (storm.state, storm.reason) == (
            ShardLiveness.DEAD, "fault_storm"
        )

    def test_storm_window_slides_old_faults_out(self):
        registry = registered(LivenessPolicy(storm_faults=3,
                                             storm_window=10.0))
        registry.note_fault("s0", 1.0)
        registry.note_fault("s0", 2.0)
        # the first two faults left the window: density back to 1
        assert registry.note_fault("s0", 13.0) == []
        assert registry.state("s0") is ShardLiveness.LIVE

    def test_forced_demotion_is_idempotent(self):
        registry = registered()
        (down,) = registry.demote("s0", 1.0, reason="operator")
        assert (down.state, down.reason) == (ShardLiveness.DEAD, "operator")
        assert registry.demote("s0", 2.0) == []

    def test_generation_bumps_on_every_transition(self):
        registry = registered()
        assert registry.generation == 0
        registry.observe(3.0)  # -> stale
        registry.heartbeat("s0", 3.5)  # -> live
        assert registry.generation == 2

    def test_registration_and_lookup_errors(self):
        registry = registered()
        with pytest.raises(ValueError):
            registry.register("s0")
        with pytest.raises(KeyError):
            registry.state("ghost")
        assert registry.shard_ids == ("s0",)

    def test_summary_counts_states(self):
        registry = registered()
        registry.register("s1", now=0.0)
        registry.demote("s1", 1.0)
        assert registry.summary() == {
            "tracked": 2,
            "states": {"dead": 1, "live": 1},
            "generation": 1,
        }

    def test_automaton_never_touches_the_wall_clock(self, monkeypatch):
        """Satellite regression: liveness runs on the sim's virtual
        clock only.  Every wall-clock primitive is booby-trapped; a
        future ``time.time()`` inside the registry explodes here."""
        def bomb(*_args):  # pragma: no cover - triggers only on bugs
            raise AssertionError("liveness read the wall clock")

        for name in ("time", "monotonic", "perf_counter", "time_ns",
                     "monotonic_ns", "perf_counter_ns"):
            monkeypatch.setattr(time, name, bomb)
        registry = registered()
        registry.observe(3.0)
        registry.heartbeat("s0", 3.5)
        registry.observe(9.0)  # silent since 3.5: dead
        registry.heartbeat("s0", 10.0)  # probation
        registry.note_fault("s0", 10.5)
        for when in (11.0, 12.0, 13.0):
            registry.heartbeat("s0", when)
        registry.observe(13.0)  # probation elapsed, beats kept coming
        assert registry.state("s0") is ShardLiveness.LIVE


# -- routing -----------------------------------------------------------------


class TestRouting:
    def test_placement_hint_is_stable_across_processes(self):
        # CRC32, not hash(): PYTHONHASHSEED must not influence routing
        assert placement_hint("interactive#0") == 3668390340
        assert placement_hint("x") == placement_hint("x")

    def test_candidates_ring_from_home(self):
        shards = build_shards(2, 4, 2)
        liveness = LivenessRegistry()
        for shard in shards:
            liveness.register(shard.shard_id)
        router = ShardRouter(shards, liveness)
        app_id = "app"
        home = router.home(app_id)
        candidates = router.candidates(app_id)
        assert [s.shard_id for s in candidates][0] == home.shard_id
        assert sorted(s.shard_id for s in candidates) == ["s0", "s1"]

    def test_dead_and_probation_shards_are_filtered(self):
        shards = build_shards(2, 4, 2)
        liveness = LivenessRegistry()
        for shard in shards:
            liveness.register(shard.shard_id)
        router = ShardRouter(shards, liveness)
        liveness.demote("s0", 1.0)
        assert [s.shard_id for s in router.candidates("app")] == ["s1"]
        liveness.heartbeat("s0", 2.0)  # probation: still not routable
        assert [s.shard_id for s in router.candidates("app")] == ["s1"]
        assert ROUTABLE_STATES == {ShardLiveness.LIVE, ShardLiveness.STALE}

    def test_router_needs_shards(self):
        with pytest.raises(ValueError):
            ShardRouter([], LivenessRegistry())


# -- shards ------------------------------------------------------------------


class TestShard:
    def test_kill_wipes_and_rejects_with_shard_down(self):
        shard = Shard("s0", mesh(2, 2))
        assert shard.admit(chain_app(2), "a").admitted
        lost = shard.kill()
        assert lost == ("a",)
        assert not shard.alive and shard.manager.admitted == {}
        decision = shard.admit(chain_app(2), "b")
        assert not decision.admitted
        assert decision.code is ReasonCode.SHARD_DOWN
        assert decision.phase is Phase.BINDING
        assert shard.plan(chain_app(2), "c") is None
        shard.revive()
        assert shard.admit(chain_app(2), "d").admitted

    def test_release_tolerates_wiped_residents(self):
        shard = Shard("s0", mesh(2, 2))
        shard.admit(chain_app(2), "a")
        shard.kill()
        assert shard.release("a") is False
        shard.revive()
        shard.admit(chain_app(2), "b")
        assert shard.release("b") is True

    def test_build_shards_partitions_column_bands(self):
        shards = build_shards(4, 8, 4)
        assert [s.shard_id for s in shards] == ["s0", "s1", "s2", "s3"]
        sizes = {len(s.platform.elements) for s in shards}
        assert sizes == {8}  # 4 rows x 2 columns each
        with pytest.raises(ValueError):
            build_shards(4, 6, 4)  # 6 columns do not split into 4
        with pytest.raises(ValueError):
            build_shards(4, 4, 0)

    def test_single_shard_platform_is_the_plain_mesh(self):
        (shard,) = build_shards(3, 3, 1)
        plain = mesh(3, 3)
        assert shard.platform.name == plain.name
        assert len(shard.platform.elements) == len(plain.elements)


# -- splitting ---------------------------------------------------------------


class TestSplitApplication:
    def test_chain_splits_into_connected_halves(self):
        result = split_application(chain_app(4), parts=2)
        assert result is not None
        parts, cut = result
        assert [p.name for p in parts] == ["chain4::p0", "chain4::p1"]
        assert [sorted(p.tasks) for p in parts] == [
            ["t0", "t1"], ["t2", "t3"]
        ]
        assert cut == 1  # the t1 -> t2 channel crosses the cut
        assert all(p.is_connected() for p in parts)

    def test_too_small_or_disconnected_is_unsplittable(self):
        assert split_application(chain_app(1), parts=2) is None
        from repro.apps import Application

        island = Application("islands")
        island.add_task(simple_dsp_task("a"))
        island.add_task(simple_dsp_task("b"))  # no channel: disconnected
        assert split_application(island, parts=2) is None

    def test_split_is_deterministic(self):
        first = split_application(chain_app(5), parts=2)
        second = split_application(chain_app(5), parts=2)
        assert [sorted(p.tasks) for p in first[0]] == [
            sorted(p.tasks) for p in second[0]
        ]


# -- the two-phase commit ----------------------------------------------------


def two_small_shards() -> list[Shard]:
    """Two 2-element shards (2x2 mesh split into 1-column bands)."""
    return build_shards(2, 2, 2)


class _KillOnCommit(Shard):
    """Dies between the plan and commit phases — the mid-commit crash."""

    def commit(self, plan):
        self.kill()
        return super().commit(plan)


class _FlakyCommit(Shard):
    """Fails the first commit with a transient (retryable) conflict."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failures_left = 1

    def commit(self, plan):
        if self.failures_left:
            self.failures_left -= 1
            return Decision(
                admitted=False,
                app_id=plan.app_id,
                epoch=self.manager.state.epoch,
                phase=Phase.BINDING,
                reason="synthetic transient conflict",
                code=ReasonCode.EPOCH_CONFLICT,
                timings=PhaseTimings(),
            )
        return super().commit(plan)


def shard_pair(second_cls=Shard) -> list[Shard]:
    return [
        Shard("s0", mesh(2, 1, name="band0_2x1")),
        second_cls("s1", mesh(2, 1, name="band1_2x1")),
    ]


class TestCoordinator:
    def test_split_admission_commits_on_both_shards(self):
        shards = two_small_shards()
        result = ClusterCoordinator().admit_split(
            chain_app(4, cycles=60), "big", shards
        )
        assert result.decision.admitted
        assert result.parts == (("s0", "big::p0"), ("s1", "big::p1"))
        assert result.cut_channels == 1
        assert "big::p0" in shards[0].manager.admitted
        assert "big::p1" in shards[1].manager.admitted

    def test_mid_commit_shard_death_unwinds_everything(self):
        shards = shard_pair(_KillOnCommit)
        result = ClusterCoordinator().admit_split(
            chain_app(4, cycles=60), "big", shards
        )
        assert not result.decision.admitted
        assert result.decision.code is ReasonCode.CROSS_SHARD_INFEASIBLE
        assert result.attempts == 1  # SHARD_DOWN never retries
        # the all-or-nothing guarantee: the committed first half was
        # released during unwind — no shard holds any part
        assert shards[0].manager.admitted == {}
        assert shards[1].manager.admitted == {}

    def test_transient_commit_failure_retries_and_succeeds(self):
        shards = shard_pair(_FlakyCommit)
        result = ClusterCoordinator(max_retries=2).admit_split(
            chain_app(4, cycles=60), "big", shards
        )
        assert result.decision.admitted
        assert result.attempts == 2
        assert "big::p0" in shards[0].manager.admitted
        assert "big::p1" in shards[1].manager.admitted

    def test_retry_budget_exhausts_without_leaking(self):
        shards = shard_pair(_FlakyCommit)
        shards[1].failures_left = 10
        result = ClusterCoordinator(max_retries=1).admit_split(
            chain_app(4, cycles=60), "big", shards
        )
        assert not result.decision.admitted
        assert result.attempts == 2  # 1 + max_retries
        assert shards[0].manager.admitted == {}

    def test_dead_shard_at_plan_time_aborts_with_nothing_to_unwind(self):
        shards = shard_pair()
        shards[1].kill()
        result = ClusterCoordinator().admit_split(
            chain_app(4, cycles=60), "big", shards
        )
        assert not result.decision.admitted
        assert result.attempts == 1
        assert shards[0].manager.admitted == {}

    def test_unsplittable_app_fails_structurally(self):
        result = ClusterCoordinator().admit_split(
            chain_app(1), "tiny", two_small_shards()
        )
        assert not result.decision.admitted
        assert result.decision.code is ReasonCode.CROSS_SHARD_INFEASIBLE
        assert result.attempts == 0

    def test_coordinator_validation(self):
        with pytest.raises(ValueError):
            ClusterCoordinator(max_retries=-1)
        with pytest.raises(ValueError):
            ClusterCoordinator().admit_split(
                chain_app(4), "x", two_small_shards()[:1]
            )


# -- shards over one platform ------------------------------------------------

#: single-shard steps of the isolation property
SHARD_STEPS = (
    "occupy", "vacate", "reserve", "release_route",
    "fail_element", "heal_element", "fail_link", "heal_link",
)


def _apply_step(shard: Shard, kind: str, data, serial: int) -> None:
    """One allocation-state mutation on ``shard``; a step the state
    refuses (no room, failed element, saturated link) leaves it as it
    was, which the property checks as well."""
    state = shard.manager.state
    platform = shard.platform

    def pick(options):
        return data.draw(st.sampled_from(options))

    try:
        if kind == "occupy":
            state.occupy(
                pick(platform.elements), "local", f"t{serial}",
                ResourceVector(cycles=data.draw(st.integers(1, 60))),
            )
        elif kind == "vacate" and state.placements_of("local"):
            state.vacate("local", pick(sorted(state.placements_of("local"))))
        elif kind == "reserve":
            path = [pick(platform.elements)]
            for _ in range(data.draw(st.integers(1, 4))):
                options = [
                    node for node in platform.neighbors(path[-1])
                    if node not in path
                ]
                if not options:
                    break
                path.append(pick(options))
            if len(path) > 1:
                state.reserve_route(
                    "local", f"c{serial}", path,
                    float(data.draw(st.integers(1, 60))),
                )
        elif kind == "release_route" and state.reservations_of("local"):
            reservation = pick(state.reservations_of("local"))
            state.release_route("local", reservation.channel_id)
        elif kind in ("fail_element", "heal_element"):
            getattr(state, kind)(pick(platform.elements))
        elif kind in ("fail_link", "heal_link"):
            getattr(state, kind)(*pick(platform.links).endpoints())
    except AllocationError:
        pass


class TestSharedPlatform:
    """Every shard of a cluster runs on one frozen band platform; a
    region is the shard's own allocation state, journal and epoch."""

    # profile-governed isolation property (see conftest.py)
    @settings(deadline=None)
    @given(
        rows=st.integers(1, 3), band=st.integers(1, 3),
        count=st.integers(2, 4), data=st.data(),
    )
    def test_shards_stay_isolated_over_the_shared_platform(
        self, rows, band, count, data
    ):
        shards = build_shards(rows, band * count, count)
        platform = shards[0].platform

        def views():
            return [
                (shard.manager.state.snapshot(), shard.epoch)
                for shard in shards
            ]

        def check(before, touched):
            after = views()
            for index, shard in enumerate(shards):
                assert shard.platform is platform
                shard.manager.state.check_invariants()
                if index not in touched:
                    assert after[index] == before[index], index
            return after

        # a split committed on one pair of shards, then one unwound
        # because its last part's shard dies between plan and commit
        first, second = data.draw(
            st.lists(st.integers(0, count - 1), min_size=2, max_size=2,
                     unique=True)
        )
        pair = [shards[first], shards[second]]
        seen = views()
        app = chain_app(4, cycles=10)
        result = ClusterCoordinator().admit_split(app, "kept", pair)
        assert result.decision.admitted
        seen = check(seen, {first, second})
        pair[1].commit = lambda plan: pair[1].down_decision(plan.app_id)
        result = ClusterCoordinator().admit_split(app, "unwound", pair)
        del pair[1].commit
        assert not result.decision.admitted
        assert all(
            not shard.manager.state.has_placements("unwound::p0")
            and not shard.manager.state.has_placements("unwound::p1")
            for shard in shards
        )
        seen = check(seen, {first})

        for serial in range(data.draw(st.integers(1, 12))):
            target = data.draw(st.integers(0, count - 1))
            kind = data.draw(st.sampled_from(SHARD_STEPS))
            _apply_step(shards[target], kind, data, serial)
            seen = check(seen, {target})


# -- the cluster manager -----------------------------------------------------


class TestClusterManager:
    def test_single_shard_routing_and_release(self):
        cluster = ClusterManager(build_shards(2, 4, 2))
        decision = cluster.admit(chain_app(2), "a")
        assert decision.admitted
        assert cluster.admitted["a"] in ((("s0", "a"),), (("s1", "a"),))
        with pytest.raises(ValueError):
            cluster.admit(chain_app(2), "a")
        cluster.release("a")
        assert cluster.admitted == {}
        with pytest.raises(KeyError):
            cluster.release("a")

    def test_spillover_covers_the_undetected_kill_window(self):
        cluster = ClusterManager(build_shards(2, 4, 2))
        app_id = "app"
        home = cluster.router.home(app_id)
        home.kill()  # killed but liveness has not noticed yet
        decision = cluster.admit(chain_app(2), app_id)
        assert decision.admitted
        ((shard_id, _),) = cluster.admitted[app_id]
        assert shard_id != home.shard_id
        assert cluster._c_spillovers.value == 1

    def test_fully_demoted_cluster_is_unavailable(self):
        cluster = ClusterManager(build_shards(2, 4, 2))
        for shard_id in ("s0", "s1"):
            cluster.liveness.demote(shard_id, 1.0)
        decision = cluster.admit(chain_app(2), "a")
        assert not decision.admitted
        assert decision.code is ReasonCode.CLUSTER_UNAVAILABLE

    def test_oversized_app_falls_back_to_a_split(self):
        # each shard holds 2 elements; four 60-cycle tasks need 4
        cluster = ClusterManager([
            Shard("s0", mesh(2, 1, name="band0_2x1")),
            Shard("s1", mesh(2, 1, name="band1_2x1")),
        ])
        decision = cluster.admit(chain_app(4, cycles=60), "big")
        assert decision.admitted
        assert len(cluster.admitted["big"]) == 2
        assert cluster._c_splits.value == 1
        assert decision.layout.cut_channels == 1
        cluster.release("big")  # releases both parts
        assert all(s.manager.admitted == {} for s in cluster.shards)

    def test_split_disabled_returns_the_single_shard_failure(self):
        cluster = ClusterManager([
            Shard("s0", mesh(2, 1, name="band0_2x1")),
            Shard("s1", mesh(2, 1, name="band1_2x1")),
        ], allow_split=False)
        decision = cluster.admit(chain_app(4, cycles=60), "big")
        assert not decision.admitted
        assert decision.code is not ReasonCode.CROSS_SHARD_INFEASIBLE

    def test_stranded_by_faults_reports_kill_victims(self):
        cluster = ClusterManager(build_shards(2, 4, 2))
        cluster.admit(chain_app(2), "a")
        ((shard_id, _),) = cluster.admitted["a"]
        assert cluster.stranded_by_faults() == ()
        cluster.by_id[shard_id].kill()
        assert cluster.stranded_by_faults() == ("a",)

    def test_epoch_moves_on_liveness_and_capacity_changes(self):
        cluster = ClusterManager(build_shards(2, 4, 2))
        first = cluster.epoch
        cluster.liveness.demote("s0", 1.0)
        second = cluster.epoch
        assert first != second  # generation folded into the epoch
        cluster.touch()
        assert cluster.epoch != second
        before = cluster.epoch
        cluster.admit(chain_app(2), "a")
        assert cluster.epoch != before  # shard-local epoch moved

    def test_utilization_passthrough_and_weighted_mean(self):
        single = ClusterManager(build_shards(3, 3, 1))
        single.admit(chain_app(2), "a")
        assert single.utilization() == (
            single.shards[0].manager.utilization()
        )
        double = ClusterManager(build_shards(2, 4, 2))
        double.admit(chain_app(2), "a")
        expected = sum(
            s.manager.utilization() * len(s.platform.elements)
            for s in double.shards
        ) / sum(len(s.platform.elements) for s in double.shards)
        assert double.utilization() == pytest.approx(expected)

    def test_verify_integrity_flags_orphans_and_duplicates(self):
        cluster = ClusterManager(build_shards(2, 4, 2))
        cluster.admit(chain_app(2), "a")
        assert cluster.verify_integrity() == []
        # an allocation the cluster never booked: exactly what a
        # leaked partial commit would look like
        cluster.shards[0].controller.admit(chain_app(2), "ghost")
        (violation,) = cluster.verify_integrity()
        assert "orphan" in violation and "ghost" in violation
        cluster.shards[0].release("ghost")
        cluster.admitted["b"] = cluster.admitted["a"]
        (violation,) = cluster.verify_integrity()
        assert "duplicate ownership" in violation

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ClusterManager([])
        with pytest.raises(ValueError):
            shard = Shard("s0", mesh(2, 2))
            ClusterManager([shard, Shard("s0", mesh(2, 2))])

    def test_summary_is_json_able(self):
        import json

        cluster = ClusterManager(build_shards(2, 4, 2))
        cluster.admit(chain_app(2), "a")
        summary = cluster.summary()
        json.dumps(summary)
        assert summary["shards"] == 2 and summary["admitted"] == 1


# -- recovery through the cluster --------------------------------------------


class TestClusterRecovery:
    def test_engine_readmits_kill_victims_on_the_surviving_shard(self):
        cluster = ClusterManager(build_shards(2, 4, 2))
        cluster.admit(chain_app(2), "a")
        ((shard_id, _),) = cluster.admitted["a"]
        cluster.by_id[shard_id].kill()
        engine = RecoveryEngine(cluster)
        outcome = engine.recovery_pass(now=1.0)
        assert "a" in outcome.recovered
        ((new_shard, _),) = cluster.admitted["a"]
        assert new_shard != shard_id
        assert cluster.verify_integrity() == []


# -- recipes and validation --------------------------------------------------


class TestClusterRecipes:
    def test_recipe_round_trip_and_validation(self):
        recipe = build_recipe(**KILL_RECIPE)
        assert recipe["shards"] == 2 and recipe["kills"] == 1
        assert recipe["downtime"] == 15.0
        assert LivenessPolicy.from_params(recipe["heartbeat"]) == (
            LivenessPolicy()
        )
        with pytest.raises(ValueError):
            build_recipe(platform="notamesh", shards=2)
        with pytest.raises(ValueError):
            build_recipe(platform="8x6", shards=4)
        with pytest.raises(ValueError):
            # the revival would land beyond the horizon
            build_recipe(platform="8x8", shards=2, duration=10.0,
                         kills=1, downtime=50.0)

    @pytest.mark.parametrize("knob", [
        {"mapper": "first_fit"},
        {"mapper_params": {"seed": 1}},
        {"faults": 2},
        {"fault_mttr": 5.0},
        {"fault_links": 0.5},
        {"fault_storm": 1},
        {"resilience": {}},
    ])
    def test_single_manager_keys_reject_shards(self, knob):
        (name,) = knob
        with pytest.raises(ValueError, match=name):
            build_recipe(platform="8x8", shards=2, **knob)

    @pytest.mark.parametrize("knob", [
        {"kills": 1},
        {"downtime": 5.0},
        {"heartbeat": {"storm_faults": 3}},
        {"recovery": {"base_delay": 1.0}},
        {"allow_split": False},
    ])
    def test_cluster_keys_need_shards(self, knob):
        (name,) = knob
        with pytest.raises(ValueError, match=f"{name}.*shards"):
            build_recipe(platform="8x8", **knob)

    def test_shards_need_a_mesh(self):
        with pytest.raises(ValueError, match="mesh"):
            build_recipe(platform="fat_tree:16", shards=2)
        # the family prefix is accepted and recorded as the bare shape
        # every cluster recipe has always carried
        assert build_recipe(platform="mesh:8x8", shards=2)["platform"] == (
            build_recipe(platform="8x8", shards=2)["platform"]
        ) == "8x8"

    def test_building_a_recipe_builds_no_shard(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("recipe building constructed a Shard")

        monkeypatch.setattr(Shard, "__init__", refuse)
        recipe = build_recipe(platform="48x48", shards=4, kills=1)
        assert recipe["shards"] == 4
        with pytest.raises(ValueError, match="48 columns into 5"):
            build_recipe(platform="48x48", shards=5)

    def test_cluster_trace_replays_through_replay_trace(self, tmp_path):
        path = tmp_path / "cluster.jsonl"
        recipe = build_recipe(
            platform="6x6", shards=1, duration=10.0, rate_scale=2.0
        )
        run_recipe(recipe, trace_path=path)
        identical, differences, result = replay_trace(path)
        assert identical, differences[:5]
        assert result.recipe["shards"] == 1


# -- the single-shard lockstep contract --------------------------------------


class TestLockstep:
    def test_one_shard_cluster_matches_the_unsharded_service(self):
        """The acceptance gate: bit-identical decisions and digests.

        The cluster run carries a liveness registry, heartbeat pulses
        and a recovery engine — all of which must be invisible without
        kills: no extra trace records, no extra RNG draws."""
        unsharded = run_recipe(build_recipe(**LOCKSTEP))
        cluster = run_recipe(build_recipe(shards=1, **LOCKSTEP))
        assert trace_digest(cluster.trace) == trace_digest(unsharded.trace)
        assert cluster.metrics.admitted == unsharded.metrics.admitted
        assert cluster.metrics.dropped == unsharded.metrics.dropped
        assert [s.utilization for s in cluster.metrics.samples] == (
            [s.utilization for s in unsharded.metrics.samples]
        )


# -- the kill campaign, end to end -------------------------------------------


class TestKillCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_recipe(build_recipe(**KILL_RECIPE))

    def test_kill_walks_the_full_liveness_arc(self, campaign):
        (kill,) = records_of(campaign.trace, "shard_kill")
        assert kill["lost"] > 0
        states = [
            (r["state"], r["reason"])
            for r in records_of(campaign.trace, "shard_state")
        ]
        assert ("stale", "missed_heartbeats") in states
        assert ("dead", "missed_heartbeats") in states
        assert ("probation", "revived") in states
        assert ("live", "probation_elapsed") in states

    def test_victims_are_recovered_not_leaked(self, campaign):
        passes = records_of(campaign.trace, "recovery")
        assert passes and any(p["stranded"] for p in passes)
        metrics = campaign.metrics
        assert metrics.recovered > 0
        # every victim is accounted for: re-placed, requeued-then-
        # readmitted, or an explicit loss — and the drain left zero
        assert campaign.post_drain_utilization == 0.0
        assert metrics.summary()["resilience"]["availability"] < 1.0

    def test_campaign_replays_bit_identically(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_recipe(build_recipe(**KILL_RECIPE), trace_path=path)
        identical, differences, _ = replay_trace(path)
        assert identical, differences[:5]


#: ``repro cluster sim --platform 12x12 --shards 4 --duration 8
#: --rate-scale 8 --seed 1 --policy priority --kills 2 --downtime 2
#: --overload``: a priority-backfill probe drains a shard-death record
#: whose recovery frees capacity while the probed request is admitted
#: but not yet dequeued.  The shortest run found that re-enters; without
#: the deferral it stops with "already admitted".
REENTRANT_RECIPE = dict(
    platform="12x12", shards=4, duration=8.0, rate_scale=8.0, seed=1,
    policy="priority", kills=2, downtime=2.0,
    overload=OverloadConfig.defaults(),
)


class TestReentrantBackfill:
    def test_capacity_freed_during_a_backfill_reruns_it_afterwards(
        self, tmp_path, monkeypatch
    ):
        """A nested backfill request is deferred, not run inside the
        outer scan, which would probe an admitted request again."""
        nested = []
        original = AdmissionService.backfill

        def spy(service, now):
            nested.append(service._backfilling)
            original(service, now)

        monkeypatch.setattr(AdmissionService, "backfill", spy)
        path = tmp_path / "reentrant.jsonl"
        result = run_recipe(build_recipe(**REENTRANT_RECIPE), trace_path=path)
        assert any(nested), "the recipe no longer re-enters the backfill"
        assert result.post_drain_utilization == 0.0
        identical, differences, _ = replay_trace(path)
        assert identical, differences[:5]


#: digest of the committed fixture (recorded from ``KILL_RECIPE``);
#: regenerate fixture and digest together or not at all — a mismatch
#: is a determinism regression, not a test to "fix"
PINNED_KILL_DIGEST = (
    "f303e9fac3a9667bb1a2d08ec9448f65"
    "488bfc5e2399f7523feee9447f819e55"
)


# -- the committed fixtures ----------------------------------------------------


@pytest.mark.parametrize(
    "fixture", sorted(FIXTURES.glob("*.jsonl")), ids=lambda path: path.name
)
def test_pinned_fixture_replays_bit_identically(fixture):
    """Every committed trace — plain and cluster — replays byte-for-byte
    through the one replayer on every future revision.  The shard-kill
    fixture (the cluster twin of ``pre_resilience_faults.jsonl``) is
    also digest-pinned, so even a reordered recovery or an extra
    heartbeat record is caught."""
    _header, records = read_trace(fixture)
    if fixture.name == "cluster_shard_kill.jsonl":
        assert trace_digest(records) == PINNED_KILL_DIGEST
    identical, differences, result = replay_trace(fixture)
    assert identical, differences[:5]
    assert trace_digest(result.trace) == trace_digest(records)
