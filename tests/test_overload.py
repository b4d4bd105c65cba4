"""repro.overload: controllers, service integration, determinism, chaos.

Four layers of coverage:

* unit tests for each controller automaton in isolation — watermark
  hysteresis, retry token bucket, the circuit-breaker state machine,
  the brownout ladder and its levers on a real manager, and the
  distance-field forced-dormancy hook;
* service integration — deadline stamping and expiry as a distinct
  traced outcome, arrival-time shedding with priority protection,
  retry-budget denial, distinct interned reason codes in
  ``rejections_by_code``, breaker records in cluster traces;
* the determinism contract — all three digest-pinned legacy fixtures
  replay bit-identically with overload *absent*, and overload-enabled
  runs (including combined overload + fault-storm and cluster
  overload + shard-kill campaigns) are record/replay bit-identical;
* chaos drains — a 4x flash crowd over a storm campaign (unsharded)
  and over a shard kill (cluster) both drain to zero with the books
  intact.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.arch import mesh
from repro.cluster import (
    build_cluster_recipe,
    replay_cluster_trace,
    run_cluster_recipe,
)
from repro.manager.kairos import Kairos
from repro.overload import (
    BreakerPolicy,
    BreakerState,
    BrownoutController,
    BrownoutPolicy,
    CircuitBreaker,
    DeadlinePolicy,
    LEVEL_ACTIONS,
    OverloadConfig,
    RetryBudget,
    RetryBudgetPolicy,
    WatermarkController,
    WatermarkPolicy,
)
from repro.reasons import ReasonCode
from repro.resilience import ResilienceConfig
from repro.sim import (
    build_recipe,
    read_trace,
    replay_trace,
    run_recipe,
    trace_digest,
)

DATA = Path(__file__).parent / "data"
FIXTURES = [
    DATA / "pre_fastpath_fifo.jsonl",
    DATA / "pre_resilience_faults.jsonl",
]
CLUSTER_FIXTURE = DATA / "cluster_shard_kill.jsonl"


# -- config ------------------------------------------------------------------


class TestOverloadConfig:
    def test_defaults_enable_everything(self):
        config = OverloadConfig.defaults()
        assert config.deadline is not None
        assert config.watermark is not None
        assert config.retry_budget is not None
        assert config.breaker is not None
        assert config.brownout is not None

    def test_describe_omits_disabled_components(self):
        config = OverloadConfig(deadline=DeadlinePolicy(budget=5.0))
        assert set(config.describe()) == {"deadline"}

    def test_from_spec_passthrough(self):
        config = OverloadConfig.defaults()
        assert OverloadConfig.from_spec(None) is None
        assert OverloadConfig.from_spec(config) is config
        assert OverloadConfig.from_spec(config.describe()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlinePolicy(budget=0.0)
        with pytest.raises(ValueError):
            WatermarkPolicy(high=0.3, low=0.5)
        with pytest.raises(ValueError):
            RetryBudgetPolicy(capacity=0.0)
        with pytest.raises(ValueError):
            BreakerPolicy(min_samples=9, window=8)
        with pytest.raises(ValueError):
            BrownoutPolicy(max_level=3)
        recipe = build_recipe(
            platform="8x8", duration=1.0, overload=OverloadConfig.defaults()
        )
        recipe["overload"]["brownout"]["max_level"] = 3
        with pytest.raises(ValueError):
            run_recipe(recipe)

    def test_class_budget_override(self):
        policy = DeadlinePolicy(
            budget=25.0, class_budgets={"interactive": 5.0}
        )
        assert policy.budget_for("interactive") == 5.0
        assert policy.budget_for("batch") == 25.0


# -- watermark + retry budget ------------------------------------------------


class TestWatermark:
    def test_hysteresis_band(self):
        controller = WatermarkController(
            WatermarkPolicy(high=0.8, low=0.4, protect_priority=2)
        )
        assert controller.observe(7, 10) is None       # 0.7 < high
        assert controller.observe(8, 10) is True       # entered
        assert controller.observe(6, 10) is None       # inside the band
        assert controller.shedding
        assert controller.observe(4, 10) is False      # exited at low
        assert not controller.shedding
        assert controller.transitions == 2

    def test_protects_priority(self):
        controller = WatermarkController(
            WatermarkPolicy(high=0.5, low=0.2, protect_priority=2)
        )
        controller.observe(5, 10)
        assert controller.should_shed(0)
        assert controller.should_shed(1)
        assert not controller.should_shed(2)

    def test_zero_capacity_never_sheds(self):
        controller = WatermarkController(WatermarkPolicy())
        assert controller.observe(0, 0) is None
        assert not controller.shedding


class TestRetryBudget:
    def test_spends_then_denies(self):
        budget = RetryBudget(RetryBudgetPolicy(capacity=2.0, refill_rate=0.5))
        assert budget.grant(0.0)
        assert budget.grant(0.0)
        assert not budget.grant(0.0)
        assert budget.denied == 1

    def test_lazy_refill_capped(self):
        budget = RetryBudget(RetryBudgetPolicy(capacity=2.0, refill_rate=0.5))
        budget.grant(0.0)
        budget.grant(0.0)
        assert not budget.grant(1.0)   # 0.5 tokens refilled, < 1
        assert budget.grant(3.0)       # 1.5 by now
        # a long quiet period refills to capacity, never beyond
        budget.grant(1000.0)
        assert budget.tokens <= 2.0


# -- circuit breaker ---------------------------------------------------------


def tight_breaker(**overrides) -> CircuitBreaker:
    params = dict(window=4, failure_threshold=0.5, min_samples=2,
                  cooldown=10.0, half_open_probes=2)
    params.update(overrides)
    return CircuitBreaker(BreakerPolicy(**params))


class TestCircuitBreaker:
    def test_trips_on_failure_rate(self):
        breaker = tight_breaker()
        assert breaker.record_failure(1.0) is None        # 1/1 < min_samples
        assert breaker.record_failure(2.0) == "failure_rate"
        assert breaker.state is BreakerState.OPEN

    def test_successes_dilute_the_window(self):
        breaker = tight_breaker()
        for t in range(3):
            breaker.record_success(float(t))
        breaker.record_failure(3.0)
        # 1 failure / 4 outcomes = 0.25 < 0.5: still closed
        assert breaker.state is BreakerState.CLOSED

    def test_open_blocks_until_cooldown(self):
        breaker = tight_breaker()
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.allow(5.0) == (False, None)
        allowed, edge = breaker.allow(11.0)
        assert allowed and edge == "cooldown_elapsed"
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_probe_budget(self):
        breaker = tight_breaker(half_open_probes=2)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.allow(11.0)                  # first probe slot
        assert breaker.allow(11.5) == (True, None)   # second
        assert breaker.allow(12.0) == (False, None)  # budget spent

    def test_probe_success_closes(self):
        breaker = tight_breaker()
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.allow(11.0)
        assert breaker.record_success(11.5) == "probe_succeeded"
        assert breaker.state is BreakerState.CLOSED
        # and the window was cleared: one old-regime failure cannot
        # immediately re-trip
        assert breaker.record_failure(12.0) is None
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens(self):
        breaker = tight_breaker()
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.allow(11.0)
        assert breaker.record_failure(11.5) == "probe_failed"
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2


# -- brownout ----------------------------------------------------------------


class TestBrownout:
    def make(self, policy=None):
        manager = Kairos(mesh(4, 4))
        controller = BrownoutController(
            policy or BrownoutPolicy(high=0.8, low=0.2, step_up=2,
                                     step_down=2),
            [manager],
        )
        return manager, controller

    def test_escalation_needs_sustained_pressure(self):
        _, controller = self.make()
        assert controller.observe(0.9) == []
        assert controller.observe(0.5) == []     # band resets pressure
        assert controller.observe(0.9) == []
        assert controller.observe(0.9) == [(0, 1, "mapper_first_fit")]
        assert controller.level == 1

    def test_ladder_up_and_down(self):
        manager, controller = self.make()
        original_pipeline = manager.pipeline
        original_options = manager.mapping_options
        for _ in range(6):
            controller.observe(0.9)
        assert controller.level == 2
        assert controller.max_level_seen == 2
        assert manager.pipeline is not original_pipeline
        assert manager.mapping_options is not original_options
        transitions = []
        for _ in range(6):
            transitions.extend(controller.observe(0.1))
        assert controller.level == 0
        assert all(action == "restored" for _, _, action in transitions)
        # full unwind restores the original objects, not copies
        assert manager.pipeline is original_pipeline
        assert manager.mapping_options is original_options

    def test_level_two_caps_rings(self):
        manager, controller = self.make(
            BrownoutPolicy(high=0.8, low=0.2, step_up=1, step_down=1,
                           ring_cap=2)
        )
        controller.observe(0.9)
        controller.observe(0.9)
        assert controller.level == 2
        assert manager.mapping_options.max_rings == 2

    def test_degraded_pipeline_still_admits(self, chain4):
        manager, controller = self.make(
            BrownoutPolicy(high=0.8, low=0.2, step_up=1, step_down=1)
        )
        for _ in range(3):
            controller.observe(0.9)
        assert controller.level == 2
        decision = manager.controller.admit(chain4, "browned")
        assert decision.admitted
        manager.release("browned")

    def test_level_names_cover_ladder(self):
        assert set(LEVEL_ACTIONS) == {0, 1, 2}


# -- service integration -----------------------------------------------------


def overload_recipe(**overrides):
    defaults = dict(
        platform="8x8", policy="fifo", duration=80.0, seed=3,
        rate_scale=6.0, overload=OverloadConfig.defaults(),
    )
    defaults.update(overrides)
    return build_recipe(**defaults)


class TestServiceIntegration:
    def test_watermark_sheds_and_protects_interactive(self):
        result = run_recipe(overload_recipe())
        summary = result.metrics.summary()
        assert summary["overload"]["shed_watermark"] > 0
        ratios = {
            name: stats["admission_ratio"]
            for name, stats in summary["per_class"].items()
        }
        assert ratios["interactive"] > ratios["batch"]
        # the code is interned end-to-end: drops ledger and trace
        assert result.metrics.drops["shed_watermark"] > 0
        sheds = [r for r in result.trace
                 if r["kind"] == "drop"
                 and r["reason"] == ReasonCode.SHED_WATERMARK]
        assert len(sheds) == summary["overload"]["shed_watermark"]
        modes = [r["mode"] for r in result.trace
                 if r["kind"] == "watermark"]
        assert modes and modes[0] == "shedding"

    def test_deadline_expiry_is_distinct_from_timeout(self):
        recipe = overload_recipe(
            policy="retry",
            overload=OverloadConfig(deadline=DeadlinePolicy(budget=4.0)),
        )
        result = run_recipe(recipe)
        expired = result.metrics.drops.get("deadline_expired", 0)
        assert expired > 0
        # expiry is its own interned outcome, never folded into the
        # pre-existing timeout bucket
        assert (result.metrics.rejections_by_code.get(
            "deadline_expired", 0) == expired)
        records = [r for r in result.trace
                   if r["kind"] == "drop"
                   and r["reason"] == ReasonCode.DEADLINE_EXPIRED]
        assert len(records) == expired

    def test_retry_budget_denials_traced(self):
        recipe = overload_recipe(
            policy="retry", seed=5,
            overload=OverloadConfig(
                retry_budget=RetryBudgetPolicy(capacity=4.0,
                                               refill_rate=0.1)
            ),
        )
        result = run_recipe(recipe)
        denied = result.metrics.drops.get("retry_budget_exhausted", 0)
        assert denied > 0
        assert (result.metrics.rejections_by_code.get(
            "retry_budget_exhausted", 0) == denied)

    def test_brownout_transitions_traced_and_replayable(self):
        result = run_recipe(overload_recipe(seed=3))
        transitions = [r for r in result.trace if r["kind"] == "brownout"]
        assert transitions
        assert result.metrics.brownout_transitions == len(transitions)
        assert result.metrics.max_brownout_level >= 1
        for record in transitions:
            assert record["action"] in (
                set(LEVEL_ACTIONS.values()) | {"restored"}
            )

    def test_overload_stats_snapshot(self):
        result = run_recipe(overload_recipe())
        stats = result.overload_stats
        assert set(stats) >= {"watermark", "retry_budget", "brownout"}
        plain = run_recipe(build_recipe(platform="6x6", duration=10.0))
        assert plain.overload_stats is None

    def test_reason_codes_are_interned(self):
        # the enum values are the exact strings in traces and ledgers
        assert ReasonCode.DEADLINE_EXPIRED == "deadline_expired"
        assert ReasonCode.SHED_WATERMARK == "shed_watermark"
        assert ReasonCode.RETRY_BUDGET_EXHAUSTED == "retry_budget_exhausted"
        assert ReasonCode.BREAKER_OPEN == "breaker_open"


# -- cluster breakers --------------------------------------------------------


def breaker_cluster_recipe(**overrides):
    defaults = dict(
        platform="12x12", shards=3, duration=120.0, seed=1,
        policy="fifo", rate_scale=4.0, kills=2, downtime=25.0,
        heartbeat={"storm_faults": 8},
        overload=dataclasses.replace(
            OverloadConfig.defaults(),
            breaker=BreakerPolicy(window=6, failure_threshold=0.5,
                                  min_samples=2, cooldown=8.0,
                                  half_open_probes=2),
        ),
    )
    defaults.update(overrides)
    return build_cluster_recipe(**defaults)


class TestClusterBreakers:
    def test_breaker_trips_during_detection_window(self):
        result = run_cluster_recipe(breaker_cluster_recipe())
        assert result.metrics.breaker_transitions > 0
        records = [r for r in result.trace if r["kind"] == "breaker"]
        assert len(records) == result.metrics.breaker_transitions
        opened = [r for r in records if r["state"] == "open"]
        assert opened and opened[0]["reason"] == "failure_rate"
        # every record names a real shard and a real automaton edge
        for record in records:
            assert record["shard"] in {"s0", "s1", "s2"}
            assert record["was"] != record["state"]

    def test_breaker_state_in_overload_stats(self):
        result = run_cluster_recipe(breaker_cluster_recipe())
        boards = result.overload_stats["breakers"]
        assert set(boards) == {"s0", "s1", "s2"}
        assert sum(board["opens"] for board in boards.values()) > 0

    def test_no_breakers_without_config(self):
        recipe = breaker_cluster_recipe()
        recipe.pop("overload")
        result = run_cluster_recipe(recipe)
        assert result.metrics.breaker_transitions == 0
        assert not [r for r in result.trace if r["kind"] == "breaker"]


# -- the determinism contract ------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_legacy_fixtures_digest_identical(self, fixture):
        header, records = read_trace(fixture)
        assert "overload" not in header
        result = run_recipe(header)
        assert trace_digest(result.trace) == trace_digest(records)

    def test_legacy_cluster_fixture_digest_identical(self):
        header, records = read_trace(CLUSTER_FIXTURE)
        assert "overload" not in header
        result = run_cluster_recipe(header)
        assert trace_digest(result.trace) == trace_digest(records)

    def test_overload_run_replays_bit_identical(self, tmp_path):
        recipe = overload_recipe()
        path = tmp_path / "overload.jsonl"
        run_recipe(recipe, trace_path=path)
        identical, differences, _ = replay_trace(path)
        assert identical, differences[:3]

    def test_overload_plus_fault_storm_replays_bit_identical(
        self, tmp_path
    ):
        recipe = overload_recipe(
            faults=1, fault_mttr=12.0, fault_storm=1,
            resilience=ResilienceConfig(),
        )
        path = tmp_path / "overload_faults.jsonl"
        result = run_recipe(recipe, trace_path=path)
        assert result.metrics.faults_injected > 0
        identical, differences, _ = replay_trace(path)
        assert identical, differences[:3]

    def test_cluster_overload_plus_kill_replays_bit_identical(
        self, tmp_path
    ):
        recipe = breaker_cluster_recipe()
        path = tmp_path / "cluster_overload.jsonl"
        result = run_cluster_recipe(recipe, trace_path=path)
        assert result.metrics.breaker_transitions > 0
        identical, differences, _ = replay_cluster_trace(path)
        assert identical, differences[:3]

    def test_same_recipe_same_digest(self):
        recipe = overload_recipe()
        first = run_recipe(recipe)
        second = run_recipe(recipe)
        assert trace_digest(first.trace) == trace_digest(second.trace)


# -- chaos drains ------------------------------------------------------------


class TestChaosDrain:
    def test_flash_crowd_storm_drains_to_zero(self):
        recipe = build_recipe(
            platform="8x8", policy="retry", duration=80.0, seed=7,
            rate_scale=8.0, faults=1, fault_mttr=15.0, fault_storm=1,
            resilience=ResilienceConfig(),
            overload=OverloadConfig.defaults(),
        )
        result = run_recipe(recipe)
        assert result.post_drain_utilization == 0.0
        summary = result.metrics.summary()
        assert summary["faults"]["injected"] > 0
        # under the retry policy the queue stays shallow (rejected
        # offers re-enter through the retry path), so the token budget
        # is the shield that engages, not the watermark
        assert summary["overload"]["retry_budget_exhausted"] > 0

    def test_cluster_flash_crowd_kill_drains_to_zero(self):
        recipe = breaker_cluster_recipe(rate_scale=8.0, kills=1)
        result = run_cluster_recipe(recipe)
        # run_cluster_simulation asserts integrity + empty cluster on
        # drain internally; re-assert the headline numbers here
        assert result.post_drain_utilization == 0.0
        metrics = result.metrics
        assert metrics.departed > 0
        # every offer resolved one way or another: completed, still
        # draining at horizon, or refused at admission
        assert metrics.offered >= metrics.admitted
        assert metrics.admitted >= metrics.departed
