"""The resilience subsystem: health automaton, recovery engine, requeue.

Pins the contracts ``docs/resilience.md`` documents:

* the health state machine (``live → dead → repairing → suspect /
  degraded``) with hysteresis, wear counting and soft penalties, and
  the bit-identity of :class:`HealthAwareCost` while no penalty exists;
* recovery ordering — the legacy alphabetical order's starvation of
  large/high-priority applications (the regression this PR fixes) and
  the policy orders that resolve it;
* idempotency (a second ``recover()`` is a no-op at an unchanged
  epoch) and crash consistency (a fault landing between the
  strandedness observation and re-admission never corrupts state);
* the requeue — epoch-guarded drains, exponential backoff, retry
  exhaustion, expiry — and the end-to-end service behaviour: under
  randomized churn + fault storm + repair the service drains to zero,
  replays bit-identically, and re-admits previously-lost applications
  through the retry queue;
* the legacy path: without a resilience config, traces (including the
  committed pre-resilience fixture) are byte-identical to pre-PR runs.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import AllocationError, AllocationState, mesh
from repro.arch.faults import Fault, apply_fault
from repro.apps import Application
from repro.manager import Kairos
from repro.resilience import (
    HealthAwareCost,
    HealthPolicy,
    HealthRegistry,
    HealthState,
    RecoveryPolicy,
    ResilienceConfig,
)
from repro.sim import (
    EventKind,
    build_recipe,
    replay_trace,
    run_recipe,
)
from repro.sim.trace import read_trace, trace_digest
from tests.conftest import chain_app, simple_dsp_task

FIXTURES = Path(__file__).parent / "data"

#: the canonical randomized churn + fault-storm + repair scenario
#: (priority queue, correlated storm, short MTTR — exercises repair,
#: quarantine, requeue recovery and drain in ~0.2s)
STORM_RECIPE = dict(
    platform="6x6", duration=30.0, seed=3, policy="priority",
    rate_scale=8.0, pool_size=6, sample_interval=5.0,
    faults=2, fault_mttr=5.0, fault_storm=1, resilience={},
)


def element_fault(name: str, repair_after=None) -> Fault:
    return Fault("element", (name,), repair_after=repair_after)


def records_of(trace: list[dict], kind: str) -> list[dict]:
    return [record for record in trace if record["kind"] == kind]


# -- health automaton --------------------------------------------------------


class TestHealthAutomaton:
    def test_fault_marks_dead_and_counts_wear(self):
        registry = HealthRegistry()
        fault = element_fault("e")
        transitions = registry.on_fault(fault, now=1.0)
        assert [t.state for t in transitions] == [HealthState.DEAD]
        assert registry.element_state("e") is HealthState.DEAD
        assert registry.fault_count("e") == 1
        # a second fault on a dead element counts wear, no transition
        assert registry.on_fault(fault, now=2.0) == []
        assert registry.fault_count("e") == 2

    def test_repair_starts_probation_with_penalty(self):
        registry = HealthRegistry()
        fault = element_fault("e")
        registry.on_fault(fault, now=0.0)
        transitions = registry.on_repair(fault, now=1.0)
        assert [t.state for t in transitions] == [HealthState.REPAIRING]
        assert registry.element_state("e") is HealthState.REPAIRING
        assert registry.element_penalty("e") == (
            registry.policy.repairing_penalty
        )
        # repairing a live element changes nothing
        assert registry.on_repair(element_fault("other"), now=1.0) == []

    def test_probation_settles_live_below_suspect_threshold(self):
        registry = HealthRegistry(HealthPolicy(probation=10.0))
        fault = element_fault("e")
        registry.on_fault(fault, now=0.0)
        registry.on_repair(fault, now=1.0)
        assert registry.observe(5.0) == []  # probation still running
        transitions = registry.observe(11.0)
        assert [t.state for t in transitions] == [HealthState.LIVE]
        assert registry.element_penalty("e") == 0.0

    def test_wear_settles_suspect_then_recovers_live(self):
        policy = HealthPolicy(probation=10.0, suspect_after=2)
        registry = HealthRegistry(policy)
        fault = element_fault("e")
        for start in (0.0, 30.0):
            registry.on_fault(fault, now=start)
            registry.on_repair(fault, now=start + 1.0)
            registry.observe(start + 12.0)
        assert registry.element_state("e") is HealthState.SUSPECT
        assert registry.element_penalty("e") == policy.suspect_penalty
        # a clean probation window promotes suspect back to live
        transitions = registry.observe(30.0 + 12.0 + policy.probation)
        assert [t.state for t in transitions] == [HealthState.LIVE]
        assert registry.element_penalty("e") == 0.0

    def test_degraded_is_sticky(self):
        policy = HealthPolicy(probation=5.0, suspect_after=2, degrade_after=3)
        registry = HealthRegistry(policy)
        fault = element_fault("e")
        for start in (0.0, 20.0, 40.0):
            registry.on_fault(fault, now=start)
            registry.on_repair(fault, now=start + 1.0)
            registry.observe(start + 7.0)
        assert registry.element_state("e") is HealthState.DEGRADED
        assert registry.element_penalty("e") == policy.degraded_penalty
        # degraded never promotes, however long the clean window
        assert registry.observe(1000.0) == []
        assert registry.element_state("e") is HealthState.DEGRADED

    def test_link_health_tracked_without_element_penalty(self):
        registry = HealthRegistry()
        fault = Fault("link", ("b", "a"))
        registry.on_fault(fault, now=0.0)
        # the key is endpoint-order normalized
        assert registry.link_state("a", "b") is HealthState.DEAD
        assert registry.link_state("b", "a") is HealthState.DEAD
        registry.on_repair(fault, now=1.0)
        assert registry.link_state("a", "b") is HealthState.REPAIRING
        assert registry.element_penalties == {}

    def test_summary_counts_states(self):
        registry = HealthRegistry()
        registry.on_fault(element_fault("e1"), now=0.0)
        registry.on_fault(Fault("link", ("a", "b")), now=0.0)
        summary = registry.summary()
        assert summary["tracked"] == 2
        assert summary["states"] == {"dead": 2}

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(probation=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(suspect_after=0)
        with pytest.raises(ValueError):
            HealthPolicy(suspect_after=3, degrade_after=2)
        with pytest.raises(ValueError):
            HealthPolicy(suspect_penalty=-1.0)


class TestHealthAwareCost:
    class _Element:
        def __init__(self, name):
            self.name = name

    @staticmethod
    def _base(*_args):
        return 7.25

    def test_no_penalties_returns_base_unchanged(self):
        registry = HealthRegistry()
        cost = HealthAwareCost(self._base, registry)
        args = (None, "a", "t", self._Element("e"), None, {}, {})
        assert cost(*args) == 7.25

    def test_penalized_element_pays_unpenalized_does_not(self):
        registry = HealthRegistry()
        fault = element_fault("flaky")
        registry.on_fault(fault, now=0.0)
        registry.on_repair(fault, now=1.0)
        cost = HealthAwareCost(self._base, registry)
        args = lambda name: (None, "a", "t", self._Element(name), None, {}, {})
        assert cost(*args("flaky")) == (
            7.25 + registry.policy.repairing_penalty
        )
        assert cost(*args("healthy")) == 7.25

    def test_composite_cost_reaches_its_objectives_through_a_registry(self):
        """A health-wrapped composite cost admits, and the task
        requirements reach the objective that prices them."""
        from repro.core import (
            CommunicationObjective,
            CompositeCost,
            EnergyObjective,
            WearLevelingObjective,
        )

        energy = EnergyObjective(1.0)
        manager = Kairos(
            mesh(4, 4), validation_mode="skip",
            weights=CompositeCost([
                CommunicationObjective(1.0), WearLevelingObjective(1.0),
                energy,
            ]),
            health=HealthRegistry(HealthPolicy(repairing_penalty=2.0)),
        )
        decision = manager.controller.admit(chain_app(3), "x")
        assert decision.admitted, decision.failure
        assert energy.requirements == {
            task: implementation.requirement
            for task, implementation in decision.layout.binding.items()
        }
        assert energy.requirements  # every task priced by its cycles

    # profile-governed lockstep property (see conftest.py): a manager
    # with an idle health registry must allocate bit-identically to a
    # plain one — the wrapper may not perturb a single decision until
    # a penalty actually exists
    @settings(deadline=None)
    @given(seed=st.integers(0, 2000))
    def test_idle_registry_is_bit_identical(self, seed):
        from repro.apps import GeneratorConfig, generate

        app = generate(
            GeneratorConfig(inputs=1, internals=4, outputs=1,
                            utilization_low=0.2, utilization_high=0.5),
            seed=seed,
        )
        plain = Kairos(mesh(4, 4), validation_mode="skip")
        health = Kairos(mesh(4, 4), validation_mode="skip",
                        health=HealthRegistry())
        layouts = []
        for manager in (plain, health):
            decision = manager.controller.admit(app, "x")
            if decision.admitted:
                layouts.append((
                    "ok",
                    tuple(sorted(decision.layout.placement.items())),
                    tuple(
                        (name, route.path) for name, route
                        in sorted(decision.layout.routes.items())
                    ),
                ))
            else:
                layouts.append(("fail", decision.phase.value))
        assert layouts[0] == layouts[1]


# -- recovery ordering (the starvation regression) ---------------------------


def big_app() -> Application:
    """Two connected 60-cycle tasks: needs two elements at once."""
    app = Application("big")
    first = app.add_task(simple_dsp_task("t0", cycles=60))
    second = app.add_task(simple_dsp_task("t1", cycles=60))
    app.connect(first, second, bandwidth=5.0)
    return app


def small_app() -> Application:
    app = Application("small")
    app.add_task(simple_dsp_task("t0", cycles=60))
    return app


def starved_manager() -> Kairos:
    """A 2x2 mesh where recovery capacity fits *either* the big app
    *or* the small one — never both.

    ``z_big`` (two tasks) is admitted first but sorts last
    alphabetically; ``a_small`` sorts first.  Failing one of the big
    app's elements plus the small app's element strands both, leaving
    two empty healthy elements (100 cycles each): the big app fits
    exactly (60 + 60), after which the small one (60) does not — and
    vice versa.
    """
    manager = Kairos(mesh(2, 2), validation_mode="skip")
    big_layout = manager.controller.admit(big_app(), "z_big").layout
    small_layout = manager.controller.admit(small_app(), "a_small").layout
    manager.state.fail_element(sorted(set(big_layout.placement.values()))[0])
    manager.state.fail_element(next(iter(small_layout.placement.values())))
    assert manager.stranded_by_faults() == ("a_small", "z_big")
    return manager


class TestRecoveryOrdering:
    def test_legacy_name_order_starves_the_big_app(self):
        report = starved_manager().recover(order="name")
        assert sorted(report.recovered) == ["a_small"]
        assert sorted(report.lost) == ["z_big"]

    def test_default_admission_order_recovers_the_big_app(self):
        # the regression fix: bare recover() now follows admission
        # order, so the first-admitted application is re-placed first
        report = starved_manager().recover()
        assert sorted(report.recovered) == ["z_big"]
        assert sorted(report.lost) == ["a_small"]

    def test_priority_order_recovers_the_high_priority_app(self):
        manager = starved_manager()
        engine = manager.controller.recovery_engine(
            RecoveryPolicy(order="priority", requeue=False)
        )
        engine.note_priority("a_small", 5)
        engine.note_priority("z_big", 1)
        outcome = engine.recovery_pass()
        assert sorted(outcome.recovered) == ["a_small"]
        assert sorted(outcome.lost) == ["z_big"]

    def test_size_order_recovers_the_large_app(self):
        manager = starved_manager()
        engine = manager.controller.recovery_engine(
            RecoveryPolicy(order="size", requeue=False)
        )
        outcome = engine.recovery_pass()
        assert sorted(outcome.recovered) == ["z_big"]

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(order="chaotic")
        with pytest.raises(ValueError):
            starved_manager().recover(order="chaotic")


# -- idempotency and crash consistency ---------------------------------------


class TestRecoveryIdempotency:
    def test_second_recover_is_a_no_op_at_unchanged_epoch(self):
        manager = starved_manager()
        first = manager.recover()
        assert first.stranded
        epoch = manager.state.epoch
        second = manager.recover()
        assert second.stranded == ()
        assert second.recovered == {} and second.lost == {}
        assert manager.state.epoch == epoch

    def test_fault_between_observation_and_recovery_never_corrupts(self):
        manager = Kairos(mesh(3, 3), validation_mode="skip")
        layouts = {}
        for index in range(4):
            app_id = f"app{index}"
            decision = manager.controller.admit(small_app(), app_id)
            layouts[app_id] = decision.layout
        hosts = {
            app_id: next(iter(layout.placement.values()))
            for app_id, layout in layouts.items()
        }
        manager.state.fail_element(hosts["app0"])
        observed = manager.stranded_by_faults()
        assert observed == ("app0",)
        # a second fault lands between the observation and the pass —
        # the engine recomputes strandedness per round, so app1 is
        # picked up instead of corrupting state
        manager.state.fail_element(hosts["app1"])
        outcome = manager.controller.recovery_engine(
            RecoveryPolicy(requeue=False)
        ).recovery_pass()
        assert set(outcome.stranded) >= {"app0", "app1"}
        assert manager.stranded_by_faults() == ()
        for app_id in list(manager.admitted):
            manager.release(app_id)
        assert manager.utilization() == 0.0


# -- the requeue -------------------------------------------------------------


def full_platform_manager():
    """Four single-task apps filling a 2x2 mesh completely."""
    manager = Kairos(mesh(2, 2), validation_mode="skip")
    hosts = {}
    for index in range(4):
        app_id = f"app{index}"
        layout = manager.controller.admit(small_app(), app_id).layout
        hosts[app_id] = next(iter(layout.placement.values()))
    return manager, hosts


class TestRequeue:
    def test_unplaceable_app_defers_instead_of_losing(self):
        manager, hosts = full_platform_manager()
        engine = manager.controller.recovery_engine()
        manager.state.fail_element(hosts["app0"])
        outcome = engine.recovery_pass(now=10.0)
        assert sorted(outcome.deferred) == ["app0"]
        assert outcome.lost == {}
        entry = engine.pending_entry("app0")
        assert entry.attempts == 1 and entry.deferred_at == 10.0

    def test_drain_is_epoch_guarded(self):
        manager, hosts = full_platform_manager()
        engine = manager.controller.recovery_engine()
        manager.state.fail_element(hosts["app0"])
        engine.recovery_pass(now=10.0)
        # nothing changed: the drain skips the entry for free
        assert engine.drain(now=11.0) == []
        assert engine.pending_entry("app0").attempts == 1

    def test_repair_lets_the_drain_recover(self):
        manager, hosts = full_platform_manager()
        engine = manager.controller.recovery_engine()
        manager.state.fail_element(hosts["app0"])
        engine.recovery_pass(now=10.0)
        manager.state.heal_element(hosts["app0"])
        results = engine.drain(now=15.0)
        assert [(r.app_id, r.outcome) for r in results] == [
            ("app0", "recovered")
        ]
        assert results[0].waited == 5.0
        assert engine.pending == ()
        assert "app0" in manager.admitted

    def test_retry_budget_exhausts_with_backoff_delays(self):
        manager, hosts = full_platform_manager()
        engine = manager.controller.recovery_engine(
            RecoveryPolicy(max_attempts=3, base_delay=2.0, backoff=2.0)
        )
        manager.state.fail_element(hosts["app0"])
        engine.recovery_pass(now=0.0)
        delays = []
        for now in (5.0, 10.0):
            # an epoch bump without freed capacity: the retry runs
            # and fails for real, burning budget
            manager.state.touch()
            (result,) = engine.drain(now=now)
            delays.append((result.outcome, result.delay))
        assert delays[0] == ("deferred", 2.0 * 2.0 ** 1)
        assert delays[1] == ("exhausted", None)
        assert engine.pending == ()

    def test_expire_and_flush_drop_entries(self):
        manager, hosts = full_platform_manager()
        engine = manager.controller.recovery_engine()
        manager.state.fail_element(hosts["app0"])
        engine.recovery_pass(now=0.0)
        entry = engine.expire("app0")
        assert entry is not None and engine.expire("app0") is None
        manager.state.fail_element(hosts["app1"])
        engine.recovery_pass(now=1.0)
        flushed = engine.flush()
        assert [e.app_id for e in flushed] == ["app1"]
        assert engine.pending == ()


# -- state.touch() -----------------------------------------------------------


class TestTouch:
    def test_touch_bumps_the_epoch(self, state3x3):
        before = state3x3.epoch
        state3x3.touch()
        assert state3x3.epoch == before + 1

    def test_touch_is_illegal_inside_a_transaction(self, state3x3):
        with pytest.raises(AllocationError):
            with state3x3.transaction():
                state3x3.touch()


# -- event ordering ----------------------------------------------------------


class TestEventOrdering:
    def test_equal_time_priorities(self):
        # repairs precede faults at the same instant (capacity returns
        # before the next blow lands), both precede arrivals, and
        # recovery retries run after ordinary retries
        assert (
            EventKind.DEPARTURE < EventKind.REPAIR < EventKind.FAULT
            < EventKind.ARRIVAL < EventKind.RETRY
            < EventKind.RECOVERY_RETRY < EventKind.TIMEOUT < EventKind.TICK
        )


# -- config plumbing ---------------------------------------------------------


class TestResilienceConfig:
    def test_from_spec_round_trips(self):
        config = ResilienceConfig(
            health=HealthPolicy(probation=7.0),
            recovery=RecoveryPolicy(order="size", max_attempts=3),
        )
        assert ResilienceConfig.from_spec(config.describe()) == config
        assert ResilienceConfig.from_spec(None) is None
        assert ResilienceConfig.from_spec(config) is config
        assert ResilienceConfig.from_spec({}) == ResilienceConfig()

    def test_legacy_recipes_carry_no_resilience_keys(self):
        recipe = build_recipe(duration=20.0, faults=2)
        assert set(recipe) & {
            "fault_mttr", "fault_links", "fault_storm", "resilience"
        } == set()

    def test_resilience_knobs_round_trip_through_the_recipe(self):
        recipe = build_recipe(
            duration=20.0, faults=2, fault_mttr=4.0, fault_links=0.5,
            fault_storm=1, resilience=ResilienceConfig(),
        )
        assert recipe["fault_mttr"] == 4.0
        assert recipe["fault_links"] == 0.5
        assert recipe["fault_storm"] == 1
        assert (
            ResilienceConfig.from_spec(recipe["resilience"])
            == ResilienceConfig()
        )
        with pytest.raises(ValueError):
            build_recipe(fault_mttr=-1.0)
        with pytest.raises(ValueError):
            build_recipe(fault_links=1.5)


# -- end-to-end service behaviour --------------------------------------------


class TestServiceResilience:
    def test_storm_run_repairs_quarantines_and_recovers(self):
        result = run_recipe(build_recipe(**STORM_RECIPE))
        summary = result.metrics.summary()["resilience"]
        assert summary["repairs_completed"] > 0
        assert summary["quarantines"] > 0
        assert summary["mttr"] == pytest.approx(5.0)
        assert 0.0 < summary["availability"] < 1.0
        assert result.post_drain_utilization == 0.0

    def test_lost_application_is_readmitted_through_the_requeue(self):
        result = run_recipe(build_recipe(**STORM_RECIPE))
        assert result.metrics.lost_recovered > 0
        retries_ok = [
            record for record in records_of(result.trace, "recovery_retry")
            if record["ok"]
        ]
        assert retries_ok, "no requeued application was re-admitted"
        # every successful retry was preceded by a recovery pass that
        # deferred that application (a later fault may strand a
        # re-admitted app again, so "lost afterwards" stays possible)
        for record in retries_ok:
            deferred_at = [
                pass_record["t"]
                for pass_record in records_of(result.trace, "recovery")
                if record["id"] in pass_record["deferred"]
            ]
            assert deferred_at and deferred_at[0] <= record["t"]

    def test_storm_trace_replays_bit_identically(self, tmp_path):
        path = tmp_path / "storm.jsonl"
        run_recipe(build_recipe(**STORM_RECIPE), trace_path=path)
        identical, differences, _ = replay_trace(path)
        assert identical, differences[:5]

    # profile-governed drain-to-zero property: randomized churn +
    # fault storm + repair always returns the platform to empty
    # (HYPOTHESIS_PROFILE=determinism sweeps ~500 seeds)
    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_drains_to_zero_under_churn_storm_repair(self, seed):
        recipe = build_recipe(**{**STORM_RECIPE, "seed": seed,
                                 "duration": 20.0})
        result = run_recipe(recipe)
        # run_simulation asserts post-drain utilization internally;
        # re-assert the invariant and the books here
        assert result.post_drain_utilization == 0.0
        metrics = result.metrics
        faults = metrics.summary()["faults"]
        assert faults["injected"] > 0
        assert metrics.lost_recovered <= metrics.recovery_retries

    def test_legacy_mode_emits_no_resilience_events(self):
        recipe = build_recipe(
            platform="6x6", duration=30.0, seed=3, policy="priority",
            rate_scale=8.0, pool_size=6, sample_interval=5.0, faults=2,
        )
        result = run_recipe(recipe)
        for kind in ("repair", "quarantine", "recovery_retry",
                     "recovery_lost"):
            assert records_of(result.trace, kind) == []
        summary = result.metrics.summary()["resilience"]
        assert summary["repairs_completed"] == 0
        assert summary["availability"] == 1.0
        assert summary["mttr"] is None

    def test_pre_resilience_fixture_replays_bit_identically(self):
        """Legacy permanent-fault traces recorded before this PR must
        replay byte-for-byte — digest-pinned, so even a reordered
        recovery would be caught."""
        path = FIXTURES / "pre_resilience_faults.jsonl"
        _header, records = read_trace(path)
        assert trace_digest(records) == (
            "084800d3b7979349606551c7ce927d1f"
            "1f0c166913b0930a352e2eabf6d7ef76"
        )
        identical, differences, result = replay_trace(path)
        assert identical, differences[:5]
        assert trace_digest(result.trace) == trace_digest(records)
