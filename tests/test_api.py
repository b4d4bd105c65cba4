"""The repro.api façade: plan/commit soundness, strategy registry,
reason codes, and the removed pre-façade entry points.

The heart of this file is the plan/commit contract of ISSUE 5:

* ``plan(app)`` holds no resources after returning — journal fully
  unwound, capacity epoch restored, free ledgers bit-identical;
* ``commit(plan)`` at an unchanged epoch reproduces the direct
  admission bit-identically (placements, routes, epochs);
* a plan built at epoch E **replans** (never corrupts state) when a
  concurrent admit/release/fault moves the epoch before commit;
* the four baseline mappers run through the ``PhasePipeline``
  registry and match their direct invocations;
* ``Kairos.allocate``, ``rollback=``, ``plan_batch``/``commit_batch``,
  ``AllocationState.restore`` and the per-state scratch pool (with
  its ``RingSearch(scratch=)`` / ``SparseDistanceMatrix(pool=)``
  parameters), the platform-less ``SparseDistanceMatrix()``, the
  retained cross-layer distance matrix and the validation-engine
  toggle are gone, loudly;
  plan+commit stays
  lockstep-identical with admit over random churn (digests asserted
  against the frozen seed reference).
"""

from __future__ import annotations

import random
import sys
from dataclasses import fields
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

import repro.arch
from repro.api import (
    AdmissionController,
    PhasePipeline,
    ReasonCode,
    available_strategies,
    register_mapper,
)
from repro.api.pipeline import _MAPPERS
from repro.apps import GeneratorConfig, generate
from repro.arch import AllocationError, AllocationState, mesh
from repro.baselines import first_fit_map, optimal_map, random_map
from repro.binding import bind
from repro.core.mapping import MappingResult
from repro.core.search import RingSearch, SparseDistanceMatrix
from repro.experiments import ChurnConfig, churn_pool, run_admission_churn
from repro.manager import AllocationFailure, Kairos, Phase
from repro.validation import validate_layout
from tests.conftest import unmemoized


def app_of(seed, internals=3, name=None):
    return generate(
        GeneratorConfig(inputs=1, internals=internals, outputs=1),
        seed=seed, name=name or f"app{seed}",
    )


def fresh_controller(rows=4, cols=4, **kwargs):
    kwargs.setdefault("validation_mode", "skip")
    return AdmissionController(mesh(rows, cols), **kwargs)


def state_fingerprint(state):
    """Cheap structural digest of the allocation ledgers."""
    platform = state.platform
    return (
        state.epoch,
        tuple(
            tuple(sorted(state.free(element)._data.items()))
            for element in platform.elements
        ),
        state.utilization(),
        tuple(sorted(state.applications())),
    )


def layout_digest(layout):
    return (
        tuple(sorted(layout.placement.items())),
        tuple(
            (name, route.path)
            for name, route in sorted(layout.routes.items())
        ),
        tuple(sorted(layout.local_channels)),
    )


# ---------------------------------------------------------------------------
# plan(): no resources held
# ---------------------------------------------------------------------------


class TestPlan:
    def test_plan_holds_nothing(self):
        controller = fresh_controller()
        before = state_fingerprint(controller.state)
        plan = controller.plan(app_of(1))
        assert plan.ok
        assert plan.epoch == before[0]
        assert state_fingerprint(controller.state) == before
        assert controller.admitted == {}
        assert controller.manager.utilization() == 0.0

    def test_failed_plan_holds_nothing(self):
        controller = fresh_controller(2, 2)
        big = app_of(2, internals=40)
        before = state_fingerprint(controller.state)
        plan = controller.plan(big)
        assert not plan.ok
        assert plan.failure is not None
        assert plan.phase is not None
        assert isinstance(plan.code, ReasonCode)
        assert state_fingerprint(controller.state) == before

    def test_attempt_inside_open_transaction_is_refused(self):
        """The memo is keyed on committed epochs, so an attempt
        that would observe an uncommitted one raises before the memo is
        read or written — the recorded entry survives and replays."""
        controller = fresh_controller(2, 2)
        loser = app_of(7, internals=60)
        assert not controller.admit(loser).admitted   # memoized rejection
        gate = controller.manager._gate
        memo = dict(gate._memo)
        assert len(memo) == 1
        state = controller.state
        with state.transaction():
            mark = state.savepoint()
            state.fail_element("dsp_0_0")            # uncommitted epoch
            for attempt in (controller.plan, controller.admit):
                with pytest.raises(AllocationError, match="open transaction"):
                    attempt(loser)
            state.rollback_to(mark)
        assert gate._memo == memo                    # neither evicted nor added
        assert controller.admit(loser).memoized      # O(1) replay still works

    def test_plan_describe_mentions_epoch_and_outcome(self):
        controller = fresh_controller()
        text = controller.plan(app_of(1)).describe()
        assert "epoch 0" in text
        assert "ADMISSIBLE" in text
        assert "resources held: none" in text


# ---------------------------------------------------------------------------
# commit(): bit-identical apply at an unchanged epoch
# ---------------------------------------------------------------------------


class TestCommit:
    def test_commit_reproduces_direct_admission(self):
        plan_side = fresh_controller()
        direct_side = fresh_controller()
        for seed in (1, 2, 3):
            app = app_of(seed)
            decision = plan_side.commit(plan_side.plan(app, f"a{seed}"))
            reference = direct_side.admit(app, f"a{seed}")
            assert decision.admitted and reference.admitted
            assert not decision.replanned
            assert layout_digest(decision.layout) == layout_digest(
                reference.layout
            )
        assert state_fingerprint(plan_side.state) == state_fingerprint(
            direct_side.state
        )

    def test_commit_registers_admission(self):
        controller = fresh_controller()
        decision = controller.commit(controller.plan(app_of(1), "x"))
        assert decision.admitted
        assert "x" in controller.admitted
        assert "x" in controller.manager.specifications
        controller.release("x")
        assert controller.manager.utilization() == 0.0

    def test_commit_twice_rejected(self):
        controller = fresh_controller()
        plan = controller.plan(app_of(1))
        controller.commit(plan)
        with pytest.raises(ValueError, match="already been committed"):
            controller.commit(plan)

    def test_errored_commit_does_not_burn_the_plan(self):
        """A commit that raises (duplicate app_id) leaves the plan
        committable once the conflict is resolved."""
        controller = fresh_controller()
        plan = controller.plan(app_of(1), "contested")
        controller.admit(app_of(2), "contested")  # someone takes the id
        with pytest.raises(ValueError, match="already admitted"):
            controller.commit(plan)
        assert not plan.committed
        controller.release("contested")
        decision = controller.commit(plan)        # now it goes through
        assert decision.admitted and decision.replanned

    def test_failed_plan_commits_to_failed_decision(self):
        controller = fresh_controller(2, 2)
        plan = controller.plan(app_of(2, internals=40))
        decision = controller.commit(plan)
        assert not decision.admitted
        assert decision.failure is plan.failure
        assert decision.code is plan.code
        assert not decision.replanned


# ---------------------------------------------------------------------------
# epoch conflicts: replan, never corrupt (ISSUE 5 satellite)
# ---------------------------------------------------------------------------


class TestEpochConflicts:
    def test_concurrent_admit_forces_replan(self):
        controller = fresh_controller()
        plan = controller.plan(app_of(1), "planned")
        # a concurrent admission moves the epoch
        interloper = controller.admit(app_of(2), "interloper")
        assert interloper.admitted
        assert controller.state.epoch != plan.epoch
        decision = controller.commit(plan)
        assert decision.replanned
        assert decision.admitted
        # nothing torn: both apps resident, full release drains to zero
        assert set(controller.admitted) == {"planned", "interloper"}
        controller.release_all()
        assert controller.manager.utilization() == 0.0
        assert controller.state.external_fragmentation() == 0.0

    def test_concurrent_release_replans_stale_failure(self):
        controller = fresh_controller(3, 3)
        filler_ids = []
        seed = 10
        while True:
            decision = controller.admit(app_of(seed), f"fill{seed}")
            seed += 1
            if not decision.admitted:
                break
            filler_ids.append(decision.app_id)
        victim = app_of(99)
        plan = controller.plan(victim, "victim")
        assert not plan.ok  # platform saturated
        # concurrent departures free capacity -> epoch moves
        for app_id in filler_ids:
            controller.release(app_id)
        decision = controller.commit(plan)
        assert decision.replanned
        assert decision.admitted  # the stale rejection was reconsidered
        controller.release_all()
        assert controller.manager.utilization() == 0.0

    def test_fault_between_plan_and_commit(self):
        controller = fresh_controller(4, 4)
        plan = controller.plan(app_of(1), "p")
        assert plan.ok
        # fail an element the plan placed a task on: the planned layout
        # is now impossible, but commit must replan — not corrupt state
        victim = next(iter(plan.layout.placement.values()))
        controller.state.fail_element(victim)
        assert controller.state.epoch != plan.epoch
        decision = controller.commit(plan)
        assert decision.replanned
        if decision.admitted:
            assert victim not in decision.layout.placement.values()
            controller.release_all()
        assert controller.manager.utilization() == 0.0

    def test_fault_during_simulated_churn_with_plans(self):
        """Plans interleaved with admits, releases and faults never
        corrupt the ledgers (drain-to-zero invariant)."""
        controller = fresh_controller(5, 5)
        rng = random.Random(7)
        pending = []
        resident = []
        counter = 0
        for step in range(120):
            action = rng.random()
            if action < 0.35:
                counter += 1
                pending.append(
                    controller.plan(app_of(rng.randrange(50)), f"n{counter}")
                )
            elif action < 0.6 and pending:
                decision = controller.commit(
                    pending.pop(rng.randrange(len(pending)))
                )
                if decision.admitted:
                    resident.append(decision.app_id)
            elif action < 0.8 and resident:
                controller.release(
                    resident.pop(rng.randrange(len(resident)))
                )
            elif step == 60:
                element = rng.choice(controller.platform.elements).name
                controller.state.fail_element(element)
                report = controller.recover()
                resident = [
                    app_id for app_id in resident
                    if app_id in controller.admitted
                ]
                for app_id in report.lost:
                    assert isinstance(
                        report.lost_codes[app_id], ReasonCode
                    )
        for app_id in list(controller.admitted):
            controller.release(app_id)
        assert controller.manager.utilization() == 0.0


# ---------------------------------------------------------------------------
# the strategy registry (baselines as pipeline strategies)
# ---------------------------------------------------------------------------


class TestStrategyRegistry:
    def test_catalog_contains_the_baselines(self):
        catalog = available_strategies()
        assert {"first_fit", "random", "annealing", "optimal"} <= set(
            catalog["mapper"]
        )
        assert "kairos" in catalog["mapper"]
        assert "regret" in catalog["binder"]
        assert {"bfs", "dijkstra"} <= set(catalog["router"])
        assert catalog["validator"] == ("mcr", "skip")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown mapper strategy"):
            PhasePipeline(mapper="no_such_mapper")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_mapper("kairos")(lambda *a, **k: None)

    @pytest.mark.parametrize("mapper,params", [
        ("first_fit", {}),
        ("random", {"seed": 3}),
    ])
    def test_baseline_mapper_matches_direct_call(self, mapper, params):
        platform = mesh(4, 4)
        app = app_of(11, internals=4)
        controller = AdmissionController(
            platform, validation_mode="skip",
            pipeline=PhasePipeline(
                mapper=mapper, mapper_params=params, validator="skip"
            ),
        )
        decision = controller.admit(app, "via_registry")
        assert decision.admitted

        # the direct invocation over an identical (throwaway) state
        reference = Kairos(mesh(4, 4), validation_mode="skip")
        binding = bind(app, reference.state).choice
        direct_fn = first_fit_map if mapper == "first_fit" else random_map
        direct = direct_fn(
            app, binding, reference.state, app_id="via_registry", **params
        )
        assert decision.layout.placement == direct.placement

    def test_optimal_mapper_strategy(self):
        platform = mesh(3, 3)
        app = app_of(13, internals=2)
        controller = AdmissionController(
            platform, validation_mode="skip",
            pipeline=PhasePipeline(mapper="optimal", validator="skip"),
        )
        decision = controller.admit(app, "opt")
        assert decision.admitted

        reference = Kairos(mesh(3, 3), validation_mode="skip")
        binding = bind(app, reference.state).choice
        solution = optimal_map(app, binding, reference.state)
        assert decision.layout.placement == solution.placement
        # the strategy committed the placement: resources are held
        assert controller.manager.utilization() > 0.0

    def test_custom_strategy_end_to_end(self):
        @register_mapper("test_reverse_first_fit")
        def reverse_first_fit(app, binding, state, ctx, **params):
            from repro.core.mapping import MappingError
            result = MappingResult(placement={}, anchors={})
            for task in sorted(app.tasks, reverse=True):
                impl = binding[task]
                chosen = None
                for element in reversed(state.platform.elements):
                    if impl.runs_on(element) and state.is_available(
                        element, impl.requirement
                    ):
                        chosen = element
                        break
                if chosen is None:
                    raise MappingError(f"no element for {task!r}")
                state.occupy(chosen, ctx.app_id, task, impl.requirement)
                result.placement[task] = chosen.name
            return result

        try:
            controller = AdmissionController(
                mesh(4, 4), validation_mode="skip",
                pipeline=PhasePipeline(
                    mapper="test_reverse_first_fit", validator="skip"
                ),
            )
            decision = controller.admit(app_of(14), "custom")
            assert decision.admitted
            controller.release("custom")
            assert controller.manager.utilization() == 0.0
        finally:
            del _MAPPERS["test_reverse_first_fit"]

    def test_pipeline_describe(self):
        pipeline = PhasePipeline(mapper="random", validator="skip")
        description = pipeline.describe()
        assert description["mapper"] == "random"
        assert description["binder"] == "regret"
        assert description["validator"] == "skip"

    def test_kairos_default_pipeline_names(self):
        manager = Kairos(mesh(3, 3), validation_mode="skip")
        description = manager.pipeline.describe()
        assert description == {
            "binder": "regret",
            "mapper": "kairos",
            "router": "BfsRouter",
            "validator": "skip",
        }


# ---------------------------------------------------------------------------
# reason codes (ISSUE 5 satellite)
# ---------------------------------------------------------------------------


class TestReasonCodes:
    def test_unfit_task_is_rejected_by_the_binder_with_code(self):
        """A request too big for every element fails in the binder's
        first round: its code, a measured binding phase, not gated."""
        decision = fresh_controller(2, 2).admit(app_of(1, internals=60))
        assert not decision.admitted
        assert decision.phase is Phase.BINDING
        assert decision.code is ReasonCode.NO_FEASIBLE_IMPLEMENTATION
        assert "has no feasible implementation" in decision.reason
        assert not decision.gated and not decision.memoized
        assert "binding" in dict(decision.timings.recorded_items())

    def test_memo_replay_preserves_code(self):
        controller = fresh_controller(2, 2)
        app = app_of(2, internals=60)
        first = controller.admit(app, "try1")
        second = controller.admit(app, "try2")
        assert not second.admitted
        assert second.memoized
        assert second.code is first.code

    def test_binder_and_gate_agree_on_phase_and_family(self):
        """A memo replay carries the phase, reason and code the binder
        raises when the pipeline runs again."""
        controller = fresh_controller(2, 2)
        app = app_of(3, internals=60)
        controller.admit(app, "a1")
        a = controller.admit(app, "a2")
        with unmemoized(controller.manager):
            b = controller.admit(app, "a3")
        assert a.memoized and not b.memoized
        assert a.phase == b.phase == Phase.BINDING
        assert (a.reason, a.code) == (b.reason, b.code)

    def test_gate_layer3_matches_binder_code(self):
        """A rejection on a filled platform carries the binder's exact
        reason AND code, memoized or not."""
        controller = fresh_controller(2, 2)
        # fill the platform until an admission fails, then replay the
        # same history on a controller with memo replay off
        seed = 0
        while True:
            decision = controller.admit(app_of(seed), f"f{seed}")
            seed += 1
            if not decision.admitted:
                break
        memoized = controller.admit(app_of(seed - 1), "again")
        assert memoized.memoized
        reference = fresh_controller(2, 2)
        with unmemoized(reference.manager):
            for s in range(seed - 1):
                reference.admit(app_of(s), f"f{s}")
            replayed = reference.admit(app_of(seed - 1), f"f{seed - 1}")
        assert not replayed.admitted
        for failure in (decision, memoized):
            assert failure.phase == replayed.phase
            assert failure.reason == replayed.reason
            assert failure.code is replayed.code

    def test_invalid_specification_code(self):
        from repro.apps.taskgraph import Application
        controller = fresh_controller()
        empty = Application("empty")
        decision = controller.admit(empty)
        assert not decision.admitted
        assert decision.code is ReasonCode.INVALID_SPECIFICATION

    def test_drop_reason_values_unchanged(self):
        # frozen: these literals appear in recorded JSONL traces
        assert ReasonCode.REJECTED == "rejected"
        assert ReasonCode.QUEUE_FULL == "queue_full"
        assert ReasonCode.TIMEOUT == "timeout"
        assert ReasonCode.DRAINED == "drained"
        assert ReasonCode.RETRIES_EXHAUSTED == "retries_exhausted"
        import json
        assert json.dumps({"reason": ReasonCode.DRAINED}) == (
            '{"reason": "drained"}'
        )

    def test_allocation_failure_default_code_by_phase(self):
        failure = AllocationFailure(Phase.MAPPING, "x", "boom")
        assert failure.code is ReasonCode.MAPPING_INFEASIBLE

    def test_recovery_lost_codes(self):
        controller = fresh_controller(2, 2)
        filler = []
        seed = 0
        while True:
            decision = controller.admit(app_of(seed), f"f{seed}")
            seed += 1
            if not decision.admitted:
                break
            filler.append(decision.app_id)
        assert filler
        # fail every element an app uses, then saturate: recovery loses it
        layout = controller.admitted[filler[0]]
        for element in set(layout.placement.values()):
            controller.state.fail_element(element)
        report = controller.recover()
        for app_id, reason in report.lost.items():
            assert isinstance(reason, str)  # trace format unchanged
            assert isinstance(report.lost_codes[app_id], ReasonCode)

    def test_sim_metrics_count_codes(self):
        from repro.sim import (
            FifoPolicy,
            SimulationConfig,
            default_traffic_classes,
            run_simulation,
        )
        result = run_simulation(
            mesh(4, 4),
            default_traffic_classes(seed=0, rate_scale=4.0, pool_size=4),
            FifoPolicy(capacity=4, timeout=5.0),
            SimulationConfig(duration=30.0, seed=0),
        )
        summary = result.metrics.summary()
        assert "rejections_by_code" in summary
        if summary["rejections_by_phase"]:
            assert sum(summary["rejections_by_code"].values()) == sum(
                summary["rejections_by_phase"].values()
            )


# ---------------------------------------------------------------------------
# the removed shim and toggles; plan+commit == admit
# ---------------------------------------------------------------------------


class TestDeprecationShim:
    def test_removed_entry_points_fail_loudly(self):
        with pytest.raises(TypeError):
            Kairos(mesh(2, 2), rollback="snapshot")
        assert not hasattr(Kairos, "allocate")
        assert not hasattr(AdmissionController, "plan_batch")
        assert not hasattr(AdmissionController, "commit_batch")
        assert not hasattr(AllocationState, "restore")
        # the recycled-storage layer: hot loops own their working memory
        platform = mesh(2, 2)
        state = AllocationState(platform)
        assert not hasattr(state, "scratch")
        assert "ScratchPool" not in repro.arch.__all__
        origins = [platform.elements[0].name]
        with pytest.raises(TypeError):
            RingSearch(state, origins, scratch=None)
        with pytest.raises(TypeError):
            SparseDistanceMatrix(platform, pool=None)
        # the matrix is platform-bound and lives for one layer's search
        with pytest.raises(TypeError):
            SparseDistanceMatrix()
        assert "distances" not in {item.name for item in fields(MappingResult)}
        # one validation engine: no method toggle, no simulation cap
        with pytest.raises(TypeError):
            Kairos(mesh(3, 3), validation_method="analytical")
        with pytest.raises(TypeError):
            Kairos(mesh(3, 3), validation_max_firings=10)
        app = app_of(1)
        controller = AdmissionController(mesh(3, 3))
        layout = controller.admit(app).layout
        assert not hasattr(layout, "mapping")
        with pytest.raises(TypeError):
            validate_layout(
                app, layout.binding, layout.placement, layout.routes,
                controller.state, method="simulation",
            )
        with pytest.raises(ValueError, match="unknown validator"):
            PhasePipeline(validator="analytical")

    def test_shim_lockstep_with_plan_commit_over_random_churn(self):
        """plan+commit == admit over a random churn mix."""
        two_phase = AdmissionController(mesh(5, 5), validation_mode="skip")
        one_shot = AdmissionController(mesh(5, 5), validation_mode="skip")
        rng = random.Random(21)
        resident = []
        for step in range(80):
            if resident and rng.random() < 0.4:
                app_id = resident.pop(rng.randrange(len(resident)))
                two_phase.release(app_id)
                one_shot.release(app_id)
                continue
            app = app_of(rng.randrange(40))
            app_id = f"c{step}"
            decision = two_phase.commit(two_phase.plan(app, app_id))
            direct = one_shot.admit(app, app_id)
            if decision.admitted:
                pc_outcome = (True, layout_digest(decision.layout))
                resident.append(app_id)
            else:
                pc_outcome = (False, decision.phase, decision.code)
            if direct.admitted:
                direct_outcome = (True, layout_digest(direct.layout))
            else:
                direct_outcome = (False, direct.phase, direct.code)
            assert pc_outcome == direct_outcome, step
            assert two_phase.state.epoch == one_shot.state.epoch, step
        assert state_fingerprint(two_phase.state) == state_fingerprint(
            one_shot.state
        )

    def test_plan_commit_churn_digests_match_seed_reference(self):
        """The two-phase route reproduces the frozen seed digests."""
        from benchmarks.seed_reference.kairos import run_seed_churn

        pool = churn_pool(count=6, seed=0)
        config = ChurnConfig(steps=40, target_utilization=0.7, seed=3)
        platform = mesh(6, 6)
        seed_result = run_seed_churn(pool, mesh(6, 6), config)
        for path in ("admit", "plan_commit"):
            live = run_admission_churn(pool, platform, config, path=path)
            assert live.layouts == seed_result.layouts, path
            assert (live.admitted, live.rejected) == (
                seed_result.admitted, seed_result.rejected
            ), path


# ---------------------------------------------------------------------------
# controller plumbing
# ---------------------------------------------------------------------------


class TestControllerPlumbing:
    def test_one_controller_per_manager(self):
        manager = Kairos(mesh(3, 3), validation_mode="skip")
        assert manager.controller is manager.controller
        assert AdmissionController.wrap(manager) is manager.controller

    def test_wrap_rejects_double_bind(self):
        controller = fresh_controller()
        with pytest.raises(ValueError, match="already has a controller"):
            AdmissionController.__new__(AdmissionController)._bind(
                controller.manager
            )

    def test_duplicate_app_id_raises(self):
        controller = fresh_controller()
        controller.admit(app_of(1), "dup")
        with pytest.raises(ValueError, match="already admitted"):
            controller.admit(app_of(2), "dup")
        plan = controller.plan(app_of(2), "dup2")
        controller.commit(plan)
        with pytest.raises(ValueError, match="already admitted"):
            controller.plan(app_of(3), "dup2")

    def test_admit_decision_fields(self):
        controller = fresh_controller()
        decision = controller.admit(app_of(1), "d")
        assert decision.admitted
        assert decision.app_id == "d"
        assert decision.epoch == controller.state.epoch
        assert decision.timings is decision.layout.timings
        assert decision.timings.total > 0.0
