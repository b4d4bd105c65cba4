"""Tests for the admission service: queue policies, backfill, faults.

The policy tests drive :class:`AdmissionService` directly with
hand-scheduled arrival events and explicit holding times, so every
admission decision is forced by construction; the fault and
end-to-end tests go through :func:`run_recipe` like the CLI does.
"""

from __future__ import annotations

import pytest

from repro.apps.generator import GeneratorConfig, generate
from repro.arch import mesh
from repro.arch.elements import ElementType
from repro.manager import Kairos
from repro.sim import (
    AdmissionRequest,
    AdmissionService,
    EventKernel,
    EventKind,
    FifoPolicy,
    PriorityPolicy,
    RejectPolicy,
    RetryPolicy,
    build_recipe,
    make_policy,
    run_recipe,
)


def big_app(seed: int):
    """Four hungry DSP tasks — one app fills a 2x2 mesh on its own."""
    return generate(
        GeneratorConfig(
            inputs=1, internals=2, outputs=1,
            target_kinds=((ElementType.DSP, 1.0),),
            utilization_low=0.7, utilization_high=0.9,
        ),
        seed=seed,
    )


def half_app(seed: int):
    """Two tasks at ~60% of a DSP each — exactly two such apps fit on
    a 2x2 mesh at a time (tasks cannot pair up on one element)."""
    return generate(
        GeneratorConfig(
            inputs=1, internals=0, outputs=1,
            target_kinds=((ElementType.DSP, 1.0),),
            utilization_low=0.55, utilization_high=0.65,
        ),
        seed=seed,
    )


def _run_single(classes, policy, config, **events):
    from repro.sim import run_simulation

    return run_simulation(mesh(3, 3), classes, policy, config, **events)


def _run_cluster(classes, policy, config, **events):
    from repro.cluster import run_cluster_simulation

    return run_cluster_simulation(3, 3, 1, classes, policy, config, **events)


#: both admission backends behind one call shape: the run loop's input
#: checks are shared, so every such check is asserted against each
BACKENDS = {"single": _run_single, "cluster": _run_cluster}


def request(rid: int, *, arrival: float, holding: float, priority: int = 0,
            cls_name: str = "test") -> AdmissionRequest:
    return AdmissionRequest(
        request_id=rid,
        app=big_app(rid),
        app_id=f"{cls_name}#{rid}",
        class_name=cls_name,
        priority=priority,
        arrival_time=arrival,
        holding=holding,
    )


def drive(policy, requests, until=None):
    """Offer each (request) at its arrival time; run the kernel."""
    kernel = EventKernel(seed=0)
    manager = Kairos(mesh(2, 2), validation_mode="skip")
    service = AdmissionService(manager, policy, kernel)
    for req in requests:
        kernel.schedule_at(
            req.arrival_time, EventKind.ARRIVAL,
            lambda k, e: service.offer(e.payload["req"], k.now),
            req=req,
        )
    kernel.run(until=until)
    return service


def admit_order(service):
    return [r["id"] for r in service.trace.records if r["kind"] == "admit"]


class TestRejectPolicy:
    def test_drops_immediately(self):
        service = drive(RejectPolicy(), [
            request(1, arrival=0.0, holding=5.0),
            request(2, arrival=1.0, holding=5.0),
        ])
        assert service.metrics.admitted == 1
        assert service.metrics.drops == {"rejected": 1}
        assert service.metrics.waits == [0.0]
        assert service.metrics.blocking_probability == 0.5


class TestFifoPolicy:
    def test_backfill_on_departure(self):
        service = drive(FifoPolicy(capacity=4, timeout=None), [
            request(1, arrival=0.0, holding=5.0),
            request(2, arrival=1.0, holding=5.0),
        ])
        assert service.metrics.admitted == 2
        assert service.metrics.queued == 1
        # request 2 waited from t=1 until request 1 departed at t=5
        assert service.metrics.waits == [0.0, 4.0]
        assert service.metrics.departed == 2

    def test_queue_full_drops(self):
        service = drive(FifoPolicy(capacity=1, timeout=None), [
            request(1, arrival=0.0, holding=50.0),
            request(2, arrival=1.0, holding=5.0),
            request(3, arrival=2.0, holding=5.0),
        ], until=10.0)
        assert service.metrics.queued == 1
        assert service.metrics.drops == {"queue_full": 1}

    def test_timeout_expires_queued_requests(self):
        service = drive(FifoPolicy(capacity=4, timeout=2.0), [
            request(1, arrival=0.0, holding=50.0),
            request(2, arrival=1.0, holding=5.0),
        ], until=10.0)
        assert service.metrics.drops == {"timeout": 1}
        timeouts = [r for r in service.trace.records if r["kind"] == "drop"]
        assert timeouts[0]["t"] == 3.0  # enqueued at 1.0 + timeout 2.0

    def test_timed_out_head_unblocks_waiting_followers(self):
        """When the blocking head expires, followers that already fit
        must be admitted immediately, not left to their own timeouts."""
        def half(rid, arrival, holding):
            return AdmissionRequest(
                request_id=rid, app=half_app(rid), app_id=f"half#{rid}",
                class_name="test", priority=0, arrival_time=arrival,
                holding=holding,
            )
        long_half = half(1, arrival=0.0, holding=100.0)
        short_half = half(2, arrival=0.5, holding=3.0)  # departs at 3.5
        blocker = request(3, arrival=1.0, holding=5.0)  # needs the mesh
        follower = half(4, arrival=2.0, holding=5.0)
        service = drive(
            FifoPolicy(capacity=4, timeout=5.0),
            [long_half, short_half, blocker, follower],
            until=20.0,
        )
        # at t=3.5 the short app departs, but the full-platform head
        # still blocks the queue; the head times out at t=6 and the
        # follower (which fits from 3.5 onward) is admitted right
        # then, not dropped by its own t=7 timeout
        assert service.metrics.drops == {"timeout": 1}
        admits = {
            r["id"]: r["t"] for r in service.trace.records
            if r["kind"] == "admit"
        }
        assert admits["half#4"] == 6.0

    def test_admitted_before_timeout_is_not_expired(self):
        service = drive(FifoPolicy(capacity=4, timeout=10.0), [
            request(1, arrival=0.0, holding=5.0),
            request(2, arrival=1.0, holding=5.0),
        ])
        assert service.metrics.admitted == 2
        assert service.metrics.dropped == 0


class TestPriorityPolicy:
    def test_higher_priority_backfills_first(self):
        service = drive(PriorityPolicy(capacity=4, timeout=None), [
            request(1, arrival=0.0, holding=5.0),
            request(2, arrival=1.0, holding=5.0, priority=0),
            request(3, arrival=2.0, holding=5.0, priority=5),
        ])
        # the platform fits one app at a time: after #1 departs the
        # high-priority #3 overtakes #2 despite arriving later
        assert admit_order(service) == ["test#1", "test#3", "test#2"]
        assert service.metrics.admitted == 3

    def test_fifo_within_equal_priority(self):
        service = drive(PriorityPolicy(capacity=4, timeout=None), [
            request(1, arrival=0.0, holding=5.0),
            request(2, arrival=1.0, holding=5.0, priority=1),
            request(3, arrival=2.0, holding=5.0, priority=1),
        ])
        assert admit_order(service) == ["test#1", "test#2", "test#3"]


class TestRetryPolicy:
    def test_exponential_backoff_then_exhaustion(self):
        service = drive(
            RetryPolicy(max_attempts=3, base_delay=2.0, backoff=2.0),
            [
                request(1, arrival=0.0, holding=100.0),
                request(2, arrival=1.0, holding=5.0),
            ],
            until=50.0,
        )
        assert service.metrics.retries == 2
        assert service.metrics.drops == {"retries_exhausted": 1}
        retry_times = [
            r["t"] for r in service.trace.records if r["kind"] == "retry"
        ]
        # rejected at t=1 -> retry at +2, rejected -> retry at +4
        assert retry_times == [3.0, 7.0]

    def test_retry_succeeds_after_capacity_frees(self):
        service = drive(
            RetryPolicy(max_attempts=5, base_delay=3.0, backoff=2.0),
            [
                request(1, arrival=0.0, holding=5.0),
                request(2, arrival=1.0, holding=5.0),
            ],
            until=50.0,
        )
        assert service.metrics.admitted == 2
        assert service.metrics.dropped == 0
        assert service.metrics.retries >= 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)


class TestPolicyRegistry:
    def test_make_policy_round_trip(self):
        policy = make_policy("fifo", {"capacity": 3, "timeout": 7.0})
        assert isinstance(policy, FifoPolicy)
        assert policy.describe() == {
            "name": "fifo", "params": {"capacity": 3, "timeout": 7.0},
        }

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("lifo")

    def test_bounded_queue_validation(self):
        with pytest.raises(ValueError):
            FifoPolicy(capacity=0)
        with pytest.raises(ValueError):
            PriorityPolicy(timeout=-1.0)


class TestEndToEnd:
    def test_simulation_is_deterministic(self):
        recipe = build_recipe(
            platform="5x5", duration=25.0, seed=11, policy="fifo",
            rate_scale=3.0,
        )
        first = run_recipe(recipe)
        second = run_recipe(recipe)
        assert first.trace == second.trace
        first_summary = first.metrics.summary()
        second_summary = second.metrics.summary()
        # the per-phase latency histograms are wall-clock measurements,
        # not decisions — everything else must reproduce exactly
        first_latency = first_summary.pop("phase_latency")
        second_latency = second_summary.pop("phase_latency")
        assert first_summary == second_summary
        # same phases ran the same number of times, just not as fast
        assert {
            phase: row["count"] for phase, row in first_latency.items()
        } == {
            phase: row["count"] for phase, row in second_latency.items()
        }

    def test_overload_produces_blocking_and_waits(self):
        recipe = build_recipe(
            platform="4x4", duration=30.0, seed=2, policy="fifo",
            rate_scale=5.0,
        )
        result = run_recipe(recipe)
        summary = result.metrics.summary()
        assert summary["offered"] > 20
        assert 0.0 < summary["blocking_probability"] < 1.0
        waits = summary["admission_wait"]
        assert waits["p99"] >= waits["p95"] >= waits["p50"] >= 0.0
        assert summary["per_class"].keys() == {
            "interactive", "batch", "bursty",
        }
        for stats in summary["per_class"].values():
            assert 0.0 <= stats["admission_ratio"] <= 1.0
        assert result.post_drain_utilization == 0.0

    def test_samples_cover_the_run(self):
        recipe = build_recipe(
            platform="4x4", duration=20.0, seed=4, policy="reject",
            rate_scale=2.0, sample_interval=5.0,
        )
        result = run_recipe(recipe)
        times = [s.time for s in result.metrics.samples]
        assert times == [5.0, 10.0, 15.0, 20.0]
        for sample in result.metrics.samples:
            assert 0.0 <= sample.utilization <= 1.0
            assert sample.queue_depth == 0  # reject policy never queues


class TestReviewRegressions:
    def test_request_without_holding_or_class_rejected_before_allocate(self):
        kernel = EventKernel(seed=0)
        manager = Kairos(mesh(2, 2), validation_mode="skip")
        service = AdmissionService(manager, RejectPolicy(), kernel)
        bad = AdmissionRequest(
            request_id=1, app=big_app(1), app_id="bad#1",
            class_name="test", priority=0, arrival_time=0.0,
        )
        with pytest.raises(ValueError):
            service.offer(bad, 0.0)
        # the check fires before admission: nothing leaked
        assert manager.admitted == {}
        assert manager.utilization() == 0.0

    def test_reused_policy_with_queued_requests_rejected(self):
        from repro.sim import SimulationConfig
        from repro.sim.traffic import default_traffic_classes

        for run in BACKENDS.values():
            policy = FifoPolicy(capacity=4, timeout=None)
            policy.queue.append(
                request(99, arrival=0.0, holding=1.0)
            )  # leftover state from a "previous run"
            with pytest.raises(ValueError, match="fresh policy"):
                run(
                    default_traffic_classes(pool_size=2), policy,
                    SimulationConfig(duration=5.0),
                )

    def test_traffic_classes_reusable_across_runs(self):
        """MMPP phase state must reset, so one classes tuple gives
        identical traces on back-to-back runs."""
        from repro.sim import SimulationConfig
        from repro.sim.traffic import default_traffic_classes

        classes = default_traffic_classes(seed=3, rate_scale=2.0, pool_size=2)
        for backend, run in BACKENDS.items():
            runs = [
                run(
                    classes, RejectPolicy(),
                    SimulationConfig(duration=10.0, seed=3),
                )
                for _ in range(2)
            ]
            assert runs[0].trace == runs[1].trace, backend

    def test_drained_drops_do_not_count_as_blocking(self):
        """Requests still waiting at the horizon are censored, not
        blocked: flushing them must leave the blocking ratio alone."""
        service = drive(FifoPolicy(capacity=4, timeout=None), [
            request(1, arrival=0.0, holding=50.0),
            request(2, arrival=1.0, holding=5.0),
        ], until=10.0)
        service.policy.flush(service, 10.0)
        assert service.metrics.drops == {"drained": 1}
        assert service.metrics.blocking_probability == 0.0

    def test_per_class_wait_p95_is_reported(self):
        service = drive(FifoPolicy(capacity=4, timeout=None), [
            request(1, arrival=0.0, holding=5.0),
            request(2, arrival=1.0, holding=5.0),
        ])
        per_class = service.metrics.summary()["per_class"]["test"]
        assert per_class["wait_p95"] == 4.0  # the backfilled request

    def test_fault_beyond_horizon_rejected(self):
        from repro.arch.faults import Fault
        from repro.sim import SimulationConfig
        from repro.sim.traffic import default_traffic_classes

        # the cluster twin of a late fault: a kill, or only its
        # revival, scheduled past the horizon
        for backend, events in (
            ("single", {"faults": ((6.0, Fault("element", ("dsp_0_0",))),)}),
            ("cluster", {"kills": ((6.0, "s0", 7.0),)}),
            ("cluster", {"kills": ((4.0, "s0", 6.0),)}),
        ):
            with pytest.raises(ValueError, match="beyond the horizon"):
                BACKENDS[backend](
                    default_traffic_classes(pool_size=2), RejectPolicy(),
                    SimulationConfig(duration=5.0), **events,
                )

    def test_both_backends_offer_the_same_surface(self):
        """The calls AdmissionService and RecoveryEngine make, made on
        each backend directly — there is no adapter in between."""
        from repro.api import Decision
        from repro.cluster import ClusterManager, build_shards
        from repro.resilience import RecoveryEngine, RecoveryPolicy

        for backend in (
            Kairos(mesh(2, 2), validation_mode="skip"),
            ClusterManager(build_shards(2, 2, 1)),
        ):
            before = backend.epoch
            first = backend.admit(big_app(1), "a")
            assert isinstance(first, Decision) and first.admitted
            assert backend.epoch != before
            before = backend.epoch
            probe = backend.admit(big_app(2), "b")
            assert isinstance(probe, Decision) and not probe.admitted
            assert backend.epoch == before  # a rejected probe leaves no trace
            backend.touch()
            assert backend.epoch != before
            with pytest.raises(KeyError):
                backend.release("nope")
            assert 0.0 < backend.utilization() <= 1.0
            outcome = RecoveryEngine(
                backend, RecoveryPolicy(requeue=False)
            ).recovery_pass()
            assert outcome.stranded == () and "a" in backend.admitted
            backend.release("a")
            assert backend.utilization() == 0.0

    def test_short_run_still_gets_a_final_sample(self):
        recipe = build_recipe(
            platform="3x3", duration=3.0, seed=0, policy="reject",
            rate_scale=2.0, sample_interval=5.0,
        )
        result = run_recipe(recipe)
        assert [s.time for s in result.metrics.samples] == [3.0]


class TestFaultsUnderLoad:
    """Satellite: scheduled faults mid-traffic with automatic recovery."""

    @pytest.fixture(scope="class")
    def faulted_run(self):
        recipe = build_recipe(
            platform="6x6", duration=40.0, seed=7, policy="fifo",
            rate_scale=3.0, faults=3,
        )
        return run_recipe(recipe)

    def test_every_fault_injected_and_traced(self, faulted_run):
        assert faulted_run.metrics.faults_injected == 3
        fault_records = [
            r for r in faulted_run.trace if r["kind"] == "fault"
        ]
        assert len(fault_records) == 3
        # faults are spread over the run, not bunched at t=0
        assert all(0.0 < r["t"] < 40.0 for r in fault_records)

    def test_stranded_apps_recovered_or_reported_lost(self, faulted_run):
        recoveries = [
            r for r in faulted_run.trace if r["kind"] == "recovery"
        ]
        assert len(recoveries) == 3
        stranded_total = 0
        for record in recoveries:
            stranded = set(record["stranded"])
            resolved = set(record["recovered"]) | set(record["lost"])
            assert resolved == stranded
            stranded_total += len(stranded)
        assert stranded_total == (
            faulted_run.metrics.recovered + faulted_run.metrics.lost
        )

    def test_lost_apps_never_depart_afterwards(self, faulted_run):
        lost_at: dict[str, float] = {}
        for record in faulted_run.trace:
            if record["kind"] == "recovery":
                for app_id in record["lost"]:
                    lost_at[app_id] = record["t"]
        departures = {
            r["id"]: r["t"] for r in faulted_run.trace
            if r["kind"] == "departure"
        }
        for app_id, when in lost_at.items():
            assert (
                app_id not in departures or departures[app_id] < when
            ), f"{app_id} departed after being lost"

    def test_drained_platform_ends_at_zero_utilization(self, faulted_run):
        assert faulted_run.post_drain_utilization == 0.0
