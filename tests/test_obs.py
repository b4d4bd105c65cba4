"""Tests for repro.obs: registry, tracing, exporters, shared stats.

The load-bearing assertions are the determinism ones: a run with
observability fully enabled must produce a bit-identical decision
trace (the pinned-fixture digest from ``test_resilience.py`` is reused
here), and the stats helpers that replaced the duplicated percentile /
mean arithmetic must reproduce the original outputs byte-for-byte.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import pytest

from repro.obs import (
    DEFAULT_LATENCY_EDGES,
    DISABLED,
    MetricRegistry,
    NullHistogram,
    NullRegistry,
    NullTracer,
    Observability,
    SNAPSHOT_SCHEMA,
    Tracer,
    enabled,
)
from repro.obs.export import (
    diff_snapshots,
    load_snapshot,
    parse_prometheus,
    snapshot,
    to_prometheus,
    write_snapshot,
)
from repro.obs.registry import Histogram
from repro.obs.stats import (
    StatsAggregator,
    latency_summary,
    mean,
    percentile,
    summarize,
)
from repro.obs.tracing import read_spans, write_spans

FIXTURES = Path(__file__).parent / "data"


class TestCounterAndGauge:
    def test_counter_increments_and_reads_back(self):
        registry = MetricRegistry()
        counter = registry.counter("admit.attempts")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        assert registry.counter_value("admit.attempts") == 4

    def test_interning_is_idempotent(self):
        registry = MetricRegistry()
        first = registry.counter("x")
        second = registry.counter("x")
        assert first is second
        first.inc()
        assert second.value == 1

    def test_counter_value_of_unknown_name_is_zero(self):
        assert MetricRegistry().counter_value("never.interned") == 0

    def test_gauge_set_inc_dec(self):
        gauge = MetricRegistry().gauge("queue.depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 6

    def test_snapshot_is_sorted_and_json_able(self):
        registry = MetricRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.5)
        dump = registry.snapshot()
        assert list(dump["counters"]) == ["a", "b"]
        assert dump["counters"] == {"a": 2, "b": 1}
        assert dump["gauges"] == {"g": 1.5}
        json.dumps(dump)  # must not raise


class TestHistogram:
    def test_empty_histogram(self):
        hist = Histogram("h", (1.0, 2.0))
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(50) is None
        row = hist.as_dict()
        assert row["count"] == 0
        assert row["p50"] is None
        assert row["min"] is None and row["max"] is None

    def test_single_sample(self):
        hist = Histogram("h", (1.0, 2.0))
        hist.observe(1.5)
        assert hist.count == 1
        assert hist.sum == 1.5
        assert hist.min == hist.max == 1.5
        # sample lands in the (1, 2] bucket; percentile reports its
        # upper edge
        assert hist.counts == [0, 1, 0]
        assert hist.percentile(50) == 2.0

    def test_le_semantics_on_bucket_edges(self):
        # Prometheus buckets are "less than or equal": a sample exactly
        # on an edge belongs to that edge's bucket
        hist = Histogram("h", (1.0, 2.0))
        hist.observe(1.0)
        hist.observe(2.0)
        assert hist.counts == [1, 1, 0]

    def test_overflow_bucket_and_exact_max(self):
        hist = Histogram("h", (1.0, 2.0))
        hist.observe(99.0)
        assert hist.counts == [0, 0, 1]
        # overflow percentile reports the tracked maximum, not an edge
        assert hist.percentile(99) == 99.0
        assert hist.max == 99.0

    def test_edges_must_be_increasing_and_nonempty(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 1.0))

    def test_reintern_with_different_edges_raises(self):
        registry = MetricRegistry()
        registry.histogram("h", (1.0, 2.0))
        assert registry.histogram("h") is registry.histogram("h")
        with pytest.raises(ValueError):
            registry.histogram("h", (3.0, 4.0))

    def test_mean_is_exact_despite_buckets(self):
        hist = Histogram("h", (1.0,))
        for value in (0.25, 0.75, 5.0):
            hist.observe(value)
        assert hist.mean == pytest.approx(2.0)


class TestNullRegistry:
    def test_disabled_and_retains_nothing(self):
        registry = NullRegistry()
        assert registry.enabled is False
        counter = registry.counter("x")
        counter.inc(7)
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        assert registry.counter_value("x") == 0

    def test_counters_still_count(self):
        # components read their own counters back (fastpath_stats) —
        # a null counter that dropped increments would break them
        counter = NullRegistry().counter("gate.memo_hits")
        counter.inc()
        counter.inc()
        assert counter.value == 2

    def test_handles_are_independent(self):
        registry = NullRegistry()
        first = registry.counter("x")
        second = registry.counter("x")
        first.inc()
        assert second.value == 0

    def test_histogram_is_shared_noop(self):
        registry = NullRegistry()
        hist = registry.histogram("h")
        assert isinstance(hist, NullHistogram)
        assert hist is registry.histogram("other")
        hist.observe(1.0)
        assert hist.count == 0
        assert hist.percentile(50) is None


class TestTracer:
    def test_nesting_sets_parentage(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans  # completion order
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration >= 0.0
        assert outer.duration >= inner.duration

    def test_attributes_via_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("s", origins=3) as active:
            active.set("misses", 1)
        (span,) = tracer.spans
        assert span.attrs == {"origins": 3, "misses": 1}

    def test_exception_marks_error_and_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.attrs["error"] is True
        assert span.duration is not None

    def test_jsonl_round_trip(self):
        tracer = Tracer()
        with tracer.span("a", k=1):
            pass
        stream = io.StringIO()
        assert write_spans(tracer, stream) == 1
        records = list(read_spans(io.StringIO(stream.getvalue())))
        assert records == tracer.as_records()
        assert records[0]["name"] == "a"
        assert records[0]["attrs"] == {"k": 1}

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        first = tracer.span("x")
        second = tracer.span("y", attr=1)
        assert first is second  # shared no-op context manager
        with first:
            pass
        assert len(tracer) == 0
        assert tracer.as_records() == []


class TestObservabilityBundle:
    def test_disabled_singleton(self):
        assert DISABLED.enabled is False
        assert isinstance(DISABLED.registry, NullRegistry)
        assert isinstance(DISABLED.tracer, NullTracer)

    def test_enabled_factory(self):
        obs = enabled()
        assert obs.enabled is True
        obs.registry.counter("x").inc()
        assert obs.snapshot()["metrics"]["counters"] == {"x": 1}


class TestExport:
    def _registry(self) -> MetricRegistry:
        registry = MetricRegistry()
        registry.counter("admit.attempts").inc(5)
        registry.gauge("queue.depth").set(2)
        hist = registry.histogram("phase.mapping.seconds", (0.001, 0.01))
        for value in (0.0005, 0.005, 0.5):
            hist.observe(value)
        return registry

    def test_snapshot_envelope(self):
        payload = snapshot(self._registry(), {"policy": "fifo"})
        assert payload["schema"] == SNAPSHOT_SCHEMA
        assert payload["context"] == {"policy": "fifo"}
        assert payload["metrics"]["counters"]["admit.attempts"] == 5

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "snap.json"
        written = write_snapshot(self._registry(), str(path), {"seed": 0})
        assert load_snapshot(str(path)) == written

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "something/else"}')
        with pytest.raises(ValueError, match="not a repro.obs snapshot"):
            load_snapshot(str(path))

    def test_diff_reports_only_changes(self):
        registry = self._registry()
        before = snapshot(registry)
        registry.counter("admit.attempts").inc(2)
        registry.histogram("phase.mapping.seconds").observe(0.002)
        after = snapshot(registry)
        delta = diff_snapshots(before, after)
        assert delta["counters"] == {
            "admit.attempts": {"before": 5, "after": 7, "delta": 2},
        }
        assert delta["gauges"] == {}  # unchanged gauge omitted
        hist = delta["histograms"]["phase.mapping.seconds"]
        assert hist["count_delta"] == 1
        assert hist["sum_delta"] == pytest.approx(0.002)

    def test_diff_of_identical_snapshots_is_empty(self):
        payload = snapshot(self._registry())
        delta = diff_snapshots(payload, payload)
        assert delta == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_prometheus_round_trip(self):
        text = to_prometheus(self._registry())
        parsed = parse_prometheus(text)
        assert parsed["types"]["repro_admit_attempts_total"] == "counter"
        assert parsed["types"]["repro_queue_depth"] == "gauge"
        assert (
            parsed["types"]["repro_phase_mapping_seconds"] == "histogram"
        )
        samples = parsed["samples"]
        assert samples["repro_admit_attempts_total"] == 5
        assert samples["repro_queue_depth"] == 2
        # cumulative le buckets: 1 sample <= 0.001, 2 <= 0.01, 3 total
        prefix = "repro_phase_mapping_seconds"
        assert samples[f'{prefix}_bucket{{le="0.001"}}'] == 1
        assert samples[f'{prefix}_bucket{{le="0.01"}}'] == 2
        assert samples[f'{prefix}_bucket{{le="+Inf"}}'] == 3
        assert samples[f"{prefix}_count"] == 3
        assert samples[f"{prefix}_sum"] == pytest.approx(0.5055)

    def test_prometheus_of_empty_registry_is_empty(self):
        assert to_prometheus(MetricRegistry()) == ""


class TestStatsParity:
    """The dedup satellite: rewired call sites must be byte-identical."""

    def _reference_percentile(self, values, q):
        # the pre-refactor inline implementation, verbatim
        if not values:
            return math.nan
        ordered = sorted(values)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def test_percentile_matches_the_original_inline_version(self):
        cases = [
            [0.5], [3.0, 1.0, 2.0], list(range(100)),
            [0.1] * 7 + [9.9], [5.0, 5.0, 5.0],
        ]
        for values in cases:
            for q in (0, 1, 50, 95, 99, 100):
                assert percentile(values, q) == (
                    self._reference_percentile(values, q)
                )
        assert math.isnan(percentile([], 50))

    def test_sim_metrics_reexport_path_still_works(self):
        from repro.sim.metrics import percentile as reexported
        assert reexported is percentile

    def test_latency_summary_matches_the_old_service_metrics_row(self):
        samples = [0.004, 0.001, 0.009, 0.002]
        row = latency_summary(samples)
        assert row == {
            "count": 4,
            "p50_ms": self._reference_percentile(samples, 50) * 1000.0,
            "p95_ms": self._reference_percentile(samples, 95) * 1000.0,
            "p99_ms": self._reference_percentile(samples, 99) * 1000.0,
            "total_ms": sum(samples) * 1000.0,
        }

    def test_mean_matches_sum_over_len(self):
        values = [1.0, 2.0, 4.0]
        assert mean(values) == sum(values) / len(values)
        assert math.isnan(mean([]))

    def test_manager_metrics_means_unchanged(self):
        from repro.manager.layout import Phase
        from repro.manager.metrics import (
            AttemptRecord,
            SequenceRecorder,
            summarize_positions,
        )
        recorder = SequenceRecorder()
        recorder.records = [
            AttemptRecord(position=1, app_name="a", admitted=True,
                          hops_per_channel=2.0, fragmentation_after=0.1),
            AttemptRecord(position=1, app_name="b", admitted=True,
                          hops_per_channel=3.0, fragmentation_after=0.3),
            AttemptRecord(position=1, app_name="c", admitted=False,
                          failed_phase=Phase.MAPPING,
                          fragmentation_after=0.5),
        ]
        (summary,) = summarize_positions([recorder], positions=1)
        assert summary.mean_hops == (2.0 + 3.0) / 2
        assert summary.mean_fragmentation == (0.1 + 0.3 + 0.5) / 3

    def test_summarize_and_aggregator(self):
        agg = StatsAggregator()
        agg.extend("fifo", "wait", [1.0, 3.0])
        agg.add("fifo", "wait", 2.0)
        report = agg.report()
        row = report["fifo"]["wait"]
        assert row["count"] == 3
        assert row["mean"] == 2.0
        assert row["p50"] == 2.0
        assert summarize([])["mean"] is None
        assert summarize([])["p50"] is None


class TestDeterminismWithObservability:
    """Observability never feeds a decision: traces stay bit-identical."""

    def test_pinned_fixture_digest_unchanged_with_obs_enabled(self):
        from repro.sim import read_trace, run_recipe, trace_digest
        header, records = read_trace(
            FIXTURES / "pre_resilience_faults.jsonl"
        )
        obs = enabled()
        result = run_recipe(header, obs=obs)
        # same pinned digest as test_resilience.py's replay test — the
        # instrumented run reproduces the recorded decision stream
        # byte-for-byte
        assert trace_digest(result.trace) == (
            "084800d3b7979349606551c7ce927d1f"
            "1f0c166913b0930a352e2eabf6d7ef76"
        )
        assert trace_digest(result.trace) == trace_digest(records)
        # and the instrumentation actually observed the run
        dump = obs.registry.snapshot()
        assert dump["counters"]["admit.attempts"] > 0
        assert dump["counters"]["service.offered"] > 0
        assert len(obs.tracer) > 0

    def test_instrumented_run_matches_bare_run(self):
        from repro.sim import build_recipe, run_recipe, trace_digest
        recipe = build_recipe(duration=10.0, seed=7, policy="fifo",
                              rate_scale=6.0, faults=1)
        bare = run_recipe(recipe)
        instrumented = run_recipe(recipe, obs=enabled())
        assert trace_digest(bare.trace) == trace_digest(
            instrumented.trace
        )
        # summaries match except the wall-clock phase latencies, which
        # legitimately vary run to run
        bare_summary = bare.metrics.summary()
        instrumented_summary = instrumented.metrics.summary()
        bare_summary.pop("phase_latency")
        instrumented_summary.pop("phase_latency")
        assert bare_summary == instrumented_summary


class TestServiceIntegration:
    def _run(self, obs=None, **overrides):
        from repro.sim import build_recipe, run_recipe
        recipe = build_recipe(duration=10.0, seed=3, policy="fifo",
                              rate_scale=6.0, **overrides)
        return run_recipe(recipe, obs=obs)

    def test_service_counters_mirror_metrics(self):
        obs = enabled()
        result = self._run(obs=obs)
        counters = obs.registry.snapshot()["counters"]
        metrics = result.metrics
        assert counters["service.offered"] == metrics.offered
        assert counters["service.admitted"] == metrics.admitted
        assert counters["service.departed"] == metrics.departed
        assert counters["service.dropped"] == metrics.dropped
        assert counters["service.queued"] == metrics.queued
        assert counters["admit.admitted"] >= metrics.admitted

    def test_phase_histograms_mirror_phase_latencies(self):
        obs = enabled()
        result = self._run(obs=obs)
        histograms = obs.registry.snapshot()["histograms"]
        for phase, samples in result.metrics.phase_latencies.items():
            row = histograms[f"phase.{phase}.seconds"]
            assert row["count"] == len(samples)
            assert row["sum"] == pytest.approx(sum(samples))

    def test_result_carries_the_observability_bundle(self):
        obs = enabled()
        assert self._run(obs=obs).observability is obs
        assert self._run().observability is DISABLED

    def test_stats_read_through_works_without_observability(
        self, monkeypatch
    ):
        # fastpath_stats reads the manager's own counters back with the
        # default (null) registry: gate_passes counts pipeline runs
        from repro.api.pipeline import PhasePipeline
        runs = [0]
        original = PhasePipeline.run

        def counting(self, *args, **kwargs):
            runs[0] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PhasePipeline, "run", counting)
        result = self._run()
        assert result.fastpath_stats["gate_passes"] == runs[0] > 0


class TestObsCli:
    def _simulate(self, tmp_path, name="m.json", extra=()):
        from repro.cli import main
        path = tmp_path / name
        code = main([
            "sim", "--duration", "10", "--rate-scale", "6",
            "--metrics-out", str(path), *extra,
        ])
        assert code == 0
        return path

    def test_sim_writes_snapshot_and_spans(self, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        path = self._simulate(
            tmp_path, extra=("--trace-spans", str(spans))
        )
        out = capsys.readouterr().out
        assert "metrics snapshot" in out
        assert "spans" in out
        payload = load_snapshot(str(path))
        assert payload["schema"] == SNAPSHOT_SCHEMA
        assert payload["context"]["policy"] == "fifo"
        assert payload["metrics"]["counters"]["service.offered"] > 0
        names = {record["name"] for record in read_spans(str(spans))}
        assert "admit" in names
        assert "phase.binding" in names

    def test_obs_show(self, tmp_path, capsys):
        from repro.cli import main
        path = self._simulate(tmp_path)
        capsys.readouterr()
        assert main(["obs", "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "service.offered" in out
        assert "phase.binding.seconds" in out

    def test_obs_diff(self, tmp_path, capsys):
        from repro.cli import main
        first = self._simulate(tmp_path, "a.json")
        second = self._simulate(
            tmp_path, "b.json", extra=("--seed", "9")
        )
        capsys.readouterr()
        assert main(["obs", "diff", str(first), str(second)]) == 0
        out = capsys.readouterr().out
        assert "service.offered" in out
        assert "->" in out

    def test_obs_diff_identical(self, tmp_path, capsys):
        from repro.cli import main
        path = self._simulate(tmp_path)
        capsys.readouterr()
        assert main(["obs", "diff", str(path), str(path)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_obs_show_rejects_non_snapshot(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert main(["obs", "show", str(bad)]) == 2
