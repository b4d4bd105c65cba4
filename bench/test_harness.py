"""Tests of the benchmark harness itself (``python -m pytest bench -q``).

Not part of the tier-1 suite (``pytest.ini`` collects ``tests/``).
"""

from __future__ import annotations

import importlib
import json

import pytest

import bench.run  # noqa: F401  (puts the checkout's src/ on sys.path)
from bench import harness, stats
from bench.tracing import (
    LAYER_OF,
    LAYER_PROBES,
    Recorder,
    facade_probes,
    instrumented,
)
from bench.workloads import WORKLOADS

SPEC = harness.SPEC


# -- estimators ----------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(1, 201), 95) == 190
    assert stats.percentile(range(1, 21), 50) == 10
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(1, 200), 95)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(1, 20), 50)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(1, 601), 99)


def test_per_operation_min_is_elementwise():
    laps = [[3.0, 1.0, 5.0], [2.0, 4.0, 5.5], [2.5, 0.5, 6.0]]
    assert stats.per_operation_min(laps) == [2.0, 0.5, 5.0]
    with pytest.raises(ValueError):
        stats.per_operation_min([[1.0, 2.0], [1.0]])


def _span(name, start, end, parent):
    return (name, start, end, parent, None, False, None)


def test_self_time_and_ledger_add_up_to_the_root():
    spans = [
        _span("setup", 0.0, 1.0, -1),        # outside the root: ignored
        _span("root", 1.0, 11.0, -1),
        _span("a", 2.0, 5.0, 1),
        _span("a.inner", 3.0, 4.0, 2),
        _span("unnamed", 6.0, 8.0, 1),        # no layer: residual
        _span("b", 6.5, 7.5, 4),
    ]
    own = stats.self_times(spans)
    assert own == [1.0, 5.0, 2.0, 1.0, 1.0, 1.0]
    for index, span in enumerate(spans):
        children = sum(
            child[stats.END] - child[stats.START]
            for child in spans if child[stats.PARENT] == index
        )
        assert children <= span[stats.END] - span[stats.START]
    layer_of = {"root": "top", "a": "A", "a.inner": "A", "b": "B"}
    rows, residual = stats.build_ledger(spans, layer_of, root=1)
    by_layer = {row.layer: row for row in rows}
    assert residual == 1.0
    assert by_layer["A"].calls == 2
    assert by_layer["A"].busy_s == 3.0      # the nested span is not re-counted
    assert by_layer["A"].self_s == 3.0
    assert by_layer["top"].self_s == 5.0
    assert sum(row.self_s for row in rows) + residual == pytest.approx(10.0)
    assert sum(row.share for row in rows) == pytest.approx(0.9)


# -- instrumentation -----------------------------------------------------------


def _holders(probe):
    """Every (namespace, attribute) a probe's target is reachable by."""
    module_name, _, qualname = probe.target.partition(":")
    module = importlib.import_module(module_name)
    owner, _, attr = qualname.rpartition(".")
    if owner:
        return [(vars(getattr(module, owner)), attr)]
    import repro.api.pipeline as pipeline
    return [(vars(module), attr), (vars(pipeline), attr)]


def test_wrappers_are_fully_restored():
    from repro.core.gap import GapSolver
    from repro.manager.kairos import Kairos

    places = [place for probe in LAYER_PROBES for place in _holders(probe)]
    places += [(vars(GapSolver), "__init__"), (vars(Kairos), "__init__")]
    before = [namespace[attr] for namespace, attr in places]
    with instrumented(Recorder(), LAYER_PROBES, hooks=True):
        during = [namespace[attr] for namespace, attr in places]
    after = [namespace[attr] for namespace, attr in places]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_wrappers_are_restored_when_the_run_raises():
    from repro.api.controller import AdmissionController

    original = vars(AdmissionController)["admit"]
    with pytest.raises(RuntimeError):
        with instrumented(Recorder(), facade_probes("api.admit")):
            raise RuntimeError("lap failed")
    assert vars(AdmissionController)["admit"] is original


# -- the catalogue -------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(harness.REFERENCE) == set(WORKLOADS)
    assert SPEC["paths"] == ["bench"]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    layers = set(LAYER_OF.values())
    assert {"sim.events", "sim.service", "manager", "binding", "core.mapping",
            "core.search", "core.gap", "core.knapsack", "routing",
            "validation", "cluster"} == layers


# -- the smoke profile, end to end -----------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_profile(name):
    measured = harness.measure(name, seed=0, seconds=0, laps=2, smoke=True)
    assert measured.correct, measured.problems
    assert measured.laps == 2
    assert list(measured.metrics) == [m["name"] for m in SPEC["end_to_end"]]

    traced = harness.trace(name, seed=0, seconds=0, laps=1, smoke=True)
    assert traced.correct, traced.problems
    assert list(traced.metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert traced.facts["digest"] == measured.facts["digest"]
    assert traced.attempted == measured.attempted

    def value(metric):
        return traced.metrics[metric]["value"]

    assert 0.0 <= value("ledger.residual_frac") <= 0.10
    paper, cluster = name == "paper_seq_crisp", name == "cluster4_48x48"
    assert (value("validation.calls") > 0) == paper
    assert (value("sim.events.dispatched") > 0) == (not paper)
    assert (value("sim.service.probes") > 0) == (not paper)
    assert (value("cluster.admit.calls") > 0) == cluster
    assert (value("cluster.shard_probes") > 0) == cluster
    assert value("binding.calls") == value("manager.gate.passes")
    trace_file = harness.OUT_DIR / f"trace-{name}.jsonl"
    first = json.loads(trace_file.read_text().splitlines()[0])
    assert {"span", "parent", "name", "start", "end", "app_id"} <= set(first)


def test_driver_form_prints_the_result_as_last_line(capsys):
    code = bench.run.main(
        ["--workload", "fifo_12x12", "--seed", "5", "--smoke", "--trace", "0"]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert set(last["metrics"]["setup_s"]) == {"value", "unit"}
