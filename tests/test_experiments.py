"""Tests for the experiment harness and the table/figure generators.

These run at smoke scale (tiny datasets, few sequences) — the full
paper-scale runs live in the benchmark suite.  The assertions check
the *protocol* (filtering, sequencing, aggregation, rendering), plus
the coarse qualitative shapes that survive even tiny runs.
"""

from __future__ import annotations

import pytest

from repro.apps.datasets import DatasetSpec
from repro.core import NAMED_WEIGHTS, BOTH
from repro.experiments import (
    HarnessScale,
    case_study_timing,
    default_platform,
    format_fig10,
    format_fig7,
    format_fig8,
    format_fig9,
    format_table1,
    prepare_dataset,
    run_dataset_sequences,
    run_fig10,
    run_fig89,
    run_sequence,
)
from repro.experiments.reporting import (
    admission_matrix,
    ascii_table,
    series_block,
)
from repro.manager import Phase
from repro.manager.metrics import failure_distribution, summarize_positions

TINY = HarnessScale(applications=8, sequences=2, positions=8)


@pytest.fixture(scope="module")
def platform():
    return default_platform()


@pytest.fixture(scope="module")
def prepared_comm_small(platform):
    return prepare_dataset(
        DatasetSpec("communication", "small"),
        applications=TINY.applications, seed=0, platform=platform,
    )


class TestHarness:
    def test_filter_keeps_only_mappable(self, prepared_comm_small):
        assert 0 < prepared_comm_small.surviving <= TINY.applications
        assert prepared_comm_small.generated == TINY.applications

    def test_filter_does_not_leak_allocations(self, platform, prepared_comm_small):
        # a fresh manager on the shared platform sees an empty state
        from repro.manager import Kairos
        manager = Kairos(platform)
        assert manager.utilization() == 0.0

    def test_run_sequence_records_every_position(self, prepared_comm_small, platform):
        recorder = run_sequence(
            prepared_comm_small.applications, BOTH, platform,
        )
        assert len(recorder.records) == prepared_comm_small.surviving
        positions = [r.position for r in recorder.records]
        assert positions == list(range(1, len(positions) + 1))

    def test_sequences_are_shuffled_deterministically(self, prepared_comm_small, platform):
        first = run_dataset_sequences(
            prepared_comm_small, BOTH, sequences=2, seed=3, platform=platform,
        )
        second = run_dataset_sequences(
            prepared_comm_small, BOTH, sequences=2, seed=3, platform=platform,
        )
        names_first = [[r.app_name for r in rec.records] for rec in first]
        names_second = [[r.app_name for r in rec.records] for rec in second]
        assert names_first == names_second
        # different sequences within a run use different orders
        if prepared_comm_small.surviving > 3:
            assert names_first[0] != names_first[1]

    def test_positions_cap(self, prepared_comm_small, platform):
        recorder = run_sequence(
            prepared_comm_small.applications, BOTH, platform, positions=3,
        )
        assert len(recorder.records) <= 3

    def test_scale_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_APPS", "7")
        monkeypatch.setenv("REPRO_SEQUENCES", "2")
        scale = HarnessScale.from_environment()
        assert scale.applications == 7
        assert scale.sequences == 2


class TestTable1Protocol:
    def test_failure_distribution_sums_to_100(self, prepared_comm_small, platform):
        recorders = run_dataset_sequences(
            prepared_comm_small, BOTH, sequences=2, seed=0, platform=platform,
        )
        distribution = failure_distribution(recorders)
        total = sum(distribution.values())
        assert total == pytest.approx(100.0) or total == 0.0

    def test_format_table1_renders(self):
        from repro.experiments.table1 import Table1Result, Table1Row
        result = Table1Result(
            rows=[Table1Row("communication_small", "Communication Small",
                            9, 1.0, 0.0, 99.0)],
            scale=TINY,
        )
        text = format_table1(result, include_paper=True)
        assert "Communication Small" in text
        assert "(paper, for reference)" in text

    def test_dominant_phase(self):
        from repro.experiments.table1 import Table1Row
        row = Table1Row("x", "X", 5, 10.0, 0.0, 90.0)
        assert row.dominant_phase() == "routing"


class TestFig89:
    def test_run_and_render(self, platform):
        result = run_fig89(
            scale=HarnessScale(applications=6, sequences=1, positions=6),
            seed=0, platform=platform,
            objectives={"None": NAMED_WEIGHTS["None"],
                        "Both": NAMED_WEIGHTS["Both"]},
        )
        assert set(result.series) == {"None", "Both"}
        both = result.objective("Both")
        assert len(both.summaries) == 6
        assert all(0 <= rate <= 100 for rate in both.success_rate())
        assert all(0 <= frag <= 100 for frag in both.fragmentation())
        text8 = format_fig8(result)
        text9 = format_fig9(result)
        assert "hops/channel" in text8
        assert "fragmentation %" in text9


class TestFig10:
    def test_tiny_grid(self, platform):
        result = run_fig10(
            comm_weights=(0, 2), frag_weights=(0, 100), platform=platform,
        )
        assert len(result.admitted) == 4
        # the paper's strongest claim we reproduce: zero communication
        # weight never admits the beamformer
        assert not result.column_admits(0)
        text = format_fig10(result)
        assert "admission" in text

    def test_failures_tagged_by_phase(self, platform):
        result = run_fig10(
            comm_weights=(0,), frag_weights=(0,), platform=platform,
        )
        assert result.failures[(0, 0)] in ("binding", "mapping", "routing")

    def test_case_study_timing(self, platform):
        timings = case_study_timing(platform=platform, repeats=1)
        ms = timings.as_milliseconds()
        assert all(value > 0 for value in ms.values())

    @pytest.mark.perf
    @pytest.mark.xfail(
        strict=True,
        reason="known deviation: the binder answers best-fit queries from "
        "the capacity index, so binding costs a third of mapping; see "
        "benchmarks/bench_case_study.py",
    )
    def test_case_study_binding_dominates_mapping(self, platform):
        # the paper's shape (Section IV-A): binding is the bottleneck of
        # the 53-task application and mapping is cheap relative to it
        ms = case_study_timing(platform=platform, repeats=3).as_milliseconds()
        assert ms["mapping"] < ms["binding"]


class TestReporting:
    def test_ascii_table_alignment(self):
        text = ascii_table(["a", "long header"], [[1, 2.5], [10, None]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # all same width
        assert "-" in lines[1]
        assert " -" in text or "- " in text  # None rendered as '-'

    def test_series_block(self):
        text = series_block("s", [1, 2, 3], [0.5, None, 1.5])
        assert "[s]" in text
        assert text.count("\n") == 2

    def test_admission_matrix(self):
        text = admission_matrix(
            (0, 1), (0, 10),
            {(0, 0): False, (1, 0): True, (0, 10): False, (1, 10): True},
        )
        assert ".#" in text
