"""Scenario matrices, sweep determinism, analyzer and report tests."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import (
    ResultAnalyzer,
    ScenarioMatrix,
    canonical_payload,
    cluster_matrix,
    default_matrix,
    large_matrix,
    render_report,
    render_reports,
    run_cell,
    run_sweep,
    smoke_matrix,
    storm_matrix,
)
from repro.sim.service import run_recipe


#: sha256 of each preset's expanded cells at seed 0 (see
#: ``test_preset_cells_are_pinned``); a mismatch is a recipe-header
#: regression, not a digest to refresh
PRESET_DIGESTS = {
    "smoke_matrix":
        "ade75368175dafe70d3b0e17ed3cb3ab02106ed3c86b4a484a9f585655a35e9b",
    "default_matrix":
        "e0f3e94c8c1e25bc9677b1c276ba413a8b65d4e7e0755861981e082129e92a20",
    "storm_matrix":
        "0ed35cac9e04dc0df25835d6608abea25d7758ce8909c7fd88d1da04a165aa00",
    "large_matrix":
        "50246f1d006597c8ac947e0cf3ee52202d5b63c6ec0a208bb316cc66768b0d06",
    "cluster_matrix":
        "0b8cbd82e7a0dc411fbfd07a8617aa1bd921f16481b2831043e26d008b29ab8a",
}


def tiny_matrix(**overrides) -> ScenarioMatrix:
    base = dict(
        name="tiny",
        topologies=("mesh:6x6", "torus:6x6"),
        traffic=("default", "hot_spot"),
        mappers=("kairos", "first_fit"),
        duration=6.0,
        rate_scale=2.0,
        sample_interval=2.0,
    )
    base.update(overrides)
    return ScenarioMatrix(**base)


class TestMatrix:
    def test_expansion_is_full_cross_product(self):
        matrix = tiny_matrix(fastpath=(True, False))
        cells = matrix.expand()
        assert len(cells) == 2 * 2 * 2 * 2
        assert len({cell.cell_id for cell in cells}) == len(cells)

    def test_expansion_order_deterministic(self):
        a = [cell.cell_id for cell in tiny_matrix().expand()]
        b = [cell.cell_id for cell in tiny_matrix().expand()]
        assert a == b
        # topology is the outermost axis
        assert a[0].startswith("mesh:6x6|")
        assert a[-1].startswith("torus:6x6|")

    def test_cell_seeds_differ_across_conditions(self):
        # a condition is (topology, traffic, shards): every mapper of one
        # condition shares its seed, every other axis changes it
        cells = tiny_matrix(
            mappers=("kairos", "first_fit", "random", "annealing"),
        ).expand()
        seeds: dict[tuple, set[int]] = {}
        for cell in cells:
            seeds.setdefault((cell.topology, cell.traffic), set()).add(
                cell.seed
            )
        assert all(len(group) == 1 for group in seeds.values())
        assert len(set.union(*seeds.values())) == len(seeds) == 4
        sharded = tiny_matrix(
            topologies=("mesh:6x6",), mappers=("kairos",), shards=(1, 2),
        ).expand()
        assert len({cell.seed for cell in sharded}) == len(sharded) == 4

    def test_mappers_of_one_condition_see_the_same_arrivals(self):
        cells = tiny_matrix(
            topologies=("mesh:6x6",), traffic=("default",),
            mappers=("kairos", "first_fit"),
        ).expand()
        streams = [
            [
                {key: value for key, value in record.items() if key != "i"}
                for record in run_recipe(cell.recipe).trace
                if record["kind"] == "arrival"
            ]
            for cell in cells
        ]
        assert streams[0] and streams[0] == streams[1]

    def test_toggles_share_seed_and_recipe(self):
        matrix = tiny_matrix(
            topologies=("mesh:6x6",), traffic=("default",),
            mappers=("kairos",), fastpath=(True, False),
        )
        cells = matrix.expand()
        assert len(cells) == 2
        assert len({cell.seed for cell in cells}) == 1
        assert all(cell.recipe == cells[0].recipe for cell in cells)

    def test_matrix_seed_changes_cell_seeds(self):
        a = tiny_matrix(seed=0).expand()
        b = tiny_matrix(seed=1).expand()
        assert all(x.seed != y.seed for x, y in zip(a, b))

    def test_unknown_axis_values_rejected(self):
        with pytest.raises(ValueError):
            tiny_matrix(topologies=("ring:6x6",))
        with pytest.raises(ValueError):
            tiny_matrix(traffic=("nope",))
        with pytest.raises(ValueError):
            tiny_matrix(mappers=("bogus",))
        with pytest.raises(ValueError):
            tiny_matrix(topologies=())
        with pytest.raises(ValueError):
            tiny_matrix(duration=0.0)

    def test_fault_storm_condition_builds_storm_recipe(self):
        matrix = tiny_matrix(
            traffic=("fault_storm",), storm_epicenters=2, storm_radius=1,
        )
        cell = matrix.expand()[0]
        assert cell.recipe["faults"] == 2
        assert cell.recipe["fault_storm"] == 1
        assert cell.recipe["classes"]["kind"] == "default"

    def test_sharded_cells_use_cluster_recipes(self):
        matrix = tiny_matrix(
            topologies=("mesh:6x6",), traffic=("default",),
            mappers=("kairos",), shards=(1, 2),
        )
        single, sharded = matrix.expand()
        assert "shards" not in single.recipe
        assert sharded.recipe["shards"] == 2
        assert sharded.recipe["platform"] == "6x6"

    def test_sharded_constraints_enforced(self):
        with pytest.raises(ValueError, match="mesh"):
            tiny_matrix(
                topologies=("fat_tree:16",), mappers=("kairos",),
                shards=(2,),
            ).expand()
        with pytest.raises(ValueError, match="kairos"):
            tiny_matrix(
                topologies=("mesh:6x6",), mappers=("first_fit",),
                shards=(2,),
            ).expand()

    def test_duration_overrides_apply_per_topology(self):
        matrix = tiny_matrix(
            duration_overrides={"torus:6x6": 3.0},
        )
        by_topology = {
            cell.topology: cell.recipe["duration"]
            for cell in matrix.expand()
        }
        assert by_topology == {"mesh:6x6": 6.0, "torus:6x6": 3.0}

    def test_spec_round_trip(self):
        matrix = tiny_matrix(fastpath=(True, False))
        spec = json.loads(json.dumps(matrix.describe()))
        rebuilt = ScenarioMatrix.from_spec(spec)
        assert rebuilt == matrix
        assert [cell.cell_id for cell in rebuilt.expand()] == [
            cell.cell_id for cell in matrix.expand()
        ]

    def test_from_spec_rejects_unknown_keys(self):
        spec = tiny_matrix().describe()
        spec["typo"] = 1
        with pytest.raises(ValueError, match="typo"):
            ScenarioMatrix.from_spec(spec)

    def test_presets_expand(self):
        for preset in (smoke_matrix, default_matrix, storm_matrix,
                       large_matrix, cluster_matrix):
            cells = preset().expand()
            assert cells
            assert len({cell.cell_id for cell in cells}) == len(cells)

    @pytest.mark.parametrize("preset", [
        smoke_matrix, default_matrix, storm_matrix, large_matrix,
        cluster_matrix,
    ], ids=lambda preset: preset.__name__)
    def test_preset_cells_are_pinned(self, preset):
        """Every preset's cells — id, seed and the recipe as its trace
        header writes it — hash to the digest recorded when sharded
        cells still had a builder of their own, so merging the two
        builders changed no cell."""
        digest = hashlib.sha256()
        for cell in preset().expand():
            digest.update(f"{cell.cell_id}|{cell.seed}|".encode())
            digest.update(json.dumps(
                cell.recipe, sort_keys=True, separators=(",", ":")
            ).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == PRESET_DIGESTS[preset.__name__]


class TestSweepDeterminism:
    @pytest.fixture(scope="class")
    def matrix(self):
        return ScenarioMatrix(
            name="determinism",
            topologies=("mesh:6x6", "fat_tree:16"),
            traffic=("default", "hot_spot"),
            mappers=("kairos", "first_fit"),
            duration=6.0,
            rate_scale=2.0,
            sample_interval=2.0,
        )

    @pytest.fixture(scope="class")
    def serial_report(self, matrix):
        return run_sweep(matrix, jobs=1)

    def test_parallel_equals_serial(self, matrix, serial_report):
        pooled = run_sweep(matrix, jobs=2)
        assert canonical_payload(serial_report) == canonical_payload(
            pooled
        )

    def test_same_seed_byte_identical(self, matrix, serial_report):
        again = run_sweep(matrix, jobs=1)
        assert canonical_payload(serial_report) == canonical_payload(
            again
        )

    def test_different_seed_differs(self, matrix, serial_report):
        reseeded = ScenarioMatrix.from_spec(
            {**matrix.describe(), "seed": 99}
        )
        other = run_sweep(reseeded, jobs=1)
        assert canonical_payload(serial_report) != canonical_payload(
            other
        )

    def test_canonical_payload_strips_wall_clock(self, serial_report):
        payload = canonical_payload(serial_report)
        assert "wall_seconds" not in payload
        assert "events_per_second" not in payload
        assert "environment" not in payload

    def test_cells_report_decisions_and_timing(self, serial_report):
        for cell in serial_report["cells"]:
            decisions = cell["decisions"]
            assert decisions["offered"] >= decisions["admitted"]
            assert 0.0 <= decisions["blocking_probability"] <= 1.0
            assert decisions["trace_digest"]
            assert cell["timing"]["wall_seconds"] > 0.0

    def test_sharded_cells_run_through_cluster(self):
        matrix = ScenarioMatrix(
            name="shards",
            topologies=("mesh:6x6",),
            traffic=("default",),
            shards=(1, 2),
            duration=6.0,
            rate_scale=2.0,
        )
        report = run_sweep(matrix, jobs=1)
        pooled = run_sweep(matrix, jobs=2)
        assert canonical_payload(report) == canonical_payload(pooled)

    def test_run_cell_is_self_contained(self, matrix):
        cell = matrix.expand()[0]
        first = run_cell(cell.payload())
        second = run_cell(cell.payload())
        assert first["decisions"] == second["decisions"]


def fake_cell(topology="mesh:6x6", traffic="default", mapper="kairos",
              fastpath=True, shards=1, goodput=1.0,
              blocking=0.1, wall=1.0, digest="d0"):
    cell_id = f"{topology}|{traffic}|{mapper}|fp{int(fastpath)}|sh{shards}"
    return {
        "cell_id": cell_id,
        "axes": {
            "topology": topology, "traffic": traffic, "mapper": mapper,
            "fastpath": fastpath, "shards": shards,
        },
        "seed": 1,
        "decisions": {
            "offered": 10, "admitted": 8, "departed": 6, "dropped": 2,
            "drops_by_reason": {}, "rejections_by_phase": {},
            "blocking_probability": blocking,
            "admission_wait": {"p50": 0.1, "p95": 0.5, "p99": 0.9},
            "per_class": {}, "goodput": goodput,
            "mean_utilization": 0.5, "peak_queue_depth": 3,
            "faults": {"injected": 0, "recovered": 0, "lost": 0},
            "events_processed": 100, "fastpath_stats": None,
            "trace_digest": digest,
        },
        "timing": {
            "wall_seconds": wall, "events_per_second": 100.0,
            "phase_total_ms": 10.0, "mapping_share": 0.6,
        },
    }


class TestAnalyzer:
    def test_per_condition_groups_by_axis(self):
        cells = [
            fake_cell(mapper="kairos", goodput=2.0),
            fake_cell(mapper="first_fit", goodput=1.0),
            fake_cell(mapper="kairos", traffic="hot_spot", goodput=4.0),
        ]
        table = ResultAnalyzer(cells).per_condition("mapper")
        assert table["kairos"]["goodput"]["count"] == 2
        assert table["kairos"]["goodput"]["mean"] == pytest.approx(3.0)
        assert table["first_fit"]["goodput"]["mean"] == pytest.approx(1.0)

    def test_condition_tables_skip_constant_axes(self):
        cells = [
            fake_cell(mapper="kairos"), fake_cell(mapper="first_fit"),
        ]
        tables = ResultAnalyzer(cells).condition_tables()
        assert "mapper" in tables
        assert "topology" not in tables

    def test_best_strategy_ranks_by_goodput_then_blocking(self):
        cells = [
            fake_cell(mapper="kairos", goodput=2.0, blocking=0.2),
            fake_cell(mapper="first_fit", goodput=2.0, blocking=0.1),
            fake_cell(mapper="random", goodput=1.0, blocking=0.0),
        ]
        table = ResultAnalyzer(cells).best_strategy()
        row = table["mesh:6x6|default"]
        assert row["mapper"] == "first_fit"
        assert row["runner_up"] == "kairos"
        assert row["margin"] == pytest.approx(0.0)

    def test_best_strategy_ignores_degraded_cells(self):
        cells = [
            fake_cell(mapper="kairos", fastpath=False, goodput=9.0),
            fake_cell(mapper="kairos", goodput=1.0),
            fake_cell(mapper="random", goodput=2.0),
        ]
        table = ResultAnalyzer(cells).best_strategy()
        assert table["mesh:6x6|default"]["mapper"] == "random"

    def test_speedup_table_pairs_toggles(self):
        cells = [
            fake_cell(fastpath=True, wall=1.0, digest="same"),
            fake_cell(fastpath=False, wall=2.0, digest="same"),
        ]
        table = ResultAnalyzer(cells).speedup_table("fastpath")
        row = next(iter(table.values()))
        assert row["speedup"] == pytest.approx(2.0)
        assert row["decisions_identical"] is True

    def test_speedup_table_flags_decision_divergence(self):
        cells = [
            fake_cell(fastpath=True, digest="a"),
            fake_cell(fastpath=False, digest="b"),
        ]
        table = ResultAnalyzer(cells).speedup_table("fastpath")
        row = next(iter(table.values()))
        assert row["decisions_identical"] is False

    def test_removed_incremental_axis_is_rejected(self):
        # a matrix file written before PR 12 fails loudly, never silently
        spec = tiny_matrix().describe()
        assert "incremental" not in spec
        with pytest.raises(ValueError, match="incremental"):
            ScenarioMatrix.from_spec({**spec, "incremental": [True, False]})
        with pytest.raises(ValueError):
            ResultAnalyzer([]).speedup_table("incremental")
        analysis = ResultAnalyzer([fake_cell()]).analysis()
        assert set(analysis) == {"decisions", "best_strategy", "timing"}

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            ResultAnalyzer([]).per_condition("colour")
        with pytest.raises(ValueError):
            ResultAnalyzer([]).speedup_table("mapper")


class TestReport:
    def test_render_contains_tables(self):
        matrix = tiny_matrix(
            topologies=("mesh:6x6",), traffic=("default",),
            duration=4.0,
        )
        report = run_sweep(matrix, jobs=1)
        document = render_report(report)
        assert "## Matrix `tiny`" in document
        assert "### By mapper" in document
        assert "### Cells" in document
        assert "mesh:6x6|default|kairos|fp1|sh1" in document

    def test_render_reports_bundles_matrices(self):
        matrix = tiny_matrix(
            topologies=("mesh:6x6",), traffic=("default",),
            mappers=("kairos",), duration=4.0,
        )
        report = run_sweep(matrix, jobs=1)
        document = render_reports([report, report], "Sweep title")
        assert document.startswith("# Sweep title")
        assert document.count("## Matrix `tiny`") == 2
