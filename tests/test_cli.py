"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main


class TestInfo:
    def test_info_prints_platform(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "crisp_5pkg" in out
        assert "45x dsp" in out
        assert "beamforming" in out


class TestPackInspectAllocate:
    def test_pack_generated_then_inspect(self, tmp_path, capsys):
        target = tmp_path / "app.kair"
        assert main(["pack", "--generate", "5", str(target)]) == 0
        assert target.exists()
        assert main(["inspect", str(target)]) == 0
        out = capsys.readouterr().out
        assert "generated_5" in out
        assert "task" in out

    def test_pack_beamformer(self, tmp_path, capsys):
        target = tmp_path / "beam.kair"
        assert main(["pack", "--beamformer", str(target)]) == 0
        out = capsys.readouterr().out
        assert "53 tasks" in out

    def test_allocate_generated(self, tmp_path, capsys):
        target = tmp_path / "app.kair"
        main(["pack", "--generate", "5", str(target)])
        code = main(["allocate", str(target), "--validation", "skip"])
        out = capsys.readouterr().out
        assert code == 0
        assert "execution layout" in out
        assert "timings" in out

    def test_allocate_with_plan_and_analytical(self, tmp_path, capsys):
        target = tmp_path / "app.kair"
        main(["pack", "--generate", "6", str(target)])
        code = main(["allocate", str(target), "--plan"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bootstrap plan" in out
        assert "constraints satisfied" in out

    def test_allocate_missing_file(self, capsys):
        assert main(["allocate", "/nonexistent.kair"]) == 2

    def test_inspect_non_kairos_file(self, tmp_path, capsys):
        target = tmp_path / "not.kair"
        target.write_bytes(b"\x7fELF" + b"\x00" * 16)
        assert main(["inspect", str(target)]) == 1
        assert "not a Kairos" in capsys.readouterr().out


class TestExperimentCommands:
    def test_table1_smoke(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_APPS", "4")
        monkeypatch.setenv("REPRO_SEQUENCES", "1")
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I (measured)" in out
        assert "Communication Small" in out

    def test_fig10_smoke(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FIG10_COMM_STEP", "25")
        monkeypatch.setenv("REPRO_FIG10_FRAG_STEP", "1000")
        assert main(["fig10"]) == 0
        assert "admission" in capsys.readouterr().out


class TestSim:
    def test_sim_smoke(self, capsys):
        code = main([
            "sim", "--platform", "4x4", "--duration", "10",
            "--policy", "fifo", "--rate-scale", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "events processed" in out
        assert "blocking" in out
        assert "class interactive" in out

    def test_sim_record_then_replay_identical(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "sim", "--platform", "4x4", "--duration", "10",
            "--policy", "retry", "--rate-scale", "3", "--faults", "1",
            "--record", str(trace),
        ]) == 0
        assert trace.exists()
        assert main(["sim", "--replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "REPLAY IDENTICAL" in out

    def test_sim_resilient_storm_record_then_replay(self, tmp_path, capsys):
        trace = tmp_path / "storm.jsonl"
        assert main([
            "sim", "--platform", "6x6", "--duration", "20",
            "--policy", "priority", "--rate-scale", "8", "--seed", "3",
            "--faults", "2", "--fault-mttr", "5", "--fault-storm", "1",
            "--resilience", "--record", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "requeue" in out
        assert main(["sim", "--replay", str(trace)]) == 0
        assert "REPLAY IDENTICAL" in capsys.readouterr().out

    def test_sim_resilience_knobs_validated(self, capsys):
        assert main([
            "sim", "--platform", "4x4", "--duration", "5",
            "--fault-links", "1.5",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sim_replay_missing_file(self, capsys):
        assert main(["sim", "--replay", "/nonexistent.jsonl"]) == 2

    def test_sim_replay_incomplete_header(self, tmp_path, capsys):
        trace = tmp_path / "broken.jsonl"
        trace.write_text('{"header": {"platform": "4x4"}}\n')
        assert main(["sim", "--replay", str(trace)]) == 2
        assert "missing" in capsys.readouterr().err

    def test_sim_bad_platform_spec(self, capsys):
        assert main(["sim", "--platform", "bogus", "--duration", "5"]) == 2

    def test_sim_unwritable_record_path(self, capsys):
        assert main([
            "sim", "--platform", "3x3", "--duration", "2",
            "--record", "/nonexistent-dir/t.jsonl",
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestClusterSim:
    def test_cluster_sim_smoke(self, capsys):
        code = main([
            "cluster", "sim", "--platform", "6x6", "--shards", "2",
            "--duration", "10", "--rate-scale", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "across 2 shard(s)" in out
        assert "events processed" in out

    def test_cluster_kill_campaign_record_then_replay(self, tmp_path,
                                                      capsys):
        trace = tmp_path / "cluster.jsonl"
        assert main([
            "cluster", "sim", "--platform", "6x6", "--shards", "2",
            "--duration", "20", "--rate-scale", "2", "--kills", "1",
            "--downtime", "8", "--record", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "shard kills" in out
        assert "availability" in out
        assert main(["cluster", "sim", "--replay", str(trace)]) == 0
        assert "REPLAY IDENTICAL" in capsys.readouterr().out

    def test_cluster_sim_prints_the_shared_summary(self, capsys):
        # the same summary printer as `repro sim`: wait, per-class and
        # (with --warmup) steady-state lines
        assert main([
            "cluster", "sim", "--platform", "6x6", "--shards", "2",
            "--duration", "10", "--rate-scale", "2", "--warmup", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "admission wait" in out
        assert "class interactive" in out
        assert "steady state" in out and "warmup 4 excluded" in out

    def test_cluster_sim_validates_shard_split(self, capsys):
        assert main([
            "cluster", "sim", "--platform", "6x6", "--shards", "4",
            "--duration", "5",
        ]) == 2
        assert "error:" in capsys.readouterr().err


#: wall-clock fields, the only output that varies run to run
_WALL = re.compile(r"\([\d,]+ events/s wall\)")
_PROFILE_ROW = re.compile(r"^(  \w+\s+\d+)(\s+[\d.]+){4}$")


def _masked(text: str) -> str:
    return "\n".join(
        _PROFILE_ROW.sub(r"\1 <timings>",
                         _WALL.sub("(<wall> events/s wall)", line))
        for line in text.splitlines()
    ) + "\n"


SIM_GOLDEN = """\
simulated 20 time units on 6x6 (fifo policy, seed 1)
  events processed : 172 (<wall> events/s wall)
  offered/admitted : 125 / 59 (blocking 0.459)
  departures/drops : 42 / 66 {'drained': 16, 'queue_full': 50}
  admission wait   : p50 0.000, p95 11.879, p99 11.961
  mean utilization : 0.831 (peak queue depth 16)
  class batch       : 11/42 admitted (26.19%)
  class bursty      : 4/5 admitted (80.00%)
  class interactive : 44/78 admitted (56.41%)
  faults           : 1 injected, 2 recovered, 0 lost
  resilience       : 0 repairs, 0 quarantines, availability 0.9861, mttr n/a
  requeue          : 0 retries, 0 lost-then-recovered

per-phase wall-clock latency (ms per attempt):
  phase          count       p50       p95       p99      total
  binding          180 <timings>
  mapping           67 <timings>
  routing           59 <timings>
"""

CLUSTER_GOLDEN = """\
simulated 20 time units on 6x6 across 2 shard(s) (fifo policy, seed 0)
  events processed : 138 (<wall> events/s wall)
  offered/admitted : 77 / 37 (blocking 0.403)
  departures/drops : 27 / 40 {'drained': 15, 'queue_full': 11, \
'shed_watermark': 14}
  admission wait   : p50 0.000, p95 12.817, p99 14.545
  mean utilization : 0.535 (peak queue depth 16)
  class batch       : 7/16 admitted (43.75%)
  class bursty      : 12/22 admitted (54.55%)
  class interactive : 18/39 admitted (46.15%)
  shard kills      : 1 injected, 0 recovered immediately, 4 lost
  requeue          : 16 retries, 2 lost-then-recovered
  availability     : 0.8000
  overload         : 14 shed, 0 deadline-expired, 0 retry-denied
  brownout         : max level 1, 1 transition(s)
  breakers         : 0 transition(s), 0 probe(s) refused
"""


class TestGoldenOutput:
    """Both sim commands share one handler; their stdout is pinned
    line for line (wall-clock fields masked) so the shared body
    cannot drift either command's report."""

    def test_sim_stdout(self, capsys):
        assert main([
            "sim", "--platform", "6x6", "--duration", "20",
            "--rate-scale", "4", "--seed", "1", "--faults", "1",
            "--resilience", "--profile",
        ]) == 0
        assert _masked(capsys.readouterr().out) == SIM_GOLDEN

    def test_cluster_sim_stdout(self, capsys):
        assert main([
            "cluster", "sim", "--platform", "6x6", "--shards", "2",
            "--duration", "20", "--rate-scale", "2", "--kills", "1",
            "--downtime", "8", "--overload",
        ]) == 0
        assert _masked(capsys.readouterr().out) == CLUSTER_GOLDEN


class TestSweep:
    def test_sweep_smoke_verifies_and_writes(self, tmp_path, capsys):
        output = tmp_path / "sweep.json"
        report = tmp_path / "sweep.md"
        code = main([
            "sweep", "--smoke",
            "--output", str(output), "--report", str(report),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "SWEEP VERIFIED" in out
        assert "swept matrix 'smoke'" in out
        assert "best=" in out
        payload = json.loads(output.read_text())
        assert payload["name"] == "smoke"
        assert len(payload["cells"]) == 8
        assert report.read_text().startswith("# Scenario sweep: smoke")

    def test_sweep_matrix_from_file(self, tmp_path, capsys):
        spec = {
            "name": "filed",
            "topologies": ["mesh:4x4"],
            "traffic": ["default"],
            "mappers": ["kairos", "first_fit"],
            "duration": 4.0,
            "rate_scale": 2.0,
        }
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(spec))
        code = main(["sweep", "--matrix", str(path), "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "swept matrix 'filed': 2 cells" in out

    def test_sweep_bad_matrix_rejected(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"name": "bad",
                                    "topologies": ["ring:4x4"]}))
        assert main(["sweep", "--matrix", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sim_traffic_and_mapper_flags(self, capsys):
        code = main([
            "sim", "--platform", "fat_tree:16", "--duration", "6",
            "--traffic", "hot_spot", "--mapper", "first_fit",
            "--rate-scale", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "class hot" in out

    def test_sim_unknown_traffic_rejected(self, capsys):
        assert main([
            "sim", "--duration", "5", "--traffic", "nope",
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestArgparse:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_removed_batch_plan_flag_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sim", "--batch-plan", "8"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["allocate", "plan"])
    def test_removed_method_flag_rejected(self, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "app.kair", "--method", "analytical"])
        assert excinfo.value.code == 2

    def test_pack_requires_source(self):
        with pytest.raises(SystemExit):
            main(["pack", "out.kair"])
