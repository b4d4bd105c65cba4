"""Replay determinism: recorded traces must reproduce bit-identically.

Property-style over several seeds and policies: record a run to
JSONL, replay it from its own header recipe, and require the replayed
decision stream to be bit-identical (same canonical serialisation,
record by record) — the acceptance criterion of the ``repro.sim``
subsystem.  Also covers the trace container itself: canonical
round-tripping, digesting, and divergence reporting.
"""

from __future__ import annotations

import json

import pytest

from repro.sim import (
    TraceRecorder,
    build_recipe,
    diff_traces,
    read_trace,
    replay_trace,
    run_recipe,
    trace_digest,
    write_trace,
)


class TestTraceContainer:
    def test_round_trip_preserves_floats_bit_exactly(self, tmp_path):
        recorder = TraceRecorder()
        recorder.record(0.1 + 0.2, "admit", id="a#1", wait=1 / 3)
        recorder.record(2.0, "drop", id="a#2", reason="timeout")
        path = write_trace(
            tmp_path / "t.jsonl", recorder.records, header={"seed": 1}
        )
        header, records = read_trace(path)
        assert header == {"seed": 1}
        assert records == recorder.records
        assert records[0]["t"] == 0.1 + 0.2  # repr-exact float round-trip

    def test_headerless_trace_reads_all_records(self, tmp_path):
        recorder = TraceRecorder()
        recorder.record(1.0, "arrival", id="x")
        path = write_trace(tmp_path / "t.jsonl", recorder.records)
        header, records = read_trace(path)
        assert header is None
        assert len(records) == 1

    def test_digest_is_order_and_content_sensitive(self):
        first = [{"i": 0, "t": 1.0, "kind": "arrival"}]
        second = [{"i": 0, "t": 1.0, "kind": "arrival"}]
        assert trace_digest(first) == trace_digest(second)
        second[0]["t"] = 1.0000000001
        assert trace_digest(first) != trace_digest(second)

    def test_diff_reports_first_divergence_and_length(self):
        base = [{"i": 0, "kind": "a"}, {"i": 1, "kind": "b"}]
        same = [dict(r) for r in base]
        assert diff_traces(base, same) == []
        mutated = [dict(r) for r in base]
        mutated[1]["kind"] = "c"
        differences = diff_traces(base, mutated)
        assert len(differences) == 1 and "record 1" in differences[0]
        assert "length mismatch" in diff_traces(base, base[:1])[-1]

    def test_replay_requires_a_header(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", [{"i": 0, "kind": "x"}])
        with pytest.raises(ValueError):
            replay_trace(path)


class TestReplayDeterminism:
    """The tentpole acceptance criterion, property-style over seeds."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_replay_is_bit_identical_across_seeds(self, tmp_path, seed):
        recipe = build_recipe(
            platform="4x4", duration=20.0, seed=seed, policy="fifo",
            rate_scale=3.0,
        )
        path = tmp_path / f"trace_{seed}.jsonl"
        recorded = run_recipe(recipe, trace_path=path)
        identical, differences, replayed = replay_trace(path)
        assert identical, differences
        assert trace_digest(recorded.trace) == trace_digest(replayed.trace)

    @pytest.mark.parametrize("policy", ["reject", "priority", "retry"])
    def test_replay_is_bit_identical_across_policies(self, tmp_path, policy):
        recipe = build_recipe(
            platform="4x4", duration=15.0, seed=5, policy=policy,
            rate_scale=3.0,
        )
        path = tmp_path / f"trace_{policy}.jsonl"
        run_recipe(recipe, trace_path=path)
        identical, differences, _ = replay_trace(path)
        assert identical, differences

    def test_replay_with_faults_is_bit_identical(self, tmp_path):
        recipe = build_recipe(
            platform="5x5", duration=20.0, seed=9, policy="fifo",
            rate_scale=3.0, faults=2,
        )
        path = tmp_path / "trace_faults.jsonl"
        run_recipe(recipe, trace_path=path)
        identical, differences, _ = replay_trace(path)
        assert identical, differences

    def test_header_with_the_removed_batch_plan_key_still_replays(
        self, tmp_path
    ):
        """Traces recorded by ``--batch-plan N`` (removed in PR 15)
        stay replayable: decisions never depended on the key."""
        recipe = build_recipe(
            platform="4x4", duration=15.0, seed=2, policy="fifo",
            rate_scale=4.0,
        )
        recorded = run_recipe(recipe)
        path = write_trace(
            tmp_path / "batched.jsonl", recorded.trace,
            header={**recipe, "batch_plan": 8},
        )
        identical, differences, _ = replay_trace(path)
        assert identical, differences

    @pytest.mark.parametrize("shards, key, value", [
        (None, "kills", 2),
        (1, "faults", 3),
    ], ids=["plain_header_with_kills", "cluster_header_with_faults"])
    def test_header_with_a_key_of_the_other_backend_is_refused(
        self, tmp_path, shards, key, value
    ):
        """A header carrying a key its backend never runs would replay
        "identical" while claiming a different run: replay refuses it
        with the message :func:`build_recipe` gives, and ``--replay``
        exits 2."""
        from repro.cli import main

        recipe = build_recipe(
            platform="4x4", duration=10.0, seed=2, rate_scale=2.0,
            shards=shards,
        )
        recorded = run_recipe(recipe)
        path = write_trace(
            tmp_path / "foreign.jsonl", recorded.trace,
            header={**recipe, key: value},
        )
        with pytest.raises(ValueError, match=key):
            replay_trace(path)
        assert main(["sim", "--replay", str(path)]) == 2

    def test_different_seeds_produce_different_traces(self, tmp_path):
        traces = []
        for seed in (0, 1):
            recipe = build_recipe(
                platform="4x4", duration=15.0, seed=seed, policy="fifo",
                rate_scale=3.0,
            )
            traces.append(run_recipe(recipe).trace)
        assert trace_digest(traces[0]) != trace_digest(traces[1])

    def test_recorded_file_is_valid_jsonl_with_recipe_header(self, tmp_path):
        recipe = build_recipe(
            platform="4x4", duration=10.0, seed=0, policy="reject",
            rate_scale=2.0,
        )
        path = tmp_path / "trace.jsonl"
        run_recipe(recipe, trace_path=path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["header"]["platform"] == "4x4"
        assert header["header"]["policy"]["name"] == "reject"
        kinds = {json.loads(line)["kind"] for line in lines[1:]}
        assert "arrival" in kinds and "sample" in kinds
