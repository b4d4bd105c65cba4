"""Round-trip fuzz for the recipe and JSONL trace formats.

ROADMAP open item 4's second gap: property-based confidence that the
two persistence formats are total over their input spaces —

* **recipes round-trip byte-exactly**: any valid recipe (random knob
  combinations, optional resilience and overload blocks) survives the
  write-trace/read-trace header path with an identical canonical
  serialisation, and the overload/resilience config objects survive
  ``describe()`` → JSON → ``from_spec()`` unchanged;
* **malformed traces fail cleanly**: byte-level mutations, truncations
  and line surgery on a recorded trace make ``read_trace`` either
  succeed (the mutation kept the file well-formed) or raise the
  structured :class:`~repro.sim.trace.TraceFormatError` — never a raw
  ``JSONDecodeError``/``UnicodeDecodeError`` stack trace — and
  corrupted recipe *headers* make ``replay_trace`` /
  ``replay_cluster_trace`` raise a plain ``ValueError`` naming the
  file, never re-raise the underlying ``KeyError``/``TypeError``.

Example budgets come from the tiered profiles in ``conftest.py``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster_recipe
from repro.overload import (
    BreakerPolicy,
    BrownoutPolicy,
    DeadlinePolicy,
    OverloadConfig,
    RetryBudgetPolicy,
    WatermarkPolicy,
)
from repro.resilience import ResilienceConfig
from repro.sim import (
    TraceFormatError,
    build_recipe,
    read_trace,
    replay_trace,
    run_recipe,
    write_trace,
)


def canonical(value: dict) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# -- strategies --------------------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False)

deadline_policies = st.builds(
    DeadlinePolicy,
    budget=st.floats(min_value=1.0, max_value=200.0, **finite),
    class_budgets=st.dictionaries(
        st.sampled_from(["interactive", "batch", "bursty"]),
        st.floats(min_value=1.0, max_value=200.0, **finite),
        max_size=3,
    ),
)

watermark_policies = st.builds(
    WatermarkPolicy,
    high=st.floats(min_value=0.55, max_value=0.95, **finite),
    low=st.floats(min_value=0.05, max_value=0.5, **finite),
    protect_priority=st.integers(min_value=0, max_value=3),
)

retry_budget_policies = st.builds(
    RetryBudgetPolicy,
    capacity=st.floats(min_value=1.0, max_value=64.0, **finite),
    refill_rate=st.floats(min_value=0.05, max_value=4.0, **finite),
)

breaker_policies = st.integers(min_value=2, max_value=16).flatmap(
    lambda window: st.builds(
        BreakerPolicy,
        window=st.just(window),
        failure_threshold=st.floats(min_value=0.1, max_value=1.0, **finite),
        min_samples=st.integers(min_value=1, max_value=window),
        cooldown=st.floats(min_value=0.5, max_value=60.0, **finite),
        half_open_probes=st.integers(min_value=1, max_value=4),
    )
)

brownout_policies = st.builds(
    BrownoutPolicy,
    high=st.floats(min_value=0.55, max_value=0.95, **finite),
    low=st.floats(min_value=0.05, max_value=0.5, **finite),
    step_up=st.integers(min_value=1, max_value=4),
    step_down=st.integers(min_value=1, max_value=6),
    max_level=st.integers(min_value=1, max_value=2),
    ring_cap=st.integers(min_value=1, max_value=4),
)

overload_configs = st.builds(
    OverloadConfig,
    deadline=st.none() | deadline_policies,
    watermark=st.none() | watermark_policies,
    retry_budget=st.none() | retry_budget_policies,
    breaker=st.none() | breaker_policies,
    brownout=st.none() | brownout_policies,
)

recipe_kwargs = st.fixed_dictionaries({
    "platform": st.sampled_from(["6x6", "8x8", "12x12"]),
    "duration": st.floats(min_value=50.0, max_value=300.0, **finite),
    "seed": st.integers(min_value=0, max_value=2**16),
    "policy": st.sampled_from(["reject", "fifo", "priority", "retry"]),
    "rate_scale": st.floats(min_value=0.5, max_value=8.0, **finite),
    "pool_size": st.integers(min_value=1, max_value=8),
    "sample_interval": st.floats(min_value=1.0, max_value=10.0, **finite),
    "warmup": st.floats(min_value=0.0, max_value=10.0, **finite),
    "faults": st.sampled_from([0, 2]),
    "fault_mttr": st.none() | st.just(2.0),
    "resilience": st.none() | st.just(ResilienceConfig()),
    "overload": st.none() | overload_configs,
})

cluster_recipe_kwargs = st.fixed_dictionaries({
    "platform": st.sampled_from(["8x8", "12x12"]),
    # shard count must divide the column count (both 8 and 12 oblige)
    "shards": st.sampled_from([1, 2, 4]),
    "duration": st.floats(min_value=60.0, max_value=300.0, **finite),
    "seed": st.integers(min_value=0, max_value=2**16),
    "policy": st.sampled_from(["fifo", "priority"]),
    "rate_scale": st.floats(min_value=0.5, max_value=8.0, **finite),
    "kills": st.sampled_from([0, 1]),
    "downtime": st.floats(min_value=5.0, max_value=15.0, **finite),
    "allow_split": st.booleans(),
    "overload": st.none() | overload_configs,
})


# -- recipe round trips ------------------------------------------------------


@settings(deadline=None)
@given(config=overload_configs)
def test_overload_config_describe_round_trips(config):
    spec = config.describe()
    blob = canonical(spec)
    again = OverloadConfig.from_spec(json.loads(blob))
    assert again == config
    assert canonical(again.describe()) == blob


@settings(deadline=None)
@given(kwargs=recipe_kwargs)
def test_recipe_header_round_trips(kwargs, tmp_path_factory):
    recipe = build_recipe(**kwargs)
    path = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
    write_trace(path, [], header=recipe)
    header, records = read_trace(path)
    assert records == []
    assert canonical(header) == canonical(recipe)
    # and the loaded header builds the very same run configuration
    if recipe.get("overload") is not None:
        assert (
            OverloadConfig.from_spec(header["overload"])
            == OverloadConfig.from_spec(recipe["overload"])
        )


@settings(deadline=None)
@given(kwargs=cluster_recipe_kwargs)
def test_cluster_recipe_header_round_trips(kwargs, tmp_path_factory):
    recipe = build_cluster_recipe(**kwargs)
    path = tmp_path_factory.mktemp("fuzz") / "c.jsonl"
    write_trace(path, [], header=recipe)
    header, _ = read_trace(path)
    assert canonical(header) == canonical(recipe)


@settings(deadline=None)
@given(config=overload_configs)
def test_overload_recipe_key_is_minimal(config):
    # describe() emits only enabled components, so a recipe recorded
    # with a partial config replays with exactly that partial config
    spec = config.describe()
    for key in ("deadline", "watermark", "retry_budget", "breaker",
                "brownout"):
        assert (key in spec) == (getattr(config, key) is not None)


# -- malformed traces fail cleanly -------------------------------------------


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    """One small real trace (with an overload header) to mutate."""
    recipe = build_recipe(
        platform="6x6", duration=10.0, seed=1, policy="fifo",
        rate_scale=2.0, overload=OverloadConfig.defaults(),
    )
    path = tmp_path_factory.mktemp("trace") / "recorded.jsonl"
    run_recipe(recipe, trace_path=path)
    return path.read_bytes()


@settings(deadline=None)
@given(
    cut=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_truncated_trace_fails_cleanly(recorded_trace, tmp_path_factory,
                                       cut, data):
    blob = recorded_trace[: cut % (len(recorded_trace) + 1)]
    path = tmp_path_factory.mktemp("mut") / "truncated.jsonl"
    path.write_bytes(blob)
    try:
        read_trace(path)
    except TraceFormatError:
        pass  # the clean, structured outcome


@settings(deadline=None)
@given(
    position=st.integers(min_value=0, max_value=10**6),
    replacement=st.integers(min_value=0, max_value=255),
)
def test_byte_flip_fails_cleanly(recorded_trace, tmp_path_factory,
                                 position, replacement):
    blob = bytearray(recorded_trace)
    blob[position % len(blob)] = replacement
    path = tmp_path_factory.mktemp("mut") / "flipped.jsonl"
    path.write_bytes(bytes(blob))
    try:
        read_trace(path)
    except TraceFormatError:
        pass  # never a JSONDecodeError / UnicodeDecodeError escape


@settings(deadline=None)
@given(
    line_pick=st.integers(min_value=0),
    garbage=st.sampled_from([
        b"", b"{", b"[1, 2, 3]", b"null", b'"just a string"',
        b"{'single': 'quotes'}", b"\xff\xfe binary", b"42",
    ]),
)
def test_line_surgery_fails_cleanly(recorded_trace, tmp_path_factory,
                                    line_pick, garbage):
    lines = recorded_trace.splitlines()
    lines[line_pick % len(lines)] = garbage
    path = tmp_path_factory.mktemp("mut") / "surgery.jsonl"
    path.write_bytes(b"\n".join(lines))
    try:
        read_trace(path)
    except TraceFormatError:
        pass


def _write_header_trace(tmp_path, header_line: str):
    path = tmp_path / "bad_header.jsonl"
    path.write_text(header_line + "\n")
    return path


@pytest.mark.parametrize("header_line", [
    '{"header": {"platform": "12x12"}}',  # missing required keys
    '{"header": {"platform": "12x12", "duration": "soon", "seed": 0, '
    '"sample_interval": 5.0, "policy": {"name": "fifo"}, "classes": '
    '{"kind": "default", "seed": 0, "rate_scale": 1.0, "pool_size": 8}}}',
    '{"header": {"platform": "12x12", "duration": 10.0, "seed": 0, '
    '"sample_interval": 5.0, "policy": "fifo", "classes": null}}',
])
def test_corrupt_header_replays_as_value_error(tmp_path, header_line):
    path = _write_header_trace(tmp_path, header_line)
    with pytest.raises(ValueError) as excinfo:
        replay_trace(path)
    # the structured error names the file; the raw KeyError/TypeError
    # never escapes
    assert str(path) in str(excinfo.value)


def test_corrupt_cluster_header_replays_as_value_error(tmp_path):
    from repro.cluster import replay_cluster_trace

    path = _write_header_trace(
        tmp_path, '{"header": {"shards": 2, "platform": "12x12"}}'
    )
    with pytest.raises(ValueError) as excinfo:
        replay_cluster_trace(path)
    assert str(path) in str(excinfo.value)


def test_non_object_header_is_trace_format_error(tmp_path):
    path = _write_header_trace(tmp_path, '{"header": [1, 2, 3]}')
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_mutated_overload_block_replays_as_value_error(tmp_path):
    # an overload block of the wrong shape is caught at config
    # parsing, surfacing as the replay ValueError
    recipe = build_recipe(platform="6x6", duration=10.0, seed=1)
    recipe["overload"] = {"deadline": "yes please"}
    path = tmp_path / "bad_overload.jsonl"
    write_trace(path, [], header=recipe)
    with pytest.raises(ValueError):
        replay_trace(path)
