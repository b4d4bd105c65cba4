"""Estimators and span arithmetic of the benchmark harness.

Pure functions over plain lists, so ``bench/test_harness.py`` can pin
the rules without running a workload:

* :func:`percentile` — nearest-rank, refusing a percentile that leaves
  fewer than ten samples beyond it,
* :func:`per_operation_min` — the estimator behind every timing: the
  *i*-th operation (or stretch between two operations) of every lap is
  the same deterministic work and host interference only ever adds
  time, so the minimum across laps is its least-disturbed observation,
* :func:`self_times` / :func:`build_ledger` — a span's self time is its
  duration minus the part its direct children cover; a layer's row sums
  the self times of its spans, and the rows plus the residual add up to
  the root span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: a percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """The requested percentile would rest on fewer than ten tail samples."""


def percentile(values, q: float, min_tail: int = MIN_TAIL_SAMPLES) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (0 < q < 100).

    Raises :class:`TooFewSamples` when fewer than ``min_tail`` samples
    lie beyond the returned rank — p95 therefore needs 200 samples and
    the median 20.
    """
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    ordered = sorted(values)
    count = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * count))
    beyond = count - rank
    if beyond < min_tail:
        raise TooFewSamples(
            f"p{q:g} of {count} samples leaves {beyond} beyond it "
            f"(need {min_tail})"
        )
    return ordered[rank - 1]


def per_operation_min(laps: list[list[float]]) -> list[float]:
    """Element-wise minimum over laps of equal length."""
    if not laps:
        raise ValueError("need at least one lap")
    length = len(laps[0])
    if any(len(lap) != length for lap in laps):
        raise ValueError(
            "laps differ in operation count: "
            f"{[len(lap) for lap in laps]}"
        )
    if len(laps) == 1:
        return list(laps[0])
    return [min(sample) for sample in zip(*laps)]


# -- spans -------------------------------------------------------------------

#: positions in a span record (see bench.tracing.Recorder)
NAME, START, END, PARENT, IDENT, FAILED, EXTRA = range(7)


def self_times(spans: list[tuple]) -> list[float]:
    """Per-span duration minus the durations of its direct children.

    Children run strictly inside their parent (the recorder is a
    stack), so the result is never negative beyond clock granularity.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own


def descendants(spans: list[tuple], root: int) -> list[bool]:
    """Per span: is it ``root`` or below it?  (Spans are appended in
    start order, so a parent always precedes its children.)"""
    inside = [False] * len(spans)
    inside[root] = True
    for index in range(root + 1, len(spans)):
        parent = spans[index][PARENT]
        inside[index] = parent >= 0 and inside[parent]
    return inside


@dataclass
class LedgerRow:
    layer: str
    calls: int = 0
    #: time inside the layer's outermost spans (nested same-layer
    #: spans are not counted twice)
    busy_s: float = 0.0
    #: busy time not covered by any child span
    self_s: float = 0.0
    share: float = 0.0


def build_ledger(
    spans: list[tuple],
    layer_of: dict,
    root: int,
) -> tuple[list[LedgerRow], float]:
    """Layer rows below span ``root`` and the unattributed residual.

    ``layer_of`` maps span names to layer names; the self time of a
    span whose name has no layer is the residual.  Only ``root`` and
    its descendants count.  Σ row.self_s + residual == duration of
    ``root``.
    """
    own = self_times(spans)
    wall = spans[root][END] - spans[root][START]
    inside = descendants(spans, root)
    rows: dict[str, LedgerRow] = {}
    residual = 0.0
    for index in range(root, len(spans)):
        if not inside[index]:
            continue
        span = spans[index]
        layer = layer_of.get(span[NAME])
        if layer is None:
            residual += own[index]
            continue
        row = rows.get(layer)
        if row is None:
            row = rows[layer] = LedgerRow(layer)
        row.calls += 1
        row.self_s += own[index]
        ancestor = span[PARENT] if index != root else -1
        nested = False
        while ancestor >= root:
            if layer_of.get(spans[ancestor][NAME]) == layer:
                nested = True
                break
            ancestor = spans[ancestor][PARENT]
        if not nested:
            row.busy_s += span[END] - span[START]
    for row in rows.values():
        row.share = row.self_s / wall if wall > 0 else 0.0
    return list(rows.values()), residual
