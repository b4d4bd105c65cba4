"""The metric registry: named counters, gauges, fixed-bucket histograms.

Design goals, in order:

1. **Zero cost when disabled.**  The default everywhere is a
   :class:`NullRegistry`: its counters still *count* (components such
   as the manager's memo read their own counters back for
   ``fastpath_stats``, so a counter that silently dropped increments
   would break them) but
   nothing is retained, aggregated or exportable, and its histograms
   and gauges are shared no-op singletons.  Attaching a null registry
   therefore changes neither decisions nor wall-clock beyond what the
   pre-registry ad-hoc counters already cost.
2. **One array op on the hot path.**  A :class:`MetricRegistry`
   interns each metric name to a dense slot in one shared value list;
   the returned :class:`Counter` / :class:`Gauge` handle holds
   ``(values, slot)`` and increments with a single indexed add.  The
   dict lookup happens once, at interning time — callers keep the
   handle.
3. **Deterministic exports.**  :meth:`MetricRegistry.snapshot` renders
   every metric in sorted-name order with plain JSON types, so two
   snapshots of identical runs are byte-comparable (the exporters in
   :mod:`repro.obs.export` build on this).

Nothing here reads the wall clock: registries carry *values*, never
timestamps, which is half of the determinism guarantee (the other
half — spans — lives in :mod:`repro.obs.tracing`).
"""

from __future__ import annotations

from bisect import bisect_right

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NullHistogram",
    "NullRegistry",
    "DEFAULT_LATENCY_EDGES",
]

#: default histogram bucket edges for wall-clock seconds: log-ish
#: spacing from 10 µs to 10 s, wide enough for every pipeline phase
#: the benches have measured (values beyond the last edge land in the
#: overflow bucket and still contribute to sum/count/max)
DEFAULT_LATENCY_EDGES = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotone counter handle: one slot of a registry's value list.

    ``inc`` is the hot path — one indexed add.  Null-registry counters
    get a private single-slot list instead of a registry slot, so they
    count identically at identical cost; they are just not retained.
    """

    __slots__ = ("name", "_values", "_slot")

    def __init__(self, name: str, values: list, slot: int) -> None:
        self.name = name
        self._values = values
        self._slot = slot

    def inc(self, n: int | float = 1) -> None:
        self._values[self._slot] += n

    @property
    def value(self) -> int | float:
        return self._values[self._slot]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A last-value-wins gauge handle (same slot mechanics as Counter)."""

    __slots__ = ("name", "_values", "_slot")

    def __init__(self, name: str, values: list, slot: int) -> None:
        self.name = name
        self._values = values
        self._slot = slot

    def set(self, value: float) -> None:
        self._values[self._slot] = value

    def inc(self, n: int | float = 1) -> None:
        self._values[self._slot] += n

    def dec(self, n: int | float = 1) -> None:
        self._values[self._slot] -= n

    @property
    def value(self) -> int | float:
        return self._values[self._slot]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """A fixed-bucket histogram: ``len(edges) + 1`` counts (the last is
    the overflow bucket for samples beyond the largest edge).

    Bucket ``i`` counts samples with ``edges[i-1] < x <= edges[i]``
    (Prometheus ``le`` semantics); ``observe`` is a bisect plus one
    indexed add.  Sum, count, min and max are tracked exactly, so mean
    is exact and only the percentiles are bucket-resolution estimates.
    """

    __slots__ = ("name", "edges", "counts", "sum", "count", "min", "max")

    def __init__(self, name: str, edges: tuple[float, ...]) -> None:
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        ordered = tuple(float(edge) for edge in edges)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("histogram edges must be strictly increasing")
        self.name = name
        self.edges = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        # bisect_left over edges gives the first edge >= value, which
        # is exactly the ``le`` bucket; values above every edge fall
        # through to the overflow slot len(edges)
        edges = self.edges
        index = bisect_right(edges, value)
        if index > 0 and edges[index - 1] == value:
            index -= 1
        self.counts[index] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Bucket-resolution percentile estimate (None when empty).

        Returns the upper edge of the bucket containing the
        nearest-rank sample; overflow-bucket hits return the exact
        tracked maximum (the only honest upper bound available).
        """
        if self.count == 0:
            return None
        if not 0 <= q <= 100:
            raise ValueError("percentile q must be in [0, 100]")
        rank = max(1, -(-q * self.count // 100))  # ceil without math
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.edges):
                    return self.edges[index]
                return self.max
        return self.max  # pragma: no cover - counts always sum to count

    def as_dict(self) -> dict:
        """JSON-able snapshot of this histogram."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Histogram {self.name}: n={self.count}>"


class _NullHistogram:
    """Shared no-op histogram: observing costs one no-op call."""

    __slots__ = ()
    name = "null"
    edges: tuple[float, ...] = ()
    sum = 0.0
    count = 0
    min = None
    max = None
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> None:
        return None

    def as_dict(self) -> dict:
        return {
            "edges": [], "counts": [], "sum": 0.0, "count": 0,
            "min": None, "max": None, "mean": 0.0,
            "p50": None, "p95": None, "p99": None,
        }


#: public alias so isinstance checks read naturally in tests
NullHistogram = _NullHistogram

_NULL_HISTOGRAM = _NullHistogram()


class MetricRegistry:
    """Named counters, gauges and histograms with dense-slot interning.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` intern
    the name on first call and return the same handle ever after, so
    components may re-request handles idempotently (one dict lookup)
    or cache them (zero lookups).  Names are dotted paths by
    convention (``gate.memo_hits``, ``phase.mapping.seconds``); the
    Prometheus exporter rewrites the dots.
    """

    enabled = True

    def __init__(self) -> None:
        self._counter_values: list = []
        self._gauge_values: list = []
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- interning ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        handle = self._counters.get(name)
        if handle is None:
            self._counter_values.append(0)
            handle = Counter(
                name, self._counter_values, len(self._counter_values) - 1
            )
            self._counters[name] = handle
        return handle

    def gauge(self, name: str) -> Gauge:
        handle = self._gauges.get(name)
        if handle is None:
            self._gauge_values.append(0)
            handle = Gauge(
                name, self._gauge_values, len(self._gauge_values) - 1
            )
            self._gauges[name] = handle
        return handle

    def histogram(
        self,
        name: str,
        edges: tuple[float, ...] = DEFAULT_LATENCY_EDGES,
    ) -> Histogram:
        handle = self._histograms.get(name)
        if handle is None:
            handle = Histogram(name, edges)
            self._histograms[name] = handle
        elif tuple(edges) != handle.edges and edges != DEFAULT_LATENCY_EDGES:
            raise ValueError(
                f"histogram {name!r} already interned with different edges"
            )
        return handle

    # -- reading back ------------------------------------------------------

    def counter_value(self, name: str) -> int | float:
        handle = self._counters.get(name)
        return 0 if handle is None else handle.value

    def names(self) -> dict[str, tuple[str, ...]]:
        """Interned metric names per kind, sorted."""
        return {
            "counters": tuple(sorted(self._counters)),
            "gauges": tuple(sorted(self._gauges)),
            "histograms": tuple(sorted(self._histograms)),
        }

    def snapshot(self) -> dict:
        """Deterministic JSON-able dump of every interned metric."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }


class NullRegistry:
    """The disabled registry: nothing retained, nothing exportable.

    Counters and gauges returned here still store their value (in a
    private single-slot list) because components read their own
    counters back — the manager's ``fastpath_stats`` must keep working
    with observability off, exactly as its pre-registry ad-hoc ints
    did.
    The registry itself retains no reference, so ``snapshot()`` is
    empty, exports are empty, and repeated ``counter(name)`` calls
    return *independent* handles (callers hold their handle; nothing
    aggregates).  Histograms are shared no-op singletons: no component
    reads its own histograms back, so observations are dropped whole.
    """

    enabled = False

    def counter(self, name: str) -> Counter:
        return Counter(name, [0], 0)

    def gauge(self, name: str) -> Gauge:
        return Gauge(name, [0], 0)

    def histogram(
        self, name: str, edges: tuple[float, ...] = DEFAULT_LATENCY_EDGES
    ) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def counter_value(self, name: str) -> int:
        return 0

    def names(self) -> dict[str, tuple[str, ...]]:
        return {"counters": (), "gauges": (), "histograms": ()}

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}
