"""Self-timed state-space throughput analysis (paper refs [5], [13]).

"With a state-space exploration of the SDF graph, presented in [5],
[13], we calculate the throughput of the corresponding application,
which determines whether any throughput or latency constraint is
violated."

For an SDF graph with deterministic firing durations, self-timed
execution (every actor fires as soon as it is enabled) is itself
deterministic, so the reachable state space is a single trace that,
for a consistent and deadlock-free graph, ends in a cycle: a
*transient phase* followed by a *periodic phase* [13].  We simulate
the operational semantics with a discrete-event engine, hash the full
execution state at iteration boundaries of a reference actor, and read
the throughput off the recurrent state:

    throughput(actor) = firings of that actor per time unit
                      = firings of that actor in one period / period

(``repetitions(actor) * iterations / period`` on a connected graph).

Auto-concurrency is disallowed (an actor models a task on one
processing element and can run at most one firing at a time), matching
the task-on-tile semantics of the execution layout.

The paper observes that "the validation phase ... clearly becomes
problematic when the complexity of the task graph increases" — the
transient phase of a deep pipeline is long, and every state must be
hashed.  The engine therefore indexes the graph once up front and only
hashes states at reference-iteration boundaries.

The admission path validates with the maximum-cycle-ratio engine
(:mod:`repro.validation.mcr`); this exploration is its oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.validation.analysis import repetition_vector
from repro.validation.sdf import SdfError, SdfGraph

#: hard cap on simulated firings before giving up on cycle detection
DEFAULT_MAX_FIRINGS = 500_000


class ThroughputError(SdfError):
    """State-space exploration failed (no recurrence within the cap)."""


@dataclass(frozen=True)
class ThroughputResult:
    """Throughput analysis outcome (either engine)."""

    #: firings per time unit for every actor in the periodic phase
    throughput: dict[str, float]
    #: period of the recurrent state cycle; 0 for empty/deadlocked graphs
    period: float
    #: graph iterations contained in one period
    iterations_per_period: int
    #: simulated time at which the periodic phase was entered
    transient: float
    #: True when the graph deadlocked instead of cycling
    deadlocked: bool = False
    #: total firings simulated (a work measure for the Fig. 7 analysis)
    firings_simulated: int = 0

    def of(self, actor: str) -> float:
        try:
            return self.throughput[actor]
        except KeyError:
            raise ThroughputError(f"unknown actor {actor!r}") from None


class _IndexedGraph:
    """Array-indexed view of an SdfGraph for the hot simulation loop."""

    def __init__(self, graph: SdfGraph):
        self.actor_names = sorted(graph.actors)
        self.index_of = {name: i for i, name in enumerate(self.actor_names)}
        self.durations = [graph.actor(n).duration for n in self.actor_names]
        self.edge_names = sorted(graph.edges)
        edge_index = {name: i for i, name in enumerate(self.edge_names)}
        n = len(self.actor_names)
        #: per actor: list of (edge_idx, consumption) / (edge_idx, production)
        self.inputs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self.outputs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        #: actors whose enabledness can change when this edge gains tokens
        self.consumers_of_edge: list[int] = [0] * len(self.edge_names)
        for name in self.edge_names:
            edge = graph.edges[name]
            e = edge_index[name]
            src = self.index_of[edge.source]
            dst = self.index_of[edge.target]
            self.inputs[dst].append((e, edge.consumption))
            self.outputs[src].append((e, edge.production))
            self.consumers_of_edge[e] = dst
        self.initial_tokens = [
            graph.edges[name].initial_tokens for name in self.edge_names
        ]


def analyze_throughput(
    graph: SdfGraph,
    max_firings: int = DEFAULT_MAX_FIRINGS,
) -> ThroughputResult:
    """Simulate self-timed execution until a state recurrence.

    Returns a :class:`ThroughputResult`; a deadlocked graph yields all
    zero throughput with ``deadlocked=True``.  Raises
    :class:`ThroughputError` if no recurrence is found within
    ``max_firings`` (for consistent graphs with rational durations this
    means the cap is too low).
    """
    if not graph.actors:
        return ThroughputResult({}, 0.0, 0, 0.0)
    repetitions = repetition_vector(graph)
    indexed = _IndexedGraph(graph)
    n = len(indexed.actor_names)

    # reference actor: fewest repetitions (cheapest boundary detection),
    # ties broken by name for determinism
    reference_name = min(
        indexed.actor_names, key=lambda a: (repetitions[a], a)
    )
    reference = indexed.index_of[reference_name]
    reference_goal = repetitions[reference_name]

    tokens = list(indexed.initial_tokens)
    busy = [False] * n
    fired = [0] * n
    #: (finish_time, sequence, actor index)
    active: list[tuple[float, int, int]] = []
    now = 0.0
    sequence = 0
    total_firings = 0

    def enabled(actor: int) -> bool:
        if busy[actor]:
            return False
        return all(tokens[e] >= need for e, need in indexed.inputs[actor])

    def start(actor: int) -> None:
        nonlocal sequence
        for e, need in indexed.inputs[actor]:
            tokens[e] -= need
        heapq.heappush(active, (now + indexed.durations[actor], sequence, actor))
        busy[actor] = True
        sequence += 1

    # initial wave
    for actor in range(n):
        if enabled(actor):
            start(actor)
    if not active:
        return ThroughputResult(
            {a: 0.0 for a in indexed.actor_names}, 0.0, 0, 0.0,
            deadlocked=True,
        )

    #: boundary states: signature -> (time, iterations, firings per actor)
    seen: dict[tuple, tuple[float, int, tuple]] = {}

    while total_firings < max_firings:
        # complete every firing scheduled for the next timestamp
        finish, _seq, actor = heapq.heappop(active)
        now = finish
        completed = [actor]
        while active and active[0][0] == now:
            completed.append(heapq.heappop(active)[2])
        candidates: set[int] = set()
        for done in completed:
            busy[done] = False
            fired[done] += 1
            total_firings += 1
            candidates.add(done)  # may restart immediately
            for e, amount in indexed.outputs[done]:
                tokens[e] += amount
                candidates.add(indexed.consumers_of_edge[e])
        for candidate in sorted(candidates):
            if enabled(candidate):
                start(candidate)

        if not active:
            return ThroughputResult(
                {a: 0.0 for a in indexed.actor_names},
                0.0, 0, now, deadlocked=True,
                firings_simulated=total_firings,
            )

        # recurrence check at reference-iteration boundaries only
        if reference in completed:
            iterations, remainder = divmod(fired[reference], reference_goal)
            if remainder == 0:
                signature = (
                    tuple(tokens),
                    tuple(sorted(
                        (a, round(t - now, 9)) for t, _s, a in active
                    )),
                    tuple(busy),
                )
                if signature in seen:
                    first_time, first_iterations, first_fired = seen[signature]
                    period = now - first_time
                    cycle_iterations = iterations - first_iterations
                    if period > 0 and cycle_iterations > 0:
                        # firings per actor over the recurrent period:
                        # exact even where components run at
                        # different rates
                        throughput = {
                            name: (fired[i] - first_fired[i]) / period
                            for i, name in enumerate(indexed.actor_names)
                        }
                        return ThroughputResult(
                            throughput=throughput,
                            period=period,
                            iterations_per_period=cycle_iterations,
                            transient=first_time,
                            firings_simulated=total_firings,
                        )
                    # zero-time cycle cannot happen with positive
                    # durations; refresh and continue
                seen[signature] = (now, iterations, tuple(fired))

    raise ThroughputError(
        f"no recurrent state within {max_firings} firings of {graph.name!r}"
    )
