"""The validation engine: exact maximum cycle ratio by policy iteration.

Section V: "Using the work of [18], the complexity of the throughput
analysis may be moved to design-time, making the validation approach a
lot faster."  A self-timed HSDF graph is a max-plus linear system [18]:
an edge ``u -> v`` with ``d`` initial tokens lets firing ``k`` of ``v``
start once firing ``k - d`` of ``u`` has ended, and a one-token
self-loop per actor forbids auto-concurrency.  Actor ``a`` settles into
the period ``lambda(a)``, the largest ratio (durations over initial
tokens) of the cycles that can reach it, and fires ``1 / lambda(a)``
times per time unit; the graph's period is ``lambda* = max lambda(a)``.
A cycle without tokens deadlocks the graph: every rate is 0.

``lambda`` is computed by Howard's policy iteration (Cochet-Terrasson,
Cohen, Gaubert, McGettrick & Quadrat 1998; Dasdan 2004 finds it the
fastest cycle-ratio algorithm in practice) on the *reversed* event
graph, where the cycles reachable from ``a`` are those that reach ``a``.
Each answer is the duration sum over the token sum of a concrete
cycle, not a bisection bound.  The paper's state-space exploration
(:func:`repro.validation.throughput.analyze_throughput`) is the oracle
the tests and ablation A5 hold it to.
"""

from __future__ import annotations

from repro.validation.sdf import SdfError, SdfGraph
from repro.validation.throughput import ThroughputResult

#: relative slack of a policy improvement (guards against float churn)
_IMPROVEMENT = 1e-12


class McrError(SdfError):
    """Raised for graphs outside the engine's domain (multi-rate)."""


def _critical_cycles(durations: list[float], reverse: list[list[tuple]],
                     order: list[int]):
    """Howard's policy iteration on the reversed event graph.

    ``reverse[u]`` lists ``(v, tokens)`` per dataflow edge ``v -> u``
    (self-loop included); stepping from ``u`` to ``v`` costs
    ``durations[v]``.  Every cycle must carry a token; ``order`` lists
    the nodes with each token-free step's target (``v``) before its
    source.  Returns per node the (duration sum, token sum) of the
    largest-ratio cycle it reaches.
    """
    n = len(durations)
    slack = _IMPROVEMENT * sum(durations)
    # start from each node's costliest step
    first = [max(edges, key=lambda e: durations[e[0]]) for edges in reverse]
    policy, tokens = [v for v, _ in first], [count for _, count in first]
    while True:
        # value determination along the policy's functional graph
        ratio, potential = [0.0] * n, [0.0] * n
        cycle_of: list[tuple[float, int]] = [(0.0, 1)] * n
        seen = [0] * n  # 0 new, 1 on the current walk, 2 valued
        for start in range(n):
            if seen[start]:
                continue
            walk, u = [], start
            while not seen[u]:
                seen[u] = 1
                walk.append(u)
                u = policy[u]
            if seen[u] == 1:  # a new cycle closes at u (potential 0)
                cycle = walk[walk.index(u):]
                cost = sum(durations[c] for c in cycle)
                count = sum(tokens[c] for c in cycle)
                for c in cycle:
                    ratio[c], cycle_of[c] = cost / count, (cost, count)
                seen[u] = 2
            for c in reversed(walk):
                if c != u:
                    v = policy[c]
                    ratio[c], cycle_of[c] = ratio[v], cycle_of[v]
                    potential[c] = (
                        durations[v] - ratio[v] * tokens[c] + potential[v]
                    )
                    seen[c] = 2
        # improvement, Gauss-Seidel in ``order`` so one sweep carries a
        # switch down a token-free chain; stage 1: reach a larger ratio
        changed = False
        for u in order:
            for v, count in reverse[u]:
                if ratio[v] > ratio[u] + slack:
                    ratio[u], policy[u], tokens[u] = ratio[v], v, count
                    changed = True
        if changed:
            continue
        # stage 2: the same ratio at a larger potential
        for u in order:
            lam = ratio[u]
            for v, count in reverse[u]:
                if ratio[v] >= lam - slack:
                    value = durations[v] - lam * count + potential[v]
                    if value > potential[u] + slack:
                        potential[u], policy[u], tokens[u] = value, v, count
                        changed = True
        if not changed:
            return cycle_of


def mcr_throughput(graph: SdfGraph) -> ThroughputResult:
    """Every actor's self-timed rate, in the oracle's result shape.

    ``period`` is ``lambda*`` (one iteration per period, no transient);
    a token-free cycle gives all-zero rates and ``deadlocked=True``.
    Raises :class:`McrError` for multi-rate graphs.
    """
    names = sorted(graph.actors)
    if not names:
        return ThroughputResult({}, 0.0, 0, 0.0)
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    durations = [graph.actors[name].duration for name in names]
    reverse = [[(i, 1)] for i in range(n)]
    waiting = [0] * n  # token-free out-edges per actor
    for edge in graph.edges.values():
        if edge.production != 1 or edge.consumption != 1:
            raise McrError(f"{graph.name!r}: the engine needs an HSDF graph")
        u, v = index[edge.source], index[edge.target]
        reverse[v].append((u, edge.initial_tokens))
        if not edge.initial_tokens:
            waiting[u] += 1
    # a token-free cycle is what a topological peel cannot remove
    peeled = [u for u in range(n) if not waiting[u]]
    for v in peeled:
        for u, count in reverse[v]:
            if not count:
                waiting[u] -= 1
                if not waiting[u]:
                    peeled.append(u)
    if len(peeled) < n:
        return ThroughputResult(
            dict.fromkeys(names, 0.0), 0.0, 0, 0.0, deadlocked=True
        )
    cycles = _critical_cycles(durations, reverse, peeled[::-1])
    throughput = {
        name: count / cost if cost else float("inf")
        for name, (cost, count) in zip(names, cycles)
    }
    period = max(cost / count for cost, count in cycles)
    return ThroughputResult(throughput, period, 1, 0.0)


def maximum_cycle_ratio(graph: SdfGraph) -> float:
    """lambda* of the HSDF graph; ``inf`` when a token-free cycle
    deadlocks the graph, 0.0 for graphs with no actors."""
    result = mcr_throughput(graph)
    return float("inf") if result.deadlocked else result.period


def analytical_throughput(graph: SdfGraph) -> dict[str, float]:
    """Steady-state firings per time unit of every actor."""
    return mcr_throughput(graph).throughput
