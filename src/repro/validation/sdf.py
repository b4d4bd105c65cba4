"""Synchronous dataflow graphs: the validation phase's formalism.

"For validation of the performance constraints of applications, we
model the influence of the platform and the application specification
as an SDF graph" (paper Section II).  An SDF graph consists of actors
with fixed firing durations and directed edges carrying tokens; an
actor may fire when every input edge holds at least its consumption
rate, consuming and (after its duration) producing tokens [5][13].

This module defines the graph structure; repetition-vector analysis
lives in :mod:`repro.validation.analysis`, the throughput engine in
:mod:`repro.validation.mcr` and its state-space oracle in
:mod:`repro.validation.throughput`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SdfError(ValueError):
    """Raised for malformed SDF graphs."""


@dataclass(frozen=True)
class Actor:
    """An SDF actor with a deterministic firing duration."""

    name: str
    duration: float

    def __post_init__(self) -> None:
        if not self.name:
            raise SdfError("actor needs a non-empty name")
        if self.duration < 0:
            raise SdfError(f"actor {self.name!r} has negative duration")


@dataclass(frozen=True)
class Edge:
    """A token channel between two actors.

    ``production`` tokens appear on the edge when ``source`` completes
    a firing; ``consumption`` tokens are required (and removed) for
    ``target`` to start one.  ``initial_tokens`` provides the initial
    marking (delays / available buffer space).
    """

    name: str
    source: str
    target: str
    production: int = 1
    consumption: int = 1
    initial_tokens: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise SdfError("edge needs a non-empty name")
        if self.production < 1 or self.consumption < 1:
            raise SdfError(f"edge {self.name!r} rates must be >= 1")
        if self.initial_tokens < 0:
            raise SdfError(f"edge {self.name!r} has negative initial tokens")


@dataclass
class SdfGraph:
    """A synchronous dataflow graph (general rates; HSDF is rates==1)."""

    name: str
    actors: dict[str, Actor] = field(default_factory=dict)
    edges: dict[str, Edge] = field(default_factory=dict)

    def add_actor(self, actor: Actor) -> Actor:
        if actor.name in self.actors:
            raise SdfError(f"duplicate actor {actor.name!r}")
        self.actors[actor.name] = actor
        return actor

    def actor(self, name: str) -> Actor:
        try:
            return self.actors[name]
        except KeyError:
            raise SdfError(f"unknown actor {name!r}") from None

    def add_edge(self, edge: Edge) -> Edge:
        if edge.name in self.edges:
            raise SdfError(f"duplicate edge {edge.name!r}")
        for endpoint in (edge.source, edge.target):
            if endpoint not in self.actors:
                raise SdfError(
                    f"edge {edge.name!r} references unknown actor {endpoint!r}"
                )
        self.edges[edge.name] = edge
        return edge

    def connect(
        self,
        source: str,
        target: str,
        production: int = 1,
        consumption: int = 1,
        initial_tokens: int = 0,
        name: str | None = None,
    ) -> Edge:
        edge_name = name or f"{source}->{target}#{len(self.edges)}"
        return self.add_edge(
            Edge(edge_name, source, target, production, consumption,
                 initial_tokens)
        )

    # -- queries -----------------------------------------------------------

    def in_edges(self, actor: str) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges.values() if e.target == actor)

    def out_edges(self, actor: str) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges.values() if e.source == actor)

    def is_hsdf(self) -> bool:
        """True when every rate is 1 (homogeneous SDF)."""
        return all(
            e.production == 1 and e.consumption == 1
            for e in self.edges.values()
        )

    def initial_marking(self) -> dict[str, int]:
        return {name: e.initial_tokens for name, e in self.edges.items()}

    def __len__(self) -> int:
        return len(self.actors)

    def __repr__(self) -> str:
        return (
            f"<SdfGraph {self.name!r}: {len(self.actors)} actors, "
            f"{len(self.edges)} edges>"
        )
