"""Tests for the analytical (maximum-cycle-ratio) throughput engine
and its agreement with the state-space simulation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import AllocationState, mesh
from repro.binding import bind
from repro.core import map_application
from repro.routing import BfsRouter
from repro.validation import (
    Actor,
    McrError,
    SdfGraph,
    analytical_throughput,
    analyze_throughput,
    layout_to_sdf,
    maximum_cycle_ratio,
    validate_layout,
)
from tests.conftest import admit_or_raise, chain_app, diamond_app


def ring(durations, tokens=1):
    graph = SdfGraph("ring")
    names = [f"a{i}" for i in range(len(durations))]
    for name, duration in zip(names, durations):
        graph.add_actor(Actor(name, duration))
    for i, name in enumerate(names):
        nxt = names[(i + 1) % len(names)]
        graph.connect(name, nxt,
                      initial_tokens=tokens if i == len(names) - 1 else 0)
    return graph


class TestMaximumCycleRatio:
    def test_ring_closed_form(self):
        # cycle sum 6, 1 token -> ratio 6; self-loops give max dur 3
        graph = ring([1.0, 2.0, 3.0], tokens=1)
        assert maximum_cycle_ratio(graph) == pytest.approx(6.0, rel=1e-6)

    def test_self_loop_binds_when_tokens_plenty(self):
        graph = ring([1.0, 2.0, 3.0], tokens=10)
        # cycle ratio 6/10 < slowest actor 3/1
        assert maximum_cycle_ratio(graph) == pytest.approx(3.0, rel=1e-6)

    def test_deadlock_is_infinite(self):
        graph = ring([1.0, 1.0], tokens=0)
        assert maximum_cycle_ratio(graph) == float("inf")
        rates = analytical_throughput(graph)
        assert all(rate == 0.0 for rate in rates.values())

    def test_empty_graph(self):
        assert maximum_cycle_ratio(SdfGraph("void")) == 0.0
        assert analytical_throughput(SdfGraph("void")) == {}

    def test_multirate_rejected(self):
        graph = SdfGraph("mr")
        graph.add_actor(Actor("a", 1.0))
        graph.add_actor(Actor("b", 1.0))
        graph.connect("a", "b", production=2)
        with pytest.raises(McrError):
            maximum_cycle_ratio(graph)

    def test_matches_simulation_on_rings(self):
        for durations, tokens in (
            ([1.0, 2.0], 1), ([0.5, 0.5, 4.0], 2), ([3.0], 1),
        ):
            graph = ring(durations, tokens)
            simulated = analyze_throughput(graph).of("a0")
            analytical = analytical_throughput(graph)["a0"]
            assert analytical == pytest.approx(simulated, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    durations=st.lists(st.floats(min_value=0.1, max_value=4.0),
                       min_size=2, max_size=4),
    tokens=st.integers(1, 3),
)
def test_property_analytical_equals_simulation_on_rings(durations, tokens):
    graph = ring(durations, tokens=tokens)
    simulated = analyze_throughput(graph).of("a0")
    analytical = analytical_throughput(graph)["a0"]
    assert analytical == pytest.approx(simulated, rel=1e-6)


class TestOnLayouts:
    def build(self, app, state):
        binding = bind(app, state)
        mapping = map_application(app, binding.choice, state)
        routing = BfsRouter().route_application(app, mapping.placement, state)
        return binding, mapping, routing

    @pytest.mark.parametrize("app_factory", [
        lambda: chain_app(4), diamond_app,
    ], ids=["chain", "diamond"])
    def test_engines_agree_on_layout_graphs(self, app_factory):
        state = AllocationState(mesh(3, 3))
        app = app_factory()
        binding, mapping, routing = self.build(app, state)
        graph = layout_to_sdf(app, binding.choice, mapping.placement,
                              routing.routes, state)
        simulated = analyze_throughput(graph)
        analytical = analytical_throughput(graph)
        for actor in graph.actors:
            assert analytical[actor] == pytest.approx(
                simulated.of(actor), rel=1e-6,
            )

    def test_validate_layout_analytical_method(self, state3x3):
        app = chain_app(3)
        from repro.apps import ThroughputConstraint
        app.add_constraint(ThroughputConstraint(1e-6, reference_task="t2"))
        binding, mapping, routing = self.build(app, state3x3)
        report_sim = validate_layout(
            app, binding.choice, mapping.placement, routing.routes,
            state3x3, method="simulation",
        )
        # rebuild state-free: validate_layout only reads, safe to reuse
        report_ana = validate_layout(
            app, binding.choice, mapping.placement, routing.routes,
            state3x3, method="analytical",
        )
        assert report_sim.satisfied == report_ana.satisfied
        assert report_ana.checks[0].achieved == pytest.approx(
            report_sim.checks[0].achieved, rel=1e-6,
        )

    def test_unknown_method_rejected(self, state3x3):
        app = chain_app(2)
        binding, mapping, routing = self.build(app, state3x3)
        with pytest.raises(ValueError):
            validate_layout(app, binding.choice, mapping.placement,
                            routing.routes, state3x3, method="magic")

    def test_kairos_analytical_manager(self):
        from repro.manager import Kairos
        manager = Kairos(mesh(3, 3), validation_method="analytical")
        layout = admit_or_raise(manager, chain_app(3))
        assert layout.validation is not None
        assert not layout.validation.deadlocked
