"""Tests for the maximum-cycle-ratio validation engine and its
agreement with the state-space oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api.pipeline as pipeline
from repro.apps import ThroughputConstraint, beamforming_application
from repro.apps.constraints import normalize
from repro.apps.datasets import ALL_SPECS
from repro.arch import AllocationState, mesh
from repro.binding import bind
from repro.core import BOTH, map_application
from repro.experiments import (
    default_platform,
    prepare_dataset,
    run_dataset_sequences,
)
from repro.manager import Kairos
from repro.routing import BfsRouter
from repro.validation import (
    Actor,
    McrError,
    SdfGraph,
    analytical_throughput,
    analyze_throughput,
    default_reference_task,
    layout_to_sdf,
    maximum_cycle_ratio,
    mcr_throughput,
    validate_layout,
)
from tests.conftest import admit_or_raise, chain_app, diamond_app

#: the engine/oracle agreement every case must meet
RELATIVE = 1e-9


def ring(durations, tokens=1, prefix="a"):
    graph = SdfGraph("ring")
    names = [f"{prefix}{i}" for i in range(len(durations))]
    for name, duration in zip(names, durations):
        graph.add_actor(Actor(name, duration))
    for i, name in enumerate(names):
        nxt = names[(i + 1) % len(names)]
        graph.connect(name, nxt,
                      initial_tokens=tokens if i == len(names) - 1 else 0)
    return graph


def add_ring(graph, durations, tokens, prefix):
    other = ring(durations, tokens, prefix)
    for actor in other.actors.values():
        graph.add_actor(actor)
    for edge in other.edges.values():
        graph.connect(edge.source, edge.target,
                      initial_tokens=edge.initial_tokens)


def assert_matches_oracle(graph, app=None, report=None):
    """Per-actor rates within RELATIVE, equal ``deadlocked`` and, given
    an application, the oracle's verdict on every constraint.  Returns
    the oracle's result."""
    oracle = analyze_throughput(graph)
    engine = mcr_throughput(graph) if report is None else report.throughput
    assert engine.deadlocked == oracle.deadlocked
    for actor in graph.actors:
        assert engine.of(actor) == pytest.approx(
            oracle.of(actor), rel=RELATIVE, abs=0.0
        ), actor
    if app is None:
        return oracle
    checks = report.checks
    assert len(checks) == len(normalize(app.constraints))
    for check in checks:
        reference = (check.constraint.reference_task
                     or default_reference_task(app))
        achieved = 0.0 if oracle.deadlocked else oracle.of(reference)
        assert check.satisfied == check.constraint.satisfied_by(achieved)
    return oracle


class TestMaximumCycleRatio:
    def test_ring_closed_form(self):
        # cycle sum 6, 1 token -> ratio 6; self-loops give max dur 3
        graph = ring([1.0, 2.0, 3.0], tokens=1)
        assert maximum_cycle_ratio(graph) == 6.0

    def test_self_loop_binds_when_tokens_plenty(self):
        graph = ring([1.0, 2.0, 3.0], tokens=10)
        # cycle ratio 6/10 < slowest actor 3/1
        assert maximum_cycle_ratio(graph) == 3.0

    def test_deadlock_is_infinite(self):
        graph = ring([1.0, 1.0], tokens=0)
        assert maximum_cycle_ratio(graph) == float("inf")
        rates = analytical_throughput(graph)
        assert all(rate == 0.0 for rate in rates.values())
        assert mcr_throughput(graph).deadlocked

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
            assert_matches_oracle(ring(durations, tokens))


class TestNotStronglyConnected:
    """Each actor runs at the rate of the slowest cycle upstream of it,
    not at the graph's global maximum cycle ratio."""

    def test_disjoint_rings_keep_their_own_rates(self):
        graph = ring([1.0, 2.0], tokens=1, prefix="a")  # period 3
        add_ring(graph, [1.0, 1.0], tokens=1, prefix="b")  # period 2
        assert_matches_oracle(graph)
        rates = analytical_throughput(graph)
        assert rates["a0"] == pytest.approx(1 / 3, rel=RELATIVE)
        assert rates["b0"] == pytest.approx(1 / 2, rel=RELATIVE)

    def test_slow_ring_paces_the_ring_it_feeds(self):
        graph = ring([2.0, 2.0], tokens=1, prefix="a")  # period 4
        add_ring(graph, [1.0, 1.0], tokens=1, prefix="b")  # period 2
        graph.connect("a1", "b0")  # one-way: b waits for a, not back
        assert_matches_oracle(graph)
        assert analytical_throughput(graph)["b1"] == pytest.approx(
            1 / 4, rel=RELATIVE
        )


@st.composite
def strongly_connected_hsdf(draw):
    """A Hamiltonian ring (strong connectivity) plus random chords;
    any edge may be token-free, so some graphs deadlock."""
    n = draw(st.integers(1, 6))
    graph = SdfGraph("drawn")
    for i in range(n):
        graph.add_actor(Actor(f"a{i}", float(draw(st.integers(1, 6)))))
    order = draw(st.permutations(range(n)))
    for i in range(n):
        graph.connect(f"a{order[i]}", f"a{order[(i + 1) % n]}",
                      initial_tokens=draw(st.integers(0, 2)))
    chords = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(0, 2)),
        max_size=2 * n,
    ))
    for source, target, tokens in chords:
        graph.connect(f"a{source}", f"a{target}", initial_tokens=tokens)
    return graph


@settings(deadline=None)
@given(graph=strongly_connected_hsdf(),
       floor=st.integers(1, 24).map(lambda k: k / 24))
def test_property_engine_equals_oracle_on_strongly_connected_graphs(
    graph, floor
):
    oracle = assert_matches_oracle(graph)
    # a constraint floor on the exact rationals both engines round to
    constraint = ThroughputConstraint(floor)
    assert constraint.satisfied_by(mcr_throughput(graph).of("a0")) == (
        constraint.satisfied_by(oracle.of("a0"))
    )


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
        assert_matches_oracle(graph)

    def test_validate_layout_analytical_method(self, state3x3):
        app = chain_app(3)
        app.add_constraint(ThroughputConstraint(1e-6, reference_task="t2"))
        binding, mapping, routing = self.build(app, state3x3)
        report = validate_layout(
            app, binding.choice, mapping.placement, routing.routes,
            state3x3,
        )
        graph = layout_to_sdf(app, binding.choice, mapping.placement,
                              routing.routes, state3x3)
        assert report.satisfied
        assert report.throughput.firings_simulated == 0  # no simulation
        assert_matches_oracle(graph, app, report)

    def test_kairos_analytical_manager(self):
        manager = Kairos(mesh(3, 3))
        assert manager.pipeline.describe()["validator"] == "mcr"
        layout = admit_or_raise(manager, chain_app(3))
        assert layout.validation is not None
        assert not layout.validation.deadlocked


class TestOracleCorpus:
    """Every layout the library validates, held to the oracle."""

    @pytest.fixture
    def validated(self, monkeypatch):
        """Record (app, graph, report) of every pipeline validation."""
        cases = []
        original = pipeline.validate_layout

        def recording(app, binding, placement, routes, state, options):
            report = original(app, binding, placement, routes, state,
                              options)
            graph = layout_to_sdf(app, binding, placement, routes, state,
                                  options)
            cases.append((app, graph, report))
            return report

        monkeypatch.setattr(pipeline, "validate_layout", recording)
        return cases

    def test_paper_datasets_at_smoke_scale(self, validated):
        platform = default_platform()
        for spec in ALL_SPECS:
            dataset = prepare_dataset(spec, 20, 0, platform)
            run_dataset_sequences(dataset, BOTH, sequences=3, seed=0,
                                  platform=platform,
                                  validation_mode="report")
        assert len(validated) > 50
        for app, graph, report in validated:
            assert_matches_oracle(graph, app, report)

    def test_beamformer_case_study(self, validated):
        app = beamforming_application()
        assert app.constraints
        manager = Kairos(default_platform(), validation_mode="report")
        admit_or_raise(manager, app)
        ((validated_app, graph, report),) = validated
        assert len(graph.actors) == 53 + len(app.channels)
        assert_matches_oracle(graph, validated_app, report)
