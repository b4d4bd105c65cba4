"""Unit tests for implementations and performance constraints."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.apps import (
    Implementation,
    LatencyConstraint,
    ThroughputConstraint,
)
from repro.apps.constraints import ConstraintError, normalize
from repro.apps.implementations import (
    ImplementationError,
    dsp_implementation,
    pinned_implementation,
)
from repro.apps.generator import GeneratorConfig, generate
from repro.arch import ElementType, ProcessingElement, ResourceVector, mesh
from repro.arch.elements import default_capacity
from repro.manager import Kairos


def dsp_element(name: str = "d0") -> ProcessingElement:
    return ProcessingElement(name, ElementType.DSP, default_capacity(ElementType.DSP))


class TestImplementation:
    def test_exactly_one_target_required(self):
        with pytest.raises(ImplementationError):
            Implementation(name="x", requirement=ResourceVector())
        with pytest.raises(ImplementationError):
            Implementation(
                name="x",
                requirement=ResourceVector(),
                target_kind=ElementType.DSP,
                target_element="d0",
            )

    def test_positive_execution_time_required(self):
        with pytest.raises(ImplementationError):
            Implementation(
                name="x",
                requirement=ResourceVector(),
                target_kind=ElementType.DSP,
                execution_time=0,
            )

    def test_runs_on_matching_kind(self):
        impl = dsp_implementation("x", cycles=50)
        assert impl.runs_on(dsp_element())

    def test_runs_on_rejects_wrong_kind(self):
        impl = dsp_implementation("x", cycles=10)
        gpp = ProcessingElement("arm", ElementType.GPP,
                                default_capacity(ElementType.GPP))
        assert not impl.runs_on(gpp)

    def test_runs_on_rejects_oversized_requirement(self):
        impl = dsp_implementation("x", cycles=1000)
        assert not impl.runs_on(dsp_element())

    def test_pinned_matches_only_named_element(self):
        impl = pinned_implementation("x", "d0", ResourceVector(cycles=1))
        assert impl.pinned
        assert impl.runs_on(dsp_element("d0"))
        assert not impl.runs_on(dsp_element("d1"))

    def test_unpinned_ignores_element_name(self):
        impl = dsp_implementation("x", cycles=1)
        assert not impl.pinned
        assert impl.runs_on(dsp_element("whatever"))

    def test_value_semantics_ignore_the_derived_shape(self):
        impl = dsp_implementation("x", cycles=10, memory=4)
        twin = dsp_implementation("x", cycles=10, memory=4)
        assert impl == twin and hash(impl) == hash(twin)
        assert impl != dsp_implementation("y", cycles=10, memory=4)
        pricier = dataclasses.replace(impl, cost=2.0)
        assert pricier.cost == 2.0 and pricier != impl
        assert pricier.shape == impl.shape
        bigger = dataclasses.replace(
            impl, requirement=ResourceVector(cycles=11, memory=4)
        )
        assert bigger.shape != impl.shape

    def test_implementations_carry_no_platform_state(self):
        """Above the old 4 096-element memo limit: equal shapes share
        the platform's answer, and an admission leaves nothing behind
        on the implementation objects."""
        platform = mesh(65, 65)
        first = dsp_implementation("a", cycles=30, memory=8)
        second = dsp_implementation("b", cycles=30, memory=8, cost=3.0)
        hosts = platform.static_hosts(first)
        assert platform.static_hosts(second) is hosts
        assert len(hosts.pairs) == len(hosts.nodes) == 65 * 65

        app = generate(GeneratorConfig(), seed=3)
        implementations = [
            impl for task in app.tasks.values()
            for impl in task.implementations
        ]
        before = [pickle.dumps(impl) for impl in implementations]
        assert Kairos(platform).controller.admit(app, "a").admitted
        assert [pickle.dumps(impl) for impl in implementations] == before


class TestThroughputConstraint:
    def test_satisfied_by(self):
        constraint = ThroughputConstraint(0.5)
        assert constraint.satisfied_by(0.5)
        assert constraint.satisfied_by(0.9)
        assert not constraint.satisfied_by(0.4)

    def test_positive_required(self):
        with pytest.raises(ConstraintError):
            ThroughputConstraint(0)

    def test_describe_mentions_reference(self):
        assert "sink" in ThroughputConstraint(1.0, "sink").describe()


class TestLatencyConstraint:
    def test_path_validation(self):
        with pytest.raises(ConstraintError):
            LatencyConstraint(1.0, ("a",))
        with pytest.raises(ConstraintError):
            LatencyConstraint(1.0, ("a", "b", "a"))
        with pytest.raises(ConstraintError):
            LatencyConstraint(0.0, ("a", "b"))

    def test_conversion_per_moreira_bekooij(self):
        """latency L over k stages -> throughput >= k / L."""
        constraint = LatencyConstraint(10.0, ("a", "b", "c", "d"))
        throughput = constraint.as_throughput()
        assert throughput.min_throughput == pytest.approx(4 / 10)
        assert throughput.reference_task == "d"

    def test_tighter_latency_needs_higher_throughput(self):
        loose = LatencyConstraint(20.0, ("a", "b")).as_throughput()
        tight = LatencyConstraint(5.0, ("a", "b")).as_throughput()
        assert tight.min_throughput > loose.min_throughput


class TestNormalize:
    def test_mixed_list(self):
        normalized = normalize([
            ThroughputConstraint(1.0),
            LatencyConstraint(4.0, ("a", "b")),
        ])
        assert len(normalized) == 2
        assert all(isinstance(c, ThroughputConstraint) for c in normalized)

    def test_unknown_type_rejected(self):
        with pytest.raises(ConstraintError):
            normalize(["not a constraint"])
