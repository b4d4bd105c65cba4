"""Unit and property tests for the resource-vector algebra."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import GeneratorConfig, dsp_implementation, generate
from repro.arch.resources import (
    ZERO,
    ResourceError,
    ResourceVector,
    fraction_of,
    vector_sum,
)

KINDS = ("cycles", "memory", "io", "fabric")


def vectors(max_value: int = 100):
    return st.builds(
        ResourceVector,
        st.dictionaries(
            st.sampled_from(KINDS),
            st.integers(min_value=0, max_value=max_value),
            max_size=len(KINDS),
        ),
    )


class TestConstruction:
    def test_kwargs_and_mapping_agree(self):
        assert ResourceVector(cycles=3) == ResourceVector({"cycles": 3})

    def test_zero_components_are_dropped(self):
        vector = ResourceVector(cycles=0, memory=5)
        assert "cycles" not in vector
        assert len(vector) == 1

    def test_negative_quantity_rejected(self):
        with pytest.raises(ResourceError):
            ResourceVector(cycles=-1)

    def test_missing_kind_reads_zero(self):
        assert ResourceVector(memory=4)["cycles"] == 0

    def test_immutable(self):
        vector = ResourceVector(cycles=1)
        with pytest.raises(AttributeError):
            vector.x = 1

    def test_hashable_and_eq(self):
        assert hash(ResourceVector(cycles=1)) == hash(ResourceVector(cycles=1))
        assert ResourceVector(cycles=1) != ResourceVector(cycles=2)

    def test_eq_against_plain_mapping(self):
        assert ResourceVector(cycles=1) == {"cycles": 1}
        assert ResourceVector() == {"memory": 0}

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle_round_trip(self, round_trip):
        vector = ResourceVector(cycles=70, memory=16.5)
        clone = round_trip(vector)
        assert clone == vector
        assert hash(clone) == hash(vector)
        with pytest.raises(AttributeError):
            clone.x = 1

    def test_deepcopy_of_implementations_and_applications(self):
        implementation = dsp_implementation("i", cycles=40, memory=8)
        clone = copy.deepcopy(implementation)
        assert clone == implementation
        assert clone.shape == implementation.shape
        app = generate(GeneratorConfig(inputs=1, internals=3, outputs=1), seed=11)
        app_clone = copy.deepcopy(app)
        assert app_clone.digest() == app.digest()


class TestAlgebra:
    def test_add(self):
        total = ResourceVector(cycles=1, memory=2) + ResourceVector(cycles=3)
        assert total == ResourceVector(cycles=4, memory=2)

    def test_sub(self):
        left = ResourceVector(cycles=5, memory=5)
        assert left - ResourceVector(cycles=2) == ResourceVector(cycles=3, memory=5)

    def test_sub_underflow_raises(self):
        with pytest.raises(ResourceError):
            ResourceVector(cycles=1) - ResourceVector(cycles=2)

    def test_sub_unknown_kind_raises(self):
        with pytest.raises(ResourceError):
            ResourceVector(cycles=1) - ResourceVector(memory=1)

    def test_scalar_multiplication(self):
        assert 2 * ResourceVector(cycles=3) == ResourceVector(cycles=6)
        assert ResourceVector(cycles=3) * 0 == ZERO

    def test_negative_scale_rejected(self):
        with pytest.raises(ResourceError):
            ResourceVector(cycles=1) * -1

    def test_vector_sum(self):
        vectors_list = [ResourceVector(cycles=1)] * 3
        assert vector_sum(vectors_list) == ResourceVector(cycles=3)
        assert vector_sum([]) == ZERO


class TestFits:
    def test_fits_in_superset(self):
        assert ResourceVector(cycles=2).fits_in(ResourceVector(cycles=2, io=1))

    def test_does_not_fit_when_any_kind_exceeds(self):
        need = ResourceVector(cycles=2, memory=9)
        have = ResourceVector(cycles=5, memory=8)
        assert not need.fits_in(have)

    def test_zero_fits_everywhere(self):
        assert ZERO.fits_in(ZERO)
        assert ZERO.fits_in(ResourceVector(cycles=1))

    def test_dominates_is_inverse_of_fits(self):
        big = ResourceVector(cycles=5, memory=5)
        small = ResourceVector(cycles=2)
        assert big.dominates(small)
        assert not small.dominates(big)


class TestBottleneck:
    def test_plain_ratio(self):
        need = ResourceVector(cycles=50)
        have = ResourceVector(cycles=100)
        assert need.bottleneck(have) == 0.5

    def test_worst_dimension_wins(self):
        need = ResourceVector(cycles=10, memory=30)
        have = ResourceVector(cycles=100, memory=40)
        assert need.bottleneck(have) == 0.75

    def test_missing_capacity_is_infinite(self):
        assert ResourceVector(io=1).bottleneck(ResourceVector(cycles=9)) == float("inf")

    def test_empty_requirement_is_zero(self):
        assert ZERO.bottleneck(ResourceVector(cycles=1)) == 0.0


class TestFractionOf:
    def test_integral_rounds_down_but_never_to_zero(self):
        capacity = ResourceVector(cycles=100, memory=3)
        need = fraction_of(capacity, 0.1)
        assert need["cycles"] == 10
        assert need["memory"] == 1  # 0.3 rounds down, floor at 1

    def test_full_fraction_is_capacity(self):
        capacity = ResourceVector(cycles=100, memory=32)
        assert fraction_of(capacity, 1.0) == capacity

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ResourceError):
            fraction_of(ResourceVector(cycles=1), 0.0)
        with pytest.raises(ResourceError):
            fraction_of(ResourceVector(cycles=1), 1.5)


class TestProperties:
    @given(vectors(), vectors())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(vectors(), vectors(), vectors())
    def test_add_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(vectors())
    def test_zero_is_identity(self, a):
        assert a + ZERO == a

    @given(vectors(), vectors())
    def test_sub_inverts_add(self, a, b):
        assert (a + b) - b == a

    @given(vectors(), vectors())
    def test_fits_iff_sub_succeeds(self, a, b):
        fits = a.fits_in(b)
        try:
            b - a
            subtracted = True
        except ResourceError:
            subtracted = False
        assert fits == subtracted

    @given(vectors(), vectors())
    def test_sum_dominates_parts(self, a, b):
        assert a.fits_in(a + b)
        assert b.fits_in(a + b)

    @given(vectors())
    def test_total_nonnegative(self, a):
        assert a.total() >= 0

    @given(vectors(max_value=50), st.floats(min_value=0.01, max_value=1.0))
    def test_fraction_of_fits_unless_floored(self, capacity, fraction):
        need = fraction_of(capacity, fraction)
        # the floor-at-1 rule can exceed tiny capacities only when the
        # capacity component is fractional; with integers it never does
        assert need.fits_in(capacity)
