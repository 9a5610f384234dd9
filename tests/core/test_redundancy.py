"""Unit tests for link-rate functions, redundancy, and the Figure 6 closed forms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    bottleneck_fair_rate,
    constant_redundancy,
    efficient_link_rate,
    link_redundancy,
    normalized_fair_rate,
    random_join_link_rate,
)
from repro.errors import AllocationError
from repro.layering import redundancy_upper_bound

positive_rates = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=20
)


class TestEfficientLinkRate:
    def test_is_max(self):
        assert efficient_link_rate([1.0, 3.0, 2.0]) == 3.0

    def test_empty_is_zero(self):
        assert efficient_link_rate([]) == 0.0

    def test_declares_unit_slope(self):
        assert efficient_link_rate.redundancy_factor == 1.0


class TestConstantRedundancy:
    def test_scales_max(self):
        function = constant_redundancy(2.5)
        assert function([1.0, 2.0]) == pytest.approx(5.0)
        assert function([]) == 0.0

    def test_min_receivers_gate(self):
        function = constant_redundancy(3.0, min_receivers=2)
        assert function([2.0]) == pytest.approx(2.0)
        assert function([2.0, 1.0]) == pytest.approx(6.0)

    def test_slope_attribute_only_for_unconditional(self):
        assert constant_redundancy(2.0).redundancy_factor == 2.0
        assert not hasattr(constant_redundancy(2.0, min_receivers=2), "redundancy_factor")

    def test_validation(self):
        with pytest.raises(AllocationError):
            constant_redundancy(0.5)
        with pytest.raises(AllocationError):
            constant_redundancy(2.0, min_receivers=0)


class TestRandomJoinLinkRate:
    def test_matches_appendix_b_formula(self):
        function = random_join_link_rate(1.0)
        rates = [0.5, 0.5]
        expected = 1.0 * (1.0 - 0.5 * 0.5)
        assert function(rates) == pytest.approx(expected)

    def test_single_receiver_is_efficient(self):
        function = random_join_link_rate(2.0)
        assert function([0.7]) == pytest.approx(0.7)

    def test_clamps_rates_to_layer_rate(self):
        function = random_join_link_rate(1.0)
        assert function([5.0]) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(AllocationError):
            random_join_link_rate(0.0)

    @given(positive_rates)
    @settings(max_examples=80, deadline=None)
    def test_bounded_between_max_and_layer_rate(self, rates):
        function = random_join_link_rate(1.0)
        value = function(rates)
        assert value <= 1.0 + 1e-12
        assert value >= max(rates) - 1e-9 if max(rates) > 0 else value >= 0.0


class TestRedundancyMetric:
    def test_link_redundancy(self):
        assert link_redundancy(4.0, [2.0, 1.0]) == pytest.approx(2.0)
        assert link_redundancy(0.0, [0.0]) == 1.0

    def test_redundancy_upper_bound(self):
        assert redundancy_upper_bound([0.1, 0.1], 1.0) == pytest.approx(10.0)
        assert redundancy_upper_bound([0.0], 1.0) == 1.0

    @given(positive_rates)
    @settings(max_examples=80, deadline=None)
    def test_random_join_redundancy_at_most_bound(self, rates):
        if max(rates) <= 0:
            return
        function = random_join_link_rate(1.0)
        redundancy = link_redundancy(function(rates), rates)
        assert 1.0 - 1e-9 <= redundancy <= redundancy_upper_bound(rates, 1.0) + 1e-9


class TestFigure6ClosedForms:
    def test_bottleneck_fair_rate_matches_paper_formula(self):
        assert bottleneck_fair_rate(10, 1, 5.0, capacity=1.0) == pytest.approx(1.0 / 14.0)
        assert bottleneck_fair_rate(4, 0, 3.0, capacity=8.0) == pytest.approx(2.0)

    def test_normalized_fair_rate(self):
        assert normalized_fair_rate(0.0, 5.0) == pytest.approx(1.0)
        assert normalized_fair_rate(1.0, 5.0) == pytest.approx(0.2)
        assert normalized_fair_rate(0.1, 2.0) == pytest.approx(1.0 / 1.1)

    def test_normalized_rate_decreases_in_redundancy(self):
        values = [normalized_fair_rate(0.05, v) for v in (1.0, 2.0, 5.0, 10.0)]
        assert values == sorted(values, reverse=True)

    def test_small_fraction_limits_impact(self):
        # With 1% of sessions redundant the normalised rate stays above 0.9
        # even at redundancy 10 — the paper's argument for tolerating it.
        assert normalized_fair_rate(0.01, 10.0) > 0.9

    def test_validation(self):
        with pytest.raises(AllocationError):
            bottleneck_fair_rate(0, 0, 1.0)
        with pytest.raises(AllocationError):
            bottleneck_fair_rate(2, 3, 1.0)
        with pytest.raises(AllocationError):
            bottleneck_fair_rate(2, 1, 0.5)
        with pytest.raises(AllocationError):
            bottleneck_fair_rate(2, 1, 2.0, capacity=0.0)
        with pytest.raises(AllocationError):
            normalized_fair_rate(1.5, 2.0)
        with pytest.raises(AllocationError):
            normalized_fair_rate(0.5, 0.9)
