"""Unit and property-based tests for the Appendix-B random-join analysis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import random_join_link_rate
from repro.errors import LayeringError
from repro.layering import (
    FIGURE5_CONFIGURATIONS,
    ExponentialLayerScheme,
    UniformLayerScheme,
    expected_link_rate,
    figure5_curves,
    figure5_redundancy,
    layer_count_ablation,
    multi_layer_link_rate,
    multi_layer_redundancy,
    one_fast_rest_slow,
    redundancy_upper_bound,
    single_layer_redundancy,
    uniform_rates,
)

bounded_rates = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=30
)


class TestExpectedLinkRate:
    def test_two_equal_receivers(self):
        assert expected_link_rate([0.5, 0.5], 1.0) == pytest.approx(0.75)

    def test_single_receiver_is_exact(self):
        assert expected_link_rate([0.3], 1.0) == pytest.approx(0.3)

    def test_empty_is_zero(self):
        assert expected_link_rate([], 1.0) == 0.0

    def test_full_rate_receiver_saturates_layer(self):
        assert expected_link_rate([1.0, 0.2], 1.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(LayeringError):
            expected_link_rate([0.5], 0.0)

    def test_clamps_rates_to_layer_rate(self):
        # One policy with random_join_link_rate: a receiver cannot take
        # more than the layer offers, so rates above lambda count as lambda.
        assert expected_link_rate([2.0], 1.0) == 1.0
        assert expected_link_rate([2.0, 0.5], 1.0) == 1.0
        assert expected_link_rate([-0.5, 0.3], 1.0) == pytest.approx(0.3)

    def test_same_formula_as_the_water_filling_function(self):
        function = random_join_link_rate(2.5)
        for rates in ([0.5], [0.1, 1.2, 2.4], [3.0, 0.2], []):
            assert expected_link_rate(rates, 2.5) == function(rates)

    @given(bounded_rates)
    @settings(max_examples=80, deadline=None)
    def test_between_max_and_transmission_rate(self, rates):
        value = expected_link_rate(rates, 1.0)
        assert value <= 1.0 + 1e-9
        assert value >= max(rates) - 1e-9

    @given(bounded_rates, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_added_receiver(self, rates, extra):
        base = expected_link_rate(rates, 1.0)
        extended = expected_link_rate(rates + [extra], 1.0)
        assert extended >= base - 1e-9


class TestFigure5:
    def test_known_asymptotes(self):
        # "All z" saturates at 1/z as the number of receivers grows.
        assert figure5_redundancy("All 0.1", 100) == pytest.approx(10.0, rel=1e-3)
        assert figure5_redundancy("All 0.5", 100) == pytest.approx(2.0, rel=1e-3)
        assert figure5_redundancy("All 0.9", 100) == pytest.approx(1.0 / 0.9, rel=1e-3)

    def test_one_receiver_is_efficient(self):
        for name in FIGURE5_CONFIGURATIONS:
            assert figure5_redundancy(name, 1) == pytest.approx(1.0)

    def test_unknown_configuration(self):
        with pytest.raises(LayeringError):
            figure5_redundancy("All 0.42", 10)

    def test_curves_monotone_in_receivers(self):
        counts = [1, 2, 5, 10, 20, 50, 100]
        curves = figure5_curves(counts)
        for values in curves.values():
            assert values == sorted(values)

    def test_uniform_population_grows_fastest(self):
        # For the same efficient link rate (max = 0.5), the homogeneous
        # population has higher redundancy than the heterogeneous one.
        for count in (2, 5, 10, 50):
            uniform = figure5_redundancy("All 0.5", count)
            mixed = figure5_redundancy("1st .5 rest .1", count)
            assert uniform >= mixed - 1e-9

    def test_upper_bound_respected(self):
        for name, params in FIGURE5_CONFIGURATIONS.items():
            rates = one_fast_rest_slow(100, params["fast"], params["slow"])
            assert figure5_redundancy(name, 100) <= redundancy_upper_bound(rates, 1.0) + 1e-9

    def test_rate_builders(self):
        assert uniform_rates(3, 0.2) == [0.2, 0.2, 0.2]
        assert one_fast_rest_slow(3, 0.9, 0.1) == [0.9, 0.1, 0.1]
        with pytest.raises(LayeringError):
            uniform_rates(0, 0.2)
        with pytest.raises(LayeringError):
            one_fast_rest_slow(0, 0.9, 0.1)


class TestMultiLayer:
    def test_single_uniform_layer_matches_single_layer_formula(self):
        rates = uniform_rates(10, 0.3)
        scheme = UniformLayerScheme(1, 1.0)
        assert multi_layer_redundancy(rates, scheme) == pytest.approx(
            single_layer_redundancy(rates, 1.0)
        )

    def test_more_layers_reduce_redundancy(self):
        rates = uniform_rates(20, 0.3)
        few = multi_layer_redundancy(rates, UniformLayerScheme(1, 1.0))
        many = multi_layer_redundancy(rates, UniformLayerScheme(10, 0.1))
        assert many <= few + 1e-9

    def test_fully_subscribed_layers_carried_once(self):
        # Every receiver needs the whole first layer, so it contributes
        # exactly its rate regardless of the receiver count.
        rates = uniform_rates(50, 0.5)
        scheme = UniformLayerScheme(2, 0.5)
        assert multi_layer_link_rate(rates, scheme) == pytest.approx(0.5)
        assert multi_layer_redundancy(rates, scheme) == pytest.approx(1.0)

    def test_exponential_scheme_supported(self):
        rates = [1.0, 3.0, 7.0]
        scheme = ExponentialLayerScheme(4)  # max aggregate 8
        value = multi_layer_link_rate(rates, scheme)
        assert value >= max(rates) - 1e-9
        assert value <= scheme.max_rate + 1e-9

    def test_rate_above_scheme_maximum_rejected(self):
        with pytest.raises(LayeringError):
            multi_layer_link_rate([3.0], UniformLayerScheme(2, 1.0))

    def test_empty_rates(self):
        assert multi_layer_link_rate([], UniformLayerScheme(1, 1.0)) == 0.0
        assert multi_layer_redundancy([0.0], UniformLayerScheme(1, 1.0)) == 1.0

    def test_layer_count_ablation_monotone(self):
        rates = uniform_rates(20, 0.1)
        results = layer_count_ablation(rates, 1.0, [1, 2, 4, 8])
        values = [results[count] for count in (1, 2, 4, 8)]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(single_layer_redundancy(rates, 1.0))

    def test_layer_count_ablation_validation(self):
        with pytest.raises(LayeringError):
            layer_count_ablation([0.5], 1.0, [0])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=15),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_multi_layer_never_exceeds_single_layer(self, rates, layers):
        single = single_layer_redundancy(rates, 1.0)
        multi = multi_layer_redundancy(rates, UniformLayerScheme(layers, 1.0 / layers))
        assert multi <= single + 1e-9
