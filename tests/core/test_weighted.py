"""Unit tests for weighted (TCP-style) max-min fairness."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    constant_redundancy,
    is_feasible,
    max_min_fair_allocation,
    normalized_rate_vector,
    random_join_link_rate,
    rtt_weights,
    validate_weights,
    weighted_max_min_fair_allocation,
    weighted_same_path_receiver_fairness,
)
from repro.errors import AllocationError
from repro.network import (
    NetworkGraph,
    Network,
    Session,
    SessionType,
    figure1_network,
    figure2_network,
    random_multicast_network,
    single_bottleneck_network,
)


def unit_weights(network):
    return {rid: 1.0 for rid in network.all_receiver_ids()}


class TestWeightValidation:
    def test_requires_complete_coverage(self, figure1):
        with pytest.raises(AllocationError):
            validate_weights(figure1, {(0, 0): 1.0})

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf")])
    def test_rejects_non_positive_or_infinite(self, figure1, bad):
        weights = unit_weights(figure1)
        weights[(0, 0)] = bad
        with pytest.raises(AllocationError):
            validate_weights(figure1, weights)

    def test_rtt_weights(self, figure1):
        rtts = {rid: 0.1 * (index + 1) for index, rid in enumerate(figure1.all_receiver_ids())}
        weights = rtt_weights(figure1, rtts)
        assert weights[figure1.all_receiver_ids()[0]] == pytest.approx(10.0)
        with pytest.raises(AllocationError):
            rtt_weights(figure1, {})
        rtts[figure1.all_receiver_ids()[0]] = 0.0
        with pytest.raises(AllocationError):
            rtt_weights(figure1, rtts)

    def test_single_rate_sessions_need_uniform_weights(self, figure2_single):
        weights = unit_weights(figure2_single)
        weights[(0, 1)] = 2.0
        with pytest.raises(AllocationError):
            weighted_max_min_fair_allocation(figure2_single, weights)


class TestReductionToUnweighted:
    @pytest.mark.parametrize(
        "builder",
        [figure1_network, lambda: figure2_network(single_rate=True), lambda: figure2_network(False)],
    )
    def test_unit_weights_reproduce_unweighted_allocation(self, builder):
        network = builder()
        weighted = weighted_max_min_fair_allocation(network, unit_weights(network))
        unweighted = max_min_fair_allocation(network, method="reference")
        # Unit weights run the unweighted reference construction itself.
        assert weighted.as_dict() == unweighted.as_dict()

    @pytest.mark.parametrize("redundancy", [False, True], ids=["efficient", "redundant"])
    @pytest.mark.parametrize("seed", range(4))
    def test_unit_weights_on_random_networks(self, seed, redundancy):
        functions = None
        max_rate = math.inf
        if redundancy:
            # Linear and non-linear v_i, and finite rho on odd seeds.
            functions = {0: constant_redundancy(1.5), 1: random_join_link_rate(40.0)}
            max_rate = (math.inf, 6.0)[seed % 2]
        network = random_multicast_network(
            seed=seed, num_links=10, num_sessions=4, max_rate=max_rate
        )
        weighted = weighted_max_min_fair_allocation(network, unit_weights(network), functions)
        unweighted = max_min_fair_allocation(network, functions, method="reference")
        assert weighted.as_dict() == unweighted.as_dict()

    def test_uniform_scaling_of_weights_is_irrelevant(self, figure1):
        base = weighted_max_min_fair_allocation(figure1, unit_weights(figure1))
        scaled = weighted_max_min_fair_allocation(
            figure1, {rid: 7.5 for rid in figure1.all_receiver_ids()}
        )
        assert base.as_dict() == pytest.approx(scaled.as_dict(), rel=1e-6)


class TestWeightedBehaviour:
    def test_rates_proportional_to_weights_on_shared_bottleneck(self):
        network = single_bottleneck_network(num_sessions=2, capacity=9.0)
        weights = {(0, 0): 2.0, (1, 0): 1.0}
        allocation = weighted_max_min_fair_allocation(network, weights)
        assert allocation.rate((0, 0)) == pytest.approx(6.0)
        assert allocation.rate((1, 0)) == pytest.approx(3.0)
        assert is_feasible(allocation)

    def test_tcp_like_rtt_bias(self):
        # Two receivers share a path; the short-RTT one gets proportionally more.
        graph = NetworkGraph()
        graph.add_link("src", "dst", capacity=12.0)
        network = Network(
            graph,
            [Session(0, "src", ["dst"]), Session(1, "src", ["dst"])],
        )
        weights = rtt_weights(network, {(0, 0): 0.05, (1, 0): 0.1})
        allocation = weighted_max_min_fair_allocation(network, weights)
        assert allocation.rate((0, 0)) == pytest.approx(8.0)
        assert allocation.rate((1, 0)) == pytest.approx(4.0)

    def test_respects_max_desired_rate(self):
        network = single_bottleneck_network(num_sessions=2, capacity=10.0, max_rate=2.0)
        weights = {(0, 0): 3.0, (1, 0): 1.0}
        allocation = weighted_max_min_fair_allocation(network, weights)
        # Both sessions are capped by rho = 2 before the bottleneck binds.
        assert allocation.rate((0, 0)) == pytest.approx(2.0)
        assert allocation.rate((1, 0)) == pytest.approx(2.0)

    def test_multi_rate_receivers_weighted_independently(self):
        graph = NetworkGraph()
        graph.add_link("src", "hub", capacity=30.0)
        graph.add_link("hub", "a", capacity=10.0)
        graph.add_link("hub", "b", capacity=10.0)
        network = Network(graph, [Session(0, "src", ["a", "b"], SessionType.MULTI_RATE)])
        weights = {(0, 0): 1.0, (0, 1): 4.0}
        allocation = weighted_max_min_fair_allocation(network, weights)
        # Each receiver is limited by its own fan-out link, not by its weight.
        assert allocation.rate((0, 0)) == pytest.approx(10.0)
        assert allocation.rate((0, 1)) == pytest.approx(10.0)

    def test_weighted_with_redundancy_function(self):
        network = single_bottleneck_network(num_sessions=2, capacity=6.0)
        weights = {(0, 0): 1.0, (1, 0): 1.0}
        allocation = weighted_max_min_fair_allocation(
            network, weights, link_rate_functions={0: constant_redundancy(2.0)}
        )
        assert allocation.ordered_vector() == pytest.approx((2.0, 2.0))

    def test_normalized_vector_is_equalised_on_shared_bottleneck(self):
        network = single_bottleneck_network(num_sessions=3, capacity=6.0)
        weights = {(0, 0): 1.0, (1, 0): 2.0, (2, 0): 3.0}
        allocation = weighted_max_min_fair_allocation(network, weights)
        normalised = normalized_rate_vector(allocation, weights)
        assert normalised == pytest.approx((1.0, 1.0, 1.0))

    @given(st.integers(min_value=0, max_value=500), st.data())
    @settings(max_examples=20, deadline=None)
    def test_feasibility_on_random_networks(self, seed, data):
        network = random_multicast_network(seed=seed, num_links=10, num_sessions=3)
        weights = {
            rid: data.draw(st.floats(min_value=0.2, max_value=5.0, allow_nan=False))
            for rid in network.all_receiver_ids()
        }
        allocation = weighted_max_min_fair_allocation(network, weights)
        assert is_feasible(allocation)
        # At least one link saturated or some receiver at rho (rho is infinite
        # here, so a saturated link must exist).
        assert allocation.fully_utilized_links()


class TestWeightedSamePathProperty:
    def test_holds_for_weighted_allocation(self):
        graph = NetworkGraph()
        graph.add_link("src", "dst", capacity=12.0)
        network = Network(graph, [Session(0, "src", ["dst"]), Session(1, "src", ["dst"])])
        weights = {(0, 0): 2.0, (1, 0): 1.0}
        allocation = weighted_max_min_fair_allocation(network, weights)
        assert weighted_same_path_receiver_fairness(allocation, weights).holds

    def test_detects_violations(self, figure1):
        weights = unit_weights(figure1)
        allocation = max_min_fair_allocation(figure1)
        # With skewed weights the unweighted allocation is no longer
        # weighted-same-path fair for the r1,1 / r2,1 pair.
        skewed = dict(weights)
        skewed[(0, 0)] = 10.0
        report = weighted_same_path_receiver_fairness(allocation, skewed)
        assert not report.holds
        assert any((0, 0) in violation.subject for violation in report.violations)

    def test_unweighted_reduces_to_property2(self, figure1):
        allocation = max_min_fair_allocation(figure1)
        assert weighted_same_path_receiver_fairness(allocation, unit_weights(figure1)).holds
