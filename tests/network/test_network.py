"""Unit tests for the Network container (graph + sessions + routing + sigma)."""

from __future__ import annotations

import pytest

from repro.errors import NetworkModelError
from repro.network import (
    NetworkGraph,
    Network,
    Session,
    SessionType,
)


def build_simple_network() -> Network:
    graph = NetworkGraph()
    graph.add_link("src", "mid", capacity=6.0)
    graph.add_link("mid", "a", capacity=4.0)
    graph.add_link("mid", "b", capacity=2.0)
    sessions = [
        Session(0, "src", ["a", "b"], SessionType.SINGLE_RATE),
        Session(1, "src", ["a"], SessionType.MULTI_RATE),
    ]
    return Network(graph, sessions)


class TestNetworkConstruction:
    def test_counts(self):
        network = build_simple_network()
        assert network.num_sessions == 2
        assert network.num_links == 3
        assert network.num_receivers == 3

    def test_requires_sessions(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        with pytest.raises(NetworkModelError):
            Network(graph, [])

    def test_requires_dense_session_ids(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        with pytest.raises(NetworkModelError):
            Network(graph, [Session(1, "a", ["b"])])

    def test_rejects_unknown_member_nodes(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        with pytest.raises(NetworkModelError):
            Network(graph, [Session(0, "a", ["ghost"])])

    def test_rejects_link_rate_function_for_unknown_session(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        with pytest.raises(NetworkModelError):
            Network(graph, [Session(0, "a", ["b"])], link_rate_functions={3: max})


class TestNetworkAccessors:
    def test_session_and_receiver_lookup(self):
        network = build_simple_network()
        assert network.session(0).name == "S1"
        assert network.receiver((1, 0)).name == "r2,1"
        with pytest.raises(NetworkModelError):
            network.session(9)

    def test_all_receiver_ids_ordered(self):
        network = build_simple_network()
        assert network.all_receiver_ids() == [(0, 0), (0, 1), (1, 0)]

    def test_session_types_and_subsets(self):
        network = build_simple_network()
        assert network.session_types() == {
            0: SessionType.SINGLE_RATE,
            1: SessionType.MULTI_RATE,
        }
        assert network.single_rate_session_ids() == frozenset({0})
        assert network.multi_rate_session_ids() == frozenset({1})

    def test_routing_passthroughs(self):
        network = build_simple_network()
        assert network.data_path((0, 0)) == (0, 1)
        assert network.session_data_path(0) == frozenset({0, 1, 2})
        assert network.receivers_of_session_on_link(0, 0) == frozenset({(0, 0), (0, 1)})
        assert network.receivers_on_link(1) == frozenset({(0, 0), (1, 0)})
        assert network.sessions_on_link(2) == frozenset({0})
        assert network.link_capacity(2) == 2.0

    def test_iteration(self):
        network = build_simple_network()
        assert [s.session_id for s in network] == [0, 1]


class TestNetworkDerivation:
    def test_with_session_types(self):
        network = build_simple_network()
        converted = network.with_session_types({0: SessionType.MULTI_RATE})
        assert converted.session(0).is_multi_rate
        assert network.session(0).is_single_rate  # original untouched
        assert converted.session(1).is_multi_rate

    def test_with_all_multi_and_single(self):
        network = build_simple_network()
        assert all(s.is_multi_rate for s in network.with_all_multi_rate())
        assert all(s.is_single_rate for s in network.with_all_single_rate())

    def test_without_receiver(self):
        network = build_simple_network()
        pruned = network.without_receiver((0, 1))
        assert pruned.num_receivers == 2
        assert pruned.session(0).num_receivers == 1
        # Removing the only receiver of a session is rejected.
        with pytest.raises(NetworkModelError):
            pruned.without_receiver((1, 0)).without_receiver((1, 0))

    def test_with_link_rate_functions(self):
        network = build_simple_network()
        function = lambda rates: 2.0 * max(rates)  # noqa: E731 - test helper
        derived = network.with_link_rate_functions({1: function})
        assert derived.link_rate_functions == {1: function}
        assert network.link_rate_functions == {}

    def test_derivation_preserves_routing_strategy(self):
        network = build_simple_network()
        derived = network.with_all_multi_rate()
        assert derived.data_path((0, 0)) == network.data_path((0, 0))

    def test_type_and_rate_function_copies_reuse_the_routes(self):
        network = build_simple_network()
        network.incidence()
        converted = network.with_all_multi_rate()
        assert converted.routing is network.routing
        assert converted.incidence() is not network.incidence()
        assert converted.incidence().session_single_rate.tolist() == [False, False]
        assert network.incidence().session_single_rate.tolist() == [True, False]
        with_functions = converted.with_link_rate_functions({0: max})
        assert with_functions.routing is network.routing
        assert converted.link_rate_functions == {}
        with pytest.raises(NetworkModelError, match="unknown session id 5"):
            network.with_link_rate_functions({5: max})

    def test_without_receiver_routes_again(self):
        network = build_simple_network()
        pruned = network.without_receiver((0, 1))
        assert pruned.routing is not network.routing
        assert pruned.data_path((0, 0)) == network.data_path((0, 0))
