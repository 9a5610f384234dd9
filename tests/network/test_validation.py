"""Regression tests: invalid networks fail fast with typed ``ReproError``s.

Before this, a NaN capacity slipped past the ``capacity <= 0`` check (NaN
compares false) and surfaced deep inside water-filling as a convergence
failure, and a receiver stranded in a disconnected component produced a
bare ``no path from 'a' to 'c'`` with no hint of which session or receiver
was misplaced.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import NetworkModelError, ReproError, RoutingError
from repro.network.graph import Link, NetworkGraph
from repro.network.network import Network
from repro.network.session import Session


def _two_island_graph() -> NetworkGraph:
    graph = NetworkGraph()
    graph.add_link("a", "b", capacity=1.0)
    graph.add_link("c", "d", capacity=1.0)  # disconnected island
    return graph


class TestCapacityValidation:
    def test_nan_capacity_rejected_at_link_construction(self):
        with pytest.raises(NetworkModelError, match="capacity must be positive"):
            Link(link_id=0, u="a", v="b", capacity=float("nan"))

    def test_nan_capacity_rejected_via_graph(self):
        graph = NetworkGraph()
        with pytest.raises(NetworkModelError):
            graph.add_link("a", "b", capacity=math.nan)

    @pytest.mark.parametrize("capacity", [0.0, -1.0, -math.inf])
    def test_non_positive_capacity_rejected(self, capacity):
        with pytest.raises(NetworkModelError):
            NetworkGraph().add_link("a", "b", capacity=capacity)

    def test_infinite_capacity_still_allowed(self):
        link = NetworkGraph().add_link("a", "b", capacity=math.inf)
        assert math.isinf(link.capacity)


class TestDisconnectedPlacement:
    def test_network_construction_names_session_and_receiver(self):
        graph = _two_island_graph()
        session = Session(0, "a", ["b", "c"])
        with pytest.raises(RoutingError) as excinfo:
            Network(graph, [session])
        message = str(excinfo.value)
        assert "S1" in message  # the session
        assert "r1,2" in message  # the stranded receiver
        assert "'a'" in message  # the sender node
        assert "disconnected" in message

    def test_error_is_a_repro_error(self):
        graph = _two_island_graph()
        with pytest.raises(ReproError):
            Network(graph, [Session(0, "a", ["c"])])

    def test_multiple_stranded_receivers_all_named(self):
        graph = _two_island_graph()
        with pytest.raises(RoutingError, match=r"r1,1, r1,2"):
            Network(graph, [Session(0, "a", ["c", "d"])])

    def test_connected_placement_still_builds(self):
        graph = _two_island_graph()
        network = Network(graph, [Session(0, "a", ["b"])])
        assert network.data_path((0, 0)) == (0,)

    def test_derived_networks_over_disconnected_graph(self):
        graph = _two_island_graph()
        graph.add_link("b", "e", capacity=1.0)  # 2
        network = Network(graph, [Session(0, "a", ["b", "e"]), Session(1, "d", ["c"])])
        single = network.with_all_single_rate()
        assert single.routing is network.routing
        assert single.data_path((1, 0)) == (1,)
        assert network.with_link_rate_functions({1: max}).data_path((0, 1)) == (0, 2)
        pruned = single.without_receiver((0, 0))  # routed again, island by island
        assert pruned.data_path((0, 0)) == (0, 2)
        assert pruned.data_path((1, 0)) == (1,)
        sessions = list(single.sessions) + [Session(2, "c", ["d", "a", "b"])]
        with pytest.raises(RoutingError, match=r"S3: receiver\(s\) r3,2, r3,3 .*'c'") as excinfo:
            Network(graph, sessions)
        assert excinfo.value.unreachable == ("a", "b")

    def test_shortest_path_tree_reports_unreachable_targets(self):
        graph = _two_island_graph()
        with pytest.raises(RoutingError, match="'c', 'd'"):
            graph.shortest_path_tree("a", ["b", "c", "d"])

    def test_shortest_path_tree_matches_per_target_search(self):
        graph = NetworkGraph()
        graph.add_link("s", "m1", capacity=1.0)
        graph.add_link("s", "m2", capacity=1.0)
        graph.add_link("m1", "t1", capacity=1.0)
        graph.add_link("m2", "t1", capacity=1.0)  # tie: lower link ids win
        graph.add_link("m2", "t2", capacity=1.0)
        tree = graph.shortest_path_tree("s", ["t1", "t2", "s"])
        assert tree["t1"] == graph.shortest_path_links("s", "t1")
        assert tree["t2"] == graph.shortest_path_links("s", "t2")
        assert tree["s"] == []
