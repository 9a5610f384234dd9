"""Unit tests for the capacitated network graph."""

from __future__ import annotations

import math

import pytest

from repro.errors import NetworkModelError, RoutingError
from repro.network import Link, NetworkGraph


class TestLink:
    def test_basic_attributes(self):
        link = Link(link_id=0, u="a", v="b", capacity=5.0)
        assert link.name == "l1"
        assert link.endpoints == ("a", "b")
        assert link.capacity == 5.0

    def test_other_end(self):
        link = Link(link_id=2, u="a", v="b", capacity=1.0)
        assert link.other_end("a") == "b"
        assert link.other_end("b") == "a"

    def test_other_end_rejects_foreign_node(self):
        link = Link(link_id=0, u="a", v="b", capacity=1.0)
        with pytest.raises(NetworkModelError):
            link.other_end("c")

    def test_custom_name_preserved(self):
        link = Link(link_id=0, u="a", v="b", capacity=1.0, name="uplink")
        assert link.name == "uplink"

    @pytest.mark.parametrize("capacity", [0.0, -1.0])
    def test_rejects_non_positive_capacity(self, capacity):
        with pytest.raises(NetworkModelError):
            Link(link_id=0, u="a", v="b", capacity=capacity)

    def test_rejects_self_loop(self):
        with pytest.raises(NetworkModelError):
            Link(link_id=0, u="a", v="a", capacity=1.0)

    def test_rejects_negative_id(self):
        with pytest.raises(NetworkModelError):
            Link(link_id=-1, u="a", v="b", capacity=1.0)

    def test_infinite_capacity_allowed(self):
        link = Link(link_id=0, u="a", v="b", capacity=math.inf)
        assert math.isinf(link.capacity)


class TestNetworkGraph:
    def test_add_link_registers_nodes(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=2.0)
        assert graph.has_node("a") and graph.has_node("b")
        assert graph.num_nodes == 2
        assert graph.num_links == 1

    def test_link_ids_are_sequential(self):
        graph = NetworkGraph()
        first = graph.add_link("a", "b", capacity=1.0)
        second = graph.add_link("b", "c", capacity=1.0)
        assert (first.link_id, second.link_id) == (0, 1)
        assert graph.link(1) is second

    def test_link_lookup_by_name(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0, name="uplink")
        assert graph.link_by_name("uplink").u == "a"
        with pytest.raises(NetworkModelError):
            graph.link_by_name("missing")

    def test_duplicate_explicit_name_rejected(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0, name="uplink")
        with pytest.raises(NetworkModelError):
            graph.add_link("b", "c", capacity=1.0, name="uplink")

    def test_explicit_name_colliding_with_auto_name_rejected(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0, name="l2")
        # The second link would auto-name itself "l2" as well.
        with pytest.raises(NetworkModelError):
            graph.add_link("b", "c", capacity=1.0)

    def test_name_lookup_after_many_links(self):
        graph = NetworkGraph()
        for index in range(50):
            graph.add_link(f"n{index}", f"n{index + 1}", capacity=1.0)
        assert graph.link_by_name("l37").link_id == 36

    def test_unknown_link_id(self):
        graph = NetworkGraph()
        with pytest.raises(NetworkModelError):
            graph.link(0)

    @pytest.mark.parametrize("link_id", [-1, -2, 2])
    def test_link_id_outside_range_rejected(self, link_id):
        # A negative id must not index from the end of the link list.
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        graph.add_link("b", "c", capacity=2.0)
        with pytest.raises(NetworkModelError, match=f"no link with id {link_id}"):
            graph.link(link_id)
        with pytest.raises(NetworkModelError):
            graph.capacity(link_id)

    def test_capacities_in_id_order(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=3.0)
        graph.add_link("b", "c", capacity=7.0)
        assert graph.capacities() == [3.0, 7.0]
        assert graph.capacity(1) == 7.0

    def test_neighbors_and_incident_links(self):
        graph = NetworkGraph()
        graph.add_link("hub", "a", capacity=1.0)
        graph.add_link("hub", "b", capacity=1.0)
        graph.add_link("a", "b", capacity=1.0)
        assert sorted(graph.neighbors("hub")) == ["a", "b"]
        assert graph.incident_links("hub") == [0, 1]

    def test_neighbors_unknown_node(self):
        graph = NetworkGraph()
        with pytest.raises(NetworkModelError):
            graph.neighbors("ghost")

    def test_parallel_links_supported(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        graph.add_link("a", "b", capacity=2.0)
        assert len(graph.links_between("a", "b")) == 2

    def test_add_node_validates_name(self):
        graph = NetworkGraph()
        with pytest.raises(NetworkModelError):
            graph.add_node("")

    def test_shortest_path_simple_chain(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        graph.add_link("b", "c", capacity=1.0)
        graph.add_link("c", "d", capacity=1.0)
        assert graph.shortest_path_links("a", "d") == [0, 1, 2]

    def test_shortest_path_prefers_fewer_hops(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)   # 0
        graph.add_link("b", "c", capacity=1.0)   # 1
        graph.add_link("a", "c", capacity=1.0)   # 2 (direct)
        assert graph.shortest_path_links("a", "c") == [2]

    def test_shortest_path_same_node_is_empty(self):
        graph = NetworkGraph(nodes=["a"])
        assert graph.shortest_path_links("a", "a") == []

    def test_shortest_path_disconnected_raises(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        graph.add_node("z")
        with pytest.raises(RoutingError):
            graph.shortest_path_links("a", "z")

    def test_shortest_path_unknown_nodes(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        with pytest.raises(NetworkModelError):
            graph.shortest_path_links("a", "ghost")
        with pytest.raises(NetworkModelError):
            graph.shortest_path_links("ghost", "a")

    def test_is_connected(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        graph.add_link("b", "c", capacity=1.0)
        assert graph.is_connected()
        graph.add_node("island")
        assert not graph.is_connected()

    def test_is_connected_trivial_graph(self):
        assert NetworkGraph().is_connected()
        assert NetworkGraph(nodes=["only"]).is_connected()

    def test_iteration_and_len(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        graph.add_link("b", "c", capacity=1.0)
        assert len(graph) == 2
        assert [link.link_id for link in graph] == [0, 1]
