"""Unit tests for routing tables and data-path bookkeeping.

:func:`reference_shortest_paths` is the executable spec of shortest-path
routing: the pure-Python, level-synchronous breadth-first search that
:meth:`NetworkGraph.shortest_path_tree` replaced with SciPy's C search on a
cached CSR adjacency.  Every route the graph returns must be link-for-link
the route this search finds.  :class:`TestRouteStore` checks the routing
table's CSR arrays and frozenset accessors against the data-paths
(``route_store_oracle``) on networks drawn over the same multigraphs, with
shortest-path and explicit routes.  Tier-1 runs the pinned ``ci``
hypothesis profile; ``--hypothesis-profile=thorough`` runs the larger
randomised budget.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.network import (
    ExplicitRouting,
    Network,
    NetworkGraph,
    Session,
    SessionType,
    ShortestPathRouting,
)
from repro.network.topology.generators import barabasi_albert


def reference_shortest_paths(graph: NetworkGraph, source: str) -> Dict[str, List[int]]:
    """Minimum-hop link paths from ``source`` to every node it reaches.

    Frontier by frontier, each node scans its incident links in id order
    and claims every neighbour not yet visited; a node's path is its
    claimer's path plus the claiming link.
    """
    prev: Dict[str, Tuple[str, int]] = {}
    frontier = [source]
    visited = {source}
    while frontier:
        next_frontier: List[str] = []
        for node in frontier:
            for link_id in graph.incident_links(node):
                other = graph.link(link_id).other_end(node)
                if other in visited:
                    continue
                visited.add(other)
                prev[other] = (node, link_id)
                next_frontier.append(other)
        frontier = next_frontier
    paths: Dict[str, List[int]] = {}
    for target in visited:
        path: List[int] = []
        node = target
        while node != source:
            node, link_id = prev[node]
            path.append(link_id)
        paths[target] = path[::-1]
    return paths


@st.composite
def multigraphs(draw):
    """Small multigraphs: parallel links, equal-length ties, isolated nodes.

    Nodes are registered in a drawn order so row order differs from name
    order, and each link's endpoints come in a drawn orientation.
    """
    num_nodes = draw(st.integers(min_value=1, max_value=10))
    names = draw(st.permutations([f"n{i}" for i in range(num_nodes)]))
    graph = NetworkGraph(nodes=names)
    if num_nodes > 1:
        pairs = draw(
            st.lists(
                st.tuples(
                    st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
                ).filter(lambda pair: pair[0] != pair[1]),
                min_size=num_nodes - 1,
                max_size=3 * num_nodes,
            )
        )
        for u, v in pairs:
            graph.add_link(names[u], names[v], capacity=1.0)
    source = draw(st.sampled_from(names))
    return graph, source


def _walk(draw, graph: NetworkGraph, node: str) -> Tuple[List[int], str]:
    """A drawn walk from ``node`` that never reuses a link, and where it ends."""
    path: List[int] = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        choices = [link for link in graph.incident_links(node) if link not in path]
        if not choices:
            break
        path.append(draw(st.sampled_from(choices)))
        node = graph.link(path[-1]).other_end(node)
    return path, node


@st.composite
def routed_networks(draw):
    """Up to three sessions on a :func:`multigraphs` graph, inside the source's component.

    Half the networks use :class:`ExplicitRouting`: there, receivers sit at
    the ends of drawn walks, and some of them take their walk as an explicit
    data-path (repeated nodes included) while the rest fall back to
    shortest paths.
    """
    graph, source = draw(multigraphs())
    component = sorted(reference_shortest_paths(graph, source))
    assume(len(component) > 1)
    explicit = draw(st.booleans())
    sessions, paths = [], {}
    for session_id in range(draw(st.integers(min_value=1, max_value=3))):
        sender = draw(st.sampled_from(component))
        others = [node for node in component if node != sender]
        if not explicit:
            nodes = draw(st.lists(st.sampled_from(others), min_size=1, max_size=4, unique=True))
        else:
            nodes = []
            for _ in range(4):
                walk, end = _walk(draw, graph, sender)
                if end == sender or end in nodes:
                    continue
                if draw(st.booleans()):
                    paths[(session_id, len(nodes))] = walk
                nodes.append(end)
            nodes = nodes or others[:1]
        sessions.append(Session(session_id, sender, nodes))
    routing = ExplicitRouting(paths) if explicit else ShortestPathRouting()
    return Network(graph, sessions, routing=routing)


@pytest.fixture
def tree_graph() -> NetworkGraph:
    graph = NetworkGraph()
    graph.add_link("root", "mid", capacity=10.0)    # 0
    graph.add_link("mid", "leaf_a", capacity=10.0)  # 1
    graph.add_link("mid", "leaf_b", capacity=10.0)  # 2
    return graph


@pytest.fixture
def tree_sessions() -> list:
    return [
        Session(0, "root", ["leaf_a", "leaf_b"], SessionType.MULTI_RATE),
        Session(1, "mid", ["leaf_a"], SessionType.MULTI_RATE),
    ]


class TestShortestPathRouting:
    def test_data_paths(self, tree_graph, tree_sessions):
        table = ShortestPathRouting().build(tree_graph, tree_sessions)
        assert table.data_path((0, 0)) == (0, 1)
        assert table.data_path((0, 1)) == (0, 2)
        assert table.data_path((1, 0)) == (1,)

    def test_session_data_path_is_union(self, tree_graph, tree_sessions):
        table = ShortestPathRouting().build(tree_graph, tree_sessions)
        assert table.session_data_path(0) == frozenset({0, 1, 2})
        assert table.session_data_path(1) == frozenset({1})

    def test_receiver_sets_per_link(self, tree_graph, tree_sessions):
        table = ShortestPathRouting().build(tree_graph, tree_sessions)
        assert table.receivers_of_session_on_link(0, 0) == frozenset({(0, 0), (0, 1)})
        assert table.receivers_of_session_on_link(0, 1) == frozenset({(0, 0)})
        assert table.receivers_on_link(1) == frozenset({(0, 0), (1, 0)})
        assert table.sessions_on_link(1) == frozenset({0, 1})
        assert table.receivers_on_link(2) == frozenset({(0, 1)})

    def test_links_used(self, tree_graph, tree_sessions):
        table = ShortestPathRouting().build(tree_graph, tree_sessions)
        assert table.links_used() == frozenset({0, 1, 2})

    def test_same_data_path(self, tree_graph):
        sessions = [
            Session(0, "root", ["leaf_a"]),
            Session(1, "root", ["leaf_a"]),
            Session(2, "root", ["leaf_b"]),
        ]
        table = ShortestPathRouting().build(tree_graph, sessions)
        assert table.same_data_path((0, 0), (1, 0))
        assert not table.same_data_path((0, 0), (2, 0))

    def test_contains_and_len(self, tree_graph, tree_sessions):
        table = ShortestPathRouting().build(tree_graph, tree_sessions)
        assert (0, 0) in table
        assert (9, 9) not in table
        assert len(table) == 3

    def test_unknown_receiver_raises(self, tree_graph, tree_sessions):
        table = ShortestPathRouting().build(tree_graph, tree_sessions)
        with pytest.raises(RoutingError):
            table.data_path((5, 0))


class TestExplicitRouting:
    def test_explicit_path_used(self, tree_graph):
        # Route the receiver at leaf_a the long way via an added extra link.
        graph = tree_graph
        graph.add_link("root", "leaf_a", capacity=10.0)  # link 3 (direct)
        sessions = [Session(0, "root", ["leaf_a"])]
        routing = ExplicitRouting({(0, 0): [0, 1]})
        table = routing.build(graph, sessions)
        assert table.data_path((0, 0)) == (0, 1)

    def test_fallback_to_shortest_path(self, tree_graph, tree_sessions):
        routing = ExplicitRouting({})
        table = routing.build(tree_graph, tree_sessions)
        assert table.data_path((1, 0)) == (1,)

    def test_fallback_disabled(self, tree_graph, tree_sessions):
        routing = ExplicitRouting({}, allow_fallback=False)
        with pytest.raises(RoutingError):
            routing.build(tree_graph, tree_sessions)

    def test_rejects_non_contiguous_path(self, tree_graph):
        sessions = [Session(0, "root", ["leaf_a"])]
        with pytest.raises(RoutingError):
            ExplicitRouting({(0, 0): [2]}).build(tree_graph, sessions)

    def test_rejects_path_ending_elsewhere(self, tree_graph):
        sessions = [Session(0, "root", ["leaf_a"])]
        with pytest.raises(RoutingError):
            ExplicitRouting({(0, 0): [0, 2]}).build(tree_graph, sessions)

    def test_rejects_repeated_link(self, tree_graph):
        sessions = [Session(0, "root", ["mid"])]
        with pytest.raises(RoutingError):
            ExplicitRouting({(0, 0): [0, 1, 1, 0, 0]}).build(tree_graph, sessions)

    @pytest.mark.parametrize("link_id", [-1, 3])
    def test_rejects_link_id_outside_graph(self, tree_graph, link_id):
        # -1 would alias link 2 (mid--leaf_b), a valid path for this receiver.
        sessions = [Session(0, "mid", ["leaf_b"])]
        with pytest.raises(RoutingError, match=rf"r1,1 names link id {link_id}\b"):
            ExplicitRouting({(0, 0): [link_id]}).build(tree_graph, sessions)

    def test_negative_link_id_is_not_a_second_link(self):
        # Two sessions over one unit link: routing one of them over "-1"
        # must not give both receivers the whole link.
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        sessions = [Session(0, "a", ["b"]), Session(1, "a", ["b"])]
        with pytest.raises(RoutingError, match="r1,1"):
            Network(graph, sessions, routing=ExplicitRouting({(0, 0): (-1,)}))


class TestAgainstReferenceSearch:
    @given(multigraphs())
    def test_every_path_matches_reference(self, case):
        graph, source = case
        expected = reference_shortest_paths(graph, source)
        assert graph.shortest_path_tree(source, list(expected)) == expected
        for target, path in expected.items():
            assert graph.shortest_path_links(source, target) == path
        unreachable = sorted(set(graph.nodes) - set(expected))
        if unreachable:
            with pytest.raises(RoutingError) as excinfo:
                graph.shortest_path_tree(source, graph.nodes)
            assert list(excinfo.value.unreachable) == unreachable
        assert graph.is_connected() == (not unreachable)

    def test_parallel_links_take_the_lowest_id(self):
        graph = NetworkGraph()
        graph.add_link("b", "c", capacity=1.0)  # 0
        graph.add_link("a", "b", capacity=1.0)  # 1
        graph.add_link("b", "a", capacity=1.0)  # 2: parallel, reversed
        graph.add_link("a", "c", capacity=1.0)  # 3
        assert graph.shortest_path_tree("a", ["b", "c"]) == {"b": [1], "c": [3]}
        assert graph.shortest_path_links("b", "a") == [1]

    def test_ties_follow_link_order_not_node_order(self):
        graph = NetworkGraph(nodes=["a", "b", "c", "d"])
        graph.add_link("a", "c", capacity=1.0)  # 0: c is found before b
        graph.add_link("a", "b", capacity=1.0)  # 1
        graph.add_link("b", "d", capacity=1.0)  # 2
        graph.add_link("c", "d", capacity=1.0)  # 3
        assert graph.shortest_path_links("a", "d") == [0, 3]

    @pytest.mark.parametrize("registration", ["generated", "reversed"])
    def test_scale_free_sessions_match_reference(self, registration):
        graph = barabasi_albert(500, 2, seed=7)
        if registration == "reversed":
            # Generated rows list neighbours in node order; registering the
            # nodes backwards makes link order and node order disagree.
            reordered = NetworkGraph(nodes=reversed(graph.nodes))
            for link in graph.links:
                reordered.add_link(link.u, link.v, capacity=link.capacity)
            graph = reordered
        network = Network.from_graph(graph, num_sessions=100, receivers_per_session=3, seed=11)
        checked = 0
        for session in network.sessions:
            expected = reference_shortest_paths(graph, session.sender.node)
            for receiver in session.receivers:
                assert list(network.data_path(receiver.receiver_id)) == expected[receiver.node]
                checked += 1
        assert checked == 300


class TestRouteStore:
    @given(routed_networks())
    def test_route_store_matches_data_paths(self, route_store_oracle, network):
        route_store_oracle(network)


class TestAdjacencyCache:
    def test_new_links_and_nodes_are_routed(self):
        graph = NetworkGraph()
        for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
            graph.add_link(u, v, capacity=1.0)
        sessions = [Session(0, "a", ["d"])]
        assert ShortestPathRouting().build(graph, sessions).data_path((0, 0)) == (0, 1, 2)
        assert graph.is_connected()

        shortcut = graph.add_link("a", "d", capacity=1.0)
        assert ShortestPathRouting().build(graph, sessions).data_path((0, 0)) == (
            shortcut.link_id,
        )

        graph.add_node("e")
        assert not graph.is_connected()
        with pytest.raises(RoutingError, match="'e'"):
            graph.shortest_path_links("a", "e")
        graph.add_link("d", "e", capacity=1.0)
        assert graph.is_connected()
        assert graph.shortest_path_links("a", "e") == [shortcut.link_id, 4]
