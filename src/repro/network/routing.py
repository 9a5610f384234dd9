"""Routing: data-paths from senders to receivers.

The paper assumes the network employs a routing algorithm that, for each
receiver ``r_{i,k}``, yields a sequence of links carrying data from the
session sender ``X_i`` to that receiver — the receiver's *data-path*.  The
*session data-path* is the union of its receivers' data-paths, i.e. the
multicast distribution tree.

Two routing strategies are provided:

* :class:`ShortestPathRouting` — minimum-hop paths computed on the graph
  (deterministic tie-breaking), which is what all built-in topologies use;
* :class:`ExplicitRouting` — caller-supplied paths, useful for reproducing a
  figure where the route matters or for testing pathological routings.

The resulting :class:`RoutingTable` exposes the quantities the fairness
algorithms need: per-receiver data-paths, the sets ``R_{i,j}`` (receivers of
session ``i`` crossing link ``j``) and ``R_j`` (all receivers crossing link
``j``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from ..errors import RoutingError
from .graph import NetworkGraph
from .session import Receiver, ReceiverId, Session

__all__ = [
    "RoutingTable",
    "RoutingStrategy",
    "ShortestPathRouting",
    "ExplicitRouting",
]


class RoutingTable:
    """Immutable mapping from receivers to their data-paths.

    Parameters
    ----------
    graph:
        The network graph the paths refer to.
    sessions:
        The sessions whose receivers are routed.
    paths:
        Mapping from ``(session_id, receiver_index)`` to an ordered sequence
        of link ids forming the receiver's data-path (sender to receiver).
    """

    def __init__(
        self,
        graph: NetworkGraph,
        sessions: Sequence[Session],
        paths: Mapping[ReceiverId, Sequence[int]],
    ) -> None:
        self._graph = graph
        self._paths: Dict[ReceiverId, Tuple[int, ...]] = {}
        for session in sessions:
            for receiver in session.receivers:
                rid = receiver.receiver_id
                if rid not in paths:
                    raise RoutingError(f"no data-path supplied for receiver {receiver.name}")
                path = tuple(int(j) for j in paths[rid])
                self._validate_path(session, receiver, path)
                self._paths[rid] = path
        self._receivers_on_link = self._index_by_link()

    # ------------------------------------------------------------------
    # validation and indexing
    # ------------------------------------------------------------------
    def _validate_path(self, session: Session, receiver: Receiver, path: Tuple[int, ...]) -> None:
        node = session.sender.node
        for link_id in path:
            link = self._graph.link(link_id)
            if node not in link.endpoints:
                raise RoutingError(
                    f"data-path for {receiver.name} is not contiguous: link {link.name} "
                    f"does not touch node {node!r}"
                )
            node = link.other_end(node)
        if node != receiver.node:
            raise RoutingError(
                f"data-path for {receiver.name} ends at {node!r}, expected {receiver.node!r}"
            )
        if len(set(path)) != len(path):
            raise RoutingError(f"data-path for {receiver.name} repeats a link: {path}")

    def _index_by_link(self) -> Dict[int, Dict[int, Set[ReceiverId]]]:
        """Build link -> session -> set-of-receivers index (links on some path only)."""
        index: Dict[int, Dict[int, Set[ReceiverId]]] = {}
        for (session_id, receiver_index), path in self._paths.items():
            for link_id in path:
                index.setdefault(link_id, {}).setdefault(session_id, set()).add(
                    (session_id, receiver_index)
                )
        return index

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> NetworkGraph:
        return self._graph

    def data_path(self, receiver_id: ReceiverId) -> Tuple[int, ...]:
        """Ordered link ids of the receiver's data-path (sender to receiver)."""
        try:
            return self._paths[receiver_id]
        except KeyError:
            raise RoutingError(f"unknown receiver id {receiver_id}") from None

    def data_path_set(self, receiver_id: ReceiverId) -> FrozenSet[int]:
        """The receiver's data-path as an unordered set of link ids."""
        return frozenset(self.data_path(receiver_id))

    def session_data_path(self, session_id: int) -> FrozenSet[int]:
        """Union of data-paths of the session's receivers (the multicast tree)."""
        links: Set[int] = set()
        for (sid, _idx), path in self._paths.items():
            if sid == session_id:
                links.update(path)
        return frozenset(links)

    def receivers_of_session_on_link(self, session_id: int, link_id: int) -> FrozenSet[ReceiverId]:
        """The set ``R_{i,j}``: receivers of session ``i`` whose path crosses ``l_j``."""
        return frozenset(self._receivers_on_link.get(link_id, {}).get(session_id, set()))

    def receivers_on_link(self, link_id: int) -> FrozenSet[ReceiverId]:
        """The set ``R_j``: all receivers whose path crosses ``l_j``."""
        by_session = self._receivers_on_link.get(link_id, {})
        result: Set[ReceiverId] = set()
        for receivers in by_session.values():
            result.update(receivers)
        return frozenset(result)

    def sessions_on_link(self, link_id: int) -> FrozenSet[int]:
        """Session ids with at least one receiver crossing ``l_j``."""
        return frozenset(self._receivers_on_link.get(link_id, {}).keys())

    def links_used(self) -> FrozenSet[int]:
        """All link ids that appear on at least one data-path."""
        result: Set[int] = set()
        for path in self._paths.values():
            result.update(path)
        return frozenset(result)

    def same_data_path(self, a: ReceiverId, b: ReceiverId) -> bool:
        """True when receivers ``a`` and ``b`` traverse the same set of links.

        This is the pre-condition of same-path-receiver-fairness (Fairness
        Property 2).
        """
        return self.data_path_set(a) == self.data_path_set(b)

    def all_receiver_ids(self) -> List[ReceiverId]:
        """All routed receivers, ordered by (session, index)."""
        return sorted(self._paths.keys())

    def __contains__(self, receiver_id: ReceiverId) -> bool:
        return receiver_id in self._paths

    def __len__(self) -> int:
        return len(self._paths)


class RoutingStrategy:
    """Interface for producing a :class:`RoutingTable` for a set of sessions."""

    def build(self, graph: NetworkGraph, sessions: Sequence[Session]) -> RoutingTable:
        raise NotImplementedError


class ShortestPathRouting(RoutingStrategy):
    """Minimum-hop routing with deterministic tie-breaking.

    Each receiver's data-path is the breadth-first shortest path from its
    session's sender node.  Because the underlying search prefers lower link
    ids, repeated builds of the same network yield identical routes, which
    keeps experiments reproducible.
    """

    def build(self, graph: NetworkGraph, sessions: Sequence[Session]) -> RoutingTable:
        paths: Dict[ReceiverId, Sequence[int]] = {}
        for session in sessions:
            targets = [receiver.node for receiver in session.receivers]
            try:
                tree = graph.shortest_path_tree(session.sender.node, targets)
            except RoutingError as exc:
                stranded = sorted(
                    receiver.name for receiver in session.receivers
                    if receiver.node in exc.unreachable
                )
                raise RoutingError(
                    f"session {session.name}: receiver(s) {', '.join(stranded)} "
                    f"are disconnected from sender node {session.sender.node!r} "
                    f"({exc})",
                    unreachable=exc.unreachable,
                ) from exc
            for receiver in session.receivers:
                paths[receiver.receiver_id] = tree[receiver.node]
        return RoutingTable(graph, sessions, paths)


class ExplicitRouting(RoutingStrategy):
    """Caller-supplied routing.

    Parameters
    ----------
    paths:
        Mapping from ``(session_id, receiver_index)`` to the ordered link ids
        of the data-path.  Receivers that are missing from the mapping fall
        back to shortest-path routing when ``allow_fallback`` is true,
        otherwise an error is raised at build time.
    allow_fallback:
        Whether to fill in missing paths with shortest paths.
    """

    def __init__(
        self,
        paths: Mapping[ReceiverId, Sequence[int]],
        allow_fallback: bool = True,
    ) -> None:
        self._explicit = {k: tuple(v) for k, v in paths.items()}
        self._allow_fallback = allow_fallback

    def build(self, graph: NetworkGraph, sessions: Sequence[Session]) -> RoutingTable:
        paths: Dict[ReceiverId, Sequence[int]] = {}
        for session in sessions:
            for receiver in session.receivers:
                rid = receiver.receiver_id
                if rid in self._explicit:
                    paths[rid] = self._explicit[rid]
                elif self._allow_fallback:
                    paths[rid] = graph.shortest_path_links(session.sender.node, receiver.node)
                else:
                    raise RoutingError(
                        f"no explicit path for {receiver.name} and fallback routing disabled"
                    )
        return RoutingTable(graph, sessions, paths)
