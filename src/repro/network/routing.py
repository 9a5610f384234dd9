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

The resulting :class:`RoutingTable` is the network's one route store: the
data-paths plus the compressed sparse row (CSR) arrays, built once in
NumPy, that every per-link question reads (``R_{i,j}``, ``R_j``, the
sessions on a link).  :class:`~repro.network.incidence.NetworkIncidence`
takes those arrays by reference.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

import numpy as np

from ..errors import NetworkModelError, RoutingError
from .graph import NetworkGraph
from .session import Receiver, ReceiverId, Session

__all__ = [
    "RoutingTable",
    "RoutingStrategy",
    "ShortestPathRouting",
    "ExplicitRouting",
]


class RoutingTable:
    """Receivers' data-paths and the CSR route store built from them.

    Parameters
    ----------
    graph:
        The network graph the paths refer to.
    sessions:
        The sessions whose receivers are routed.
    paths:
        Mapping from ``(session_id, receiver_index)`` to an ordered sequence
        of link ids forming the receiver's data-path (sender to receiver).
        The table trusts them: searched paths are valid by construction, and
        :class:`ExplicitRouting` checks caller-supplied paths before it
        builds a table.

    Attributes
    ----------
    receiver_ids:
        Routed receivers in ``(session_id, receiver_index)`` order; a
        receiver's position in this list is its *receiver index* in every
        array below.
    receiver_session:
        ``int64[R]`` — session id of each receiver.
    relevant_links:
        Sorted link ids on at least one data-path (a list); a link's
        position in it is its *compact link index*.
    link_index:
        Inverse mapping link id -> compact link index.
    receiver_link_ptr / receiver_link_indices:
        CSR layout of each receiver's data-path as sorted compact link
        indices.
    link_receiver_ptr / link_receiver_indices:
        Transposed CSR: the receivers crossing each compact link, ascending.
    pair_link / pair_session:
        ``int64[P]`` — compact link index and session id of each
        ``(link, session)`` pair with a receiver downstream, in
        ``(link, session)`` order.
    pair_ptr / pair_receivers:
        CSR layout of the sets ``R_{i,j}``: pair ``p`` owns
        ``pair_receivers[pair_ptr[p]:pair_ptr[p + 1]]``, ascending.
    receiver_pair_ptr / receiver_pairs:
        CSR layout of the pairs each receiver belongs to, ascending (the
        transpose of ``pair_receivers``).
    link_pair_ptr:
        CSR layout of each compact link's pairs (a contiguous range).
    num_pairs / base_pair_counts:
        Number of pairs, and ``int64[P]`` members per pair.
    session_receiver_count:
        ``int64[S]`` receivers per session.

    Every array is read-only: networks derived with other session types or
    link-rate functions share their parent's table.
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
                self._paths[rid] = tuple(paths[rid])
        self._build_store(len(sessions))

    def _build_store(self, num_sessions: int) -> None:
        """Fill the CSR arrays (class docstring) from the receiver-ordered paths."""
        self.receiver_ids: List[ReceiverId] = sorted(self._paths)
        num_receivers = len(self.receiver_ids)
        self.receiver_session = np.array([rid[0] for rid in self.receiver_ids], dtype=np.int64)
        paths = [self._paths[rid] for rid in self.receiver_ids]
        lengths = np.fromiter(map(len, paths), dtype=np.int64, count=num_receivers)
        flat = np.fromiter(chain.from_iterable(paths), dtype=np.int64, count=int(lengths.sum()))
        self._link_ids, compact = np.unique(flat, return_inverse=True)
        self.relevant_links: List[int] = self._link_ids.tolist()
        self.link_index: Dict[int, int] = {
            link_id: index for index, link_id in enumerate(self.relevant_links)
        }
        num_links = len(self.relevant_links)

        # Entries by (link, receiver): ``flat`` is in receiver order, so a
        # stable sort by link keeps each link's receivers ascending.
        by_link = np.argsort(compact, kind="stable")
        entry_link = compact[by_link]
        self.link_receiver_indices = np.repeat(
            np.arange(num_receivers, dtype=np.int64), lengths
        )[by_link]
        self.link_receiver_ptr = np.append(0, np.cumsum(np.bincount(compact, minlength=num_links)))

        # Receiver indices ascend with session ids, so these entries are also
        # in (link, session, receiver) order: each run of equal (link,
        # session) is one pair, and its receivers are R_{i,j}, ascending.
        entry_session = self.receiver_session[self.link_receiver_indices]
        starts = np.ones(len(flat), dtype=bool)
        starts[1:] = (np.diff(entry_link) != 0) | (np.diff(entry_session) != 0)
        first = np.flatnonzero(starts)
        self.pair_link = entry_link[first]
        self.pair_session = entry_session[first]
        self.pair_ptr = np.append(first, len(flat))
        self.pair_receivers = self.link_receiver_indices
        self.num_pairs = len(first)
        self.base_pair_counts = np.diff(self.pair_ptr)
        self.link_pair_ptr = np.append(0, np.cumsum(np.bincount(self.pair_link, minlength=num_links)))

        # Back to receiver order: a stable sort by receiver keeps each row's
        # entries in ascending link order, hence ascending pair order.  A
        # receiver meets one pair per link of its path.
        by_receiver = np.argsort(self.link_receiver_indices, kind="stable")
        self.receiver_link_indices = entry_link[by_receiver]
        self.receiver_link_ptr = np.append(0, np.cumsum(lengths))
        self.receiver_pairs = (np.cumsum(starts) - 1)[by_receiver]
        self.receiver_pair_ptr = self.receiver_link_ptr
        self.session_receiver_count = np.bincount(self.receiver_session, minlength=num_sessions)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def _link_span(self, ptr: np.ndarray, link_id: int) -> slice:
        """Link ``link_id``'s row of a per-link CSR pointer (empty off every path)."""
        compact = self.link_index.get(link_id)
        if compact is None:
            return slice(0, 0)
        return slice(ptr.item(compact), ptr.item(compact + 1))

    def _receivers(self, indices: np.ndarray) -> FrozenSet[ReceiverId]:
        return frozenset([self.receiver_ids[r] for r in indices.tolist()])

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
        first, end = np.searchsorted(self.receiver_session, (session_id, session_id + 1)).tolist()
        ptr = self.receiver_link_ptr
        links = self.receiver_link_indices[ptr.item(first):ptr.item(end)]
        return frozenset(self._link_ids[links].tolist())

    def receivers_of_session_on_link(self, session_id: int, link_id: int) -> FrozenSet[ReceiverId]:
        """The set ``R_{i,j}``: receivers of session ``i`` whose path crosses ``l_j``."""
        pairs = self._link_span(self.link_pair_ptr, link_id)
        sessions = self.pair_session[pairs].tolist()
        if session_id not in sessions:
            return frozenset()
        pair = pairs.start + sessions.index(session_id)
        ptr = self.pair_ptr
        return self._receivers(self.pair_receivers[ptr.item(pair):ptr.item(pair + 1)])

    def receivers_on_link(self, link_id: int) -> FrozenSet[ReceiverId]:
        """The set ``R_j``: all receivers whose path crosses ``l_j``."""
        span = self._link_span(self.link_receiver_ptr, link_id)
        return self._receivers(self.link_receiver_indices[span])

    def sessions_on_link(self, link_id: int) -> FrozenSet[int]:
        """Session ids with at least one receiver crossing ``l_j``."""
        return frozenset(self.pair_session[self._link_span(self.link_pair_ptr, link_id)].tolist())

    def links_used(self) -> FrozenSet[int]:
        """All link ids that appear on at least one data-path."""
        return frozenset(self.relevant_links)

    def same_data_path(self, a: ReceiverId, b: ReceiverId) -> bool:
        """True when receivers ``a`` and ``b`` traverse the same set of links.

        This is the pre-condition of same-path-receiver-fairness (Fairness
        Property 2).
        """
        return self.data_path_set(a) == self.data_path_set(b)

    def all_receiver_ids(self) -> List[ReceiverId]:
        """All routed receivers, ordered by (session, index)."""
        return list(self.receiver_ids)

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


def _checked_path(
    graph: NetworkGraph, session: Session, receiver: Receiver, path: Tuple[int, ...]
) -> Tuple[int, ...]:
    """``path`` once it is known to lead from the sender to ``receiver`` without repeats."""
    node = session.sender.node
    for link_id in path:
        try:
            link = graph.link(link_id)
        except NetworkModelError:
            raise RoutingError(
                f"data-path for {receiver.name} names link id {link_id}, but the graph "
                f"has links 0..{graph.num_links - 1}"
            ) from None
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
    return path


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
        self._explicit = {k: tuple(int(j) for j in v) for k, v in paths.items()}
        self._allow_fallback = allow_fallback

    def build(self, graph: NetworkGraph, sessions: Sequence[Session]) -> RoutingTable:
        paths: Dict[ReceiverId, Sequence[int]] = {}
        for session in sessions:
            for receiver in session.receivers:
                rid = receiver.receiver_id
                if rid in self._explicit:
                    paths[rid] = _checked_path(graph, session, receiver, self._explicit[rid])
                elif self._allow_fallback:
                    paths[rid] = graph.shortest_path_links(session.sender.node, receiver.node)
                else:
                    raise RoutingError(
                        f"no explicit path for {receiver.name} and fallback routing disabled"
                    )
        return RoutingTable(graph, sessions, paths)
