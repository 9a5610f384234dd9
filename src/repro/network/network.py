"""The network tuple ``N = (G, {S_1..S_m}, tau, sigma)``.

:class:`Network` bundles a :class:`~repro.network.graph.NetworkGraph`, the
sessions (whose member nodes realise the paper's topology mapping ``tau`` and
whose types realise the type mapping ``sigma``), and a routing table giving
each receiver its data-path.

It also optionally carries per-session *link-rate functions* ``v_i``
(Section 3.1): functions mapping the set of downstream receiver rates on a
link to the session's link rate ``u_{i,j}``.  When absent, the efficient
link rate ``u_{i,j} = max{a_{i,k} : r_{i,k} in R_{i,j}}`` assumed throughout
Section 2 is used by the fairness algorithms.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import NetworkModelError
from .graph import NetworkGraph
from .incidence import NetworkIncidence
from .routing import RoutingStrategy, RoutingTable, ShortestPathRouting
from .session import Receiver, ReceiverId, Session, SessionType

__all__ = ["Network", "LinkRateFunction"]

#: A session link-rate function ``v_i``: maps the collection of downstream
#: receiver rates ``{a_{i,k} : r_{i,k} in R_{i,j}}`` to the session link rate
#: ``u_{i,j}``.  Must satisfy ``v_i(X) >= max(X)`` (any bandwidth received by
#: a receiver must traverse its data-path).
LinkRateFunction = Callable[[Sequence[float]], float]


class Network:
    """A multicast network: graph, sessions, routing, and session types.

    Parameters
    ----------
    graph:
        The underlying :class:`NetworkGraph`.
    sessions:
        Sessions in id order.  ``sessions[i].session_id`` must equal ``i``.
    routing:
        Routing strategy used to derive data-paths (default: shortest path).
    link_rate_functions:
        Optional mapping ``session_id -> v_i`` overriding the efficient link
        rate for specific sessions (used to model redundancy, Section 3.1).
    """

    def __init__(
        self,
        graph: NetworkGraph,
        sessions: Sequence[Session],
        routing: Optional[RoutingStrategy] = None,
        link_rate_functions: Optional[Mapping[int, LinkRateFunction]] = None,
    ) -> None:
        self._graph = graph
        self._sessions: Tuple[Session, ...] = tuple(sessions)
        self._validate_sessions()
        self._routing_strategy = routing if routing is not None else ShortestPathRouting()
        self._routing = self._routing_strategy.build(graph, self._sessions)
        self._set_link_rate_functions(link_rate_functions)

    def _set_link_rate_functions(self, functions: Optional[Mapping[int, LinkRateFunction]]) -> None:
        self._incidence: Optional[NetworkIncidence] = None
        self._link_rate_functions: Dict[int, LinkRateFunction] = dict(functions or {})
        for session_id in self._link_rate_functions:
            if not 0 <= session_id < len(self._sessions):
                raise NetworkModelError(
                    f"link-rate function supplied for unknown session id {session_id}"
                )

    def _validate_sessions(self) -> None:
        if not self._sessions:
            raise NetworkModelError("a network must contain at least one session")
        for i, session in enumerate(self._sessions):
            if session.session_id != i:
                raise NetworkModelError(
                    f"session at position {i} has session_id {session.session_id}; "
                    "sessions must be supplied in id order with dense ids"
                )
            for member_node in [session.sender.node] + [r.node for r in session.receivers]:
                if not self._graph.has_node(member_node):
                    raise NetworkModelError(
                        f"session {session.name} references unknown node {member_node!r}"
                    )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> NetworkGraph:
        return self._graph

    @property
    def sessions(self) -> Tuple[Session, ...]:
        return self._sessions

    @property
    def routing(self) -> RoutingTable:
        return self._routing

    @property
    def num_sessions(self) -> int:
        return len(self._sessions)

    @property
    def num_links(self) -> int:
        return self._graph.num_links

    @property
    def num_receivers(self) -> int:
        return sum(session.num_receivers for session in self._sessions)

    @property
    def link_rate_functions(self) -> Mapping[int, LinkRateFunction]:
        """Per-session link-rate functions ``v_i`` (possibly empty)."""
        return dict(self._link_rate_functions)

    def session(self, session_id: int) -> Session:
        try:
            return self._sessions[session_id]
        except IndexError:
            raise NetworkModelError(f"no session with id {session_id}") from None

    def receiver(self, receiver_id: ReceiverId) -> Receiver:
        session_id, index = receiver_id
        return self.session(session_id).receiver(index)

    def all_receiver_ids(self) -> List[ReceiverId]:
        """All ``(session_id, receiver_index)`` pairs, ordered."""
        result: List[ReceiverId] = []
        for session in self._sessions:
            result.extend(session.receiver_ids)
        return result

    def session_types(self) -> Dict[int, SessionType]:
        """The type mapping ``sigma`` as a dict keyed by session id."""
        return {s.session_id: s.session_type for s in self._sessions}

    def multi_rate_session_ids(self) -> FrozenSet[int]:
        return frozenset(s.session_id for s in self._sessions if s.is_multi_rate)

    def single_rate_session_ids(self) -> FrozenSet[int]:
        return frozenset(s.session_id for s in self._sessions if s.is_single_rate)

    # Convenience pass-throughs to the routing table --------------------
    def data_path(self, receiver_id: ReceiverId) -> Tuple[int, ...]:
        """Ordered link ids of the receiver's data-path."""
        return self._routing.data_path(receiver_id)

    def session_data_path(self, session_id: int) -> FrozenSet[int]:
        """The session's multicast tree as a set of link ids."""
        return self._routing.session_data_path(session_id)

    def receivers_of_session_on_link(self, session_id: int, link_id: int) -> FrozenSet[ReceiverId]:
        """``R_{i,j}``."""
        return self._routing.receivers_of_session_on_link(session_id, link_id)

    def receivers_on_link(self, link_id: int) -> FrozenSet[ReceiverId]:
        """``R_j``."""
        return self._routing.receivers_on_link(link_id)

    def sessions_on_link(self, link_id: int) -> FrozenSet[int]:
        return self._routing.sessions_on_link(link_id)

    def link_capacity(self, link_id: int) -> float:
        return self._graph.capacity(link_id)

    def incidence(self) -> NetworkIncidence:
        """CSR index structures for this network, built once and cached.

        The incidence takes its routing arrays by reference from the
        routing table, which derived networks share.  Networks are immutable
        after construction (the derivation methods below return copies), so
        the incidence can be shared by every fairness computation on the
        same network.
        """
        if self._incidence is None:
            self._incidence = NetworkIncidence(self)
        return self._incidence

    def __iter__(self) -> Iterator[Session]:
        return iter(self._sessions)

    # ------------------------------------------------------------------
    # ingestion (topology files -> Network)
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: NetworkGraph,
        num_sessions: int = 4,
        receivers_per_session: int = 3,
        seed: int = 0,
        placement: str = "random",
        session_types: object = "multi",
    ) -> "Network":
        """Build a network from a bare graph plus a placement policy.

        Sessions are placed by
        :func:`repro.network.topology.placement.place_sessions` (all
        randomness derived from ``seed`` via the ``spawn_run_entropy``
        scheme) and routed along shortest paths.  The common tail of
        :meth:`from_gml`, :meth:`from_json`, and generator-based
        experiments.
        """
        from .topology.placement import place_sessions

        sessions = place_sessions(
            graph,
            num_sessions=num_sessions,
            receivers_per_session=receivers_per_session,
            seed=seed,
            policy=placement,
            session_types=session_types,  # type: ignore[arg-type]
        )
        return cls(graph, sessions)

    @classmethod
    def from_gml(
        cls,
        path: object,
        num_sessions: int = 4,
        receivers_per_session: int = 3,
        seed: int = 0,
        placement: str = "random",
        session_types: object = "multi",
        default_capacity: float = 100.0,
    ) -> "Network":
        """Load a GML topology file and place sessions on it.

        See :mod:`repro.network.topology.formats` for the parser and
        capacity-attribute resolution, and
        :mod:`repro.network.topology.placement` for the policies.
        """
        from .topology.formats import load_topology

        graph = load_topology(path, default_capacity=default_capacity)  # type: ignore[arg-type]
        return cls.from_graph(
            graph,
            num_sessions=num_sessions,
            receivers_per_session=receivers_per_session,
            seed=seed,
            placement=placement,
            session_types=session_types,
        )

    @classmethod
    def from_json(
        cls,
        path: object,
        num_sessions: int = 4,
        receivers_per_session: int = 3,
        seed: int = 0,
        placement: str = "random",
        session_types: object = "multi",
    ) -> "Network":
        """Load a JSON ``{distances, bandwidth}`` topology file and place sessions."""
        return cls.from_gml(
            path,
            num_sessions=num_sessions,
            receivers_per_session=receivers_per_session,
            seed=seed,
            placement=placement,
            session_types=session_types,
        )

    # ------------------------------------------------------------------
    # derivation (varying sigma, membership, redundancy)
    # ------------------------------------------------------------------
    def with_session_types(self, types: Mapping[int, SessionType]) -> "Network":
        """Return a copy of the network with selected sessions' types changed.

        This realises the paper's "replacement" of a session by an identical
        session of the other type (same members, same topology) used in
        Lemma 3 and Corollary 1.
        """
        sessions = [
            s.with_type(types[s.session_id]) if s.session_id in types else s
            for s in self._sessions
        ]
        return self._copy_keeping_routes(sessions, self._link_rate_functions)

    def with_all_multi_rate(self) -> "Network":
        """Return a copy where every session is multi-rate."""
        return self.with_session_types(
            {s.session_id: SessionType.MULTI_RATE for s in self._sessions}
        )

    def with_all_single_rate(self) -> "Network":
        """Return a copy where every session is single-rate."""
        return self.with_session_types(
            {s.session_id: SessionType.SINGLE_RATE for s in self._sessions}
        )

    def with_link_rate_functions(
        self, functions: Mapping[int, LinkRateFunction]
    ) -> "Network":
        """Return a copy with the given per-session link-rate functions ``v_i``.

        Functions supplied here replace the whole mapping (sessions absent
        from ``functions`` revert to the efficient link rate).
        """
        return self._copy_keeping_routes(self._sessions, functions)

    def _copy_keeping_routes(
        self, sessions: Sequence[Session], functions: Optional[Mapping[int, LinkRateFunction]]
    ) -> "Network":
        """A copy with new session types or link-rate functions and this network's routes.

        Routes depend only on the graph and the sessions' member nodes, which
        the copy keeps, so it shares this :class:`RoutingTable` instead of
        routing every session again.  Its incidence is built on demand.
        """
        network = copy.copy(self)
        network._sessions = tuple(sessions)
        network._set_link_rate_functions(functions)
        return network

    def without_receiver(self, receiver_id: ReceiverId) -> "Network":
        """Return a copy with one receiver removed from its session.

        Used to reproduce the Section 2.5 / Figure 3 receiver-removal
        experiments.  Removing the last receiver of a session is an error.
        """
        session_id, index = receiver_id
        new_sessions = []
        for session in self._sessions:
            if session.session_id == session_id:
                new_sessions.append(session.without_receiver(index))
            else:
                new_sessions.append(session)
        return Network(
            self._graph,
            new_sessions,
            routing=self._routing_strategy,
            link_rate_functions=self._link_rate_functions,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sigma = "".join(s.session_type.short for s in self._sessions)
        return (
            f"Network(links={self.num_links}, sessions={self.num_sessions}, "
            f"receivers={self.num_receivers}, sigma={sigma!r})"
        )
