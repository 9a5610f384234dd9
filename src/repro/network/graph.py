"""Network graph primitives: nodes, capacitated links, and adjacency.

The paper models a network graph ``G`` as a set of nodes connected by ``n``
links ``l_1 .. l_n``, where each link ``l_j`` has a capacity ``c_j`` that
limits the aggregate flow it can carry (Section 2, Table 1).  Links are
undirected in the paper's formulation; a bidirectional link with independent
per-direction capacity can be modelled as two parallel links.

This module provides :class:`Link` and :class:`NetworkGraph`.  The graph is
deliberately small and explicit rather than a thin wrapper over ``networkx``:
fairness algorithms index links by integer id constantly and benefit from the
direct list/dict representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import NetworkModelError, RoutingError

__all__ = ["Link", "NetworkGraph"]


@dataclass(frozen=True)
class Link:
    """A capacitated link between two nodes.

    Attributes
    ----------
    link_id:
        Zero-based integer identifier.  The paper writes ``l_j`` with
        ``1 <= j <= n``; we use zero-based ids internally and format them as
        ``l{j+1}`` for display.
    u, v:
        Endpoint node names.  Order carries no meaning.
    capacity:
        The capacity ``c_j`` (in rate units, e.g. Mbit/s or packets/s).
        Must be strictly positive; ``float('inf')`` is allowed for
        uncapacitated links.
    name:
        Optional human-readable name (defaults to ``l{j+1}``).
    """

    link_id: int
    u: str
    v: str
    capacity: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.link_id < 0:
            raise NetworkModelError(f"link_id must be non-negative, got {self.link_id}")
        if not self.capacity > 0:  # rejects NaN too: NaN > 0 is False
            raise NetworkModelError(
                f"link {self.link_id} capacity must be positive, got {self.capacity}"
            )
        if self.u == self.v:
            raise NetworkModelError(f"link {self.link_id} is a self-loop at node {self.u!r}")
        if not self.name:
            object.__setattr__(self, "name", f"l{self.link_id + 1}")

    @property
    def endpoints(self) -> Tuple[str, str]:
        """The pair of endpoint node names."""
        return (self.u, self.v)

    def other_end(self, node: str) -> str:
        """Return the endpoint opposite ``node``.

        Raises
        ------
        NetworkModelError
            If ``node`` is not an endpoint of this link.
        """
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise NetworkModelError(f"node {node!r} is not an endpoint of {self.name}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}({self.u}--{self.v}, c={self.capacity})"


class NetworkGraph:
    """An undirected graph of named nodes and capacitated links.

    Parameters
    ----------
    nodes:
        Optional iterable of node names to pre-register.  Nodes referenced by
        :meth:`add_link` are registered automatically.

    Examples
    --------
    >>> g = NetworkGraph()
    >>> g.add_link("a", "b", capacity=5.0)
    Link(link_id=0, u='a', v='b', capacity=5.0, name='l1')
    >>> g.num_links
    1
    """

    def __init__(self, nodes: Optional[Iterable[str]] = None) -> None:
        self._nodes: List[str] = []
        self._node_index: Dict[str, int] = {}
        self._links: List[Link] = []
        self._incident: List[List[int]] = []  # by node index
        self._link_name_index: Dict[str, int] = {}
        self._capacities_cache: Optional[List[float]] = None
        self._adjacency_cache: Optional[Tuple[object, np.ndarray, np.ndarray]] = None
        if nodes is not None:
            for node in nodes:
                self.add_node(node)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> str:
        """Register a node.  Adding an existing node is a no-op."""
        if not isinstance(name, str) or not name:
            raise NetworkModelError(f"node name must be a non-empty string, got {name!r}")
        if name not in self._node_index:
            self._node_index[name] = len(self._nodes)
            self._nodes.append(name)
            self._incident.append([])
            self._adjacency_cache = None
        return name

    def add_link(self, u: str, v: str, capacity: float, name: str = "") -> Link:
        """Create a link between ``u`` and ``v`` with the given capacity.

        Endpoints that are not yet registered are added automatically.
        Parallel links between the same pair of nodes are permitted (each gets
        its own id), which is occasionally useful for modelling per-direction
        capacities.  Display names must be unique across the graph (whether
        supplied explicitly or auto-generated); a duplicate raises
        :class:`NetworkModelError` instead of silently shadowing the earlier
        link in name-based lookups.
        """
        self.add_node(u)
        self.add_node(v)
        link = Link(link_id=len(self._links), u=u, v=v, capacity=capacity, name=name)
        if link.name in self._link_name_index:
            raise NetworkModelError(
                f"duplicate link name {link.name!r} (already used by link "
                f"{self._link_name_index[link.name]})"
            )
        self._links.append(link)
        self._link_name_index[link.name] = link.link_id
        self._incident[self._node_index[u]].append(link.link_id)
        self._incident[self._node_index[v]].append(link.link_id)
        self._capacities_cache = None
        self._adjacency_cache = None
        return link

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Sequence[str]:
        """Node names in insertion order."""
        return tuple(self._nodes)

    @property
    def links(self) -> Sequence[Link]:
        """All links in id order."""
        return tuple(self._links)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def has_node(self, name: str) -> bool:
        return name in self._node_index

    def link(self, link_id: int) -> Link:
        """Return the link with the given id (``0 <= link_id < num_links``)."""
        if not 0 <= link_id < len(self._links):
            raise NetworkModelError(f"no link with id {link_id}")
        return self._links[link_id]

    def link_by_name(self, name: str) -> Link:
        """Return the link with the given display name (O(1) dict lookup)."""
        try:
            return self._links[self._link_name_index[name]]
        except KeyError:
            raise NetworkModelError(f"no link named {name!r}") from None

    def capacity(self, link_id: int) -> float:
        """Capacity ``c_j`` of link ``link_id``."""
        return self.link(link_id).capacity

    def capacities(self) -> List[float]:
        """Capacities of all links, indexed by link id (cached between adds)."""
        if self._capacities_cache is None:
            self._capacities_cache = [link.capacity for link in self._links]
        return list(self._capacities_cache)

    def incident_links(self, node: str) -> List[int]:
        """Ids of links incident to ``node``."""
        if node not in self._node_index:
            raise NetworkModelError(f"unknown node {node!r}")
        return list(self._incident[self._node_index[node]])

    def neighbors(self, node: str) -> List[str]:
        """Nodes adjacent to ``node`` (each neighbour listed once)."""
        seen: Set[str] = set()
        result: List[str] = []
        for link_id in self.incident_links(node):
            other = self._links[link_id].other_end(node)
            if other not in seen:
                seen.add(other)
                result.append(other)
        return result

    def links_between(self, u: str, v: str) -> List[Link]:
        """All links whose endpoints are exactly ``{u, v}``."""
        return [
            link
            for link in self._links
            if {link.u, link.v} == {u, v}
        ]

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links)

    def __len__(self) -> int:
        return len(self._links)

    # ------------------------------------------------------------------
    # path finding
    # ------------------------------------------------------------------
    def _adjacency(self) -> Tuple[object, np.ndarray, np.ndarray]:
        """CSR node adjacency and a ``(parent, child) -> first link id`` map, cached.

        Row ``i`` holds node ``i``'s neighbours in link-id order, parallel
        links repeated.  It is never sorted or deduplicated, so a FIFO search
        that scans rows in stored order finds nodes in link-id order.  The
        map is every entry's key ``parent * num_nodes + child``, stably
        sorted so parallel links stay in id order, beside the entry's link
        id: ``searchsorted`` on the keys finds a hop's first link.
        """
        if self._adjacency_cache is None:
            # Imported here so only runs that route load SciPy's sparse package.
            from scipy.sparse import csr_array

            n = self.num_nodes
            degrees = [len(row) for row in self._incident]
            links = np.array([link_id for row in self._incident for link_id in row], dtype=np.int32)
            ends = np.array(
                [(self._node_index[link.u], self._node_index[link.v]) for link in self._links],
                dtype=np.int64,
            ).reshape(-1, 2)
            parents = np.repeat(np.arange(n, dtype=np.int64), degrees)
            children = ends[links].sum(axis=1) - parents  # the end that is not the parent
            keys = parents * n + children
            order = np.argsort(keys, kind="stable")
            indptr = np.concatenate(([0], np.cumsum(degrees)))
            # The search reads only the structure: one shared 1.0 serves every entry.
            data = np.broadcast_to(1.0, len(links))
            adjacency = csr_array(
                (data, children.astype(np.int32), indptr.astype(np.int32)), shape=(n, n)
            )
            self._adjacency_cache = (adjacency, keys[order], links[order])
        return self._adjacency_cache

    def shortest_path_links(self, source: str, target: str) -> List[int]:
        """Return link ids of a minimum-hop path from ``source`` to ``target``.

        Ties are broken deterministically by preferring lower link ids, so
        repeated calls yield the same route.  Raises :class:`RoutingError`
        (via :class:`NetworkModelError` subclassing) if no path exists.
        """
        return self.shortest_path_tree(source, [target])[target]

    def shortest_path_tree(self, source: str, targets: Iterable[str]) -> Dict[str, List[int]]:
        """Minimum-hop paths from ``source`` to every node in ``targets``.

        One breadth-first search (SciPy's, in C, over :meth:`_adjacency`)
        serves all targets.  The search is FIFO and scans each node's links
        in id order, so ties between equal-length paths always break the
        same way and each path is the one :meth:`shortest_path_links`
        returns for its target.  Raises :class:`RoutingError` naming every
        unreachable target (also in its ``unreachable`` attribute).
        """
        if source not in self._node_index:
            raise NetworkModelError(f"unknown source node {source!r}")
        targets = list(targets)
        for target in targets:
            if target not in self._node_index:
                raise NetworkModelError(f"unknown target node {target!r}")
        # Imported here so only runs that route load SciPy's sparse package.
        from scipy.sparse.csgraph import breadth_first_order

        adjacency, hop_keys, hop_links = self._adjacency()
        root = self._node_index[source]
        _, predecessors = breadth_first_order(adjacency, root, return_predecessors=True)
        unreachable = sorted(
            {t for t in targets if t != source and predecessors.item(self._node_index[t]) < 0}
        )
        if unreachable:
            names = ", ".join(repr(node) for node in unreachable)
            raise RoutingError(
                f"no path from {source!r} to node(s) {names}: the graph is disconnected "
                "between them",
                unreachable=unreachable,
            )
        # Walk each target up the search tree, then look every hop's link up at once.
        hops: List[int] = []
        ends: List[int] = []
        for target in targets:
            node = self._node_index[target]
            while node != root:
                parent = predecessors.item(node)
                hops.append(parent * self.num_nodes + node)
                node = parent
            ends.append(len(hops))
        links = hop_links[np.searchsorted(hop_keys, hops)].tolist()
        starts = [0] + ends[:-1]
        return {t: links[start:end][::-1] for t, start, end in zip(targets, starts, ends)}

    def is_connected(self) -> bool:
        """True if every node is reachable from every other node."""
        if self.num_nodes <= 1:
            return True
        # Imported here so only runs that route load SciPy's sparse package.
        from scipy.sparse.csgraph import breadth_first_order

        reached = breadth_first_order(self._adjacency()[0], 0, return_predecessors=False)
        return len(reached) == self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NetworkGraph(nodes={self.num_nodes}, links={self.num_links})"
