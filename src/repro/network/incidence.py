"""Cached NumPy incidence structures for a :class:`~repro.network.network.Network`.

The water-filling construction and the fairness-property checkers repeatedly
ask the same structural questions of a network: which receivers sit
downstream of session ``i`` on link ``j`` (the sets ``R_{i,j}``), which links
lie on a receiver's data-path, and what the link capacities are.

The routing answers are the network's route store: the
:class:`~repro.network.routing.RoutingTable` builds them once, as CSR
(compressed sparse row) NumPy arrays over receivers numbered in
``(session_id, receiver_index)`` order and links compacted to those on
some data-path; its docstring lists them.  :class:`NetworkIncidence` takes
those arrays by reference and adds what depends on more than the routes:
link capacities, each session's ``rho_i`` and single-rate flag, and the
density.

Every consumer walks the CSR arrays; :func:`csr_gather` concatenates the
slices of many rows at once.  No dense receiver x link matrix is ever built:
Internet-scale topologies (thousands of receivers over ten thousand links
with short data-paths) would need gigabyte-class matrices for a structure
that is >99% zeros.  :attr:`NetworkIncidence.density` and
:attr:`NetworkIncidence.is_sparse` describe the incidence (experiments and
benchmarks report them); nothing branches on them.

A network is immutable after construction, so the incidence is computed
lazily on first use and cached on the :class:`Network` (see
:meth:`Network.incidence`).  The structures are purely topological — they do
not depend on the per-session link-rate functions ``v_i``, which may vary
between fairness computations on the same network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

__all__ = ["NetworkIncidence", "ScalarIncidenceView", "csr_gather"]

#: An incidence is described as sparse when it has more than
#: ``SPARSE_CELL_LIMIT`` receiver x link cells, or at least
#: ``SPARSE_MIN_CELLS`` cells of which fewer than ``SPARSE_DENSITY_THRESHOLD``
#: are non-zero.
SPARSE_CELL_LIMIT = 1 << 22
SPARSE_DENSITY_THRESHOLD = 0.05
SPARSE_MIN_CELLS = 1 << 16


def csr_gather(ptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenate the CSR slices ``indices[ptr[r]:ptr[r + 1]]`` for ``r`` in ``rows``.

    Slices come out in the order of ``rows`` (repeats included), each in its
    stored order — the same array as ``np.concatenate`` over the slices, but
    built from ``np.repeat``/``cumsum`` offsets without a Python loop.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    # Output position k of row b's block maps to starts[b] + (k - block_start[b]).
    block_start = np.cumsum(lengths) - lengths
    positions = np.arange(int(lengths.sum()), dtype=np.int64)
    positions += np.repeat(starts - block_start, lengths)
    return indices[positions]


@dataclass
class ScalarIncidenceView:
    """Plain-list rendering of a :class:`NetworkIncidence`.

    Small networks water-fill faster with scalar Python arithmetic than with
    NumPy (per-operation dispatch overhead dominates below a few hundred
    elements), so the solver keeps a list-based twin of the index arrays.
    Built lazily, cached alongside the incidence.
    """

    pair_link: List[int]
    pair_session: List[int]
    pair_members: List[List[int]]
    receiver_pairs: List[List[int]]
    receiver_links: List[List[int]]
    link_pairs: List[List[int]]
    capacities: List[float]
    session_single_rate: List[bool]
    receiver_session: List[int]
    session_receivers: List[List[int]]


class NetworkIncidence:
    """CSR index structures for one network (see module docstring).

    Attributes
    ----------
    receiver_ids, receiver_session, relevant_links, link_index,
    receiver_link_ptr, receiver_link_indices, link_receiver_ptr,
    link_receiver_indices, pair_link, pair_session, pair_ptr, pair_receivers,
    receiver_pair_ptr, receiver_pairs, link_pair_ptr, num_pairs,
    base_pair_counts, session_receiver_count:
        The network's route store, taken by reference from its
        :class:`~repro.network.routing.RoutingTable` (described there).
    capacities:
        ``float64[L]`` — capacity of each relevant link.
    density:
        Fraction of the receiver x link cells on some data-path.
    is_sparse:
        Whether the incidence counts as sparse under the ``SPARSE_*``
        thresholds above (descriptive only).
    session_single_rate:
        ``bool[S]`` single-rate flags, indexed by session id.  (The solvers
        take each session's maximum desired rate ``rho_i`` from the network
        and its link-rate functions, not from the incidence.)
    """

    def __init__(self, network: "Network") -> None:
        routes = network.routing
        self.receiver_ids = routes.receiver_ids
        self.receiver_session = routes.receiver_session
        self.relevant_links = routes.relevant_links
        self.link_index = routes.link_index
        self.receiver_link_ptr = routes.receiver_link_ptr
        self.receiver_link_indices = routes.receiver_link_indices
        self.link_receiver_ptr = routes.link_receiver_ptr
        self.link_receiver_indices = routes.link_receiver_indices
        self.pair_link = routes.pair_link
        self.pair_session = routes.pair_session
        self.pair_ptr = routes.pair_ptr
        self.pair_receivers = routes.pair_receivers
        self.receiver_pair_ptr = routes.receiver_pair_ptr
        self.receiver_pairs = routes.receiver_pairs
        self.link_pair_ptr = routes.link_pair_ptr
        self.num_pairs = routes.num_pairs
        self.base_pair_counts = routes.base_pair_counts
        self.session_receiver_count = routes.session_receiver_count

        self.capacities = np.array(
            [network.link_capacity(j) for j in self.relevant_links], dtype=np.float64
        )
        self.max_capacity = float(self.capacities.max()) if self.num_links else 0.0
        cells = self.num_receivers * self.num_links
        self.density = (self.receiver_link_indices.size / cells) if cells else 0.0
        self.is_sparse = cells > SPARSE_CELL_LIMIT or (
            cells >= SPARSE_MIN_CELLS and self.density < SPARSE_DENSITY_THRESHOLD
        )
        self.session_single_rate = np.array(
            [session.is_single_rate for session in network.sessions], dtype=bool
        )
        self._scalar_view: Optional[ScalarIncidenceView] = None

    def receiver_links(self, receiver: int) -> np.ndarray:
        """Sorted compact link indices on ``receiver``'s data-path (CSR slice)."""
        return self.receiver_link_indices[
            self.receiver_link_ptr[receiver]:self.receiver_link_ptr[receiver + 1]
        ]

    def receivers_on_links(self, links: np.ndarray) -> np.ndarray:
        """Boolean mask of receivers whose data-path crosses any of ``links``.

        Gathers the transposed CSR slices of ``links`` and scatters them into
        a mask, costing O(total receivers on those links).
        """
        mask = np.zeros(self.num_receivers, dtype=bool)
        mask[csr_gather(self.link_receiver_ptr, self.link_receiver_indices, links)] = True
        return mask

    def scalar_view(self) -> ScalarIncidenceView:
        """Plain-list twin of the index arrays (built once, cached)."""
        if self._scalar_view is None:
            receiver_links: List[List[int]] = [
                self.receiver_links(r).tolist() for r in range(self.num_receivers)
            ]
            pair_members = [
                self.pair_members(pair).tolist() for pair in range(self.num_pairs)
            ]
            receiver_pairs = [
                self.receiver_incident_pairs(r).tolist()
                for r in range(self.num_receivers)
            ]
            link_pairs = [
                list(range(int(self.link_pair_ptr[l]), int(self.link_pair_ptr[l + 1])))
                for l in range(self.num_links)
            ]
            session_receivers: List[List[int]] = [
                [] for _ in range(len(self.session_single_rate))
            ]
            for index, session_id in enumerate(self.receiver_session):
                session_receivers[int(session_id)].append(index)
            self._scalar_view = ScalarIncidenceView(
                pair_link=self.pair_link.tolist(),
                pair_session=self.pair_session.tolist(),
                pair_members=pair_members,
                receiver_pairs=receiver_pairs,
                receiver_links=receiver_links,
                link_pairs=link_pairs,
                capacities=self.capacities.tolist(),
                session_single_rate=self.session_single_rate.tolist(),
                receiver_session=self.receiver_session.tolist(),
                session_receivers=session_receivers,
            )
        return self._scalar_view

    @property
    def num_receivers(self) -> int:
        return len(self.receiver_ids)

    @property
    def num_links(self) -> int:
        return len(self.relevant_links)

    def pair_members(self, pair: int) -> np.ndarray:
        """Receiver indices downstream of pair ``pair`` (a CSR slice view)."""
        return self.pair_receivers[self.pair_ptr[pair]:self.pair_ptr[pair + 1]]

    def receiver_incident_pairs(self, receiver: int) -> np.ndarray:
        """Pairs whose downstream set contains ``receiver`` (a CSR slice view)."""
        return self.receiver_pairs[
            self.receiver_pair_ptr[receiver]:self.receiver_pair_ptr[receiver + 1]
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkIncidence(receivers={self.num_receivers}, "
            f"links={self.num_links}, pairs={self.num_pairs}, "
            f"density={self.density:.3g})"
        )
