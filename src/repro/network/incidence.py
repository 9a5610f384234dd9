"""Cached NumPy incidence structures for a :class:`~repro.network.network.Network`.

The water-filling construction and the fairness-property checkers repeatedly
ask the same structural questions of a network: which receivers sit
downstream of session ``i`` on link ``j`` (the sets ``R_{i,j}``), which links
lie on a receiver's data-path, and what the link capacities are.  The
dict/frozenset answers exposed by :class:`~repro.network.routing.RoutingTable`
are convenient but slow to traverse in hot loops.

:class:`NetworkIncidence` flattens those structures once into NumPy
arrays:

* receivers are numbered ``0..R-1`` in ``(session_id, receiver_index)``
  order, links that appear on some data-path are compacted to ``0..L-1``;
* every non-empty ``(session, link)`` combination becomes a *pair*; the
  downstream receiver indices of all pairs live in one CSR array
  (``pair_ptr`` / ``pair_receivers``), grouped by link;
* the receiver x link data-path incidence is held as a **CSR pair**:
  ``receiver_link_ptr`` / ``receiver_link_indices`` (links on each
  receiver's data-path) and its transpose ``link_receiver_ptr`` /
  ``link_receiver_indices`` (receivers crossing each link);
* ``receiver_pair_ptr`` / ``receiver_pairs`` invert the pair CSR so that the
  pairs touched by a set of receivers can be found without scanning.

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
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from .session import ReceiverId

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
    session_max_rate: List[float]
    session_single_rate: List[bool]
    receiver_session: List[int]
    session_receivers: List[List[int]]


class NetworkIncidence:
    """CSR index structures for one network (see module docstring).

    Attributes
    ----------
    receiver_ids:
        All receiver ids in ``(session_id, receiver_index)`` order; the
        position of a receiver in this list is its *receiver index* used by
        every array below.
    receiver_index:
        Inverse mapping ``ReceiverId -> 0..R-1``.
    receiver_session:
        ``int64[R]`` — session id of each receiver.
    relevant_links:
        Sorted original link ids that appear on at least one data-path; the
        position of a link in this list is its *compact link index*.
    capacities:
        ``float64[L]`` — capacity of each relevant link.
    pair_link / pair_session:
        ``int64[P]`` — compact link index and session id of each
        ``(session, link)`` pair, grouped by link in ascending compact order.
    pair_ptr / pair_receivers:
        CSR layout of the downstream receiver indices ``R_{i,j}``: pair ``p``
        owns ``pair_receivers[pair_ptr[p]:pair_ptr[p + 1]]``.
    receiver_pair_ptr / receiver_pairs:
        CSR layout of the pairs each receiver belongs to (the transpose of
        ``pair_receivers``).
    receiver_link_ptr / receiver_link_indices:
        CSR layout of each receiver's data-path as sorted compact link
        indices.
    link_receiver_ptr / link_receiver_indices:
        Transposed CSR: the receivers crossing each compact link, ascending.
    density:
        Fraction of the receiver x link cells on some data-path.
    is_sparse:
        Whether the incidence counts as sparse under the ``SPARSE_*``
        thresholds above (descriptive only).
    session_max_rate / session_single_rate:
        ``float64[S]`` maximum desired rates ``rho_i`` and ``bool[S]``
        single-rate flags, indexed by session id.
    """

    def __init__(self, network: "Network") -> None:
        self.receiver_ids: List[ReceiverId] = network.all_receiver_ids()
        self.receiver_index: Dict[ReceiverId, int] = {
            rid: index for index, rid in enumerate(self.receiver_ids)
        }
        num_receivers = len(self.receiver_ids)
        self.receiver_session = np.array(
            [rid[0] for rid in self.receiver_ids], dtype=np.int64
        )

        self.relevant_links: List[int] = sorted(network.routing.links_used())
        self.link_index: Dict[int, int] = {
            link_id: compact for compact, link_id in enumerate(self.relevant_links)
        }
        num_links = len(self.relevant_links)
        self.capacities = np.array(
            [network.link_capacity(j) for j in self.relevant_links], dtype=np.float64
        )
        self.max_capacity = float(self.capacities.max()) if num_links else 0.0

        # One pass over the data-paths builds both incidence families:
        # the receiver -> link CSR and the
        # (session, link) pair map with its downstream receiver sets.
        link_index = self.link_index
        path_rows: List[List[int]] = []
        pair_map: Dict[int, List[int]] = {}
        for r_index, rid in enumerate(self.receiver_ids):
            session_id = rid[0]
            row: List[int] = []
            for link_id in network.data_path(rid):
                compact = link_index[link_id]
                row.append(compact)
                # Receivers are visited in (session, index) order, so each
                # pair's member list comes out sorted, matching the
                # sorted(R_{i,j}) ordering of the original construction.
                pair_map.setdefault(compact * (network.num_sessions + 1) + session_id,
                                    []).append(r_index)
            row.sort()
            path_rows.append(row)

        # Receiver -> link CSR (sorted rows) and its transpose.
        row_lengths = np.fromiter(
            (len(row) for row in path_rows), count=num_receivers, dtype=np.int64
        )
        self.receiver_link_ptr = np.zeros(num_receivers + 1, dtype=np.int64)
        np.cumsum(row_lengths, out=self.receiver_link_ptr[1:])
        if path_rows:
            flat_links = [compact for row in path_rows for compact in row]
        else:
            flat_links = []
        self.receiver_link_indices = np.array(flat_links, dtype=np.int64)
        nnz = int(self.receiver_link_indices.size)

        link_counts = np.bincount(self.receiver_link_indices, minlength=num_links)
        self.link_receiver_ptr = np.zeros(num_links + 1, dtype=np.int64)
        np.cumsum(link_counts, out=self.link_receiver_ptr[1:])
        # Stable sort by link keeps receivers ascending within each link
        # (rows are emitted in ascending receiver order).
        order = np.argsort(self.receiver_link_indices, kind="stable")
        self.link_receiver_indices = np.repeat(
            np.arange(num_receivers, dtype=np.int64), row_lengths
        )[order]

        # (session, link) pairs, grouped by link in compact-index order; the
        # downstream sets R_{i,j} are flattened into one CSR array.  The
        # pair_map keys encode (compact_link, session) and sort in exactly
        # the (link, session) order the original per-link construction used.
        pair_keys = sorted(pair_map)
        stride = network.num_sessions + 1
        self.pair_link = np.array([key // stride for key in pair_keys], dtype=np.int64)
        self.pair_session = np.array([key % stride for key in pair_keys], dtype=np.int64)
        pair_lengths = [len(pair_map[key]) for key in pair_keys]
        self.pair_ptr = np.zeros(len(pair_keys) + 1, dtype=np.int64)
        np.cumsum(pair_lengths, out=self.pair_ptr[1:])
        self.pair_receivers = np.array(
            [r for key in pair_keys for r in pair_map[key]], dtype=np.int64
        )
        self.num_pairs = len(pair_keys)

        # Transpose: pairs incident to each receiver, CSR over receivers.
        # pair_receivers lists receivers in ascending pair order, so a
        # stable argsort by receiver yields each receiver's pairs ascending.
        counts = np.bincount(self.pair_receivers, minlength=num_receivers)
        self.receiver_pair_ptr = np.zeros(num_receivers + 1, dtype=np.int64)
        np.cumsum(counts, out=self.receiver_pair_ptr[1:])
        pair_of_entry = np.repeat(
            np.arange(self.num_pairs, dtype=np.int64),
            np.diff(self.pair_ptr),
        )
        self.receiver_pairs = pair_of_entry[
            np.argsort(self.pair_receivers, kind="stable")
        ]

        cells = num_receivers * num_links
        self.density = (nnz / cells) if cells else 0.0
        self.is_sparse = cells > SPARSE_CELL_LIMIT or (
            cells >= SPARSE_MIN_CELLS and self.density < SPARSE_DENSITY_THRESHOLD
        )

        self.session_max_rate = np.array(
            [session.max_rate for session in network.sessions], dtype=np.float64
        )
        self.session_single_rate = np.array(
            [session.is_single_rate for session in network.sessions], dtype=bool
        )
        self.any_finite_rho = bool(np.isfinite(self.session_max_rate).any())
        self.session_receiver_count = np.bincount(
            self.receiver_session, minlength=len(self.session_max_rate)
        ).astype(np.int64)
        self.base_pair_counts = np.diff(self.pair_ptr).astype(np.int64)
        # Link -> pair CSR (pairs are grouped by link in ascending order).
        link_pair_counts = np.bincount(self.pair_link, minlength=num_links)
        self.link_pair_ptr = np.zeros(num_links + 1, dtype=np.int64)
        np.cumsum(link_pair_counts, out=self.link_pair_ptr[1:])
        self._scalar_view: Optional[ScalarIncidenceView] = None

    def receiver_links(self, receiver: int) -> np.ndarray:
        """Sorted compact link indices on ``receiver``'s data-path (CSR slice)."""
        return self.receiver_link_indices[
            self.receiver_link_ptr[receiver]:self.receiver_link_ptr[receiver + 1]
        ]

    def link_receivers(self, link: int) -> np.ndarray:
        """Ascending receiver indices crossing compact link ``link`` (CSR slice)."""
        return self.link_receiver_indices[
            self.link_receiver_ptr[link]:self.link_receiver_ptr[link + 1]
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
                [] for _ in range(len(self.session_max_rate))
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
                session_max_rate=self.session_max_rate.tolist(),
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
