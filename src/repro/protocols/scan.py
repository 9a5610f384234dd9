"""Chunked per-receiver event scan — the core of the ``bitpacked`` engine.

The Section-4 protocols are *receiver-local*: given the loss outcomes of
every scheduled packet, one receiver's subscription level and join counters
evolve independently of every other receiver's (the only cross-receiver
coupling — which layers the shared link carries — affects measurement, not
protocol state, because a packet some receiver is subscribed to is always
carried).  The scan below exploits that:

* loss outcomes are pre-sampled for a whole *chunk* of time units from the
  run's counter-based streams (``RNG_SCHEME_VERSION >= 4``), which is
  possible because the loss draws cover every scheduled packet regardless
  of simulation state;
* each receiver's trajectory through the chunk is a sparse sequence of
  *events* (congestion-driven leaves/counter resets and joins) separated by
  stretches of plain packet reception;
* every iteration of the scan finds, for all still-active receivers at
  once, the first packet at which each receiver's state changes — computed
  with array operations under the receiver's current (frozen) state, which
  is exact precisely because nothing changes before the first event;
* the stretch before each event is accounted in bulk (received-packet
  counts, join-counter increments), the event itself is applied, and the
  scan continues from the next packet.

Matrices are ``uint64``-packed and laid out **receiver-major**
(:mod:`repro.protocols.bitpack`): the engine scatters its sparse loss
positions straight into packed ``receivable`` words, the per-window
``recv``/``cong`` matrices are packed bit fields, and every boolean
reduction is a masked popcount — first-congestion candidates via
lowest-set-bit isolation, bulk reception credits via prefix popcounts,
segment refreshes via per-row range masks.  One word carries 64 packet
columns.  Windows are bounded ahead of the scan front, so per-iteration
work tracks the event spacing rather than the chunk size.

After one generation pass establishes a window, a **multi-event chain
drain** consumes *every* remaining event of the window — correlated-loss
congestions *and* the joins between them — without re-entering the
generation machinery.  Each chained row's next event is the earlier of
its cached first-congestion candidate and its exactly-located join
(:meth:`~repro.protocols.base.LayeredProtocol.scan_chain_join_packed`:
rank-select ``kth_set`` for counter/countdown joins, sync-point prefix
popcounts for coordinated joins); bulk reception credits come from prefix
popcounts up to the event column, and only the row's packed suffix past
the event is rebuilt.  A window therefore costs one generation pass plus
one vectorised chain step per synchronized event batch, which is what
makes the dense correlated-loss regime of Figure 8(b) byte-bound instead
of event-bound.

The scan produces results bit-for-bit identical to the per-packet reference
engine for any window size or chunk size;
``tests/simulator/test_engine_equivalence.py`` holds the conformance
matrix and ``tests/simulator/test_engine_fuzz.py`` fuzzes generated
scenarios across both engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import bitpack
from .kernel import PACKED_OPS, ChunkResult, ScanKernel

if TYPE_CHECKING:  # pragma: no cover - import only for type annotations
    from .base import LayeredProtocol

__all__ = ["UnitChunk", "ChunkResult", "scan_chunk_bitpacked"]

_WORD_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE64 = np.uint64(1)


@dataclass
class UnitChunk:
    """Pre-sampled inputs for a contiguous run of sender time units.

    Attributes
    ----------
    start_unit / num_units / packets_per_unit:
        The chunk covers time units ``start_unit .. start_unit+num_units``;
        packet column ``c`` belongs to unit ``start_unit + c //
        packets_per_unit``.
    num_layers:
        Top subscription level of the layer scheme.
    layers:
        Layer of every packet column (the unit pattern, tiled).
    shared_lost / independent_lost:
        Dense pre-sampled loss outcomes: ``(n,)`` for the shared link and
        receiver-major ``(num_receivers, n)`` for the fan-out links.  When
        several runs are stacked into one chunk, ``shared_lost`` holds one
        row per run.  Only materialised for protocols that declare
        ``needs_dense_losses`` (the active-node group drain); the scan
        reads ``receivable_packed`` alone, which the engine scatters from
        sparse loss positions.
    cols_for_level:
        ``cols_for_level[l]`` lists the packet columns with ``layer <= l``
        — the packets a level-``l`` receiver can observe.
    observed_before:
        ``observed_before[l, c]`` counts the packet columns before ``c``
        with ``layer <= l`` (shape ``(num_layers + 1, n + 1)``); the
        engine reads shared-link carriage off it.
    sync_cols / sync_ok:
        Columns of unit-initial packets carrying sender sync marks, and a
        ``(len(sync_cols), num_levels+2)`` table with ``sync_ok[i, l]``
        true when level ``l`` may join at that sync point.
    times:
        Absolute transmission time per column; only materialised when the
        engine tracks leave-latency advertisements.
    scan_window:
        Maximum observed columns one scan iteration examines (0 =
        unbounded).  Purely a performance knob — results are identical for
        any value.
    receivable_packed / layer_masks_packed:
        The scan's inputs: ``uint64`` words packing the per-receiver
        reception outcome (``~shared & ~independent``) column-wise (column
        ``c`` at word ``c // 64``, bit ``c % 64``; see
        :mod:`repro.protocols.bitpack`) and one packed ``layer <= level``
        column mask per subscription level (``(num_layers + 1, ceil(n /
        64))``).  ``None`` for protocols that declare
        ``needs_dense_losses``, which read the dense arrays instead.
    """

    start_unit: int
    num_units: int
    packets_per_unit: int
    num_layers: int
    layers: np.ndarray
    shared_lost: Optional[np.ndarray]
    independent_lost: Optional[np.ndarray]
    cols_for_level: Sequence[np.ndarray]
    observed_before: np.ndarray
    sync_cols: np.ndarray
    sync_ok: np.ndarray
    times: Optional[np.ndarray] = None
    scan_window: int = 0
    receivable_packed: Optional[np.ndarray] = None
    layer_masks_packed: Optional[np.ndarray] = None

    @property
    def num_packets(self) -> int:
        return int(self.layers.size)


def scan_chunk_bitpacked(
    protocol: "LayeredProtocol",
    chunk: UnitChunk,
    levels: np.ndarray,
) -> ChunkResult:
    """Advance ``levels`` (in place) through one chunk; see module docstring.

    The protocol participates through the join locators
    :meth:`~repro.protocols.base.LayeredProtocol.scan_first_join_packed`
    (on a :class:`~repro.protocols.bitpack.PackedWindow`) and
    :meth:`~repro.protocols.base.LayeredProtocol.scan_chain_join_packed`
    plus the bookkeeping mirrors
    :meth:`~repro.protocols.base.LayeredProtocol.scan_bulk_received`,
    :meth:`~repro.protocols.base.LayeredProtocol.scan_congested`,
    :meth:`~repro.protocols.base.LayeredProtocol.scan_left` and
    :meth:`~repro.protocols.base.LayeredProtocol.scan_joined`.  Event
    columns are absolute chunk columns throughout.
    """
    num_receivers = levels.size
    okp = chunk.receivable_packed
    level_masks = chunk.layer_masks_packed
    assert okp is not None and level_masks is not None
    ops = PACKED_OPS

    kernel = ScanKernel(
        protocol, levels, num_receivers,
        col_offset=chunk.start_unit * chunk.packets_per_unit,
    )

    n = chunk.num_packets
    window = chunk.scan_window or n
    everyone = np.arange(num_receivers)
    pos = np.zeros(num_receivers, dtype=np.int64)
    lo = 0
    while lo < n:
        # ---- establish one window of observable columns -----------------
        top = int(levels.max())
        cols_all = chunk.cols_for_level[top]
        first = cols_all.searchsorted(lo) if lo else 0
        if first >= cols_all.size:
            break
        capped = cols_all.size - first > window
        window_end = int(cols_all[first + window]) if capped else n
        # Bound the window in *scheduled* columns as well: at low
        # subscription levels the observable columns thin out, and a
        # window of ``window`` observable columns would otherwise span an
        # arbitrarily wide word range (every per-generation mask build
        # pays for those words, observable or not).
        window_end = min(window_end, lo + window)
        hi = int(cols_all.searchsorted(window_end))
        if hi == first:
            # Nothing observable before the window's end; hop across.
            np.maximum(pos, window_end, out=pos)
            lo = window_end
            continue
        num_obs = hi - first
        last_obs = int(cols_all[hi - 1])

        w_lo = lo >> 6
        w_hi = (window_end + 63) >> 6
        base_col = w_lo << 6
        num_words = w_hi - w_lo
        bases = ops.word_base(base_col, num_words)
        ok = okp[:, w_lo:w_hi]
        masks_here = level_masks[:, w_lo:w_hi]
        sub = masks_here[levels]
        # Only the window's leading and trailing words are partial (base_col
        # is ``lo`` rounded down to a word), so the start/stop masking is
        # two scalar word ANDs — unless a truncated predecessor window left
        # some positions beyond ``lo``, which needs the per-row masks.
        tail = window_end - base_col - ((num_words - 1) << 6)
        edge_word = (
            (_ONE64 << np.uint64(tail)) - _ONE64 if tail < 64 else _WORD_ONES
        )
        if int(pos.max()) <= lo:
            head = lo - base_col
            if head:
                sub[:, 0] &= _WORD_ONES << np.uint64(head)
        else:
            sub &= ops.start_masks(np.maximum(pos, lo), base_col, num_words, bases)
        sub[:, -1] &= edge_word
        recv = sub & ok
        cong = sub
        cong ^= recv

        # ``cong`` is consumed once by the candidate cache here; after
        # that only the cached (has_cong, e_cong) pair and the per-refresh
        # recomputation are ever read, so the drain never stores congestion
        # rows back.  The cached candidates also feed the join hook, which
        # may skip rank-selecting joins the scan would discard (a join at
        # or past a row's congestion candidate is never consumed).
        has_cong, e_cong = ops.first_set(cong, base_col)
        view = bitpack.PackedWindow(recv, base_col, lo, window_end, num_obs, last_obs)
        join = protocol.scan_first_join_packed(
            chunk, view, everyone, levels, pos, (has_cong, e_cong)
        )
        if join is None:
            has_join = np.zeros(num_receivers, dtype=bool)
            e_join = np.zeros(num_receivers, dtype=np.int64)
        else:
            has_join, e_join = join

        # ---- drain the window's events ---------------------------------
        # The generation pass above located every row's first event; the
        # hit rows consume it here, then the chain drain consumes the rest
        # of their events in the window.
        truncate_at = -1
        hit = (has_cong | has_join).nonzero()[0]
        if hit.size:
            was_cong = kernel.first_event(has_cong, e_cong, has_join, e_join)
            e_col = np.where(was_cong, e_cong, e_join)
            event_cols = e_col[hit]
            hit_cong = was_cong[hit]
            join_rows = ~hit_cong
            # One mask build serves both sides of the event: its complement
            # selects the consumed bits (receptions up to and including the
            # event column), the mask itself the refresh range beyond it.
            ahead = ops.start_masks(event_cols + 1, base_col, num_words, bases)
            credited = ops.gather_andnot_counts(recv, hit, ahead)
            # ``credited`` includes the join-triggering packet itself (a
            # received bit at the event column); congestion columns were
            # not received, so their rows credit strictly-before bits only.
            jidx = hit[join_rows]
            if jidx.size:
                bulk = credited.copy()
                bulk[join_rows] -= 1
            else:
                bulk = credited
            kernel.credit(hit, credited, bulk)
            kernel.congest(hit[hit_cong], event_cols[hit_cong])
            # A join whose receiver outgrew the window's layer slice closes
            # the window: packets above ``top`` are missing from these
            # columns, so its scan must resume in a wider window — *before*
            # the first such join, because receivers whose first event came
            # earlier still need their look at its column.
            truncate_at = kernel.join(jidx, event_cols[join_rows], top)
            pos[hit] = event_cols + 1
            seg_lo = int(pos[hit].min())
            if truncate_at < 0 and seg_lo <= last_obs:
                # ---- segment refresh --------------------------------
                # Hit rows are rebuilt under their new levels and positions
                # — only over the words at or past the earliest consumed
                # column (everything before it is consumed for every hit
                # row), reusing the consumed-bit mask built above.
                w0 = (seg_lo - base_col) >> 6
                base_w0 = base_col + (w0 << 6)
                bases_s = bases[w0:]
                sub_hit = masks_here[levels[hit], w0:]
                sub_hit &= ahead[:, w0:]
                sub_hit[:, -1] &= edge_word
                ok_hit = ok[hit, w0:]
                recv_hit = sub_hit & ok_hit
                cong_hit = sub_hit
                cong_hit ^= recv_hit
                has_c, e_c = ops.first_set(cong_hit, base_w0)
                # ---- exact multi-event chain drain ------------------
                # Every hit row's join-progress state was freshly reset or
                # re-armed by the event it just consumed, so the protocol
                # can locate each row's next event *exactly* from its gap
                # alone: the next congestion candidate is the refreshed
                # first-set column, and scan_chain_join_packed pinpoints
                # any earlier join inside the gap.  The chain therefore
                # consumes joins and congestion events alike until every
                # row runs out of events, draining the whole window in one
                # pass — one join-hook call per chain step over the still-
                # active rows.
                chain_l = np.arange(hit.size)
                num_words_s = num_words - w0
                while chain_l.size:
                    rows_g = hit[chain_l]
                    # Every chained row's bits below its position are
                    # cleared, so words wholly below the earliest position
                    # are zero for the whole chain — slide the word base
                    # past them and run the step on the shrinking suffix
                    # (synchronized losses advance all positions together,
                    # so the suffix collapses fast).
                    ws = (int(pos[rows_g].min()) - base_w0) >> 6
                    if ws >= num_words_s:
                        ws = num_words_s - 1
                    elif ws < 0:
                        ws = 0
                    base_ws = base_w0 + (ws << 6)
                    words_g = recv_hit[:, ws:][chain_l]
                    hc = has_c[chain_l]
                    bound = np.where(hc, e_c[chain_l], window_end)
                    # Bits below each row's position are already cleared, so
                    # the gap count is one prefix popcount at the bound.
                    n_gap = ops.prefix_counts(words_g, base_ws, bound)
                    has_j, j_col, j_bulk = protocol.scan_chain_join_packed(
                        chunk, words_g, base_ws, rows_g,
                        levels[rows_g], n_gap, pos[rows_g] - 1, bound,
                    )
                    # Rows with neither a join in the gap nor a congestion
                    # candidate are fully drained and leave the chain.
                    sel = (has_j | hc).nonzero()[0]
                    if sel.size == 0:
                        break
                    if sel.size < chain_l.size:
                        chain_l = chain_l[sel]
                        rows_g = hit[chain_l]
                        bound = bound[sel]
                        n_gap = n_gap[sel]
                        has_j = has_j[sel]
                        j_col = j_col[sel]
                        j_bulk = j_bulk[sel]
                    event = np.where(has_j, j_col, bound)
                    # Joining rows' credit includes the join packet itself
                    # (a received bit at the event column); congestion
                    # columns were not received, so their rows credit the
                    # gap's strictly-before receptions only.
                    bulk_c = np.where(has_j, j_bulk, n_gap)
                    kernel.credit(rows_g, bulk_c, bulk_c - has_j)
                    kernel.congest(rows_g[~has_j], event[~has_j])
                    # A receiver whose join outgrew the window's layer slice
                    # closes the window before the first such join.
                    truncate_at = kernel.join(rows_g[has_j], event[has_j], top)
                    pos[rows_g] = event + 1
                    if truncate_at >= 0:
                        break
                    # Rebuild the consumed rows' segment state under their
                    # new level and position — suffix words only; the words
                    # below the slid base stay zero for these rows.
                    has_c[chain_l], e_c[chain_l] = ops.chain_rebuild(
                        masks_here, w0 + ws, levels[rows_g], pos[rows_g],
                        edge_word, base_ws, bases_s[ws:],
                        ok_hit[:, ws:][chain_l], recv_hit, chain_l, ws,
                    )
                if truncate_at < 0:
                    # Every hit row is drained: write the final segment
                    # state back for the window-close credit.
                    if w0:
                        recv[hit, :w0] = 0
                        recv[hit, w0:] = recv_hit
                    else:
                        recv[hit] = recv_hit
            elif truncate_at < 0:
                # The drained column closed the window for these rows:
                # every observable column is behind their positions, so
                # their consumed bits must vanish before the window-close
                # bulk.
                recv[hit] = 0
            if truncate_at >= 0:
                # Close the window at the earliest hit position: receivers
                # whose event came earlier may still have unevaluated
                # events between there and the truncating join, so only
                # event-free receivers may be bulk-advanced past it.  The
                # next (wider) window re-examines everything beyond.
                window_end = int(pos[hit].min())

        # ---- close the window: bulk everyone to its end ------------------
        if truncate_at >= 0:
            # Hit receivers' rows are stale (the drain stopped before their
            # refresh); re-applying the position masks keeps their
            # contribution empty, which is exact because the window closes
            # at the earliest hit.
            closing_mask = ops.start_masks(
                np.maximum(pos, lo), base_col, num_words, bases
            )
            closing_mask &= ops.tail_mask(window_end, base_col, num_words, bases)
            closing = ops.row_counts(recv & closing_mask)
        else:
            closing = ops.row_counts(recv)
        kernel.credit(everyone, closing)
        np.maximum(pos, window_end, out=pos)
        lo = window_end

    return kernel.result()
