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
* the scan locates each receiver's next event with array operations
  under the receiver's current state, for all receivers at once —
  exact because nothing changes before that event;
* the stretch before each event is accounted in bulk (received-packet
  counts, join-counter increments), the event itself is applied, and the
  scan continues from the next packet.

Matrices are ``uint64``-packed and laid out **receiver-major**
(:mod:`repro.protocols.bitpack`): the engine scatters its sparse loss
positions straight into packed ``receivable`` words, the per-window
``recv``/``cong`` matrices are packed bit fields, and every boolean
reduction is a masked popcount — first-congestion candidates via
lowest-set-bit isolation, bulk reception credits via prefix popcounts,
row rebuilds via per-row range masks.  One word carries 64 packet
columns.  Windows are bounded ahead of the scan front, so per-iteration
work tracks the event spacing rather than the chunk size.

**One event loop per window.**  Establishing a window builds every
row's ``recv``/``cong`` words under its level and caches its first
congestion candidate.  A *chain drain* then consumes every event of the
window — correlated-loss congestions and the joins between them — for
all rows at once.  Each chained row's next event is the earlier of its
cached congestion candidate and its exactly-located join
(:meth:`~repro.protocols.base.LayeredProtocol.scan_chain_join_packed`:
rank-select ``kth_set`` for counter/countdown joins, sync-point prefix
popcounts for coordinated joins, both reading the protocol's current
join-progress state); bulk reception credits come from prefix popcounts
up to the event column, and only the row's packed suffix past the event
is rebuilt, under its new level.  A row leaves the chain once it has no
join in its gap and no congestion candidate; the window closes by
crediting every row's remaining receptions.  The layer masks span every
level over the window's full column range, so a receiver that joins
above the window's starting top level is scanned exactly in the same
window.  A window therefore costs one vectorised chain step per
synchronized event batch, which is what makes the dense correlated-loss
regime of Figure 8(b) byte-bound instead of event-bound.

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
        Absolute transmission time per column; the engine's carriage pass
        finds leave-latency drop columns in it.
    scan_window:
        Maximum observed columns one scan iteration examines (0 =
        unbounded).  Purely a performance knob — results are identical for
        any value.
    receivable_packed / layer_masks_packed:
        The loss outcomes: ``uint64`` words packing the per-receiver
        reception outcome (``~shared & ~independent``) column-wise (column
        ``c`` at word ``c // 64``, bit ``c % 64``; see
        :mod:`repro.protocols.bitpack`), which the engine scatters from
        sparse loss positions, and one packed ``layer <= level`` column
        mask per subscription level (``(num_layers + 1, ceil(n / 64))``).
    """

    start_unit: int
    num_units: int
    packets_per_unit: int
    num_layers: int
    layers: np.ndarray
    cols_for_level: Sequence[np.ndarray]
    observed_before: np.ndarray
    sync_cols: np.ndarray
    sync_ok: np.ndarray
    receivable_packed: np.ndarray
    layer_masks_packed: np.ndarray
    times: Optional[np.ndarray] = None
    scan_window: int = 0

    @property
    def num_packets(self) -> int:
        return int(self.layers.size)


def scan_chunk_bitpacked(
    protocol: "LayeredProtocol",
    chunk: UnitChunk,
    levels: np.ndarray,
) -> ChunkResult:
    """Advance ``levels`` (in place) through one chunk; see module docstring.

    The protocol participates through its one join locator,
    :meth:`~repro.protocols.base.LayeredProtocol.scan_chain_join_packed`,
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
    ops = PACKED_OPS

    kernel = ScanKernel(
        protocol, levels, num_receivers,
        col_offset=chunk.start_unit * chunk.packets_per_unit,
    )

    n = chunk.num_packets
    window = chunk.scan_window or n
    everyone = np.arange(num_receivers)
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
        # arbitrarily wide word range (every row rebuild pays for those
        # words, observable or not).
        window_end = min(window_end, lo + window)
        if int(cols_all.searchsorted(window_end)) == first:
            # Nothing observable before the window's end; hop across.
            lo = window_end
            continue

        w_lo = lo >> 6
        w_hi = (window_end + 63) >> 6
        base_col = w_lo << 6
        num_words = w_hi - w_lo
        bases = ops.word_base(base_col, num_words)
        ok = okp[:, w_lo:w_hi]
        masks_here = level_masks[:, w_lo:w_hi]
        # Every event column lies below the window's end, so every row
        # starts the window at ``lo`` and only the leading and trailing
        # words are partial (base_col is ``lo`` rounded down to a word).
        tail = window_end - base_col - ((num_words - 1) << 6)
        edge_word = (
            (_ONE64 << np.uint64(tail)) - _ONE64 if tail < 64 else _WORD_ONES
        )
        sub = masks_here[levels]
        head = lo - base_col
        if head:
            sub[:, 0] &= _WORD_ONES << np.uint64(head)
        sub[:, -1] &= edge_word
        recv = sub & ok
        cong = sub
        cong ^= recv
        # Congestion rows are consumed once, by the candidate cache; after
        # that only the cached (has_c, e_c) pair and each rebuild's fresh
        # candidates are read, so congestion rows are never stored back.
        has_c, e_c = ops.first_set(cong, base_col)

        # ---- drain every event of the window ----------------------------
        # Each chained row's next event is the earlier of its cached
        # congestion candidate and the first join the protocol locates
        # *exactly* inside the gap before it; the chain consumes joins and
        # congestion events alike until every row runs out of events — one
        # join-locator call per step over the still-chained rows.
        pos = np.full(num_receivers, lo, dtype=np.int64)
        chain = everyone
        while chain.size:
            # Every chained row's bits below its position are cleared, so
            # words wholly below the earliest position are zero for the
            # whole chain — slide the word base past them and run the step
            # on the shrinking suffix (synchronized losses advance all
            # positions together, so the suffix collapses fast).
            ws = min((int(pos[chain].min()) - base_col) >> 6, num_words - 1)
            base_ws = base_col + (ws << 6)
            words = recv[chain, ws:]
            hc = has_c[chain]
            bound = np.where(hc, e_c[chain], window_end)
            # Bits below each row's position are already cleared, so the
            # gap count is one prefix popcount at the bound.
            n_gap = ops.prefix_counts(words, base_ws, bound)
            has_j, j_col, j_bulk = protocol.scan_chain_join_packed(
                chunk, words, base_ws, chain,
                levels[chain], n_gap, pos[chain] - 1, bound,
            )
            # Rows with neither a join in the gap nor a congestion
            # candidate are drained: their remaining receptions stay in
            # ``recv`` for the window-close credit.
            sel = (has_j | hc).nonzero()[0]
            if sel.size == 0:
                break
            if sel.size < chain.size:
                chain = chain[sel]
                bound = bound[sel]
                n_gap = n_gap[sel]
                has_j = has_j[sel]
                j_col = j_col[sel]
                j_bulk = j_bulk[sel]
            event = np.where(has_j, j_col, bound)
            # Joining rows' credit includes the join packet itself (a
            # received bit at the event column); congestion columns were
            # not received, so their rows credit the gap's strictly-before
            # receptions only.
            bulk = np.where(has_j, j_bulk, n_gap)
            kernel.credit(chain, bulk, bulk - has_j)
            kernel.congest(chain[~has_j], event[~has_j])
            kernel.join(chain[has_j], event[has_j])
            pos[chain] = event + 1
            # Rebuild the consumed rows under their new level and position
            # — suffix words only; the words below the slid base stay zero
            # for these rows.
            has_c[chain], e_c[chain] = ops.chain_rebuild(
                masks_here, ok, recv, chain, ws, levels[chain], pos[chain],
                edge_word, base_ws, bases[ws:],
            )

        # ---- close the window: credit everyone's remaining receptions ----
        kernel.credit(everyone, ops.row_counts(recv))
        lo = window_end

    return kernel.result()
