"""The Deterministic protocol: join after a fixed count of loss-free packets.

"In the Deterministic protocol, there is also no inherent coordination; a
receiver joins an additional layer after receiving a fixed number of packets
without loss since its last join or leave event."  The fixed count is the
paper's ``2^(2(i-1))`` for a receiver at level ``i``.  Receivers with
identical loss histories behave identically, but receivers whose losses
differ even slightly desynchronise and stay desynchronised, so — like the
Uncoordinated protocol — redundancy grows with independent loss.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import only for type annotations
    from ..simulator.packets import Packet
from . import bitpack
from .base import LayeredProtocol

__all__ = ["DeterministicProtocol"]


class DeterministicProtocol(LayeredProtocol):
    """Counter-based joins; leaves (and counter resets) on congestion."""

    name = "deterministic"
    supports_batched_units = True
    supports_stacked_runs = True

    # Join-progress state (the received-since-event counter) and its
    # per-packet/scan maintenance are the LayeredProtocol base defaults.
    def on_packet_received(
        self,
        received: np.ndarray,
        levels: np.ndarray,
        packet: Packet,
    ) -> np.ndarray:
        self._require_ready()
        if not received.any():
            return np.zeros_like(received)
        self._received_since_event[received] += 1
        thresholds = self.join_threshold(levels)
        return received & (self._received_since_event >= thresholds)

    # ------------------------------------------------------------------
    # packed scan hooks
    # ------------------------------------------------------------------
    def scan_first_join_packed(self, chunk, view, act, levels_act, pos, cong):
        # The counter a receiver would hold just after a packet (with state
        # frozen) is counter + (receptions so far); a join fires once it
        # reaches the 2^(2(i-1)) threshold — exactly the per-packet rule.
        # So the join is the k-th reception, where k is the smallest count
        # lifting the frozen counter to the threshold: the k-th set bit of
        # the row.  The observable column count bounds the receptions a
        # row can add, which prunes rows before any popcount.
        counters = self._received_since_event[act]
        thresholds = self.join_threshold(levels_act)
        maybe = (counters + view.num_obs_cols >= thresholds) & (
            levels_act < chunk.num_layers
        )
        if not maybe.any():
            return None
        midx = maybe.nonzero()[0]
        # Thresholds are exact powers of four, so the float ceil of the
        # remaining packet need collapses to integer arithmetic.
        need = thresholds[midx].astype(np.int64) - counters[midx]
        np.maximum(need, 1, out=need)
        # Only a join strictly before the row's congestion candidate is
        # ever consumed, so count receptions up to there (the whole window
        # where no candidate exists) — one prefix popcount instead of an
        # exact rank selection for rows whose join the scan would discard
        # anyway.
        has_cong, e_cong = cong
        limit = np.where(has_cong[midx], e_cong[midx], view.col_hi)
        avail = view.prefix_counts(midx, limit)
        fire = avail >= need
        if not fire.any():
            return None
        ridx = midx[fire]
        has_join = np.zeros(act.size, dtype=bool)
        index = np.zeros(act.size, dtype=np.int64)
        has_join[ridx] = True
        index[ridx] = view.kth_set(ridx, need[fire])
        return has_join, index

    def scan_chain_join_packed(
        self, chunk, words, base_col, rows, levels_rows, gap_counts, gap_lo, gap_hi
    ):
        # The counter is zero right after the consumed event, so the join
        # fires inside the gap exactly when its receptions reach the fixed
        # 2^(2(i-1)) threshold: it is the row's threshold-th reception
        # inside the gap — the threshold-th set bit of its packed row (bits
        # below the position are cleared, and the join's existence inside
        # the gap bounds the rank below ``gap_hi``).
        need = self.join_threshold(levels_rows).astype(np.int64)
        has_join = (levels_rows < chunk.num_layers) & (gap_counts >= need)
        col = gap_hi
        if has_join.any():
            jidx = has_join.nonzero()[0]
            col = gap_hi.copy()
            col[jidx] = bitpack.kth_set(words[jidx], base_col, need[jidx])
        return has_join, col, need
