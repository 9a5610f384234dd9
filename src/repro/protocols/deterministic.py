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
    def scan_chain_join_packed(
        self, chunk, words, base_col, rows, levels_rows, gap_counts, gap_lo, gap_hi
    ):
        # A join fires once the counter reaches the 2^(2(i-1)) threshold —
        # the per-packet rule — so the join is the row's ``need``-th
        # reception inside the gap, where ``need`` lifts the counter to the
        # threshold: the need-th set bit of its packed row (bits below the
        # position are cleared, and the join's existence inside the gap
        # bounds the rank below ``gap_hi``).  Thresholds are exact powers
        # of four, so the float threshold collapses to integer arithmetic,
        # and below the top level the counter stays under the threshold (a
        # join resets it), so ``need >= 1`` wherever a join can fire.
        need = (
            self.join_threshold(levels_rows).astype(np.int64)
            - self._received_since_event[rows]
        )
        has_join = (levels_rows < chunk.num_layers) & (gap_counts >= need)
        col = gap_hi
        if has_join.any():
            jidx = has_join.nonzero()[0]
            col = gap_hi.copy()
            col[jidx] = bitpack.kth_set(words[jidx], base_col, need[jidx])
        return has_join, col, need
