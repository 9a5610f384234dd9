"""The Coordinated protocol: sender-stamped, nested join opportunities.

"In the Coordinated protocol, the sender indicates (e.g., through a field
within its transmitted packet) when receivers should join an additional
layer.  This is done in such a way so that when the field indicates that
receivers joined up to layer i should join layer i+1, it also indicates that
receivers joined up to layer j < i should join layer j + 1."

The sender marks the layer-1 packet at the start of time unit ``u`` with a
join opportunity for every level ``i`` whose period ``2^(i-1)`` divides
``u`` (see :class:`repro.simulator.packets.PacketSchedule`); the nesting
requirement holds by construction.  A receiver at level ``i`` may join only
at a level-``i`` sync point, and only if it has accumulated enough loss-free
packets since its last join/leave event.

Calibration.  The paper requires all three protocols to share the same
expected probe interval: ``2^(2(i-1))`` packets received between a
join/leave event and the next join from level ``i``.  A level-``i`` receiver
receives ``2^(i-1)`` packets per time unit and level-``i`` sync points are
``2^(i-1)`` time units apart, so waiting for *half* the probe interval in
received packets and then for the next sync point gives exactly the required
expectation (half from the packet gate, half from the uniformly distributed
phase of the next sync point).  The gate fraction is configurable through
``sync_threshold_fraction``.

Because receivers at the same level share the same join instants, their
subscriptions move up in lock-step and the shared link rarely carries layers
wanted by only a few receivers — the mechanism that keeps redundancy lowest
among the three protocols in Figure 8.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from ..errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - import only for type annotations
    from ..simulator.packets import Packet
from . import bitpack
from .base import LayeredProtocol

__all__ = ["CoordinatedProtocol"]


class CoordinatedProtocol(LayeredProtocol):
    """Joins only at sender-coordinated sync points, gated on loss-free progress."""

    name = "coordinated"
    supports_stacked_runs = True

    def __init__(self, sync_threshold_fraction: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= sync_threshold_fraction <= 1.0:
            raise ProtocolError(
                "sync_threshold_fraction must lie in [0, 1], got "
                f"{sync_threshold_fraction}"
            )
        self.sync_threshold_fraction = float(sync_threshold_fraction)

    def stacking_key(self) -> tuple:
        return (type(self), self.sync_threshold_fraction)

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
        if not packet.sync_levels:
            return np.zeros_like(received)
        sync_levels = np.asarray(packet.sync_levels, dtype=levels.dtype)
        at_sync_level = np.isin(levels, sync_levels)
        gate = self.sync_threshold_fraction * self.join_threshold(levels)
        ready = self._received_since_event >= gate
        return received & at_sync_level & ready

    # ------------------------------------------------------------------
    # packed join locator
    # ------------------------------------------------------------------
    def scan_chain_join_packed(
        self, chunk, words, base_col, rows, levels_rows, gap_counts, gap_lo, gap_hi
    ):
        # A row joins at the first sync point strictly inside its gap (the
        # bounds themselves are the last consumed column and a lost packet
        # or the window end) that it received, that admits its level, and
        # at which its counter clears the gate.  Bits below each row's
        # position are already cleared, so the counter the per-packet rule
        # would hold at a sync point is the row's counter plus the prefix
        # popcount there; the counter stays on the left of each sum so the
        # float comparison is the per-packet rule's ``counter >= gate``.
        no_join = np.zeros(rows.size, dtype=bool)
        sync_cols = chunk.sync_cols
        s_lo = int(sync_cols.searchsorted(int(gap_lo.min()), side="right"))
        s_hi = int(sync_cols.searchsorted(int(gap_hi.max()), side="left"))
        if s_lo == s_hi:
            return no_join, gap_hi, gap_counts
        # Rows without a sync point inside their own gap, without enough
        # gap receptions to clear the gate anywhere in it, or at the top
        # level cannot fire; typically only a few survive the prune into
        # the sync-matrix inspection below.
        gate = self.sync_threshold_fraction * self.join_threshold(levels_rows)
        counters = self._received_since_event[rows]
        maybe = (
            (sync_cols.searchsorted(gap_lo, side="right")
             < sync_cols.searchsorted(gap_hi, side="left"))
            & (counters + gap_counts >= gate)
            & (levels_rows < chunk.num_layers)
        )
        if not maybe.any():
            return no_join, gap_hi, gap_counts
        midx = maybe.nonzero()[0]
        part = words[midx]
        gap_hi_m = gap_hi[midx]
        s_lo = int(sync_cols.searchsorted(int(gap_lo[midx].min()), side="right"))
        s_hi = int(sync_cols.searchsorted(int(gap_hi_m.max()), side="left"))
        sync_sel = sync_cols[s_lo:s_hi]
        levels_m = levels_rows[midx]
        running = bitpack.prefix_counts_multi(part, base_col, sync_sel + 1)
        candidates = (
            bitpack.bit_at(part, base_col, sync_sel)
            & chunk.sync_ok[s_lo:s_hi][:, levels_m].T
            & (sync_sel[None, :] < gap_hi_m[:, None])
            & (counters[midx][:, None] + running >= gate[midx][:, None])
        )
        first = candidates.argmax(axis=1)
        iota = np.arange(midx.size)
        fired = candidates[iota, first]
        has_join = no_join
        has_join[midx] = fired
        col = gap_hi.copy()
        col[midx] = np.where(fired, sync_sel[first], gap_hi_m)
        bulk = gap_counts.copy()
        bulk[midx] = np.where(fired, running[iota, first], gap_counts[midx])
        return has_join, col, bulk
