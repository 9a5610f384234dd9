"""Active-node coordination — the Section 5 "future work" protocol.

The paper closes by suggesting that "placing the decision to add and drop
layers at the active nodes, rather than at receivers, should increase the
coordination of the joins and leaves of layers by downstream receivers,
thereby reducing redundancy.  Such an approach would make a redundancy of
one feasible for a layered multi-rate session."

:class:`ActiveNodeProtocol` models that idea on the modified-star topology:
the branch-point router (the "active node" at the hub) manages a *single*
group subscription on the shared link on behalf of all downstream receivers:

* the group drops a layer when the active node observes congestion on the
  shared link — identified as a congestion event seen by (nearly) every
  subscribed receiver at once, controlled by ``group_loss_fraction``;
* isolated fan-out losses affect only the unlucky receiver's goodput; the
  active node does not react to them (in a deployment it could repair them
  locally), so they no longer desynchronise the group;
* the group joins one layer at the sender's nested sync points once enough
  packets have been forwarded since the group's last join/leave event, using
  the same ``2^(2(i-1))``-packet calibration as the receiver-driven
  protocols.

Because every receiver always holds the same subscription, the shared link
carries exactly what the fastest receiver consumes and the measured
redundancy approaches ``1 / (1 - loss)`` — i.e. essentially one, which is the
feasibility claim this extension exists to check (see the active-node
ablation experiment and benchmark).
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from ..errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - import only for type annotations
    from ..simulator.packets import Packet
from . import bitpack
from .base import LayeredProtocol, join_threshold_packets

__all__ = ["ActiveNodeProtocol"]


class ActiveNodeProtocol(LayeredProtocol):
    """Group-wide joins and leaves decided at the branch-point router."""

    name = "active-node"
    supports_batched_units = True

    def __init__(
        self,
        sync_threshold_fraction: float = 0.5,
        group_loss_fraction: float = 0.75,
    ) -> None:
        super().__init__()
        if not 0.0 <= sync_threshold_fraction <= 1.0:
            raise ProtocolError(
                "sync_threshold_fraction must lie in [0, 1], got "
                f"{sync_threshold_fraction}"
            )
        if not 0.0 < group_loss_fraction <= 1.0:
            raise ProtocolError(
                f"group_loss_fraction must lie in (0, 1], got {group_loss_fraction}"
            )
        self.sync_threshold_fraction = float(sync_threshold_fraction)
        self.group_loss_fraction = float(group_loss_fraction)

    def _reset_state(self) -> None:
        super()._reset_state()
        # Packets forwarded by the active node since the group's last
        # join/leave event (group-scalar; the base per-receiver counter is
        # unused here).
        self._packets_since_group_event = 0

    # ------------------------------------------------------------------
    # leave side: only shared-link congestion moves the group
    # ------------------------------------------------------------------
    def congestion_leaves(
        self,
        congested: np.ndarray,
        levels: np.ndarray,
        packet: "Packet",
    ) -> np.ndarray:
        subscribed = levels >= packet.layer
        subscribed_count = int(subscribed.sum())
        if subscribed_count == 0:
            return np.zeros_like(congested)
        affected = int((congested & subscribed).sum())
        if affected >= self.group_loss_fraction * subscribed_count:
            # Congestion on the shared link: the whole group backs off.
            self._packets_since_group_event = 0
            return np.ones_like(congested)
        # Isolated fan-out loss: the active node absorbs it.
        return np.zeros_like(congested)

    # ------------------------------------------------------------------
    # join side: group joins at the sender's sync points
    # ------------------------------------------------------------------
    def on_packet_received(
        self,
        received: np.ndarray,
        levels: np.ndarray,
        packet: "Packet",
    ) -> np.ndarray:
        self._require_ready()
        if not received.any():
            return np.zeros_like(received)
        self._packets_since_group_event += 1
        if not packet.sync_levels:
            return np.zeros_like(received)
        group_level = int(levels.max())
        if group_level not in packet.sync_levels:
            return np.zeros_like(received)
        gate = self.sync_threshold_fraction * join_threshold_packets(group_level)
        if self._packets_since_group_event < gate:
            return np.zeros_like(received)
        # The whole group joins together (stragglers catch up too).
        return np.ones_like(received)

    def on_join(self, receivers: np.ndarray, levels: np.ndarray) -> None:
        self._packets_since_group_event = 0

    # ------------------------------------------------------------------
    # batched path: the group is a single scalar state machine
    # ------------------------------------------------------------------
    def step_chunk(self, chunk, levels):
        """Chunked scan specialised to the group's lock-step dynamics.

        Every receiver always holds the same subscription level (the group
        joins and leaves together from the all-ones initial state), so the
        protocol reduces to one scalar (level, counter) machine whose events
        are group congestions — shared-link losses, or fan-out loss bursts
        hitting at least ``group_loss_fraction`` of the group — plus group
        joins at the sender's sync points.  Receiver-level reception is
        still accounted per receiver for the rate measurements.
        """
        from .scan import ChunkResult

        num_receivers = levels.size
        top = chunk.num_layers
        n = chunk.num_packets
        receivable = bitpack.unpack_bits(chunk.receivable_packed, n)  # (R, n)
        # A shared-link loss clears the whole column, so the per-column
        # loss count alone decides congested.any(), the group-leave
        # condition (the fraction is at most one) and received.any() — all
        # conditional on the packet being subscribed at all.
        lost = num_receivers - receivable.sum(axis=0, dtype=np.int64)
        any_congestion = lost > 0
        group_hit = lost >= self.group_loss_fraction * num_receivers
        recv_any = lost < num_receivers

        received = np.zeros(num_receivers, dtype=np.int64)
        ev_cols = []
        ev_old = []
        ev_new = []
        level = int(levels.max())
        count = self._packets_since_group_event
        sync_cols = chunk.sync_cols
        pos = 0
        while pos < n:
            cols = chunk.cols_for_level[level]
            observed = cols[cols >= pos] if pos else cols
            if observed.size == 0:
                break
            hits = observed[group_hit[observed]]
            next_event = int(hits[0]) if hits.size else n
            if level < top and sync_cols.size:
                ahead = np.searchsorted(sync_cols, pos)
                for index in range(ahead, sync_cols.size):
                    sync_col = int(sync_cols[index])
                    if sync_col >= next_event:
                        break
                    if not chunk.sync_ok[index, level] or not recv_any[sync_col]:
                        continue
                    gate = self.sync_threshold_fraction * join_threshold_packets(level)
                    upto = observed[observed <= sync_col]
                    if count + int(recv_any[upto].sum()) >= gate:
                        next_event = sync_col
                        break
            stretch = observed[observed < next_event]
            if stretch.size:
                received += receivable[:, stretch].sum(axis=1)
                count += int(recv_any[stretch].sum())
            if next_event >= n:
                break
            # Replicate the reference engine's per-packet order exactly at
            # the event packet: congestion reaction first, then reception.
            col = next_event
            if any_congestion[col]:
                if group_hit[col]:
                    count = 0
                    if level > 1:
                        ev_cols.append(col)
                        ev_old.append(level)
                        level -= 1
                        ev_new.append(level)
            if recv_any[col]:
                received += receivable[:, col]
                count += 1
                sync_index = np.searchsorted(sync_cols, col)
                if (
                    sync_index < sync_cols.size
                    and sync_cols[sync_index] == col
                    and chunk.sync_ok[sync_index, level]
                    and level < top
                    and count >= self.sync_threshold_fraction * join_threshold_packets(level)
                ):
                    ev_cols.append(col)
                    ev_old.append(level)
                    level += 1
                    ev_new.append(level)
                    count = 0
            pos = col + 1

        self._packets_since_group_event = count
        levels[:] = level
        if ev_cols:
            event_cols = np.repeat(np.asarray(ev_cols, dtype=np.int64), num_receivers)
            event_receivers = np.tile(np.arange(num_receivers), len(ev_cols))
            event_old = np.repeat(np.asarray(ev_old, dtype=np.int64), num_receivers)
            event_new = np.repeat(np.asarray(ev_new, dtype=np.int64), num_receivers)
        else:
            event_cols = np.zeros(0, dtype=np.int64)
            event_receivers = np.zeros(0, dtype=np.int64)
            event_old = np.zeros(0, dtype=np.int64)
            event_new = np.zeros(0, dtype=np.int64)
        return ChunkResult(
            received=received,
            event_cols=event_cols,
            event_receivers=event_receivers,
            event_old_levels=event_old,
            event_new_levels=event_new,
        )

    @property
    def packets_since_group_event(self) -> int:
        """Packets forwarded since the group's last join/leave event."""
        return self._packets_since_group_event
