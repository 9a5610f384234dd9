"""The Uncoordinated protocol: random per-packet join decisions.

"In the Uncoordinated protocol, there is no inherent coordination: upon
receiving a packet, a receiver randomly decides whether to join an
additional layer."  The per-packet join probability is ``2^(-2(i-1))`` for a
receiver at level ``i``, so the expected number of packets received between
a join/leave event and the next join matches the paper's ``2^(2(i-1))``
parameterisation.  Because each receiver draws independently, receivers that
see identical loss patterns still drift apart in their layer subscriptions,
which is what drives this protocol's higher redundancy in Figure 8.

**Counter-based draws (RNG scheme 4).**  Between two join/leave events a
receiver's level — and hence its per-received-packet join probability
``q = 2^(-2(i-1))`` — is constant, so the number of received packets up to
and including the next join is geometrically distributed.  Since scheme 4
each receiver owns a counter-based Philox stream
(:class:`repro.simulator.rng.ReceiverDrawStreams`) and consumes exactly one
uniform per join/leave event, inverted through the geometric CDF into a
*next-join countdown* of received packets.  The process law is identical to
per-packet Bernoulli draws (geometric memorylessness), both engines agree
bit for bit on the event sequence and therefore on every draw, and the
batched scan materialises draws proportional to the event density instead
of scheme 3's uniform for every ``receiver x scheduled packet``.  When the
protocol is driven directly — outside an engine run, with no streams
bound — :meth:`on_packet_received` falls back to drawing fresh per-packet
uniforms from the generator passed to :meth:`reset`.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import only for type annotations
    from ..simulator.packets import Packet
    from ..simulator.rng import ReceiverDrawStreams
from ..errors import ProtocolError
from . import bitpack
from .base import LayeredProtocol

__all__ = ["UncoordinatedProtocol"]

#: Next-join countdown of receivers at the top level (they cannot join, so
#: no draw is consumed for them until a leave re-arms the countdown); large
#: enough that per-reception decrements can never reach zero.
_TOP_LEVEL_SENTINEL = np.int64(2) ** 62


class UncoordinatedProtocol(LayeredProtocol):
    """Random, memoryless joins; leaves on every congestion event."""

    name = "uncoordinated"
    supports_stacked_runs = True

    def _reset_state(self) -> None:
        super()._reset_state()
        self._streams: Optional["ReceiverDrawStreams"] = None
        self._countdown = np.full(self.num_receivers, _TOP_LEVEL_SENTINEL)
        # log(1 - q_l) per level (index 0 unused); level 1 has q = 1, whose
        # -inf divisor maps any draw to countdown 1 without special-casing.
        assert self.scheme is not None
        levels = np.arange(self.scheme.num_layers + 1, dtype=np.float64)
        levels[0] = 1.0  # index 0 unused; keep the table free of NaNs
        with np.errstate(divide="ignore"):
            self._log_miss = np.log1p(-self.join_probability_per_packet(levels))

    def bind_run_streams(self, streams, receivers_per_run: int) -> None:
        from ..simulator.rng import ReceiverDrawStreams

        seeds = [
            seed
            for run_streams in streams
            for seed in run_streams.join_stream_seeds()
        ]
        self._streams = ReceiverDrawStreams(seeds)
        # Every receiver starts at level 1; arm its first countdown.
        rows = np.arange(self._streams.num_rows)
        self._countdown = np.full(rows.size, _TOP_LEVEL_SENTINEL)
        self._rearm(rows, np.ones(rows.size, dtype=np.int64))

    def _rearm(self, rows: np.ndarray, levels_rows: np.ndarray) -> None:
        """Draw fresh next-join countdowns for rows after a level change.

        Rows at the top level consume no draw and get the sentinel; the
        rest consume one uniform each from their own stream, inverted
        through the geometric CDF: ``T = max(1, ceil(log(1-U)/log(1-q)))``
        received packets until (and including) the joining one.  Without
        bound streams (direct drive) there is no countdown to re-arm.
        """
        if self._streams is None:
            return
        assert self.scheme is not None
        top = self.scheme.num_layers
        below = levels_rows < top
        self._countdown[rows[~below]] = _TOP_LEVEL_SENTINEL
        rows = rows[below]
        if rows.size == 0:
            return
        draws = self._streams.take(rows)
        pulls = np.ceil(np.log1p(-draws) / self._log_miss[levels_rows[below]])
        self._countdown[rows] = np.maximum(
            1, np.minimum(pulls, float(_TOP_LEVEL_SENTINEL))
        ).astype(np.int64)

    # ------------------------------------------------------------------
    # per-packet decision rule (reference engine / direct drive)
    # ------------------------------------------------------------------
    def on_packet_received(
        self,
        received: np.ndarray,
        levels: np.ndarray,
        packet: "Packet",
    ) -> np.ndarray:
        rng = self._require_ready()
        if not received.any():
            return np.zeros_like(received)
        if self._streams is None:
            # Direct drive without engine streams: memoryless per-packet
            # uniforms, exactly the paper's formulation.
            probabilities = self.join_probability_per_packet(levels)
            return received & (rng.random(levels.size) < probabilities)
        self._countdown[received] -= 1
        return received & (self._countdown <= 0)

    # ------------------------------------------------------------------
    # packed join locator and state hooks
    # ------------------------------------------------------------------
    def scan_chain_join_packed(
        self, chunk, words, base_col, rows, levels_rows, gap_counts, gap_lo, gap_hi
    ):
        if self._streams is None:
            raise ProtocolError(
                "uncoordinated batched scan needs bind_run_streams() to "
                "attach its per-receiver draw streams"
            )
        # The joining packet is each row's countdown-th reception (the
        # countdown is whatever the last level change armed, minus the
        # receptions credited since), so the join falls inside the gap
        # exactly when the countdown fits its reception count: it is the
        # countdown-th set bit of the packed row (bits below the position
        # are cleared, and the fit inside the gap bounds the rank below
        # ``gap_hi``).  Top-level rows hold the sentinel and never fire.
        countdown = self._countdown[rows]
        has_join = countdown <= gap_counts
        col = gap_hi
        if has_join.any():
            jidx = has_join.nonzero()[0]
            col = gap_hi.copy()
            col[jidx] = bitpack.kth_set(words[jidx], base_col, countdown[jidx])
        return has_join, col, countdown

    def scan_bulk_received(self, receivers: np.ndarray, counts: np.ndarray) -> None:
        self._countdown[receivers] -= counts

    def scan_congested(self, receivers: np.ndarray) -> None:
        # The geometric countdown is memoryless: congestion alone does not
        # re-arm it (only the leave it may cause does, via scan_left), so
        # the base counter reset is deliberately suppressed.
        pass

    def scan_joined(self, receivers: np.ndarray, levels_receivers: np.ndarray) -> None:
        self._rearm(receivers, levels_receivers)

    def scan_left(self, receivers: np.ndarray, levels_receivers: np.ndarray) -> None:
        self._rearm(receivers, levels_receivers)
