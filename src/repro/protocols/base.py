"""Common machinery for the Section-4 layered congestion-control protocols.

All three protocols share the same reaction to congestion and the same
parameterisation, taken from the paper (which in turn follows Vicisano,
Crowcroft & Rizzo's RLC):

* a receiver joined up to layer ``i`` receives the aggregate rate
  ``2^(i-1)`` (the exponential layer scheme);
* on a congestion event (a lost or congestion-marked packet) the receiver
  leaves its highest layer, unless it is only joined to layer 1;
* the expected number of packets received between a join/leave event and the
  next join from level ``i`` to ``i + 1`` is ``2^(2(i-1))``.

The protocols differ only in *when* the join actually happens — randomly per
packet (Uncoordinated), after a fixed packet count (Deterministic), or at
sender-stamped sync points (Coordinated).  Protocol objects operate on
vectorised per-receiver state (numpy arrays) so the packet-level simulator
can update an entire session per packet.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from ..errors import ProtocolError
from ..layering.layers import LayerScheme
from .scan import ChunkResult, UnitChunk, scan_chunk_bitpacked
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import only for type annotations
    from ..simulator.packets import Packet

__all__ = ["LayeredProtocol", "join_threshold_packets"]


def join_threshold_packets(level: int) -> float:
    """Expected packets between a join/leave event and the next join: ``2^(2(i-1))``."""
    if level < 1:
        raise ProtocolError(f"subscription level must be >= 1, got {level}")
    return float(2 ** (2 * (level - 1)))


# join_threshold's per-level values, precomputed: the scan's join locators
# evaluate the threshold on every chain step, and a table gather
# beats the float exponentiation there.  4^30 packets is far beyond any
# session length, so the table covers every realistic layer scheme; larger
# levels fall back to the direct formula.
_JOIN_THRESHOLDS = 2.0 ** (2.0 * (np.arange(32, dtype=np.float64) - 1.0))


class LayeredProtocol(abc.ABC):
    """A receiver-driven layered congestion-control protocol.

    Lifecycle: the simulation engine calls :meth:`reset` once per run
    (then :meth:`bind_run_streams` with the run's random streams) and
    advances the session under one of two engines.  Both report every
    state change through the same hooks, with index arrays of the
    receivers concerned: :meth:`scan_congested` (receivers that observed
    a loss), :meth:`scan_left` and :meth:`scan_joined` (completed level
    changes).

    * The per-packet reference loop (``engine="reference"``, the
      executable spec) asks the decision rules :meth:`on_packet_received`
      (which receivers join) and :meth:`congestion_leaves` (which
      congested receivers leave) at every packet and applies the level
      changes itself.
    * The default ``bitpacked`` engine calls :meth:`step_chunk` once per
      chunk of time units.  Its default runs the packed event scan, which
      locates each receiver's joins through :meth:`scan_chain_join_packed`
      and credits receptions in bulk through :meth:`scan_bulk_received`.

    A new protocol implements :meth:`scan_chain_join_packed`, or overrides
    :meth:`step_chunk`, or runs with ``engine="reference"``.  With neither
    override the default engine raises :class:`~repro.errors.ProtocolError`
    instead of silently falling back to the per-packet loop.
    """

    #: Human-readable protocol name (used in experiment tables).
    name: str = "abstract"

    #: Whether the protocol's state is strictly per-receiver, allowing the
    #: engine to stack independently-seeded runs as receiver blocks of one
    #: batched session (see ``simulate_session_group``).  Group
    #: protocols with session-global state (the active-node extension)
    #: leave this false.
    supports_stacked_runs: bool = False

    def stacking_key(self) -> tuple:
        """Identity for run stacking: two protocol instances may drive
        blocks of the same batched session only when their keys match.
        Subclasses with behavioural parameters extend the tuple."""
        return (type(self),)

    def __init__(self) -> None:
        self.num_receivers = 0
        self.scheme: Optional[LayerScheme] = None
        self._rng: Optional[np.random.Generator] = None
        self._received_since_event = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(
        self,
        num_receivers: int,
        scheme: LayerScheme,
        rng: np.random.Generator,
    ) -> None:
        """Prepare per-receiver state for a fresh simulation run."""
        if num_receivers < 1:
            raise ProtocolError(f"need at least one receiver, got {num_receivers}")
        self.num_receivers = num_receivers
        self.scheme = scheme
        self._rng = rng
        self._reset_state()

    def _reset_state(self) -> None:
        """Hook for subclasses to (re)initialise their per-receiver arrays.

        The base allocates the shared join-progress counter
        (``received_since_event``) that the default hook implementations
        below maintain; overriding subclasses must call
        ``super()._reset_state()``.
        """
        self._received_since_event = np.zeros(self.num_receivers, dtype=np.int64)

    def bind_run_streams(self, streams: Sequence, receivers_per_run: int) -> None:
        """Attach the runs' counter-based random streams (RNG scheme 4).

        Called by the simulation engine after :meth:`reset`, once per run
        (or once with every stacked run's streams, in receiver-block
        order).  ``streams`` holds one
        :class:`repro.simulator.rng.RunStreams` per run.  The default does
        nothing — only protocols that consume per-receiver randomness (the
        Uncoordinated protocol's join draws) materialise streams from it;
        protocols used outside an engine run simply never receive the call
        and fall back to drawing from the generator passed to
        :meth:`reset`.
        """

    def _require_ready(self) -> np.random.Generator:
        if self._rng is None or self.scheme is None:
            raise ProtocolError(
                f"protocol {self.name!r} used before reset(); call reset() first"
            )
        return self._rng

    # ------------------------------------------------------------------
    # chunk path (the bitpacked engine)
    # ------------------------------------------------------------------
    def step_chunk(self, chunk: UnitChunk, levels: np.ndarray) -> ChunkResult:
        """Advance the session through one chunk of time units.

        ``levels`` is updated in place.  The default implementation runs the
        per-receiver event scan
        (:func:`repro.protocols.scan.scan_chunk_bitpacked`) driven by the
        ``scan_*`` hooks below; protocols whose receivers are *not*
        independent (the active-node group protocol) override it.
        """
        return scan_chunk_bitpacked(self, chunk, levels)

    def scan_chain_join_packed(
        self,
        chunk,
        words: np.ndarray,
        base_col: int,
        rows: np.ndarray,
        levels_rows: np.ndarray,
        gap_counts: np.ndarray,
        gap_lo: np.ndarray,
        gap_hi: np.ndarray,
    ):
        """Locate each chained row's first join inside its gap, exactly.

        The scan's one event loop per window (the chain drain) calls this
        for every row still holding events, with the protocol's
        join-progress state as it stands after every event and reception
        credited so far: the Deterministic and Coordinated counters, the
        Uncoordinated countdown.  ``words`` holds the rows' packed
        receptions (bits below each row's position already cleared; bits
        at or past ``gap_hi`` may be set and must be ignored),
        ``gap_counts[r]`` the receptions strictly inside ``(gap_lo[r],
        gap_hi[r])`` at the row's current level ``levels_rows[r]``.  Both
        bounds are absolute chunk columns; ``gap_lo`` is the last consumed
        column (the column before the window start when the row has
        consumed none in this window) and ``gap_hi`` either the row's next
        congestion column (not received) or the exclusive window end when
        no congestion candidate remains.

        Return ``(has_join, join_col, join_bulk)``: a boolean mask over
        ``rows``, the absolute column of each joining row's first in-gap
        join, and its receptions up to and including that column
        (``join_col``/``join_bulk`` are unread where ``has_join`` is
        false).  Both directions must be exact — this hook *consumes* the
        join.
        """
        raise ProtocolError(
            f"protocol {self.name!r} does not implement scan_chain_join_packed(); "
            "implement it, override step_chunk(), or run with engine='reference'"
        )

    # ------------------------------------------------------------------
    # state hooks (both engines; scan_bulk_received is scan-only)
    # ------------------------------------------------------------------
    def scan_bulk_received(self, receivers: np.ndarray, counts: np.ndarray) -> None:
        """Receivers got ``counts`` packets with no join/leave in between.

        The default advances the shared join-progress counter; protocols
        whose progress state is not a reception count (the Uncoordinated
        countdown) override it.
        """
        self._received_since_event[receivers] += counts

    def scan_congested(self, receivers: np.ndarray) -> None:
        """Receivers that observed a congestion event.

        The default resets the shared join-progress counter — the paper's
        protocols restart their probe interval on every congestion signal,
        dropped layer or not.
        """
        self._received_since_event[receivers] = 0

    def scan_joined(self, receivers: np.ndarray, levels_receivers: np.ndarray) -> None:
        """Receivers that completed a join (the join packet's own reception
        already counted); ``levels_receivers`` holds their post-join levels.
        The default resets the shared join-progress counter."""
        self._received_since_event[receivers] = 0

    def scan_left(self, receivers: np.ndarray, levels_receivers: np.ndarray) -> None:
        """Receivers that completed a leave; ``levels_receivers`` holds
        their post-leave levels.  Protocols that re-arm per-level
        randomness (the Uncoordinated next-join countdown) do so here.
        The counter was already reset by the congestion signal that caused
        the leave, so the default does nothing."""

    # ------------------------------------------------------------------
    # per-packet decision rules (the reference loop)
    # ------------------------------------------------------------------
    def congestion_leaves(
        self,
        congested: np.ndarray,
        levels: np.ndarray,
        packet: "Packet",
    ) -> np.ndarray:
        """Which receivers actually drop a layer after this congestion event.

        The receiver-driven protocols of the paper leave exactly when they
        observe congestion, so the default returns ``congested`` unchanged.
        Coordination placed *inside* the network (the active-node extension of
        Section 5) can override this to make group-wide leave decisions.
        """
        return congested

    @abc.abstractmethod
    def on_packet_received(
        self,
        received: np.ndarray,
        levels: np.ndarray,
        packet: Packet,
    ) -> np.ndarray:
        """Receivers in ``received`` got the packet; return the join mask.

        ``levels`` holds the *current* subscription level of every receiver
        (before any join resulting from this packet).  The returned boolean
        array marks receivers that should join one additional layer now; the
        engine clamps joins at the top layer.
        """

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    @property
    def received_since_event(self) -> np.ndarray:
        """Per-receiver count of packets received since the last join/leave event."""
        return self._received_since_event.copy()

    def join_probability_per_packet(self, levels: np.ndarray) -> np.ndarray:
        """Per-received-packet join probability giving the paper's expectation.

        Joining after a geometrically distributed number of packets with
        success probability ``2^(-2(i-1))`` makes the expected packet count
        between events exactly ``2^(2(i-1))``.
        """
        return 2.0 ** (-2.0 * (levels.astype(float) - 1.0))

    def join_threshold(self, levels: np.ndarray) -> np.ndarray:
        """Deterministic packet-count threshold ``2^(2(i-1))`` per receiver."""
        if levels.size and int(levels.max()) < _JOIN_THRESHOLDS.size:
            return _JOIN_THRESHOLDS[levels]
        return 2.0 ** (2.0 * (levels.astype(float) - 1.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
