"""The scan kernel: one protocol decision sequence, two engines.

The Section-4 protocol semantics — credit/bulk-reception accounting and
join/leave transitions — are driven from two places: the per-packet
reference loop (the executable spec) and the bit-packed chunk scan
(:func:`repro.protocols.scan.scan_chunk_bitpacked`), whose one event loop
per scan window (the chain drain) consumes every join and congestion
event of the window.  This module holds what both share, split along a
representation boundary:

* :class:`ScanKernel` owns the *semantics*: the level-step invariants (a
  leave never below level 1; in the per-packet loop, a join never past
  the top layer), credit accounting, the hook dispatch order
  (``scan_bulk_received`` before ``scan_congested`` / ``scan_joined`` /
  ``scan_left``) and the event record layout the simulator engine
  reconstructs carriage from.  The scan and the reference loop both drive
  their transitions through it, so the conformance suite checks one
  semantics instead of two implementations.
* :class:`PackedOps` (the :data:`PACKED_OPS` singleton) owns the
  *representation*: ``uint64`` words with masked popcounts
  (:mod:`repro.protocols.bitpack`), plus the fused row rebuild the chain
  drain runs after every consumed event.

The engine registry (:data:`ENGINES`, :data:`ENGINE_ALIASES` and
:func:`resolve_engine`) lives here too, as the single source of truth for
the simulator, the experiment API, the CLI and the result store.

Changing a lowering
-------------------
Every primitive must stay bit-exact (same columns, same counts): the
kernel's event sequence is pinned against the reference loop by
``tests/simulator/test_engine_equivalence.py``,
``tests/protocols/test_kernel_trace.py`` and the differential fuzzer.
An alternative lowering earns a registry entry only with a recorded
speedup over ``bitpacked``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from . import bitpack

if TYPE_CHECKING:  # pragma: no cover - import only for type annotations
    from .base import LayeredProtocol

__all__ = [
    "ENGINES",
    "ENGINE_ALIASES",
    "ChunkResult",
    "KernelTrace",
    "PackedOps",
    "PACKED_OPS",
    "ScanKernel",
    "backend_ops_for",
    "resolve_engine",
]

#: Every selectable simulation engine, default first: the bit-packed chunk
#: scan and the per-packet reference loop.  The single source of truth: the
#: simulator validates against it, the experiment API's spec validation
#: imports it, and the CLI builds ``--engine`` choices from it.
ENGINES: Tuple[str, ...] = ("bitpacked", "reference")

#: Retired engine names and the engine that now runs them.  ``batched``
#: (a dense boolean scan) and ``compiled`` (a numba lowering of the packed
#: scan) computed the same bits as ``bitpacked``; specs, stored results and
#: command lines that still name them keep working.
ENGINE_ALIASES: Dict[str, str] = {"batched": "bitpacked", "compiled": "bitpacked"}


def resolve_engine(engine: str) -> str:
    """The registered engine an engine name selects (aliases resolved).

    Raises :class:`ValueError` for a name that is neither in
    :data:`ENGINES` nor in :data:`ENGINE_ALIASES`.
    """
    resolved = ENGINE_ALIASES.get(engine, engine) if isinstance(engine, str) else engine
    if resolved not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return resolved


@dataclass
class ChunkResult:
    """What one chunk of simulation did to the session.

    ``received`` counts packets received per receiver over the chunk.  The
    ``event_*`` arrays record every subscription-level change (one entry per
    receiver per change, in increasing packet order per receiver): the
    packet column it happened at, the receiver, and the levels before/after
    — enough for the engine to reconstruct per-packet carriage and
    leave-latency advertisements without re-simulating.
    """

    received: np.ndarray
    event_cols: np.ndarray
    event_receivers: np.ndarray
    event_old_levels: np.ndarray
    event_new_levels: np.ndarray

    @property
    def num_events(self) -> int:
        return int(self.event_cols.size)


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.zeros(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


class KernelTrace:
    """Recording instrument for the kernel's protocol-visible decisions.

    Attach one to a protocol as ``protocol.kernel_trace`` and every
    :class:`ScanKernel` the protocol passes through records the ordered
    sequence of kernel events — (receiver, absolute packet column, kind,
    level before/after, cumulative receptions at record time) — plus the
    running per-receiver reception credit.  The hook-trace equivalence
    suite (``tests/protocols/test_kernel_trace.py``) asserts both engines
    emit the *identical ordered event sequence*, not just identical final
    payloads.

    Credits are compared only cumulatively (the per-call bulk granularity
    legitimately differs between a per-packet loop and a windowed scan);
    the cumulative count at each event record is engine-invariant.
    """

    def __init__(self, num_receivers: int) -> None:
        self.cum = np.zeros(num_receivers, dtype=np.int64)
        self.events: List[tuple] = []

    def credit(self, rows, counts) -> None:
        np.add.at(self.cum, rows, counts)

    def event(self, rows, cols, kind: str, old, new) -> None:
        rows = np.atleast_1d(np.asarray(rows))
        cols = np.broadcast_to(np.asarray(cols), rows.shape)
        old = np.broadcast_to(np.asarray(old), rows.shape)
        new = np.broadcast_to(np.asarray(new), rows.shape)
        for i in range(rows.size):
            r = int(rows[i])
            self.events.append(
                (r, int(cols[i]), kind, int(old[i]), int(new[i]), int(self.cum[r]))
            )

    def per_receiver(self) -> dict:
        """Events grouped per receiver, ordered by packet column."""
        grouped: dict = {}
        for ev in sorted(self.events, key=lambda e: (e[0], e[1])):
            grouped.setdefault(ev[0], []).append(ev[1:])
        return grouped


class ScanKernel:
    """The backend-neutral protocol decision sequence for one chunk.

    One instance advances one chunk: it owns the received-packet credit
    array, the level-change event records, the hook dispatch order and the
    level-step invariants.  The chunk scan
    (:func:`repro.protocols.scan.scan_chunk_bitpacked`) calls
    :meth:`credit` / :meth:`congest` / :meth:`join` at each drained event;
    the per-packet reference loop drives the same transitions through
    :meth:`packet_congested` / :meth:`apply_leaves` /
    :meth:`packet_received` / :meth:`apply_joins`.  ``levels`` is mutated
    in place (it is the caller's state array).
    """

    def __init__(
        self,
        protocol: "LayeredProtocol",
        levels: np.ndarray,
        num_receivers: int,
        col_offset: int = 0,
    ) -> None:
        self.protocol = protocol
        self.levels = levels
        self.received = np.zeros(num_receivers, dtype=np.int64)
        self.col_offset = col_offset
        self.trace: Optional[KernelTrace] = getattr(protocol, "kernel_trace", None)
        self._ev_cols: List[np.ndarray] = []
        self._ev_rec: List[np.ndarray] = []
        self._ev_old: List[np.ndarray] = []
        self._ev_new: List[np.ndarray] = []

    # ---- scan-side transitions -----------------------------------------
    def credit(self, rows, counts, hook_counts=None) -> None:
        """Credit bulk receptions and mirror them to the protocol.

        ``hook_counts`` lets a lowering whose ``counts`` already include a
        join-triggering packet report the strictly-before bulk to the
        protocol hook (the join packet's own credit reaches the protocol
        through ``scan_joined`` semantics instead).
        """
        self.received[rows] += counts
        self.protocol.scan_bulk_received(
            rows, counts if hook_counts is None else hook_counts
        )
        if self.trace is not None:
            self.trace.credit(rows, counts)

    def congest(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Apply a congestion signal at ``cols[i]`` to receiver ``rows[i]``.

        Hook order and the leave invariant (never below level 1) are owned
        here: ``scan_congested`` for every signalled row, then the level
        step and ``scan_left`` for the rows above the floor.
        """
        if rows.size == 0:
            return
        levels = self.levels
        self.protocol.scan_congested(rows)
        leave = levels[rows] > 1
        lidx = rows[leave]
        if self.trace is not None:
            old = levels[rows]
            self.trace.event(
                rows, cols.astype(np.int64, copy=False) + self.col_offset,
                "congest", old, old - leave,
            )
        if lidx.size:
            self._ev_cols.append(cols[leave].astype(np.int64, copy=False))
            self._ev_rec.append(lidx)
            self._ev_old.append(levels[lidx])
            levels[lidx] -= 1
            self._ev_new.append(levels[lidx])
            self.protocol.scan_left(lidx, levels[lidx])

    def join(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Apply a join at ``cols[i]`` to receiver ``rows[i]``.

        The join-triggering packet's own reception is part of the bulk
        credit the scan passed to :meth:`credit`.
        """
        if rows.size == 0:
            return
        levels = self.levels
        self.protocol.scan_joined(rows, levels[rows] + 1)
        jcols = cols.astype(np.int64, copy=False)
        self._ev_cols.append(jcols)
        self._ev_rec.append(rows)
        old = levels[rows]
        self._ev_old.append(old)
        levels[rows] += 1
        new = levels[rows]
        self._ev_new.append(new)
        if self.trace is not None:
            self.trace.event(rows, jcols + self.col_offset, "join", old, new)

    def result(self) -> ChunkResult:
        """The chunk's credit totals and level-change event records."""
        return ChunkResult(
            received=self.received,
            event_cols=_concat(self._ev_cols),
            event_receivers=_concat(self._ev_rec),
            event_old_levels=_concat(self._ev_old),
            event_new_levels=_concat(self._ev_new),
        )

    # ---- per-packet (reference-loop) transitions ------------------------
    def packet_congested(self, congested: np.ndarray, col: int,
                         packet) -> np.ndarray:
        """One packet's congestion step: hooks plus the leave invariant.

        Returns the leaver mask (the protocol's reaction clamped above the
        level floor); the caller applies engine-side bookkeeping (leave
        advertisements) before :meth:`apply_leaves`.
        """
        protocol = self.protocol
        levels = self.levels
        protocol.on_congestion(congested, levels)
        leavers = protocol.congestion_leaves(congested, levels, packet)
        leavers = leavers & (levels > 1)
        if self.trace is not None:
            rows = congested.nonzero()[0]
            old = levels[rows]
            self.trace.event(rows, col, "congest", old, old - leavers[rows])
        return leavers

    def apply_leaves(self, leavers: np.ndarray) -> None:
        np.subtract(self.levels, 1, out=self.levels, where=leavers)
        self.protocol.on_leave(leavers, self.levels)

    def packet_received(self, receiving: np.ndarray, col: int, top: int,
                        packet) -> np.ndarray:
        """One packet's reception step: credit, hooks, the join invariant.

        Returns the joiner mask (the protocol's join decision clamped
        below the layer top ``top``).
        """
        protocol = self.protocol
        levels = self.levels
        if self.trace is not None:
            self.trace.credit(receiving.nonzero()[0], 1)
        joins = protocol.on_packet_received(receiving, levels, packet)
        joins = joins & (levels < top)
        if self.trace is not None and joins.any():
            rows = joins.nonzero()[0]
            old = levels[rows]
            self.trace.event(rows, col, "join", old, old + 1)
        return joins

    def apply_joins(self, joins: np.ndarray) -> None:
        np.add(self.levels, 1, out=self.levels, where=joins)
        self.protocol.on_join(joins, self.levels)


class PackedOps:
    """uint64-packed words + popcount reductions: the scan's one lowering.

    Thin delegation to :mod:`repro.protocols.bitpack`, plus the fused
    :meth:`chain_rebuild` that names the chain drain's hottest
    composition.  Every primitive must be bit-exact (same columns, same
    counts): the cross-engine conformance matrix pins the kernel's event
    sequence.
    """

    word_base = staticmethod(bitpack.word_base)
    first_set = staticmethod(bitpack.first_set)
    row_counts = staticmethod(bitpack.row_counts)
    prefix_counts = staticmethod(bitpack.prefix_counts)

    @staticmethod
    def chain_rebuild(
        masks_here: np.ndarray,
        ok: np.ndarray,
        recv: np.ndarray,
        rows: np.ndarray,
        ws: int,
        levels_rows: np.ndarray,
        pos_rows: np.ndarray,
        edge_word: np.uint64,
        base_ws: int,
        bases_ws: np.ndarray,
    ):
        """Rebuild chained rows' packed suffix after a consumed event.

        Recomputes the reception words of ``rows`` from word index ``ws``
        onward — layer mask under each row's new level
        (``masks_here[level, ws:]``), masked below the row's new position
        and at the window edge, and-ed with the receivability ``ok`` —
        writes them back into ``recv`` in place, and returns the refreshed
        first-congestion candidate ``(has, col)`` per row.  ``base_ws`` and
        ``bases_ws`` are the absolute columns of bit 0 of word ``ws`` and
        of every suffix word.
        """
        front = bitpack.start_masks(pos_rows, base_ws, bases_ws.size, bases_ws)
        sub = masks_here[levels_rows, ws:]
        sub &= front
        sub[:, -1] &= edge_word
        recv_rows = sub & ok[rows, ws:]
        cong = sub
        cong ^= recv_rows
        recv[rows, ws:] = recv_rows
        return bitpack.first_set(cong, base_ws)


#: The shared lowering singleton (the ops object is stateless).
PACKED_OPS = PackedOps()


def backend_ops_for(engine: str) -> PackedOps:
    """The ops object the scan lowers the kernel with under ``engine``.

    Every engine name — registered or retired alias — maps to
    :data:`PACKED_OPS` (the reference loop lowers nothing); unknown names
    raise :class:`ValueError`.
    """
    resolve_engine(engine)
    return PACKED_OPS
