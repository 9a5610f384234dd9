"""The scan kernel: one protocol decision sequence, two engines.

The Section-4 protocol semantics — credit/bulk-reception accounting and
join/leave transitions — are driven from two places: the per-packet
reference loop (the executable spec) and the bit-packed chunk scan
(:func:`repro.protocols.scan.scan_chunk_bitpacked`), whose one event loop
per scan window (the chain drain) consumes every join and congestion
event of the window.  :class:`ScanKernel` owns what both share: the
level-step invariants (a leave never below level 1; in the per-packet
loop, a join never past the top layer), credit accounting, the hook
dispatch order (``scan_bulk_received`` before ``scan_congested`` /
``scan_joined`` / ``scan_left``) and the event record layout the
simulator engine reconstructs carriage from.  Both engines report state
changes to the protocol through the same ``scan_*`` hooks, with index
arrays of the receivers concerned, so the conformance suite checks one
semantics instead of two implementations.  The packed representation
itself (``uint64`` words with masked popcounts) is
:mod:`repro.protocols.bitpack`, which the scan calls directly.

A protocol runs on the default ``bitpacked`` engine by implementing
:meth:`~repro.protocols.base.LayeredProtocol.scan_chain_join_packed` or
by overriding :meth:`~repro.protocols.base.LayeredProtocol.step_chunk`;
otherwise it runs only with ``engine="reference"`` (the default engine
raises :class:`~repro.errors.ProtocolError` rather than falling back).

The engine registry (:data:`ENGINES`, :data:`ENGINE_ALIASES` and
:func:`resolve_engine`) lives here too, as the single source of truth for
the simulator, the experiment API, the CLI and the result store.
:data:`PACKED_OPS` and :func:`backend_ops_for` remain from the retired
multi-backend kernel: every engine name maps to the one packed lowering,
the :mod:`~repro.protocols.bitpack` module, and the benchmark's
environment stamp records that identity (``compiled_is_packed_ops``),
which its run comparison requires to match.

Every primitive must stay bit-exact (same columns, same counts): the
kernel's event sequence is pinned against the reference loop by
``tests/simulator/test_engine_equivalence.py``,
``tests/protocols/test_kernel_trace.py`` and the differential fuzzer.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
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
    """The engine-neutral protocol decision sequence for one chunk.

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
        rows = congested.nonzero()[0]
        protocol.scan_congested(rows)
        leavers = protocol.congestion_leaves(congested, levels, packet)
        leavers = leavers & (levels > 1)
        if self.trace is not None:
            old = levels[rows]
            self.trace.event(rows, col, "congest", old, old - leavers[rows])
        return leavers

    def apply_leaves(self, leavers: np.ndarray) -> None:
        rows = leavers.nonzero()[0]
        self.levels[rows] -= 1
        self.protocol.scan_left(rows, self.levels[rows])

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
        rows = joins.nonzero()[0]
        self.levels[rows] += 1
        self.protocol.scan_joined(rows, self.levels[rows])


#: The scan's one lowering: the packed-word primitives module.
PACKED_OPS = bitpack


def backend_ops_for(engine: str) -> ModuleType:
    """The lowering the scan runs under ``engine``.

    Every engine name — registered or retired alias — maps to
    :data:`PACKED_OPS` (the reference loop lowers nothing); unknown names
    raise :class:`ValueError`.
    """
    resolve_engine(engine)
    return PACKED_OPS
