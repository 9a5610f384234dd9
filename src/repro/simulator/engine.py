"""Packet-level simulation of one layered multicast session on a star.

This is the workhorse behind the Figure 8 experiments.  One sender
transmits the exponential layer scheme over a shared link; each receiver
hangs off its own fan-out link (the modified-star topology of Figure 7).
Losses on the shared link are observed by every subscribed receiver
(correlated loss); losses on fan-out links are independent per receiver.
Receivers run one of the Section-4 congestion-control protocols, leaving a
layer on every observed congestion event and joining according to the
protocol's coordination rule.

Measured quantities (after an optional warm-up period):

* the number of packets the shared link carries — a packet of layer ``l``
  crosses the shared link iff some receiver is subscribed to ``l`` when it
  is sent (layers are nested, so the link carries layers ``1..max level``);
* per-receiver received packet counts (their long-term average rates);
* the redundancy of the session on the shared link:
  shared-link rate divided by the largest receiver rate (Definition 3).

Two Section-5 "future work" effects are also modelled:

* **protocol-controlled leaves** — protocols may override which receivers
  actually drop a layer on a congestion event
  (:meth:`repro.protocols.base.LayeredProtocol.congestion_leaves`), which is
  how the active-node coordination extension is expressed;
* **leave latency** — when ``leave_latency > 0`` a receiver's leave takes
  that many time units to propagate, during which the shared link keeps
  carrying the layers the receiver was subscribed to even though its own
  receiving rate drops immediately (the paper's hypothesis is that this
  increases redundancy).  A receiver that leaves several layers in quick
  succession keeps advertising its highest recent subscription until the
  latency after its last leave expires — a slightly conservative
  approximation that over- rather than under-states carriage.

**Two engines, one behaviour.**  The simulator ships a chunked engine
(``engine="bitpacked"``, the default) and the original per-packet
reference loop (``engine="reference"``), which stays as the executable
spec.  Both produce bit-for-bit identical results for any seed: the
chunked engine restructures each chunk of time units as a per-receiver
*event scan* on bit-packed matrices (see :mod:`repro.protocols.scan`)
instead of a Python-level loop over packets, which is possible because the
Section-4 protocols are receiver-local and the random stream is
pre-sampled state-independently.  Protocols that do not implement the
chunk hooks transparently fall back to the reference loop.  The retired
names ``"batched"`` and ``"compiled"`` are accepted as aliases of
``"bitpacked"`` (:data:`repro.protocols.kernel.ENGINE_ALIASES`).

**Counter-based randomness (RNG scheme 5).**  Every run derives a family
of independent Philox streams from one ``SeedSequence`` (see
:mod:`repro.simulator.rng`): shared-link loss outcomes, independent
(fan-out) loss outcomes, and protocol randomness each live in their own
counter-keyed stream, and the Uncoordinated protocol's join uniforms are
keyed per receiver and consumed one draw per packet the receiver actually
receives.  Separating the streams removes the per-unit interleaving of
schemes 2/3: the chunked engine samples whole chunks of each loss stream
in single calls, while the reference loop samples unit by unit from the
same streams — bit-identical because every loss process is split-invariant
(the :class:`~repro.simulator.loss.LossProcess` contract).  Per-receiver
join-draw streams are what let the chunk scan materialise only the draws
its receivers reach instead of the full receiver x scheduled-packet
matrix.  Scheme 2 introduced per-unit loss pre-sampling, scheme 3
pre-sampled the Uncoordinated join draws receiver-major per unit, scheme 4
is the counter-based layout described here, and scheme 5 made
Gilbert–Elliott loss split-invariant (it was sampled unit by unit before);
seeded results are reproducible within a scheme version
(and across engines, chunk sizes and process counts) but differ across
versions — deliberate, version-bumped changes.  Statistically the
processes are unchanged; Gilbert–Elliott burst state still advances once
per scheduled packet, i.e. with link time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..layering.layers import ExponentialLayerScheme, LayerScheme
from ..protocols import bitpack
from ..protocols.base import LayeredProtocol
from ..protocols.kernel import ENGINES, ScanKernel, resolve_engine
from ..protocols.scan import UnitChunk
from .loss import BernoulliLoss, LossProcess, NoLoss
from .packets import PacketSchedule
from .rng import RunStreams

__all__ = [
    "SessionSimulationResult",
    "LayeredSessionSimulator",
    "simulate_layered_session",
    "simulate_session_group",
    "RNG_SCHEME_VERSION",
    "ENGINES",
]

#: Version of the random-stream layout.  Bumped to 2 when loss sampling
#: switched from per-packet draws to per-unit pre-sampled arrays, to 3 when
#: the Uncoordinated protocol's join draws joined the per-unit layout, and
#: to 4 for the counter-based Philox scheme (independent per-run streams
#: for shared loss / independent loss / protocol draws, per-receiver join
#: draws consumed per received packet, single-precision Bernoulli arrays,
#: and ``SeedSequence.spawn``-derived replicate seeds), and to 5 when
#: Gilbert–Elliott loss became split-invariant (sojourn batches carried
#: across calls, sampled a chunk at a time like Bernoulli loss); seeded
#: results are reproducible within a version (and across engines) but
#: differ across versions.
RNG_SCHEME_VERSION = 5

# The engine registry (``ENGINES`` and the retired-name aliases) lives in
# :mod:`repro.protocols.kernel` — the single source of truth shared with
# the experiment API and the CLI — and is re-exported here for backward
# compatibility.

IndependentLoss = Union[LossProcess, Sequence[LossProcess]]


class _RunContext:
    """One run's counter-based streams plus its private loss-process state.

    Loss processes are copied per run (:meth:`LossProcess.copy` returns a
    fresh-state instance), so every seeded run consumes its processes from
    a clean slate: results depend only on the seed, and a run stacked into
    a batched group samples bit for bit what it would sample solo.
    """

    __slots__ = ("streams", "shared_loss", "per_receiver_loss")

    def __init__(
        self,
        streams: RunStreams,
        shared_loss: LossProcess,
        per_receiver_loss: List[LossProcess],
    ) -> None:
        self.streams = streams
        self.shared_loss = shared_loss
        self.per_receiver_loss = per_receiver_loss


@dataclass
class SessionSimulationResult:
    """Outcome of one simulated run of a layered session.

    Rates are reported in packets per sender time unit; the exponential
    scheme sends at aggregate rate ``2^(M-1)`` at full subscription.
    """

    protocol: str
    num_receivers: int
    num_layers: int
    duration_units: int
    warmup_units: int
    measured_units: int
    shared_link_packets: int
    receiver_packets: np.ndarray
    total_sender_packets: int
    mean_subscription_level: float
    mean_max_subscription_level: float
    shared_loss_rate: float
    independent_loss_rates: np.ndarray
    leave_latency: float = 0.0

    @property
    def shared_link_rate(self) -> float:
        """Average rate carried by the shared link (packets per time unit)."""
        return self.shared_link_packets / self.measured_units

    @property
    def receiver_rates(self) -> np.ndarray:
        """Average receiving rate of every receiver (packets per time unit)."""
        return self.receiver_packets / self.measured_units

    @property
    def max_receiver_rate(self) -> float:
        """The efficient shared-link rate: the fastest receiver's average rate."""
        return float(self.receiver_rates.max())

    @property
    def mean_receiver_rate(self) -> float:
        return float(self.receiver_rates.mean())

    @property
    def redundancy(self) -> float:
        """Redundancy of the session on the shared link (Definition 3).

        Degenerate runs where no receiver decoded a single measured packet
        follow a documented convention: if the shared link nevertheless
        carried packets the redundancy is ``inf`` (everything the link
        carried was wasted), and only a run where the link also carried
        nothing reports the vacuous ideal ``1.0``.
        """
        efficient = self.max_receiver_rate
        if efficient <= 0:
            return 1.0 if self.shared_link_packets == 0 else float("inf")
        return self.shared_link_rate / efficient

    def summary(self) -> str:
        return (
            f"{self.protocol}: R={self.num_receivers} layers={self.num_layers} "
            f"shared-loss={self.shared_loss_rate:g} "
            f"mean-ind-loss={float(self.independent_loss_rates.mean()):g} "
            f"redundancy={self.redundancy:.3f} "
            f"link-rate={self.shared_link_rate:.2f} "
            f"max-receiver-rate={self.max_receiver_rate:.2f}"
        )


class LayeredSessionSimulator:
    """Configurable simulator for one layered session on a modified star.

    Parameters
    ----------
    protocol:
        The congestion-control protocol instance (reset per run).
    num_receivers:
        Number of receivers in the session.
    shared_loss:
        Loss process of the shared link abutting the sender.
    independent_loss:
        Either one loss process applied independently per receiver (suitable
        for memoryless processes such as :class:`BernoulliLoss`) or a
        sequence with one (stateful) process per receiver.
    scheme:
        Layer scheme; defaults to the paper's 8-layer exponential scheme.
    duration_units / warmup_units:
        Sender time units to simulate and to exclude from measurement while
        the receivers climb from layer 1 towards their operating point.
    leave_latency:
        Time units a leave takes to propagate into the network.  While a
        leave is pending, the shared link keeps carrying the receiver's
        previously subscribed layers.  Zero (the default) models the
        idealised instantaneous leaves of Section 4.
    engine:
        ``"bitpacked"`` (the default) runs the per-receiver event scan on
        uint64-packed matrices with popcount reductions; ``"reference"``
        runs the original per-packet loop.  The retired names
        ``"batched"`` and ``"compiled"`` select ``"bitpacked"``.  Results
        are bit-for-bit identical for any seed; protocols without chunk
        support always use the reference loop, and the active-node group
        protocol runs its own chunk drain under ``"bitpacked"``.
    chunk_units:
        Time units the chunked engine processes per chunk (performance
        knob only; results do not depend on it).  ``None`` (the default)
        sizes each scan's chunks from its stack height
        (:func:`_default_chunk_units`): wider chunks amortise the
        per-chunk loss-sampling calls and assembly over more units but
        enlarge the chunk's packed loss words, which grow with the
        stack's rows, and its per-column tables, which do not.
    """

    def __init__(
        self,
        protocol: LayeredProtocol,
        num_receivers: int,
        shared_loss: LossProcess,
        independent_loss: IndependentLoss,
        scheme: Optional[LayerScheme] = None,
        duration_units: int = 800,
        warmup_units: Optional[int] = None,
        leave_latency: float = 0.0,
        engine: str = "bitpacked",
        chunk_units: Optional[int] = None,
    ) -> None:
        if num_receivers < 1:
            raise SimulationError(f"need at least one receiver, got {num_receivers}")
        if duration_units < 2:
            raise SimulationError(f"duration_units must be >= 2, got {duration_units}")
        if not leave_latency >= 0:
            raise SimulationError(f"leave_latency must be non-negative, got {leave_latency}")
        try:
            engine = resolve_engine(engine)
        except ValueError as error:
            raise SimulationError(str(error)) from None
        if chunk_units is not None and chunk_units < 1:
            raise SimulationError(f"chunk_units must be positive, got {chunk_units}")
        self.engine = engine
        self.chunk_units = None if chunk_units is None else int(chunk_units)
        #: Scan-window width in time units (internal performance knob of the
        #: chunked engine).  Windows never shrink below 32 packet columns
        #: (see ``_assemble_chunk``), so 0 gives the narrowest windows.
        self.scan_window_units = 2
        self._chunk_static: Dict[int, Tuple[np.ndarray, List[np.ndarray], np.ndarray]] = {}
        self._packed_static: Dict[int, np.ndarray] = {}
        self.protocol = protocol
        self.num_receivers = num_receivers
        self.scheme = scheme if scheme is not None else ExponentialLayerScheme(8)
        self.shared_loss = shared_loss
        self.independent_loss = independent_loss
        self.duration_units = duration_units
        if warmup_units is None:
            warmup_units = duration_units // 4
        if not 0 <= warmup_units < duration_units:
            raise SimulationError(
                f"warmup_units must lie in [0, duration_units), got {warmup_units}"
            )
        self.warmup_units = warmup_units
        self.leave_latency = float(leave_latency)
        self.schedule = PacketSchedule(self.scheme)
        self._per_receiver_loss = self._resolve_independent_loss(independent_loss)

    def _resolve_independent_loss(self, independent_loss: IndependentLoss) -> List[LossProcess]:
        if isinstance(independent_loss, LossProcess):
            return [independent_loss]
        processes = list(independent_loss)
        if len(processes) != self.num_receivers:
            raise SimulationError(
                "independent_loss must be a single process or one per receiver "
                f"({len(processes)} != {self.num_receivers})"
            )
        return processes

    def _independent_loss_rates(self) -> np.ndarray:
        if len(self._per_receiver_loss) == 1:
            return np.full(self.num_receivers, self._per_receiver_loss[0].average_loss_rate)
        return np.array([p.average_loss_rate for p in self._per_receiver_loss])

    def _make_run_context(self, seed) -> "_RunContext":
        """One run's random streams plus fresh per-run loss-process state.

        The loss processes are copied per run (``LossProcess.copy`` resets
        state), so a seeded run's outcome depends only on its seed — never
        on earlier runs' consumption of a shared stateful process — and
        stacked runs sample exactly what their solo runs would.
        """
        streams = RunStreams(
            seed,
            self.num_receivers,
            per_receiver_independent=len(self._per_receiver_loss) > 1,
        )
        return _RunContext(
            streams,
            self.shared_loss.copy(),
            [process.copy() for process in self._per_receiver_loss],
        )

    def _loss_positions(
        self, context: "_RunContext", num_units: int, packets_per_unit: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample one run's losses over ``num_units`` time units.

        Returns ``(shared_cols, rows, cols)``: the lost shared-link packet
        columns, and each receiver's independent losses as (receiver row,
        packet column) pairs, columns counted from the first unit.  Each
        quantity is drawn from its own stream (RNG scheme 4): the shared
        link from the shared stream, a single independent-loss process from
        the independent stream laid out in (unit, receiver, packet) order,
        and per-receiver processes from one spawned stream per receiver.
        Every process is split-invariant, so the chunked engine's one call
        per chunk reads the same losses as the reference loop's one call
        per unit.
        """
        n = num_units * packets_per_unit
        receivers = self.num_receivers
        streams = context.streams
        shared_cols = context.shared_loss.sample_positions(streams.shared_rng, n)
        if len(context.per_receiver_loss) == 1:
            flat = context.per_receiver_loss[0].sample_positions(
                streams.independent_rng, n * receivers
            )
            # Flattened (unit, receiver, packet) order -> (row, column).
            unit_index, remainder = np.divmod(flat, receivers * packets_per_unit)
            rows, packet = np.divmod(remainder, packets_per_unit)
            cols = unit_index * packets_per_unit + packet
        else:
            per_row = [
                process.sample_positions(rng, n)
                for process, rng in zip(
                    context.per_receiver_loss, streams.independent_rngs
                )
            ]
            rows = np.repeat(np.arange(receivers), [part.size for part in per_row])
            cols = np.concatenate(per_row)
        return shared_cols, rows, cols

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(self, seed: Optional[int] = None) -> SessionSimulationResult:
        """Simulate one run and return its measurements.

        The engine selected at construction does the work; both engines
        consume the same counter-based random streams and return identical
        results.
        """
        return simulate_session_group([self], [[seed]])[0][0]

    def run_many(self, seeds: Sequence[Optional[int]]) -> List[SessionSimulationResult]:
        """Simulate one run per seed; equals ``[run(s) for s in seeds]`` bit for bit.

        Stackable runs ride one chunk scan (see :func:`simulate_session_group`).
        """
        return simulate_session_group([self], [list(seeds)])[0]

    # ------------------------------------------------------------------
    # reference engine: one packet at a time
    # ------------------------------------------------------------------
    def _run_reference(self, context: "_RunContext") -> SessionSimulationResult:
        num_layers = self.scheme.num_layers
        levels = np.ones(self.num_receivers, dtype=np.int64)
        # The reference loop drives its per-packet transitions through the
        # same kernel as the chunk scan: hook dispatch
        # and the level-step invariants live in one place.
        kernel = ScanKernel(self.protocol, levels, self.num_receivers)
        packets_per_unit = self.schedule.packets_per_unit

        track_advertised = self.leave_latency > 0.0
        advertised = np.ones(self.num_receivers, dtype=np.int64)
        advert_expiry = np.zeros(self.num_receivers, dtype=float)

        shared_link_packets = 0
        receiver_packets = np.zeros(self.num_receivers, dtype=np.int64)
        level_sum = 0.0
        max_level_sum = 0.0
        measured_units = self.duration_units - self.warmup_units
        total_sender_packets = self.schedule.total_packets(self.duration_units)
        max_level = 1
        carriage_level = 1

        for unit in range(self.duration_units):
            measuring = unit >= self.warmup_units
            if measuring:
                level_sum += float(levels.mean())
                max_level_sum += float(max_level)
            unit_packets = self.schedule.unit_packets(unit)
            shared_cols, rows, cols = self._loss_positions(context, 1, packets_per_unit)
            shared_lost = np.zeros(packets_per_unit, dtype=bool)
            shared_lost[shared_cols] = True
            independent_lost = np.zeros((self.num_receivers, packets_per_unit), dtype=bool)
            independent_lost[rows, cols] = True
            for packet_index, packet in enumerate(unit_packets):
                if track_advertised:
                    pending = (advertised > levels) & (advert_expiry <= packet.time)
                    if pending.any():
                        advertised[pending] = levels[pending]
                    carriage_level = int(max(max_level, advertised.max()))
                else:
                    carriage_level = max_level

                if packet.layer > carriage_level:
                    # Neither a live subscription nor a pending leave wants
                    # this layer: the shared link does not carry the packet.
                    continue
                if measuring:
                    shared_link_packets += 1

                subscribed = levels >= packet.layer
                if not subscribed.any():
                    # Carried only because of pending leaves; no receiver can
                    # observe it, so no protocol state changes.
                    continue

                if shared_lost[packet_index]:
                    # Correlated congestion: every subscribed receiver
                    # observes the loss.
                    congested = subscribed
                    received = None
                else:
                    independent = independent_lost[:, packet_index]
                    congested = subscribed & independent
                    received = subscribed & ~independent

                col = unit * packets_per_unit + packet_index
                if congested.any():
                    leavers = kernel.packet_congested(congested, col, packet)
                    if leavers.any():
                        if track_advertised:
                            advertised[leavers] = np.maximum(
                                advertised[leavers], levels[leavers]
                            )
                            advert_expiry[leavers] = packet.time + self.leave_latency
                        kernel.apply_leaves(leavers)
                        max_level = int(levels.max())

                if received is not None and received.any():
                    if measuring:
                        receiver_packets[received] += 1
                    joins = kernel.packet_received(received, col, num_layers, packet)
                    if joins.any():
                        kernel.apply_joins(joins)
                        if track_advertised:
                            advertised[joins] = np.maximum(advertised[joins], levels[joins])
                        level_max = int(levels.max())
                        if level_max > max_level:
                            max_level = level_max

        return SessionSimulationResult(
            protocol=self.protocol.name,
            num_receivers=self.num_receivers,
            num_layers=num_layers,
            duration_units=self.duration_units,
            warmup_units=self.warmup_units,
            measured_units=measured_units,
            shared_link_packets=shared_link_packets,
            receiver_packets=receiver_packets,
            total_sender_packets=total_sender_packets,
            mean_subscription_level=level_sum / measured_units,
            mean_max_subscription_level=max_level_sum / measured_units,
            shared_loss_rate=self.shared_loss.average_loss_rate,
            independent_loss_rates=self._independent_loss_rates(),
            leave_latency=self.leave_latency,
        )

    # ------------------------------------------------------------------
    # chunked engine: one chunk of time units at a time
    # ------------------------------------------------------------------
    def _run_batched(
        self, runs: List[Tuple["LayeredSessionSimulator", "_RunContext"]]
    ) -> List[SessionSimulationResult]:
        """Chunked engine: one independently-seeded run per (simulator, context).

        Multiple runs are stacked as receiver blocks of one wide session —
        each block driven by its own generator and loss processes, so the
        per-run results match the solo runs bit for bit — and all per-run
        accounting is split back out per chunk.  The runs' simulators may
        differ in loss configuration and leave latency but must share this
        simulator's geometry (receivers, scheme, duration, warm-up) and its
        protocol instance drives all blocks.
        """
        num_runs = len(runs)
        receivers = self.num_receivers
        total_receivers = receivers * num_runs
        levels = np.ones(total_receivers, dtype=np.int64)
        receiver_latency = np.repeat(
            [simulator.leave_latency for simulator, _context in runs], receivers
        )
        # Advertisements outlive a warm-up chunk only when some run has a
        # leave latency; otherwise warm-up chunks need no carriage pass.
        advertising = bool((receiver_latency > 0).any())
        advertised = np.zeros(total_receivers, dtype=np.int64)
        advert_expiry = np.zeros(total_receivers, dtype=float)

        shared_link_packets = np.zeros(num_runs, dtype=np.int64)
        receiver_packets = np.zeros((num_runs, receivers), dtype=np.int64)
        # Per run: the sums of unit-start mean and max subscription levels.
        level_sums = np.zeros((num_runs, 2))
        measured_units = self.duration_units - self.warmup_units
        total_sender_packets = self.schedule.total_packets(self.duration_units)

        for start_unit, num_units, measuring in self._chunk_plan(total_receivers):
            chunk = self._assemble_chunk(runs, start_unit, num_units)
            start_levels = levels.copy()
            result = self.protocol.step_chunk(chunk, levels)
            events = (
                result.event_cols,
                result.event_receivers,
                result.event_old_levels,
                result.event_new_levels,
            )
            if measuring or advertising:
                carried = _carried_packets_group(
                    chunk, start_levels, *events,
                    receivers, receiver_latency, advertised, advert_expiry,
                )
            if measuring:
                shared_link_packets += carried
                receiver_packets += result.received.reshape(num_runs, receivers)
                # Accumulate the unit-start statistics in unit order, with
                # the same floats the reference loop adds: the per-run
                # reductions run over each run's contiguous receiver block,
                # and ``cumsum`` adds strictly in order, so the sums equal
                # the solo runs' bit for bit.
                boundary = _unit_start_levels(chunk, start_levels, *events).reshape(
                    chunk.num_units, num_runs, receivers
                )
                unit_stats = np.stack((boundary.mean(axis=2), boundary.max(axis=2)), axis=2)
                level_sums = np.concatenate((level_sums[None], unit_stats)).cumsum(axis=0)[-1]

        return [
            SessionSimulationResult(
                protocol=self.protocol.name,
                num_receivers=receivers,
                num_layers=self.scheme.num_layers,
                duration_units=self.duration_units,
                warmup_units=self.warmup_units,
                measured_units=measured_units,
                shared_link_packets=int(shared_link_packets[run]),
                receiver_packets=receiver_packets[run],
                total_sender_packets=total_sender_packets,
                mean_subscription_level=float(level_sums[run, 0]) / measured_units,
                mean_max_subscription_level=float(level_sums[run, 1]) / measured_units,
                shared_loss_rate=simulator.shared_loss.average_loss_rate,
                independent_loss_rates=simulator._independent_loss_rates(),
                leave_latency=simulator.leave_latency,
            )
            for run, (simulator, _context) in enumerate(runs)
        ]

    def _chunk_plan(self, total_rows: int) -> List[Tuple[int, int, bool]]:
        """(start_unit, num_units, measuring) chunks of a ``total_rows``-row
        scan, split at the warm-up boundary so every chunk is uniformly
        measured or unmeasured."""
        width = self.chunk_units
        if width is None:
            width = _default_chunk_units(total_rows, self.schedule.packets_per_unit)
        plan: List[Tuple[int, int, bool]] = []
        segments = (
            (0, self.warmup_units, False),
            (self.warmup_units, self.duration_units, True),
        )
        for low, high, measuring in segments:
            unit = low
            while unit < high:
                count = min(width, high - unit)
                plan.append((unit, count, measuring))
                unit += count
        return plan

    def _assemble_chunk(
        self,
        runs: List[Tuple["LayeredSessionSimulator", "_RunContext"]],
        start_unit: int,
        num_units: int,
    ) -> UnitChunk:
        """Pre-sample one chunk's randomness and package it for the scan.

        Each run's loss outcomes come from its own counter-based streams:
        every process is drawn for the whole chunk in one call, which by
        split invariance equals what the reference loop reads unit by unit
        from the same streams, and stacked runs preserve each run's solo
        stream exactly.
        """
        packets_per_unit = self.schedule.packets_per_unit
        static = self._chunk_static.get(num_units)
        if static is None:
            layers = np.tile(self.schedule.pattern_layers, num_units).astype(np.int16)
            cols_for_level = [
                np.nonzero(layers <= level)[0].astype(np.int32)
                for level in range(self.scheme.num_layers + 1)
            ]
            # observed_before[l, c]: packet columns before c a level-l
            # receiver can observe — the shared-link carriage prefix table.
            observed_before = np.zeros(
                (self.scheme.num_layers + 1, layers.size + 1), dtype=np.int64
            )
            for level in range(self.scheme.num_layers + 1):
                np.cumsum(layers <= level, out=observed_before[level, 1:])
            offsets = np.tile(self.schedule.pattern_offsets, num_units)
            static = (layers, cols_for_level, observed_before, offsets)
            self._chunk_static[num_units] = static
        layers, cols_for_level, observed_before, offsets = static

        num_runs = len(runs)
        receivers = self.num_receivers
        num_packets = num_units * packets_per_unit
        receivable_packed = bitpack.ones_rows(receivers * num_runs, num_packets)
        layer_masks_packed = self._packed_static.get(num_units)
        if layer_masks_packed is None:
            level_rows = np.arange(self.scheme.num_layers + 1, dtype=np.int16)
            layer_masks_packed = bitpack.pack_bits(
                layers[None, :] <= level_rows[:, None]
            )
            self._packed_static[num_units] = layer_masks_packed
        # Losses are sparse: clear each run's sampled positions (shared
        # columns plus independent (row, column) pairs, one fused scatter)
        # out of its pre-set block of packed ``receivable`` words.
        for run, (simulator, context) in enumerate(runs):
            shared_cols, rows, cols = simulator._loss_positions(
                context, num_units, packets_per_unit
            )
            if shared_cols.size or cols.size:
                block = receivable_packed[run * receivers:(run + 1) * receivers]
                bitpack.clear_cols_and_bits(block, shared_cols, rows, cols)

        # Mirror PacketSchedule.sync_levels_for_unit: level i may join at
        # units that are positive multiples of 2^(i-1).
        units = np.arange(start_unit, start_unit + num_units)
        periods = 2 ** np.arange(self.schedule.num_sync_levels, dtype=np.int64)
        marks = (units[:, None] % periods[None, :] == 0) & (units > 0)[:, None]
        with_sync = np.nonzero(marks.any(axis=1))[0]
        sync_cols = with_sync * packets_per_unit
        sync_ok = np.zeros((with_sync.size, self.scheme.num_layers + 2), dtype=bool)
        sync_ok[:, 1:self.schedule.num_sync_levels + 1] = marks[with_sync]

        # unit + offset in exactly the reference loop's operand order, so
        # leave-latency expiry comparisons see identical floats.
        times = np.repeat(
            np.arange(start_unit, start_unit + num_units, dtype=float), packets_per_unit
        ) + offsets

        # Packed rows cost one byte per 8 columns, so a large column
        # budget keeps the window matrices cache-sized: small stacks scan
        # multiple whole chunks' columns in one window, and even ~1000-row
        # sweep stacks get half-chunk windows — trading matrix bytes for
        # far fewer Python-level window establishments (purely a
        # performance knob).  The exact chain drain consumes every event of
        # a window in one pass with a single join-hook call, so windows
        # amortise better the wider they get until the clamp.
        scan_window = max(
            32,
            min(
                16 * self.scan_window_units * packets_per_unit,
                524288 // max(1, receivers * num_runs),
            ),
        )
        return UnitChunk(
            start_unit=start_unit,
            num_units=num_units,
            packets_per_unit=packets_per_unit,
            num_layers=self.scheme.num_layers,
            layers=layers,
            receivable_packed=receivable_packed,
            layer_masks_packed=layer_masks_packed,
            cols_for_level=cols_for_level,
            observed_before=observed_before,
            sync_cols=sync_cols,
            sync_ok=sync_ok,
            times=times,
            scan_window=scan_window,
        )


#: Packed loss bits (rows x packet columns) a default-width chunk spans.
CHUNK_BIT_BUDGET = 1 << 20
#: Bounds of the default chunk width in time units.  The floor keeps tall
#: stacks (a paper-scale Figure 8 sweep stacks 5,500 rows) from paying the
#: per-chunk steps every unit or two; the cap bounds the per-column tables
#: (``layers``, ``times``, ``cols_for_level``, ``observed_before``), which
#: do not shrink with the rows, for short and solo stacks.
MIN_CHUNK_UNITS = 8
MAX_CHUNK_UNITS = 64


def _default_chunk_units(total_rows: int, packets_per_unit: int) -> int:
    """Chunk width of a scan over ``total_rows`` stacked receiver rows.

    Every chunk costs a fixed number of Python-level steps — one
    loss-sampling call per run (per receiver for per-receiver processes),
    one scatter, the scan's set-up and the carriage accounting — so short
    stacks run fastest with wide chunks, while a chunk's packed loss words
    grow with its rows.  The width fills :data:`CHUNK_BIT_BUDGET` across
    the stack, clamped to ``[MIN_CHUNK_UNITS, MAX_CHUNK_UNITS]``.
    """
    width = CHUNK_BIT_BUDGET // (total_rows * packets_per_unit)
    return max(MIN_CHUNK_UNITS, min(MAX_CHUNK_UNITS, width))


def _unit_start_levels(
    chunk: UnitChunk,
    start_levels: np.ndarray,
    event_cols: np.ndarray,
    event_receivers: np.ndarray,
    event_old: np.ndarray,
    event_new: np.ndarray,
) -> np.ndarray:
    """Subscription levels at the start of each of the chunk's units."""
    num_units = chunk.num_units
    num_receivers = start_levels.size
    if event_cols.size == 0:
        return np.tile(start_levels, (num_units, 1))
    delta = event_new - event_old
    boundary = event_cols // chunk.packets_per_unit + 1
    keep = boundary < num_units
    accumulated = np.bincount(
        boundary[keep] * num_receivers + event_receivers[keep],
        weights=delta[keep],
        minlength=num_units * num_receivers,
    ).reshape(num_units, num_receivers)
    return start_levels[None, :] + accumulated.cumsum(axis=0).astype(np.int64)


def _leave_advertisements(
    times: np.ndarray,
    start_levels: np.ndarray,
    event_cols: np.ndarray,
    event_receivers: np.ndarray,
    event_old: np.ndarray,
    event_new: np.ndarray,
    receiver_latency: np.ndarray,
    advertised: np.ndarray,
    advert_expiry: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chunk's leave advertisements as ``(receiver, open, close, level)``.

    Replays the reference loop's lazily dropped advertisements from the
    chunk's level-change events, all receivers at once.  A leave at column
    ``c`` keeps advertising its pre-leave level from column ``c+1`` until
    its drop column: the first packet at or after ``times[c]`` plus the
    receiver's leave latency.  A later leave before that drop extends the
    advertisement into a chain whose level is the running max of the
    levels left, held until the chain's last drop — so every leave
    advertises its own level up to its chain's drop.  An advertisement
    still pending at the previous chunk's end (``advertised`` above the
    start level) opens its chain at column 0.  ``advertised`` and
    ``advert_expiry`` are updated in place to the chains still pending at
    this chunk's end (``advertised`` is 0 where none is).  Only non-empty
    advertisements are returned.
    """
    n = times.size
    leave = (event_new < event_old) & (receiver_latency[event_receivers] > 0)
    pending = np.nonzero(advertised > start_levels)[0]
    leavers = event_receivers[leave]
    receiver = np.concatenate((pending, leavers))
    col = np.concatenate((np.full(pending.size, -1), event_cols[leave]))
    level = np.concatenate((advertised[pending], event_old[leave]))
    expiry = np.concatenate(
        (advert_expiry[pending], times[event_cols[leave]] + receiver_latency[leavers])
    )
    advertised[:] = 0
    if receiver.size == 0:
        return receiver, col, col, level
    order = np.lexsort((col, receiver))
    receiver, col, level, expiry = receiver[order], col[order], level[order], expiry[order]
    drop = np.maximum(np.searchsorted(times, expiry), col + 1)
    # One receiver's drops never decrease (its latency is fixed), so a
    # chain's drop is its last leave's, and a leave extends the chain of
    # the leave before it iff it lands before that leave's drop.
    fresh = np.ones(receiver.size, dtype=bool)
    fresh[1:] = (receiver[1:] != receiver[:-1]) | (col[1:] >= drop[:-1])
    starts = np.nonzero(fresh)[0]
    ends = np.append(starts[1:], receiver.size) - 1
    close = drop[ends][np.cumsum(fresh) - 1]
    pending_at_end = drop[ends] >= n
    tails = ends[pending_at_end]
    advertised[receiver[tails]] = np.maximum.reduceat(level, starts)[pending_at_end]
    advert_expiry[receiver[tails]] = expiry[tails]
    opens = col + 1
    span = opens < close
    return receiver[span], opens[span], close[span], level[span]


def _carried_packets_group(
    chunk: UnitChunk,
    start_levels: np.ndarray,
    event_cols: np.ndarray,
    event_receivers: np.ndarray,
    event_old: np.ndarray,
    event_new: np.ndarray,
    receivers: int,
    receiver_latency: np.ndarray,
    advertised: np.ndarray,
    advert_expiry: np.ndarray,
) -> np.ndarray:
    """Per-run packets of the chunk carried by the shared link.

    The link carries a packet iff its layer is at most the run's carried
    level: the highest live subscription or pending leave advertisement
    (:func:`_leave_advertisements`, which also updates the carry-over
    state in place).  That level is the top non-empty bucket of the run's
    level-occupancy histogram, which changes only at boundary columns —
    one receiver moving between two levels after each event, one
    advertisement opening or closing — so each run's count is two lookups
    per boundary into the chunk's static ``observed_before`` prefix table
    instead of per-packet work.  All runs share one keyed unique/bincount
    pass over run-major (run, boundary) keys.
    """
    n = chunk.num_packets
    table = chunk.observed_before
    width = chunk.num_layers + 1
    num_runs = start_levels.size // receivers
    advert_receivers, opens, closes, advert_levels = _leave_advertisements(
        chunk.times, start_levels, event_cols, event_receivers, event_old, event_new,
        receiver_latency, advertised, advert_expiry,
    )
    # The occupancy of ``levels[i]`` in the run of receiver ``rows[i]``
    # changes by ``signs[i]`` from packet ``bounds[i]`` on.
    rows = np.concatenate((event_receivers, event_receivers, advert_receivers, advert_receivers))
    bounds = np.concatenate((event_cols + 1, event_cols + 1, opens, closes))
    levels = np.concatenate((event_old, event_new, advert_levels, advert_levels))
    signs = np.repeat([-1.0, 1.0, 1.0, -1.0], [event_cols.size] * 2 + [opens.size] * 2)
    inside = bounds < n
    # Every run gets a segment at packet 0, so the start levels need no
    # separate head piece.
    segment_keys, segment_of = np.unique(
        np.concatenate(
            (np.arange(num_runs) * n, (rows[inside] // receivers) * n + bounds[inside])
        ),
        return_inverse=True,
    )
    num_segments = segment_keys.size
    segment_runs, segment_bounds = np.divmod(segment_keys, n)
    deltas = np.bincount(
        segment_of[num_runs:] * width + levels[inside],
        weights=signs[inside],
        minlength=num_segments * width,
    ).reshape(num_segments, width)
    cumulative = np.zeros((num_segments + 1, width))
    np.cumsum(deltas, axis=0, out=cumulative[1:])
    run_start = np.nonzero(segment_bounds == 0)[0]
    start_occupancy = np.bincount(
        np.arange(num_runs).repeat(receivers) * width + start_levels,
        minlength=num_runs * width,
    ).reshape(num_runs, width)
    occupancy = (
        start_occupancy[segment_runs] + cumulative[1:] - cumulative[run_start[segment_runs]]
    )
    tops = width - 1 - (occupancy[:, ::-1] > 0).argmax(axis=1)
    # A segment ends where the next begins, or at the chunk end when the
    # next one is the following run's packet-0 segment.
    segment_ends = np.append(segment_bounds[1:], 0)
    segment_ends[segment_ends == 0] = n
    carried = table[tops, segment_ends] - table[tops, segment_bounds]
    return np.bincount(segment_runs, weights=carried, minlength=num_runs).astype(np.int64)


def simulate_session_group(
    simulators: Sequence[LayeredSessionSimulator],
    seeds: Sequence[Sequence[Optional[int]]],
) -> List[List[SessionSimulationResult]]:
    """Run several simulators' seeded repetitions, stacking what can stack.

    ``seeds[i]`` lists the seeds for ``simulators[i]``; the return value
    mirrors that shape, and every result is bit-for-bit what a solo run of
    ``simulators[i]`` with that seed gives.  This is the one place that
    decides which runs share a scan and then runs them: the (simulator,
    seed) pairs are partitioned by :func:`_stack_key`, and each partition
    rides one chunk scan — every run's receivers become an independent
    block of a wider session, driven by its own streams and loss
    processes — so a whole sweep (the Figure 8 loss grid, the burstiness
    burst lengths) shares the scan's per-iteration cost.  Runs that cannot
    stack (``engine="reference"``, protocols without chunk support, group
    protocols such as the active node) run solo.
    """
    if len(simulators) != len(seeds):
        raise SimulationError(
            f"need one seed list per simulator ({len(simulators)} != {len(seeds)})"
        )
    keys = [_stack_key(simulator) for simulator in simulators]
    partitions: Dict[tuple, List[int]] = {}
    flat: List[Tuple[LayeredSessionSimulator, Optional[int]]] = []
    for simulator, key, seed_list in zip(simulators, keys, seeds):
        for seed in seed_list:
            partitions.setdefault(key or ("solo", len(flat)), []).append(len(flat))
            flat.append((simulator, seed))
    results: List[Optional[SessionSimulationResult]] = [None] * len(flat)
    for members in partitions.values():
        runs = [
            (flat[index][0], flat[index][0]._make_run_context(flat[index][1]))
            for index in members
        ]
        lead, lead_context = runs[0]
        # One protocol instance drives every block of the stacked session.
        lead.protocol.reset(
            lead.num_receivers * len(runs), lead.scheme, lead_context.streams.protocol_rng
        )
        lead.protocol.bind_run_streams(
            [context.streams for _simulator, context in runs], lead.num_receivers
        )
        if lead.engine == "bitpacked" and lead.protocol.supports_batched_units:
            batch = lead._run_batched(runs)
        else:
            batch = [lead._run_reference(lead_context)]
        for index, result in zip(members, batch):
            results[index] = result
    grouped: List[List[SessionSimulationResult]] = []
    cursor = 0
    for seed_list in seeds:
        grouped.append(results[cursor:cursor + len(seed_list)])
        cursor += len(seed_list)
    return grouped


def _stack_key(simulator: LayeredSessionSimulator) -> Optional[tuple]:
    """What runs must share to ride one chunk scan; ``None`` runs solo.

    Only the ``bitpacked`` engine stacks, and only protocols with strictly
    per-receiver state; stacked runs may differ in their loss processes
    and leave latencies (and chunk size: the lead's is used) but share the
    session geometry and a behaviourally identical protocol.
    """
    protocol = simulator.protocol
    if not (
        simulator.engine == "bitpacked"
        and protocol.supports_batched_units
        and protocol.supports_stacked_runs
    ):
        return None
    schedule = simulator.schedule
    return (
        simulator.num_receivers,
        simulator.duration_units,
        simulator.warmup_units,
        protocol.stacking_key(),
        simulator.scheme.num_layers,
        schedule.pattern_layers.tobytes(),
        schedule.pattern_offsets.tobytes(),
        schedule.num_sync_levels,
    )


def simulate_layered_session(
    protocol: LayeredProtocol,
    num_receivers: int,
    shared_loss_rate: float,
    independent_loss_rate: float,
    num_layers: int = 8,
    duration_units: int = 800,
    warmup_units: Optional[int] = None,
    leave_latency: float = 0.0,
    seed: Optional[int] = None,
    engine: str = "bitpacked",
) -> SessionSimulationResult:
    """Convenience wrapper: Bernoulli losses, exponential layers, one run.

    This matches the Figure 8 setting: one shared Bernoulli loss rate and
    one independent Bernoulli loss rate applied to every fan-out link.
    """
    simulator = LayeredSessionSimulator(
        protocol=protocol,
        num_receivers=num_receivers,
        shared_loss=BernoulliLoss(shared_loss_rate) if shared_loss_rate > 0 else NoLoss(),
        independent_loss=BernoulliLoss(independent_loss_rate)
        if independent_loss_rate > 0
        else NoLoss(),
        scheme=ExponentialLayerScheme(num_layers),
        duration_units=duration_units,
        warmup_units=warmup_units,
        leave_latency=leave_latency,
        engine=engine,
    )
    return simulator.run(seed=seed)
