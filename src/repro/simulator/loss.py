"""Packet-loss processes used by the layered congestion-control simulator.

Section 4 models packet loss (equivalently, congestion marking) as a
Bernoulli process, arguing that on links carrying many flows there is little
correlation between an individual flow's rate and the link loss rate.  The
simulator therefore uses :class:`BernoulliLoss` for both the shared link and
the per-receiver fan-out links of the modified-star topologies.

A two-state :class:`GilbertElliottLoss` process is provided as an extension
for studying bursty loss (the paper cites the temporal-dependence
measurements of Yajnik et al. as motivation for the Bernoulli choice); it is
exercised by the burstiness ablation but not needed for Figure 8.

Every process here is *split-invariant* (see :class:`LossProcess`), which
is what lets the batched engine sample a whole chunk of time units in one
call while the reference loop samples the same stream unit by unit.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SimulationError

__all__ = ["LossProcess", "BernoulliLoss", "GilbertElliottLoss", "NoLoss"]


class LossProcess:
    """Interface: which of the next packets on a link are lost.

    Implementations may be stateful (e.g. Gilbert–Elliott), so a separate
    instance must be used per link.  :meth:`sample_positions` is the one
    sampling method: it returns the indices of the lost packets among the
    next ``n``, so the engines scatter a handful of loss positions instead
    of materialising dense per-packet outcome matrices.

    **Contract: sampling is split-invariant.**  Drawing ``n1 + n2``
    outcomes in one ``sample_positions`` call must produce the same losses
    as two calls of ``n1`` and ``n2`` on the same generator, for any
    partition of the packets into calls.  The engines rely on it: the
    batched engine samples a whole chunk of time units per call, the
    reference loop one unit per call, and seeded results must not depend on
    the engine or its chunk size.  Processes that sample in blocks carry
    their in-progress block across calls as state, and ``copy()`` resets it.
    """

    def sample_positions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Sorted indices (``int64``) of the lost packets among the next ``n``."""
        raise NotImplementedError

    @property
    def average_loss_rate(self) -> float:
        """Long-run fraction of packets lost (used for reporting)."""
        raise NotImplementedError

    def copy(self) -> "LossProcess":
        """A fresh, state-independent copy (per-link instances)."""
        raise NotImplementedError


class NoLoss(LossProcess):
    """A lossless link."""

    def sample_positions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.zeros(0, dtype=np.int64)

    @property
    def average_loss_rate(self) -> float:
        return 0.0

    def copy(self) -> "NoLoss":
        return NoLoss()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NoLoss()"


class BernoulliLoss(LossProcess):
    """Independent per-packet loss with fixed probability ``p``.

    Since RNG scheme 4 ``sample_positions`` samples the *gaps* between losses
    (geometrically distributed with parameter ``p``, drawn in fixed-size
    batches) instead of one uniform per packet, so the generator work is
    proportional to the number of losses rather than the number of
    scheduled packets — the dominant RNG cost of the Figure-8 sweeps
    through scheme 3.  The construction is the exact Bernoulli process:
    inter-loss gaps of a Bernoulli(p) sequence are i.i.d. geometric, and
    the in-progress gap carries across calls as process state, making the
    call sequence split-invariant bit for bit (the i-th gap batch holds
    the same values however the packets are partitioned into calls).
    ``copy()`` (used by the engines once per run) resets the carried gap.
    """

    #: Gaps drawn per refill.  Part of the scheme-4 stream layout: the
    #: batch size must not depend on the caller's array sizes, or the two
    #: engines' (differently-granular) calls would consume the stream
    #: differently.
    _GAP_BATCH = 2048

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(
                f"loss probability must lie in [0, 1], got {probability}"
            )
        self.probability = float(probability)
        # Upcoming loss indices relative to the next packet, and the last
        # queued index (-1 before the first draw).
        self._pending = np.zeros(0, dtype=np.int64)
        self._frontier = -1

    def sample_positions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.probability == 0.0:
            return np.zeros(0, dtype=np.int64)
        frontier = self._frontier
        queue = [self._pending]
        while frontier < n:
            gaps = np.cumsum(rng.geometric(self.probability, self._GAP_BATCH))
            gaps += frontier
            queue.append(gaps)
            frontier = int(gaps[-1])
        positions = queue[0] if len(queue) == 1 else np.concatenate(queue)
        cut = int(np.searchsorted(positions, n))
        self._pending = positions[cut:] - n
        self._frontier = frontier - n
        return positions[:cut]

    @property
    def average_loss_rate(self) -> float:
        return self.probability

    def copy(self) -> "BernoulliLoss":
        return BernoulliLoss(self.probability)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BernoulliLoss({self.probability})"


def _bernoulli_positions(
    rng: np.random.Generator, probability: float, total: int
) -> np.ndarray:
    """Loss positions of a Bernoulli(``probability``) process over ``total`` packets.

    Gap-sampled: geometric inter-loss gaps are drawn in blocks sized from
    the expected loss count (a function of the arguments alone, so the
    stream consumption is too) until they run past ``total``.
    """
    expected = probability * total
    block = int(expected + 4.0 * math.sqrt(expected)) + 16
    positions = np.cumsum(rng.geometric(probability, block)) - 1
    parts = [positions]
    last = int(positions[-1])
    while last < total:
        more = np.cumsum(rng.geometric(probability, block)) + last
        parts.append(more)
        last = int(more[-1])
    if len(parts) > 1:
        positions = np.concatenate(parts)
    return positions[: int(np.searchsorted(positions, total))]


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only so instances can share it."""
    array.setflags(write=False)
    return array


class GilbertElliottLoss(LossProcess):
    """Two-state bursty loss process (good/bad states with per-state loss rates).

    Parameters
    ----------
    p_good_to_bad, p_bad_to_good:
        Per-packet transition probabilities between the good and bad states.
    loss_good, loss_bad:
        Loss probability while in each state (classically 0 and 1).

    The chain starts in the good state; every packet first takes a
    transition, then draws its loss from the (new) state.  :meth:`sample`
    steps exactly that definition, one packet per call; it is the reference
    the sojourn construction is tested against, and the engines never call
    it.

    :meth:`sample_positions` (RNG scheme 5) builds the same process from
    *sojourns*.  The dwell in a Markov state is geometric, so the state
    sequence is a series of runs with geometric lengths, drawn
    ``_SOJOURN_BATCH`` at a time.  Inside a run the losses are a Bernoulli
    process at the state's loss rate: a rate of 0 clears nothing, a rate of
    1 clears the whole run, and any other rate is gap-sampled (one
    geometric draw per loss) over the batch's runs of that state laid end
    to end.  Sojourns and loss positions generated past the caller's ``n``
    carry over to the next call as process state, and a batch's content
    depends only on the state it starts from, so the outcomes are
    split-invariant bit for bit.  Work
    scales with state changes plus losses, not packets.  ``copy()`` resets
    the carried state; ``_in_bad_state`` is the chain state after the last
    consumed packet.
    """

    #: Sojourns drawn per refill.  Part of the scheme-5 stream layout: a
    #: refill's content must never depend on the caller's ``n``.
    _SOJOURN_BATCH = 256
    #: Packets one refill covers once the chain sits in an absorbing state
    #: (``p_good_to_bad == 0``: the good state is never left).
    _ABSORBING_SPAN = 4096
    #: Alternating per-sojourn states of a batch that starts in the good
    #: (index 0) or bad (index 1) state; read-only, shared by every instance.
    _BATCH_STATES = (
        _read_only(np.arange(_SOJOURN_BATCH) % 2 == 1),
        _read_only(np.arange(_SOJOURN_BATCH) % 2 == 0),
    )

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        for name, value in [
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ]:
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must lie in [0, 1], got {value}")
        if p_bad_to_good == 0.0 and p_good_to_bad > 0.0:
            raise SimulationError("the bad state must be escapable (p_bad_to_good > 0)")
        self.p_good_to_bad = float(p_good_to_bad)
        self.p_bad_to_good = float(p_bad_to_good)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        # Per-sojourn switch probabilities of each batch in _BATCH_STATES;
        # read-only, so copies share them.
        self._batch_switch = tuple(
            _read_only(np.where(states, self.p_bad_to_good, self.p_good_to_bad))
            for states in self._BATCH_STATES
        )
        self._reset()

    def _reset(self) -> None:
        """Start the chain afresh in the good state."""
        self._in_bad_state = False
        self._discard_carried()

    def _discard_carried(self) -> None:
        """Forget the generated sojourns and losses past the consumed packets.

        The chain is memoryless, so generating afresh from
        ``_in_bad_state`` continues the process exactly.
        """
        # Absolute packet indices: the next packet to consume and the end of
        # the generated sojourns.
        self._next = 0
        self._frontier = 0
        # Pending runs (absolute exclusive ends and states, the first one
        # holding the last consumed packet) and pending loss positions.
        self._run_ends = np.zeros(0, dtype=np.int64)
        self._run_bad = np.zeros(0, dtype=bool)
        self._losses = np.zeros(0, dtype=np.int64)
        # State of the last generated packet, and whether its sojourn is
        # complete (every refill but an absorbing one ends on a transition).
        self._tail_bad = self._in_bad_state
        self._tail_closed = False

    def sample(self, rng: np.random.Generator) -> bool:
        if self._frontier:
            self._discard_carried()
        # Transition first, then draw loss from the (new) state.
        if self._in_bad_state:
            if rng.random() < self.p_bad_to_good:
                self._in_bad_state = False
        else:
            if rng.random() < self.p_good_to_bad:
                self._in_bad_state = True
        self._tail_bad = self._in_bad_state
        loss_probability = self.loss_bad if self._in_bad_state else self.loss_good
        return bool(rng.random() < loss_probability)

    def sample_positions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n <= 0:
            return np.zeros(0, dtype=np.int64)
        start = self._next
        stop = start + n
        if self._frontier < stop:
            self._extend(rng, stop)
        losses = self._losses
        cut = int(np.searchsorted(losses, stop))
        self._losses = losses[cut:]
        # Zero-length runs never hold a packet: ``side="right"`` skips them.
        run = int(np.searchsorted(self._run_ends, stop - 1, side="right"))
        self._in_bad_state = bool(self._run_bad[run])
        self._run_ends = self._run_ends[run:]
        self._run_bad = self._run_bad[run:]
        self._next = stop
        return losses[:cut] - start

    def _extend(self, rng: np.random.Generator, stop: int) -> None:
        """Refill whole sojourn batches until they cover packet ``stop - 1``."""
        ends, bad, losses = [self._run_ends], [self._run_bad], [self._losses]
        while self._frontier < stop:
            batch_ends, batch_bad, batch_losses = self._refill(rng)
            ends.append(batch_ends)
            bad.append(batch_bad)
            losses.append(batch_losses)
        self._run_ends = np.concatenate(ends)
        self._run_bad = np.concatenate(bad)
        self._losses = np.concatenate(losses)

    def _refill(self, rng: np.random.Generator) -> tuple:
        """One batch of sojourns past the frontier: (run ends, run states, losses)."""
        # A complete tail sojourn is followed by a transition.
        state = self._tail_bad != self._tail_closed
        if not state and self.p_good_to_bad == 0.0:
            # Absorbing: the chain never leaves the good state.
            lengths = np.array([self._ABSORBING_SPAN], dtype=np.int64)
            states = np.array([state])
            self._tail_closed = False
        else:
            lengths = rng.geometric(self._batch_switch[state])
            states = self._BATCH_STATES[state]
            if not self._tail_closed:
                # The sojourn in progress already holds the last generated
                # packet: by memorylessness one fewer than a fresh dwell
                # remains (possibly none).
                lengths[0] -= 1
            self._tail_closed = True
        self._tail_bad = bool(states[-1])
        ends = self._frontier + np.cumsum(lengths)
        self._frontier = int(ends[-1])
        starts = ends - lengths
        lost = []
        for bad, rate in ((False, self.loss_good), (True, self.loss_bad)):
            if rate == 0.0:
                continue
            mine = states == bad
            run_lengths = lengths[mine]
            # This state's runs laid end to end on a virtual time line.
            virtual_ends = np.cumsum(run_lengths)
            total = int(virtual_ends[-1]) if virtual_ends.size else 0
            if total == 0:
                continue
            shift = starts[mine] - (virtual_ends - run_lengths)
            if rate == 1.0:
                lost.append(np.repeat(shift, run_lengths) + np.arange(total))
            else:
                virtual = _bernoulli_positions(rng, rate, total)
                run = np.searchsorted(virtual_ends, virtual, side="right")
                lost.append(virtual + shift[run])
        if not lost:
            positions = np.zeros(0, dtype=np.int64)
        elif len(lost) == 1:
            positions = lost[0]
        else:
            positions = np.sort(np.concatenate(lost))
        return ends, states, positions

    @property
    def average_loss_rate(self) -> float:
        denominator = self.p_good_to_bad + self.p_bad_to_good
        if denominator == 0.0:
            stationary_bad = 0.0
        else:
            stationary_bad = self.p_good_to_bad / denominator
        return stationary_bad * self.loss_bad + (1.0 - stationary_bad) * self.loss_good

    def copy(self) -> "GilbertElliottLoss":
        # Same validated parameters and shared read-only switch arrays: only
        # the chain state is new.
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._reset()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GilbertElliottLoss(g2b={self.p_good_to_bad}, b2g={self.p_bad_to_good}, "
            f"loss_good={self.loss_good}, loss_bad={self.loss_bad})"
        )
