"""Max-min fair allocation construction (Appendix A of the paper).

The paper's construction algorithm water-fills receiver rates: starting from
zero, the rates of all "active" receivers are raised uniformly as far as
feasibility allows; a receiver becomes inactive (its rate is frozen) once

* it reaches its session's maximum desired rate ``rho_i`` (folded with
  the rate above which the session's link-rate function is flat, see
  :func:`_session_max_rates`), or
* some link on its data-path becomes fully utilised, or
* it belongs to a single-rate session in which another receiver has been
  frozen (keeping all rates of the session identical).

The construction works for any session-type mapping ``sigma`` (mixes of
single-rate, multi-rate, and unicast sessions) and — following Section 3.1 —
for arbitrary monotone session link-rate functions ``v_i`` with
``v_i(X) >= max(X)``, which is how redundancy enters the fair allocation
(Lemma 4, Figures 4 and 6).

The resulting allocation is the unique max-min fair allocation for the
network (Lemma 5 / Corollary 5 of the technical report); tests verify
max-min fairness directly against the definition on randomised networks.

Three solvers implement the construction, chosen by ``method`` and, for
``method="vectorized"``, by problem size (receivers + links + pairs):

* ``method="reference"`` — the original dict/set state, kept as the
  executable specification.  It also carries the optional per-receiver
  weights of the Section-5 weighted extension
  (:func:`repro.core.weighted.weighted_max_min_fair_allocation`).
* ``method="vectorized"`` (the default) on problems of at most
  ``_SCALAR_ENGINE_CUTOFF`` — a scalar twin over plain lists, because
  NumPy's per-operation overhead dominates on small index sets.
* ``method="vectorized"`` above the cutoff — a NumPy state machine over the
  network's cached :class:`~repro.network.incidence.NetworkIncidence` CSR
  arrays.

Both twins maintain link loads *incrementally*: every linear
``(session, link)`` pair contributes ``factor * level`` through a per-link
slope while it has active receivers, and is folded into a constant per-link
frozen load exactly once, when its last downstream receiver freezes.  Only
links touched by newly-frozen receivers are updated.  Sessions whose
link-rate function does not advertise a linear ``redundancy_factor`` fall
back to per-link bisection (:func:`_bisect_increment`, shared by all three
solvers).  Randomised equivalence tests assert that the solvers produce the
same allocations and freeze order (``tests/core/test_maxmin_equivalence.py``)
and a solver-independent certificate checks each against the definition
(``tests/core/test_maxmin_oracle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

import numpy as np

from ..errors import FairnessComputationError
from ..network.incidence import csr_gather
from ..network.network import LinkRateFunction, Network
from ..network.session import ReceiverId
from .allocation import Allocation, DEFAULT_TOLERANCE
from .redundancy import efficient_link_rate, flat_rate

__all__ = ["max_min_fair_allocation", "MaxMinTrace", "MaxMinStep", "WATER_FILL_METHODS"]

#: Valid values of the ``method`` argument of :func:`max_min_fair_allocation`.
WATER_FILL_METHODS = ("vectorized", "reference")

#: Below this problem size (receivers + links + pairs) the ``vectorized``
#: method runs its scalar twin: NumPy's per-operation overhead exceeds the
#: cost of plain-float loops on such small index sets.  Chosen empirically
#: on the ``test_bench_water_filling_scaling`` workloads.
_SCALAR_ENGINE_CUTOFF = 1200


@dataclass(frozen=True)
class MaxMinStep:
    """One iteration of the water-filling construction (for tracing/debugging)."""

    level: float
    increment: float
    frozen_receivers: Tuple[ReceiverId, ...]
    saturated_links: Tuple[int, ...]


@dataclass
class MaxMinTrace:
    """Optional record of the water-filling iterations."""

    steps: List[MaxMinStep] = field(default_factory=list)

    @property
    def num_iterations(self) -> int:
        return len(self.steps)


def max_min_fair_allocation(
    network: Network,
    link_rate_functions: Optional[Mapping[int, LinkRateFunction]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    trace: Optional[MaxMinTrace] = None,
    method: str = "vectorized",
) -> Allocation:
    """Compute the max-min fair allocation of receiver rates for a network.

    Parameters
    ----------
    network:
        The network (graph, sessions with types and ``rho_i``, routing).
    link_rate_functions:
        Optional per-session link-rate functions ``v_i`` overriding the
        network's own functions; sessions without a function use the
        efficient link rate ``max``.
    tolerance:
        Numerical tolerance used for saturation and ``rho`` tests.
    trace:
        When supplied, the water-filling steps are appended to it.
    method:
        ``"vectorized"`` (default) for the NumPy engine or ``"reference"``
        for the original dict/set implementation (see module docstring).

    Returns
    -------
    Allocation
        The (unique) max-min fair allocation, evaluated under the same
        link-rate functions.
    """
    if method not in WATER_FILL_METHODS:
        raise ValueError(
            f"unknown water-filling method {method!r}; expected one of {WATER_FILL_METHODS}"
        )
    functions = _merged_link_rate_functions(network, link_rate_functions)

    state: _State
    if method == "vectorized":
        incidence = network.incidence()
        problem_size = (
            incidence.num_receivers + incidence.num_links + incidence.num_pairs
        )
        if problem_size <= _SCALAR_ENGINE_CUTOFF:
            state = _ScalarWaterFillState(network, functions, tolerance)
        else:
            state = _VectorizedWaterFillState(network, functions, tolerance)
    else:
        state = _WaterFillState(network, functions, tolerance)
    return Allocation(network, _water_fill(state, network, tolerance, trace), functions)


def _merged_link_rate_functions(
    network: Network, overrides: Optional[Mapping[int, LinkRateFunction]]
) -> Dict[int, LinkRateFunction]:
    """The network's link-rate functions with ``overrides`` applied on top."""
    functions: Dict[int, LinkRateFunction] = dict(network.link_rate_functions)
    if overrides:
        functions.update(overrides)
    return functions


def _session_max_rates(
    network: Network, functions: Mapping[int, LinkRateFunction]
) -> List[float]:
    """Each session's effective ``rho``: ``min(rho_i, flat rate of v_i)``.

    Above its flat rate (:func:`repro.core.redundancy.flat_rate`) a link-rate
    function adds no load, so no link can saturate there and the receiver
    could never freeze.  A receiver cannot take more than the layer offers,
    so its fair rate tops out at that rate.  Functions that declare no flat
    rate leave ``rho_i`` unchanged.  Indexed by session id; every solver
    state computes this once, on construction.
    """
    return [
        min(session.max_rate, flat_rate(functions.get(session.session_id, efficient_link_rate)))
        for session in network.sessions
    ]


def _water_fill(
    state: "_State",
    network: Network,
    tolerance: float,
    trace: Optional[MaxMinTrace] = None,
) -> Dict[ReceiverId, float]:
    """Run the Appendix-A iteration on ``state`` until every receiver is frozen."""
    iteration_limit = 4 * (network.num_receivers + network.num_links) + 16
    iterations = 0
    while state.has_active:
        iterations += 1
        if iterations > iteration_limit:
            raise FairnessComputationError(
                "water-filling did not converge within "
                f"{iteration_limit} iterations (numerical issue?)"
            )
        increment = state.compute_increment()
        state.apply_increment(increment)
        frozen, saturated = state.freeze_receivers()
        if trace is not None:
            trace.steps.append(
                MaxMinStep(
                    level=state.level,
                    increment=increment,
                    frozen_receivers=tuple(sorted(frozen)),
                    saturated_links=tuple(sorted(saturated)),
                )
            )
        if not frozen and increment <= tolerance:
            raise FairnessComputationError(
                "water-filling stalled: no progress and no receiver frozen"
            )
    return state.final_rates()


def _bisect_increment(rate_at, level: float, capacity: float, upper: float) -> float:
    """Largest increment keeping ``rate_at(level + d) <= capacity`` for d in [0, upper].

    Shared by all engines (reference, NumPy, scalar) so the bisection
    semantics cannot drift between them; ``rate_at`` evaluates one link's
    rate at a hypothetical active-receiver level.
    """
    if upper <= 0:
        return 0.0
    x_hi = level + upper
    if rate_at(x_hi) <= capacity:
        return upper
    # Once ``mid`` is small against ``level``, ``level + mid`` often rounds to
    # the last point that fit (``x_lo``) or did not (``x_hi``).  ``rate_at``
    # depends on its argument alone, so the outcome is known and the call is
    # skipped; ``lo`` and ``hi`` take the same 80 steps, so the result is
    # bit-identical.
    x_lo = None
    lo, hi = 0.0, upper
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        x = level + mid
        if x == x_hi:
            hi = mid
        elif x == x_lo:
            lo = mid
        elif rate_at(x) <= capacity:
            lo, x_lo = mid, x
        else:
            hi, x_hi = mid, x
    return lo


class _WaterFillState:
    """Reference (dict/set) state of the Appendix-A water-filling construction.

    Invariant: every active receiver ``r`` holds ``w_r * self.level``, where
    ``w_r`` is its weight (1 unless ``weights`` is given, see
    :mod:`repro.core.weighted`); frozen receivers keep the rate at which
    they were frozen, which never exceeds that.
    """

    def __init__(
        self,
        network: Network,
        functions: Mapping[int, LinkRateFunction],
        tolerance: float,
        weights: Optional[Mapping[ReceiverId, float]] = None,
    ) -> None:
        self.network = network
        self.functions = functions
        self.tolerance = tolerance
        self.level = 0.0
        self.rates: Dict[ReceiverId, float] = {
            rid: 0.0 for rid in network.all_receiver_ids()
        }
        self.active: Set[ReceiverId] = set(self.rates.keys())
        self.weights: Dict[ReceiverId, float] = dict.fromkeys(self.rates, 1.0)
        if weights is not None:
            self.weights.update(weights)
        # Linear link loads grow by a closed-form slope only when every
        # active receiver moves with the level itself.
        self.unit_weights = all(w == 1.0 for w in self.weights.values())
        self.max_rates = _session_max_rates(network, functions)
        # Pre-compute, per link, which sessions have receivers there and the
        # receiver sets R_{i,j}; only links on some data-path matter.
        self.relevant_links: List[int] = sorted(network.routing.links_used())
        self.downstream: Dict[Tuple[int, int], Tuple[ReceiverId, ...]] = {}
        for link_id in self.relevant_links:
            for session_id in network.sessions_on_link(link_id):
                receivers = network.receivers_of_session_on_link(session_id, link_id)
                self.downstream[(session_id, link_id)] = tuple(sorted(receivers))

    @property
    def has_active(self) -> bool:
        return bool(self.active)

    def final_rates(self) -> Dict[ReceiverId, float]:
        return self.rates

    # ------------------------------------------------------------------
    # link-rate evaluation
    # ------------------------------------------------------------------
    def _function(self, session_id: int) -> LinkRateFunction:
        return self.functions.get(session_id, efficient_link_rate)

    def _session_link_rate_at(
        self, session_id: int, link_id: int, active_rate: float
    ) -> float:
        """``u_{i,j}`` when the level is (hypothetically) ``active_rate``."""
        receivers = self.downstream.get((session_id, link_id), ())
        if not receivers:
            return 0.0
        rates = [
            self.weights[rid] * active_rate if rid in self.active else self.rates[rid]
            for rid in receivers
        ]
        return self._function(session_id)(rates)

    def _link_rate_at(self, link_id: int, active_rate: float) -> float:
        total = 0.0
        for session_id in self.network.sessions_on_link(link_id):
            total += self._session_link_rate_at(session_id, link_id, active_rate)
        return total

    def _link_has_active(self, link_id: int) -> bool:
        for session_id in self.network.sessions_on_link(link_id):
            for rid in self.downstream.get((session_id, link_id), ()):
                if rid in self.active:
                    return True
        return False

    def _link_slope(self, link_id: int) -> Optional[float]:
        """Exact growth rate of ``u_j`` per unit of level, when all ``v_i`` are linear.

        Returns ``None`` when some session on the link uses a link-rate
        function without a declared ``redundancy_factor``, or when receivers
        carry non-unit weights (the caller then falls back to bisection).
        """
        if not self.unit_weights:
            return None
        slope = 0.0
        for session_id in self.network.sessions_on_link(link_id):
            receivers = self.downstream.get((session_id, link_id), ())
            if not any(rid in self.active for rid in receivers):
                continue
            function = self._function(session_id)
            factor = getattr(function, "redundancy_factor", None)
            if factor is None:
                return None
            slope += float(factor)
        return slope

    # ------------------------------------------------------------------
    # increment computation
    # ------------------------------------------------------------------
    def compute_increment(self) -> float:
        """Largest uniform rate increase for all active receivers (step 3)."""
        bound = self._rho_bound()
        for link_id in self.relevant_links:
            if not self._link_has_active(link_id):
                continue
            capacity = self.network.link_capacity(link_id)
            current = self._link_rate_at(link_id, self.level)
            headroom = capacity - current
            if headroom <= 0:
                return 0.0
            slope = self._link_slope(link_id)
            if slope is not None:
                if slope > 0:
                    bound = min(bound, headroom / slope)
            else:
                bound = min(bound, self._bisect_link(link_id, capacity, bound))
        return max(bound, 0.0)

    def _rho_bound(self) -> float:
        """Increment bound imposed by the sessions' maximum desired rates."""
        bound = math.inf
        for rid in self.active:
            rho = self.max_rates[rid[0]]
            if math.isfinite(rho):
                bound = min(bound, rho / self.weights[rid] - self.level)
        if math.isinf(bound):
            # No rho constraint: receiver rates are still bounded by the
            # largest capacity in the network, which caps the search space.
            max_capacity = max(
                self.network.link_capacity(j) for j in self.relevant_links
            )
            min_weight = min(self.weights[rid] for rid in self.active)
            bound = max(max_capacity / min_weight - self.level, 0.0)
        return bound

    def _bisect_link(self, link_id: int, capacity: float, upper: float) -> float:
        """Largest increment keeping ``u_j <= c_j`` for a non-linear ``v_i``."""
        return _bisect_increment(
            lambda rate: self._link_rate_at(link_id, rate), self.level, capacity, upper
        )

    # ------------------------------------------------------------------
    # state updates
    # ------------------------------------------------------------------
    def apply_increment(self, increment: float) -> None:
        """Raise the level by ``increment`` and the active rates with it (steps 4-5)."""
        self.level += increment
        for rid in self.active:
            self.rates[rid] = self.weights[rid] * self.level

    def freeze_receivers(self) -> Tuple[Set[ReceiverId], Set[int]]:
        """Freeze receivers at rho or on saturated links; propagate to single-rate mates."""
        saturated: Set[int] = set()
        for link_id in self.relevant_links:
            capacity = self.network.link_capacity(link_id)
            if self._link_rate_at(link_id, self.level) >= capacity - self.tolerance * max(
                1.0, capacity
            ):
                saturated.add(link_id)

        frozen: Set[ReceiverId] = set()
        for rid in list(self.active):
            rho = self.max_rates[rid[0]]
            at_rho = math.isfinite(rho) and self.rates[rid] >= rho - self.tolerance * max(1.0, rho)
            on_saturated = any(
                link_id in saturated for link_id in self.network.data_path(rid)
            )
            if at_rho or on_saturated:
                frozen.add(rid)

        # Step 7: a single-rate session freezes as a unit.
        changed = True
        while changed:
            changed = False
            for rid in list(self.active):
                if rid in frozen:
                    continue
                session = self.network.session(rid[0])
                if not session.is_single_rate:
                    continue
                mates = set(session.receiver_ids)
                if any(
                    (mate in frozen) or (mate not in self.active)
                    for mate in mates
                    if mate != rid
                ):
                    frozen.add(rid)
                    changed = True

        self.active -= frozen
        return frozen, saturated


class _VectorizedWaterFillState:
    """NumPy state of the water-filling construction (see module docstring).

    The structural arrays come from the network's cached
    :class:`~repro.network.incidence.NetworkIncidence`; only the per-call
    state (activity masks, frozen rates, incremental link aggregates) lives
    here.  Per iteration, the total load of link ``j`` at hypothetical level
    ``x`` is::

        u_j(x) = frozen_load_j + slope_j * x + sum of active non-linear pairs

    where ``slope_j`` sums the ``redundancy_factor`` of the link's linear
    pairs that still have active downstream receivers, and ``frozen_load_j``
    accumulates each pair's final contribution the moment its last receiver
    freezes.  For a linear pair with an active receiver the downstream
    maximum is exactly the current level (frozen rates never exceed it), so
    this reproduces the reference computation without touching the
    downstream sets after initialisation.
    """

    def __init__(
        self,
        network: Network,
        functions: Mapping[int, LinkRateFunction],
        tolerance: float,
    ) -> None:
        self.network = network
        self.functions = functions
        self.tolerance = tolerance
        self.level = 0.0

        inc = network.incidence()
        self.inc = inc
        num_receivers = inc.num_receivers
        num_links = inc.num_links
        num_pairs = inc.num_pairs

        self.active_mask = np.ones(num_receivers, dtype=bool)
        self.num_active = num_receivers
        self.rates = np.zeros(num_receivers, dtype=np.float64)

        # Per-pair link-rate functions; linear ones advertise their slope.
        self.pair_function: List[LinkRateFunction] = [
            functions.get(int(sid), efficient_link_rate) for sid in inc.pair_session
        ]
        factors = np.full(num_pairs, np.nan, dtype=np.float64)
        for pair, function in enumerate(self.pair_function):
            factor = getattr(function, "redundancy_factor", None)
            if factor is not None:
                factors[pair] = float(factor)
        self.pair_factor = factors
        self.linear_mask = ~np.isnan(factors)
        self.nonlinear_idx = np.nonzero(~self.linear_mask)[0]

        self.pair_active_count = inc.base_pair_counts.copy()
        self.link_pair_ptr = inc.link_pair_ptr

        # Incremental aggregates (updated only for links touched by freezes).
        self.link_slope = np.bincount(
            inc.pair_link[self.linear_mask],
            weights=factors[self.linear_mask],
            minlength=num_links,
        )
        self.link_frozen_load = np.zeros(num_links, dtype=np.float64)

        self.session_active_count = inc.session_receiver_count.copy()
        self.has_nonlinear = bool(self.nonlinear_idx.size)
        self.session_max_rate = np.array(
            _session_max_rates(network, functions), dtype=np.float64
        )
        self.any_finite_rho = bool(np.isfinite(self.session_max_rate).any())

        # Per-receiver rho thresholds (freeze test vectorised over receivers).
        rho = self.session_max_rate[inc.receiver_session]
        self.rcv_rho_finite = np.isfinite(rho)
        with np.errstate(invalid="ignore"):
            self.rcv_rho_threshold = rho - tolerance * np.maximum(1.0, rho)
        self.rcv_single_rate = inc.session_single_rate[inc.receiver_session]

        self.saturation_threshold = inc.capacities - tolerance * np.maximum(
            1.0, inc.capacities
        )
        self._pair_scratch = np.zeros(num_pairs, dtype=bool)
        # Link loads at the current level, reused between the freeze pass of
        # one iteration and the increment computation of the next (the level
        # does not change in between).
        self._link_rates_cache: Optional[np.ndarray] = None

    @property
    def has_active(self) -> bool:
        return self.num_active > 0

    def final_rates(self) -> Dict[ReceiverId, float]:
        return {
            rid: float(rate) for rid, rate in zip(self.inc.receiver_ids, self.rates)
        }

    # ------------------------------------------------------------------
    # link-rate evaluation
    # ------------------------------------------------------------------
    def _active_nonlinear_pairs(self) -> np.ndarray:
        if not self.has_nonlinear:
            return self.nonlinear_idx
        return self.nonlinear_idx[self.pair_active_count[self.nonlinear_idx] > 0]

    def _nonlinear_pair_rate(self, pair: int, active_rate: float) -> float:
        members = self.inc.pair_members(pair)
        values = np.where(self.active_mask[members], active_rate, self.rates[members])
        return float(self.pair_function[pair](values))

    def _link_rates_at(self, active_rate: float) -> np.ndarray:
        """``u_j`` for every relevant link with active receivers at ``active_rate``."""
        rates = self.link_frozen_load + self.link_slope * active_rate
        if self.has_nonlinear:
            for pair in self._active_nonlinear_pairs():
                rates[self.inc.pair_link[pair]] += self._nonlinear_pair_rate(
                    int(pair), active_rate
                )
        return rates

    def _single_link_rate_at(self, link: int, active_rate: float) -> float:
        """``u_j`` of one compact link at hypothetical ``active_rate`` (bisection)."""
        total = self.link_frozen_load[link] + self.link_slope[link] * active_rate
        for pair in range(self.link_pair_ptr[link], self.link_pair_ptr[link + 1]):
            if not self.linear_mask[pair] and self.pair_active_count[pair] > 0:
                total += self._nonlinear_pair_rate(pair, active_rate)
        return float(total)

    # ------------------------------------------------------------------
    # increment computation
    # ------------------------------------------------------------------
    def compute_increment(self) -> float:
        bound = self._rho_bound()
        has_active_pair = self.pair_active_count > 0
        link_active = np.zeros(self.inc.num_links, dtype=bool)
        link_active[self.inc.pair_link[has_active_pair]] = True

        if self._link_rates_cache is not None:
            current = self._link_rates_cache
        else:
            current = self._link_rates_at(self.level)
        headroom = self.inc.capacities - current
        if bool(np.any(link_active & (headroom <= 0.0))):
            return 0.0

        nonlinear_active = self._active_nonlinear_pairs()
        if nonlinear_active.size:
            nonlinear_links = np.unique(self.inc.pair_link[nonlinear_active])
            nonlinear_link_mask = np.zeros(self.inc.num_links, dtype=bool)
            nonlinear_link_mask[nonlinear_links] = True
            linear_links = link_active & ~nonlinear_link_mask & (self.link_slope > 0)
        else:
            nonlinear_links = nonlinear_active  # empty
            linear_links = link_active & (self.link_slope > 0)

        if linear_links.any():
            bound = min(
                bound,
                float((headroom[linear_links] / self.link_slope[linear_links]).min()),
            )
        for link in nonlinear_links:
            bound = min(
                bound,
                self._bisect_link(int(link), float(self.inc.capacities[link]), bound),
            )
        return max(bound, 0.0)

    def _rho_bound(self) -> float:
        if self.any_finite_rho:
            active_sessions = self.session_active_count > 0
            rhos = self.session_max_rate[active_sessions]
            finite = rhos[np.isfinite(rhos)]
            if finite.size:
                return float(finite.min()) - self.level
        return max(self.inc.max_capacity - self.level, 0.0)

    def _bisect_link(self, link: int, capacity: float, upper: float) -> float:
        """Largest increment keeping ``u_j <= c_j`` for a non-linear ``v_i``."""
        return _bisect_increment(
            lambda rate: self._single_link_rate_at(link, rate), self.level, capacity, upper
        )

    # ------------------------------------------------------------------
    # state updates
    # ------------------------------------------------------------------
    def apply_increment(self, increment: float) -> None:
        # Active receivers' rates are implicitly the level; they are
        # materialised into ``self.rates`` when the receiver freezes.
        self.level += increment
        self._link_rates_cache = None

    def freeze_receivers(self) -> Tuple[Set[ReceiverId], Set[int]]:
        inc = self.inc
        current = self._link_rates_at(self.level)
        saturated_mask = current >= self.saturation_threshold

        if self.any_finite_rho:
            at_rho = self.rcv_rho_finite & (self.level >= self.rcv_rho_threshold)
        else:
            at_rho = None
        if saturated_mask.any():
            on_saturated = inc.receivers_on_links(np.nonzero(saturated_mask)[0])
            frozen_test = on_saturated if at_rho is None else (at_rho | on_saturated)
            newly = self.active_mask & frozen_test
        elif at_rho is not None:
            newly = self.active_mask & at_rho
        else:
            newly = np.zeros(len(self.active_mask), dtype=bool)

        if newly.any():
            # A single-rate session freezes as a unit: one pass suffices
            # because all receivers start active and the propagation is
            # intra-session, so active single-rate sessions are always
            # all-active.
            session_hit = np.zeros(len(self.session_max_rate), dtype=bool)
            session_hit[inc.receiver_session[newly]] = True
            newly = newly | (
                self.active_mask
                & self.rcv_single_rate
                & session_hit[inc.receiver_session]
            )

        frozen_idx = np.nonzero(newly)[0]
        if frozen_idx.size:
            self.rates[frozen_idx] = self.level
            self.active_mask[frozen_idx] = False
            self.num_active -= int(frozen_idx.size)
            np.subtract.at(
                self.session_active_count, inc.receiver_session[frozen_idx], 1
            )
            # Update only the pairs (and hence links) the frozen receivers
            # touch; everything else keeps its incremental aggregates.
            touched = csr_gather(inc.receiver_pair_ptr, inc.receiver_pairs, frozen_idx)
            if touched.size:
                np.subtract.at(self.pair_active_count, touched, 1)
                # Deduplicate via a reusable scratch mask (cheaper than the
                # sort inside np.unique for these small index sets).
                self._pair_scratch[touched] = True
                candidates = np.nonzero(self._pair_scratch)[0]
                self._pair_scratch[candidates] = False
                drained = candidates[self.pair_active_count[candidates] == 0]
                if drained.size:
                    linear = drained[self.linear_mask[drained]]
                    if linear.size:
                        # The pair's downstream maximum is the current level:
                        # its last receiver froze at exactly this level.
                        np.subtract.at(
                            self.link_slope, inc.pair_link[linear], self.pair_factor[linear]
                        )
                        np.add.at(
                            self.link_frozen_load,
                            inc.pair_link[linear],
                            self.pair_factor[linear] * self.level,
                        )
                    for pair in drained[~self.linear_mask[drained]]:
                        self.link_frozen_load[inc.pair_link[pair]] += (
                            self._nonlinear_pair_rate(int(pair), self.level)
                        )

        # A drained pair's contribution at the current level is unchanged by
        # the slope -> frozen-load hand-off (factor * level either way), so
        # the link loads remain valid for the next increment computation.
        self._link_rates_cache = current

        frozen_ids = {inc.receiver_ids[int(i)] for i in frozen_idx}
        saturated_ids = {
            inc.relevant_links[int(c)] for c in np.nonzero(saturated_mask)[0]
        }
        return frozen_ids, saturated_ids


class _ScalarWaterFillState:
    """Scalar twin of :class:`_VectorizedWaterFillState` for small networks.

    Identical algorithm and incremental link aggregates, but plain Python
    floats/lists over the incidence's cached :class:`ScalarIncidenceView`.
    Selected automatically by ``method="vectorized"`` below
    ``_SCALAR_ENGINE_CUTOFF`` (see module docstring).
    """

    def __init__(
        self,
        network: Network,
        functions: Mapping[int, LinkRateFunction],
        tolerance: float,
    ) -> None:
        self.network = network
        self.tolerance = tolerance
        self.level = 0.0

        inc = network.incidence()
        self.inc = inc
        view = inc.scalar_view()
        self.view = view
        num_receivers = inc.num_receivers
        num_links = inc.num_links
        num_pairs = inc.num_pairs

        self.active = [True] * num_receivers
        self.num_active = num_receivers
        self.rates = [0.0] * num_receivers

        self.pair_function: List[LinkRateFunction] = [
            functions.get(sid, efficient_link_rate) for sid in view.pair_session
        ]
        self.pair_factor: List[Optional[float]] = []
        for function in self.pair_function:
            factor = getattr(function, "redundancy_factor", None)
            self.pair_factor.append(None if factor is None else float(factor))

        self.pair_active_count = [len(members) for members in view.pair_members]
        self.link_slope = [0.0] * num_links
        self.link_frozen_load = [0.0] * num_links
        self.link_active_pairs = [0] * num_links
        self.link_nonlinear_active = [0] * num_links
        self.has_nonlinear = False
        for pair in range(num_pairs):
            link = view.pair_link[pair]
            self.link_active_pairs[link] += 1
            factor = self.pair_factor[pair]
            if factor is None:
                self.link_nonlinear_active[link] += 1
                self.has_nonlinear = True
            else:
                self.link_slope[link] += factor

        self.session_active_count = inc.session_receiver_count.tolist()
        self.session_max_rate = _session_max_rates(network, functions)
        self.any_finite_rho = any(math.isfinite(rho) for rho in self.session_max_rate)
        self.session_rho_threshold: List[Optional[float]] = []
        for rho in self.session_max_rate:
            if math.isfinite(rho):
                self.session_rho_threshold.append(rho - tolerance * max(1.0, rho))
            else:
                self.session_rho_threshold.append(None)
        self.saturation_threshold = [
            capacity - tolerance * max(1.0, capacity) for capacity in view.capacities
        ]

    @property
    def has_active(self) -> bool:
        return self.num_active > 0

    def final_rates(self) -> Dict[ReceiverId, float]:
        return dict(zip(self.inc.receiver_ids, self.rates))

    # ------------------------------------------------------------------
    # link-rate evaluation
    # ------------------------------------------------------------------
    def _nonlinear_pair_rate(self, pair: int, active_rate: float) -> float:
        values = [
            active_rate if self.active[member] else self.rates[member]
            for member in self.view.pair_members[pair]
        ]
        return float(self.pair_function[pair](values))

    def _single_link_rate_at(self, link: int, active_rate: float) -> float:
        total = self.link_frozen_load[link] + self.link_slope[link] * active_rate
        if self.link_nonlinear_active[link]:
            for pair in self.view.link_pairs[link]:
                if self.pair_factor[pair] is None and self.pair_active_count[pair] > 0:
                    total += self._nonlinear_pair_rate(pair, active_rate)
        return total

    # ------------------------------------------------------------------
    # increment computation
    # ------------------------------------------------------------------
    def compute_increment(self) -> float:
        bound = self._rho_bound()
        level = self.level
        bisect_links: List[int] = []
        for link in range(len(self.link_active_pairs)):
            if self.link_active_pairs[link] == 0:
                continue
            capacity = self.view.capacities[link]
            headroom = capacity - self._single_link_rate_at(link, level)
            if headroom <= 0:
                return 0.0
            if self.link_nonlinear_active[link]:
                bisect_links.append(link)
            else:
                slope = self.link_slope[link]
                if slope > 0:
                    candidate = headroom / slope
                    if candidate < bound:
                        bound = candidate
        for link in bisect_links:
            bound = min(
                bound, self._bisect_link(link, self.view.capacities[link], bound)
            )
        return max(bound, 0.0)

    def _rho_bound(self) -> float:
        if self.any_finite_rho:
            bound = math.inf
            for session_id, count in enumerate(self.session_active_count):
                if count == 0:
                    continue
                rho = self.session_max_rate[session_id]
                if math.isfinite(rho):
                    bound = min(bound, rho - self.level)
            if math.isfinite(bound):
                return bound
        return max(self.inc.max_capacity - self.level, 0.0)

    def _bisect_link(self, link: int, capacity: float, upper: float) -> float:
        return _bisect_increment(
            lambda rate: self._single_link_rate_at(link, rate), self.level, capacity, upper
        )

    # ------------------------------------------------------------------
    # state updates
    # ------------------------------------------------------------------
    def apply_increment(self, increment: float) -> None:
        self.level += increment

    def freeze_receivers(self) -> Tuple[Set[ReceiverId], Set[int]]:
        view = self.view
        level = self.level
        saturated_compact: List[int] = []
        saturated_flags = [False] * len(view.capacities)
        for link in range(len(view.capacities)):
            if self._single_link_rate_at(link, level) >= self.saturation_threshold[link]:
                saturated_compact.append(link)
                saturated_flags[link] = True

        frozen_idx: List[int] = []
        frozen_flags = [False] * len(self.active)
        for receiver in range(len(self.active)):
            if not self.active[receiver]:
                continue
            threshold = self.session_rho_threshold[view.receiver_session[receiver]]
            if threshold is not None and level >= threshold:
                frozen_flags[receiver] = True
                frozen_idx.append(receiver)
                continue
            for link in view.receiver_links[receiver]:
                if saturated_flags[link]:
                    frozen_flags[receiver] = True
                    frozen_idx.append(receiver)
                    break

        if frozen_idx:
            # Single-rate sessions freeze as a unit (one pass suffices:
            # propagation is intra-session and sessions start all-active).
            extra: List[int] = []
            for receiver in frozen_idx:
                session_id = view.receiver_session[receiver]
                if not view.session_single_rate[session_id]:
                    continue
                for mate in view.session_receivers[session_id]:
                    if self.active[mate] and not frozen_flags[mate]:
                        frozen_flags[mate] = True
                        extra.append(mate)
            frozen_idx.extend(extra)

            for receiver in frozen_idx:
                self.active[receiver] = False
                self.rates[receiver] = level
                self.session_active_count[view.receiver_session[receiver]] -= 1
                for pair in view.receiver_pairs[receiver]:
                    count = self.pair_active_count[pair] - 1
                    self.pair_active_count[pair] = count
                    if count == 0:
                        link = view.pair_link[pair]
                        self.link_active_pairs[link] -= 1
                        factor = self.pair_factor[pair]
                        if factor is None:
                            self.link_nonlinear_active[link] -= 1
                            self.link_frozen_load[link] += self._nonlinear_pair_rate(
                                pair, level
                            )
                        else:
                            self.link_slope[link] -= factor
                            self.link_frozen_load[link] += factor * level
            self.num_active -= len(frozen_idx)

        receiver_ids = self.inc.receiver_ids
        relevant_links = self.inc.relevant_links
        frozen_ids = {receiver_ids[index] for index in frozen_idx}
        saturated_ids = {relevant_links[link] for link in saturated_compact}
        return frozen_ids, saturated_ids


#: The solver states :func:`_water_fill` drives.
_State = Union[_WaterFillState, _VectorizedWaterFillState, _ScalarWaterFillState]
