"""Weighted (TCP-style) max-min fairness — the paper's Section 5 extension.

Section 5 suggests that the paper's results "can be directly applied to
TCP-fairness by constructing a definition of max-min fairness where receiver
rates are assigned weights (i.e., a receiver's rate is weighted by the
inverse of round trip time)".  This module implements that extension:

* a receiver ``r_{i,k}`` carries a positive weight ``w_{i,k}``;
* an allocation is *weighted max-min fair* when the vector of normalised
  rates ``a_{i,k} / w_{i,k}`` is max-min fair, i.e. no receiver's normalised
  rate can be raised without lowering that of a receiver whose normalised
  rate is no larger;
* the construction is the Appendix-A water-filling run on a common
  *normalised* level ``phi``: every active receiver holds ``a = w * phi``
  and freezes when a link on its data-path saturates, it reaches its
  session's maximum desired rate, or (for single-rate sessions) a session
  mate freezes.  It is the reference state of :mod:`repro.core.maxmin`
  with per-receiver weights, not a separate solver.

With all weights equal to 1 this is exactly
``max_min_fair_allocation(..., method="reference")`` (tested bit for bit).
The helper :func:`rtt_weights` builds the inverse-RTT weights of
TCP-fairness, and :func:`weighted_same_path_receiver_fairness` restates
Fairness Property 2 in the weighted setting (same-path receivers'
*normalised* rates must agree unless one of them is capped by its
session's maximum desired rate).
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from ..errors import AllocationError
from ..network.network import LinkRateFunction, Network
from ..network.session import ReceiverId
from .allocation import Allocation, DEFAULT_TOLERANCE
from .maxmin import _merged_link_rate_functions, _water_fill, _WaterFillState
from .ordering import ordered_vector
from .properties import PropertyReport, PropertyViolation, _unequal_same_path_pairs

__all__ = [
    "validate_weights",
    "rtt_weights",
    "weighted_max_min_fair_allocation",
    "normalized_rate_vector",
    "weighted_same_path_receiver_fairness",
]


def validate_weights(network: Network, weights: Mapping[ReceiverId, float]) -> Dict[ReceiverId, float]:
    """Check that every receiver has a positive, finite weight and return a copy."""
    expected = set(network.all_receiver_ids())
    provided = set(weights.keys())
    if provided != expected:
        missing = sorted(expected - provided)
        extra = sorted(provided - expected)
        raise AllocationError(
            f"weights must cover exactly the network's receivers; missing={missing}, "
            f"unexpected={extra}"
        )
    cleaned: Dict[ReceiverId, float] = {}
    for rid, weight in weights.items():
        value = float(weight)
        if not math.isfinite(value) or value <= 0:
            raise AllocationError(
                f"weight for receiver {rid} must be positive and finite, got {weight}"
            )
        cleaned[rid] = value
    return cleaned


def rtt_weights(network: Network, round_trip_times: Mapping[ReceiverId, float]) -> Dict[ReceiverId, float]:
    """TCP-fairness weights: ``w_{i,k} = 1 / RTT_{i,k}``.

    Receivers with shorter round-trip times get proportionally larger weights,
    mirroring TCP's throughput bias.
    """
    weights: Dict[ReceiverId, float] = {}
    for rid in network.all_receiver_ids():
        if rid not in round_trip_times:
            raise AllocationError(f"no round-trip time supplied for receiver {rid}")
        rtt = float(round_trip_times[rid])
        if not math.isfinite(rtt) or rtt <= 0:
            raise AllocationError(
                f"round-trip time for receiver {rid} must be positive and finite, got {rtt}"
            )
        weights[rid] = 1.0 / rtt
    return weights


def normalized_rate_vector(
    allocation: Allocation, weights: Mapping[ReceiverId, float]
) -> tuple:
    """The ordered vector of normalised rates ``a_{i,k} / w_{i,k}``."""
    weights = validate_weights(allocation.network, weights)
    return ordered_vector(
        allocation.rate(rid) / weights[rid] for rid in allocation.network.all_receiver_ids()
    )


def weighted_max_min_fair_allocation(
    network: Network,
    weights: Mapping[ReceiverId, float],
    link_rate_functions: Optional[Mapping[int, LinkRateFunction]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Allocation:
    """Compute the weighted max-min fair allocation.

    The construction raises a common normalised level ``phi`` and assigns
    every active receiver the rate ``w_{i,k} * phi``.  Unless every weight
    is 1, link constraints are handled by bisection on ``phi`` (the session
    link rates are monotone in ``phi`` for any valid link-rate function), so
    arbitrary redundancy functions ``v_i`` are supported exactly as in the
    unweighted solver.
    """
    weights = validate_weights(network, weights)
    _validate_single_rate_weights(network, weights)
    functions = _merged_link_rate_functions(network, link_rate_functions)
    state = _WaterFillState(network, functions, tolerance, weights)
    return Allocation(network, _water_fill(state, network, tolerance), functions)


def _validate_single_rate_weights(network: Network, weights: Mapping[ReceiverId, float]) -> None:
    """Single-rate sessions need uniform weights (their receivers share one rate)."""
    for session in network.sessions:
        if not session.is_single_rate or session.num_receivers <= 1:
            continue
        values = [weights[rid] for rid in session.receiver_ids]
        if max(values) - min(values) > 1e-12 * max(values):
            raise AllocationError(
                f"single-rate session {session.name} has heterogeneous weights {values}; "
                "all receivers of a single-rate session share one rate, so their "
                "weights must be equal"
            )


def weighted_same_path_receiver_fairness(
    allocation: Allocation,
    weights: Mapping[ReceiverId, float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> PropertyReport:
    """Fairness Property 2 restated for weighted fairness.

    Two receivers whose data-paths traverse the same set of links must have
    equal *normalised* rates ``a / w`` unless the one with the smaller
    normalised rate is capped by its session's maximum desired rate.
    """
    network = allocation.network
    weights = validate_weights(network, weights)
    violations = [
        PropertyViolation(
            subject=(rid_a, rid_b),
            description=(
                f"receivers {network.receiver(rid_a).name} and "
                f"{network.receiver(rid_b).name} share a data-path but their "
                f"weighted rates differ ({norm_a:g} vs {norm_b:g})"
            ),
        )
        for rid_a, rid_b, norm_a, norm_b in _unequal_same_path_pairs(
            allocation,
            network.all_receiver_ids(),
            lambda rid: allocation.rate(rid) / weights[rid],
            tolerance,
        )
    ]
    return PropertyReport("weighted-same-path-receiver-fairness", not violations, violations)
