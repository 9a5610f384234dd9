"""Single-rate max-min fairness: the Tzeng & Siu and classic unicast baselines.

The paper contrasts multi-rate max-min fairness with the earlier single-rate
definition of Tzeng and Siu, under which every receiver of a multicast
session must receive at the session's single rate, so the session consumes
that rate on *every* link of its multicast tree.  Classic unicast max-min
fairness (Bertsekas & Gallagher), from which the paper derives its desirable
fairness properties (Unicast Fairness Properties 1 and 2 in Section 2.1), is
the special case in which every session has one receiver.

For single-rate networks the session-rate-based definition and the paper's
receiver-rate-based definition coincide (Section 2), so the general
Appendix-A construction with all sessions declared single-rate yields the
same allocation.  This module provides a direct session-level
progressive-filling implementation, deliberately independent of
:mod:`repro.core.maxmin`, so the two can be cross-validated.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

from ..errors import FairnessComputationError, NetworkModelError
from ..network.network import Network
from .allocation import Allocation, DEFAULT_TOLERANCE

__all__ = ["single_rate_max_min_fair", "single_rate_session_rates", "unicast_max_min_fair"]


def single_rate_session_rates(
    network: Network,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[int, float]:
    """Max-min fair *session* rates when every session is treated as single-rate.

    The network's declared session types are ignored: every session is
    treated as single-rate, consuming its rate on every link of its multicast
    tree (the union of its receivers' data-paths).  The algorithm repeatedly
    finds the bottleneck link — the link with the smallest equal share of
    remaining capacity among its unfrozen sessions — and freezes those
    sessions at that share.  Returns a mapping ``session_id -> rate``.
    """
    session_ids = [session.session_id for session in network.sessions]
    trees: Dict[int, Set[int]] = {
        i: set(network.session_data_path(i)) for i in session_ids
    }
    rho: Dict[int, float] = {i: network.session(i).max_rate for i in session_ids}

    rates: Dict[int, float] = {i: 0.0 for i in session_ids}
    frozen: Set[int] = set()
    remaining: Dict[int, float] = {
        link.link_id: link.capacity for link in network.graph.links
    }

    max_rounds = len(session_ids) + network.num_links + 4
    for _ in range(max_rounds):
        unfrozen = [i for i in session_ids if i not in frozen]
        if not unfrozen:
            break

        best_share = math.inf
        bottleneck: Optional[int] = None
        for link_id, capacity_left in remaining.items():
            users = [i for i in unfrozen if link_id in trees[i]]
            if not users:
                continue
            share = capacity_left / len(users)
            if share < best_share - tolerance:
                best_share = share
                bottleneck = link_id

        rho_headroom = {i: rho[i] - rates[i] for i in unfrozen}
        rho_limited = [i for i in unfrozen if rho_headroom[i] <= best_share + tolerance]
        if rho_limited:
            increment = max(min(rho_headroom[i] for i in rho_limited), 0.0)
            _apply_increment(unfrozen, increment, rates, trees, remaining)
            for i in unfrozen:
                if math.isfinite(rho[i]) and rho[i] - rates[i] <= tolerance * max(1.0, rho[i]):
                    frozen.add(i)
            continue

        if bottleneck is None:
            raise FairnessComputationError(
                "no bottleneck found for unfrozen single-rate sessions"
            )

        increment = max(best_share, 0.0)
        _apply_increment(unfrozen, increment, rates, trees, remaining)
        # The bottleneck's sessions freeze even when rounding leaves a few
        # ulps of its capacity above the tolerance; so do the sessions of
        # any other link that saturated at the same time.
        for link_id, capacity_left in remaining.items():
            if link_id == bottleneck or capacity_left <= tolerance:
                for i in unfrozen:
                    if link_id in trees[i]:
                        frozen.add(i)
    else:
        raise FairnessComputationError(
            "single-rate progressive filling did not converge"
        )

    return rates


def single_rate_max_min_fair(
    network: Network,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Allocation:
    """The single-rate max-min fair allocation of receiver rates.

    Every session is treated as single-rate; each receiver's rate equals its
    session's rate.  The allocation is evaluated (link rates etc.) on the
    *given* network, so callers who want the session types to reflect the
    single-rate assumption should pass ``network.with_all_single_rate()``.
    """
    session_rates = single_rate_session_rates(network, tolerance)
    return Allocation.from_session_rates(network, session_rates)


def unicast_max_min_fair(
    network: Network,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Allocation:
    """Compute the classic unicast max-min fair allocation.

    Every session of the network must be unicast (exactly one receiver),
    so each session is one flow consuming its rate on every link of its
    data-path: the single-rate allocation of the same network.

    Raises
    ------
    NetworkModelError
        If any session has more than one receiver.
    """
    for session in network.sessions:
        if session.num_receivers != 1:
            raise NetworkModelError(
                f"unicast_max_min_fair requires unicast sessions; session "
                f"{session.name} has {session.num_receivers} receivers"
            )
    return single_rate_max_min_fair(network, tolerance)


def _apply_increment(
    unfrozen: List[int],
    increment: float,
    rates: Dict[int, float],
    trees: Dict[int, Set[int]],
    remaining: Dict[int, float],
) -> None:
    """Raise every unfrozen session by ``increment`` and charge its links."""
    if increment <= 0:
        return
    for i in unfrozen:
        rates[i] += increment
        for link_id in trees[i]:
            remaining[link_id] -= increment
