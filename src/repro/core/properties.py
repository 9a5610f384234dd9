"""The four desirable fairness properties (Section 2.1) and their checkers.

Each checker inspects an allocation for one of the paper's fairness
properties and returns a :class:`PropertyReport` describing whether the
property holds and, when it does not, exactly which receivers, receiver
pairs, or sessions violate it.  The properties are:

1. **Fully-utilized-receiver-fairness** — every receiver either reaches its
   session's maximum desired rate or crosses a fully utilised link on which
   no other receiver (of any session) receives at a higher rate.
2. **Same-path-receiver-fairness** — two receivers whose data-paths traverse
   the same set of links receive at equal rates unless one of them is capped
   by its session's maximum desired rate.
3. **Per-receiver-link-fairness** — for each receiver, some fully utilised
   link on its data-path carries its session's traffic at a link rate no
   smaller than any other session's link rate there (or the receiver is at
   its maximum desired rate).
4. **Per-session-link-fairness** — the weaker, per-session version of (3):
   at least one receiver's data-path contains such a link.

The unicast properties 1 and 2 from which these are derived are also
provided for completeness on unicast networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..network.network import Network
from ..network.session import ReceiverId
from .allocation import Allocation, DEFAULT_TOLERANCE
from .redundancy import flat_rate

__all__ = [
    "PropertyViolation",
    "PropertyReport",
    "fully_utilized_receiver_fairness",
    "same_path_receiver_fairness",
    "per_receiver_link_fairness",
    "per_session_link_fairness",
    "check_all_properties",
    "PROPERTY_CHECKERS",
]


@dataclass(frozen=True)
class PropertyViolation:
    """One violation of a fairness property.

    ``subject`` identifies the violating entity: a receiver id, a pair of
    receiver ids, or a session id, depending on the property.
    """

    subject: object
    description: str


@dataclass
class PropertyReport:
    """Outcome of checking one fairness property on an allocation."""

    property_name: str
    holds: bool
    violations: List[PropertyViolation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds

    def summary(self) -> str:
        if self.holds:
            return f"{self.property_name}: holds"
        lines = [f"{self.property_name}: fails ({len(self.violations)} violations)"]
        lines.extend(f"  - {v.description}" for v in self.violations)
        return "\n".join(lines)


def _at_max_rate(network: Network, allocation: Allocation, rid: ReceiverId, tol: float) -> bool:
    """Whether the receiver sits at its session's effective ``rho``.

    As in the water-filling construction, ``rho`` is folded with the rate
    above which the session's link-rate function is flat: no receiver can
    take more than one layer offers.
    """
    rho = min(
        network.session(rid[0]).max_rate,
        flat_rate(allocation.link_rate_function(rid[0])),
    )
    rate = allocation.rate(rid)
    return rate >= rho - tol * max(1.0, rho)


def _session_rates_on_full_links(
    allocation: Allocation, full_links: Sequence[int]
) -> Dict[int, Dict[int, float]]:
    """Per fully utilised link, the link rates ``u_{i,j}`` of its sessions.

    The link-perspective checkers compare every session against every other
    session on each fully utilised link; computing the rates once per link
    avoids re-deriving the same ``u_{i,j}`` for every receiver.
    """
    network = allocation.network
    return {
        link_id: {
            session_id: allocation.session_link_rate(session_id, link_id)
            for session_id in network.sessions_on_link(link_id)
        }
        for link_id in full_links
    }


def _session_dominates_link(
    rates_on_link: Dict[int, float], session_id: int, tolerance: float
) -> bool:
    """True when no other session's link rate exceeds the session's own."""
    own = rates_on_link.get(session_id, 0.0)
    threshold = own + tolerance * max(1.0, own)
    return all(
        rate <= threshold
        for other_id, rate in rates_on_link.items()
        if other_id != session_id
    )


# ----------------------------------------------------------------------
# Fairness Property 1
# ----------------------------------------------------------------------

def fully_utilized_receiver_fairness(
    allocation: Allocation,
    receivers: Optional[Sequence[ReceiverId]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> PropertyReport:
    """Check fully-utilized-receiver-fairness (Fairness Property 1).

    A receiver's rate is fully-utilized-receiver-fair when it equals the
    session's maximum desired rate, or some fully utilised link on its
    data-path carries no receiver (of any session) at a higher rate.  When
    ``receivers`` is given only those receivers are checked (used by
    Theorem 2, which restricts the property to multi-rate sessions in mixed
    networks).
    """
    network = allocation.network
    full_links = allocation.fully_utilized_links(tolerance)
    targets = list(receivers) if receivers is not None else network.all_receiver_ids()

    # The witness test only compares against the highest rate crossing the
    # link, so that maximum can be computed once per fully utilised link
    # instead of rescanning R_j for every receiver.
    max_rate_on_link: Dict[int, float] = {
        link_id: max(
            (allocation.rate(other) for other in network.receivers_on_link(link_id)),
            default=0.0,
        )
        for link_id in full_links
    }

    violations: List[PropertyViolation] = []
    for rid in targets:
        if _at_max_rate(network, allocation, rid, tolerance):
            continue
        rate = allocation.rate(rid)
        witnessed = False
        for link_id in network.data_path(rid):
            if link_id not in full_links:
                continue
            if max_rate_on_link[link_id] <= rate + tolerance * max(1.0, rate):
                witnessed = True
                break
        if not witnessed:
            violations.append(
                PropertyViolation(
                    subject=rid,
                    description=(
                        f"receiver {network.receiver(rid).name} (rate {rate:g}) has no fully "
                        "utilised link on its data-path on which it receives at the "
                        "highest rate"
                    ),
                )
            )
    return PropertyReport("fully-utilized-receiver-fairness", not violations, violations)


# ----------------------------------------------------------------------
# Fairness Property 2
# ----------------------------------------------------------------------

def same_path_receiver_fairness(
    allocation: Allocation,
    receivers: Optional[Sequence[ReceiverId]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> PropertyReport:
    """Check same-path-receiver-fairness (Fairness Property 2).

    Every pair of receivers with identical data-path link sets must have
    equal rates, unless the lower-rate receiver of the pair is capped by its
    session's maximum desired rate.  When ``receivers`` is given only pairs
    drawn from that set are checked.
    """
    network = allocation.network
    targets = list(receivers) if receivers is not None else network.all_receiver_ids()
    violations = [
        PropertyViolation(
            subject=(rid_a, rid_b),
            description=(
                f"receivers {network.receiver(rid_a).name} (rate {rate_a:g}) and "
                f"{network.receiver(rid_b).name} (rate {rate_b:g}) share a "
                "data-path but receive at different rates"
            ),
        )
        for rid_a, rid_b, rate_a, rate_b in _unequal_same_path_pairs(
            allocation, targets, allocation.rate, tolerance
        )
    ]
    return PropertyReport("same-path-receiver-fairness", not violations, violations)


def _unequal_same_path_pairs(
    allocation: Allocation,
    targets: Sequence[ReceiverId],
    value: Callable[[ReceiverId], float],
    tolerance: float,
) -> Iterator[Tuple[ReceiverId, ReceiverId, float, float]]:
    """Pairs of receivers with identical data-path link sets whose ``value``
    differs, as ``(rid_a, rid_b, value_a, value_b)``, unless the one with
    the smaller value sits at its session's maximum desired rate.  Fairness
    Property 2 compares rates; its weighted form, rates divided by weights.
    """
    network = allocation.network
    groups: Dict[frozenset, List[ReceiverId]] = {}
    for rid in targets:
        groups.setdefault(network.routing.data_path_set(rid), []).append(rid)

    for group in groups.values():
        for index, rid_a in enumerate(group):
            for rid_b in group[index + 1:]:
                value_a = value(rid_a)
                value_b = value(rid_b)
                if abs(value_a - value_b) <= tolerance * max(1.0, value_a, value_b):
                    continue
                lower = rid_a if value_a < value_b else rid_b
                if _at_max_rate(network, allocation, lower, tolerance):
                    continue
                yield rid_a, rid_b, value_a, value_b


# ----------------------------------------------------------------------
# Fairness Property 3
# ----------------------------------------------------------------------

def per_receiver_link_fairness(
    allocation: Allocation,
    sessions: Optional[Sequence[int]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> PropertyReport:
    """Check per-receiver-link-fairness (Fairness Property 3).

    A session's allocation is per-receiver-link-fair when every one of its
    receivers either is at the maximum desired rate or has, somewhere on its
    data-path, a fully utilised link on which the session's link rate is at
    least as large as every other session's link rate.  When ``sessions`` is
    given only those sessions are checked.
    """
    network = allocation.network
    full_links = allocation.fully_utilized_links(tolerance)
    session_ids = list(sessions) if sessions is not None else [
        s.session_id for s in network.sessions
    ]
    rates_on_link = _session_rates_on_full_links(allocation, full_links)

    violations: List[PropertyViolation] = []
    for session_id in session_ids:
        session = network.session(session_id)
        for rid in session.receiver_ids:
            if _at_max_rate(network, allocation, rid, tolerance):
                continue
            witnessed = False
            for link_id in network.data_path(rid):
                if link_id not in full_links:
                    continue
                if _session_dominates_link(
                    rates_on_link[link_id], session_id, tolerance
                ):
                    witnessed = True
                    break
            if not witnessed:
                violations.append(
                    PropertyViolation(
                        subject=rid,
                        description=(
                            f"session {session.name} is not per-receiver-link-fair on the "
                            f"data-path of {network.receiver(rid).name}"
                        ),
                    )
                )
    return PropertyReport("per-receiver-link-fairness", not violations, violations)


# ----------------------------------------------------------------------
# Fairness Property 4
# ----------------------------------------------------------------------

def per_session_link_fairness(
    allocation: Allocation,
    sessions: Optional[Sequence[int]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> PropertyReport:
    """Check per-session-link-fairness (Fairness Property 4).

    A session is per-session-link-fair when all its receivers are at the
    maximum desired rate, or at least one fully utilised link on the
    session's data-path carries the session at a link rate no smaller than
    any other session's link rate there.
    """
    network = allocation.network
    full_links = allocation.fully_utilized_links(tolerance)
    session_ids = list(sessions) if sessions is not None else [
        s.session_id for s in network.sessions
    ]
    rates_on_link = _session_rates_on_full_links(allocation, full_links)

    violations: List[PropertyViolation] = []
    for session_id in session_ids:
        session = network.session(session_id)
        if all(
            _at_max_rate(network, allocation, rid, tolerance)
            for rid in session.receiver_ids
        ):
            continue
        witnessed = False
        for link_id in network.session_data_path(session_id):
            if link_id not in full_links:
                continue
            if _session_dominates_link(rates_on_link[link_id], session_id, tolerance):
                witnessed = True
                break
        if not witnessed:
            violations.append(
                PropertyViolation(
                    subject=session_id,
                    description=(
                        f"session {session.name} has no fully utilised link on its "
                        "data-path where its link rate is the largest"
                    ),
                )
            )
    return PropertyReport("per-session-link-fairness", not violations, violations)


#: Name -> checker mapping, in paper order.
PROPERTY_CHECKERS = {
    "fully-utilized-receiver-fairness": fully_utilized_receiver_fairness,
    "same-path-receiver-fairness": same_path_receiver_fairness,
    "per-receiver-link-fairness": per_receiver_link_fairness,
    "per-session-link-fairness": per_session_link_fairness,
}


def check_all_properties(
    allocation: Allocation,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[str, PropertyReport]:
    """Run all four fairness-property checkers on an allocation.

    Returns a mapping from property name (paper order) to its report.  The
    receiver-perspective checkers run over all receivers and the session
    perspective checkers over all sessions; use the individual checkers with
    their ``receivers``/``sessions`` arguments for the restricted Theorem-2
    statements on mixed networks.
    """
    return {
        name: checker(allocation, tolerance=tolerance)
        for name, checker in PROPERTY_CHECKERS.items()
    }
