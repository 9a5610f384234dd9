"""Experiment E4 — Figure 4: redundancy breaks the session-perspective properties.

Applies a redundancy of 2 to session ``S1`` on the shared link of the
Figure 4 network (the only link with more than one ``S1`` receiver
downstream) and recomputes the max-min fair allocation.  The paper's
statements reproduced here: every receiver's rate becomes 2, ``S1`` uses 4
units on the shared link ``l4`` (capacity 6) against ``S2``'s 2, and
per-session-link (hence per-receiver-link) fairness fails for ``S2`` while
the receiver-perspective properties continue to hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core import (
    Allocation,
    check_all_properties,
    constant_redundancy,
    max_min_fair_allocation,
)
from ..network import Network, figure4_network
from ..network.topologies import FIGURE4_EXPECTED_RATES
from .api import ExperimentSpec, Verdict
from .registry import Experiment, register

__all__ = ["Figure4Spec", "Figure4Result"]

#: The shared link of the Figure 4 topology (``l4``) by link id.
SHARED_LINK_ID = 3


@dataclass(frozen=True)
class Figure4Spec(ExperimentSpec):
    """Spec for Figure 4: the redundancy applied to ``S1`` on the shared link."""

    redundancy: float = 2.0


@dataclass
class Figure4Result:
    """Max-min fair allocation of the Figure 4 network with redundancy 2 on l4."""

    network: Network
    allocation: Allocation
    expected_rates: Dict[Tuple[int, int], float]
    properties: Dict[str, bool]
    shared_link_rates: Dict[int, float]
    shared_link_redundancy: float

    @property
    def matches_paper(self) -> bool:
        rates_ok = all(
            abs(self.allocation.rate(rid) - value) <= 1e-9
            for rid, value in self.expected_rates.items()
        )
        link_ok = (
            abs(self.shared_link_rates[0] - 4.0) <= 1e-9
            and abs(self.shared_link_rates[1] - 2.0) <= 1e-9
        )
        session_perspective_fails = (
            not self.properties["per-session-link-fairness"]
            and not self.properties["per-receiver-link-fairness"]
        )
        receiver_perspective_holds = (
            self.properties["fully-utilized-receiver-fairness"]
            and self.properties["same-path-receiver-fairness"]
        )
        return rates_ok and link_ok and session_perspective_fails and receiver_perspective_holds


def body(spec: Figure4Spec) -> Figure4Result:
    """Compute the Figure 4 allocation described by ``spec``."""
    network = figure4_network().with_link_rate_functions(
        {0: constant_redundancy(spec.redundancy, min_receivers=2)}
    )
    allocation = max_min_fair_allocation(network)
    reports = check_all_properties(allocation)
    shared_rates = allocation.session_link_rates(SHARED_LINK_ID)
    return Figure4Result(
        network=network,
        allocation=allocation,
        expected_rates=dict(FIGURE4_EXPECTED_RATES),
        properties={name: report.holds for name, report in reports.items()},
        shared_link_rates=shared_rates,
        shared_link_redundancy=allocation.link_redundancy(0, SHARED_LINK_ID),
    )


def _records(result: Figure4Result) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = [
        {
            "section": "receiver rates",
            "receiver": result.network.receiver(rid).name,
            "paper_rate": expected,
            "measured_rate": result.allocation.rate(rid),
        }
        for rid, expected in sorted(result.expected_rates.items())
    ]
    rows.extend(
        {
            "section": "shared link rates",
            "session": result.network.session(sid).name,
            "rate_on_l4": rate,
        }
        for sid, rate in sorted(result.shared_link_rates.items())
    )
    rows.extend(
        {"section": "fairness properties", "property": name, "holds": holds}
        for name, holds in result.properties.items()
    )
    rows.append(
        {
            "section": "summary",
            "shared_link_redundancy": result.shared_link_redundancy,
        }
    )
    return rows


def _verdict(result: Figure4Result) -> Verdict:
    return Verdict(result.matches_paper, "matches paper" if result.matches_paper else "MISMATCH")


EXPERIMENT = register(
    Experiment(
        key="figure4",
        title="Figure 4 (redundancy vs session fairness)",
        spec_cls=Figure4Spec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
