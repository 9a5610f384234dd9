"""Experiment E1 — Figure 1: the sample network and its fair allocation.

Recomputes the multi-rate max-min fair allocation of the Figure 1 network,
its session link rates, and the four fairness properties, and compares them
to the values printed in the paper (receiver rates ``(1, 1, 2, 1, 2)``,
session link rates ``l1=(1,2,0)``, ``l2=(0,0,2)``, ``l3=(0,2,2)``,
``l4=(1,1,1)``, all properties holding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core import Allocation, check_all_properties, max_min_fair_allocation
from ..network import Network, figure1_network
from ..network.topologies import FIGURE1_EXPECTED_RATES
from .api import ExperimentSpec, Verdict
from .registry import Experiment, register

__all__ = ["Figure1Spec", "Figure1Result"]


@dataclass(frozen=True)
class Figure1Spec(ExperimentSpec):
    """Spec for Figure 1 — a deterministic example, identical at both scales."""


@dataclass
class Figure1Result:
    """Computed allocation for the Figure 1 network, with paper reference values."""

    network: Network
    allocation: Allocation
    receiver_rates: Dict[Tuple[int, int], float]
    expected_rates: Dict[Tuple[int, int], float]
    session_link_rates: Dict[str, Tuple[float, ...]]
    properties: Dict[str, bool]

    @property
    def matches_paper(self) -> bool:
        """True when every receiver rate matches the paper to within 1e-9."""
        return all(
            abs(self.receiver_rates[rid] - expected) <= 1e-9
            for rid, expected in self.expected_rates.items()
        )


def body(spec: Figure1Spec) -> Figure1Result:
    """Compute the Figure 1 multi-rate max-min fair allocation and properties."""
    del spec  # deterministic closed-form example; no tunable parameters
    network = figure1_network()
    allocation = max_min_fair_allocation(network)
    link_rates: Dict[str, Tuple[float, ...]] = {}
    for link in network.graph.links:
        rates = allocation.session_link_rates(link.link_id)
        link_rates[link.name] = tuple(rates[i] for i in sorted(rates))
    reports = check_all_properties(allocation)
    return Figure1Result(
        network=network,
        allocation=allocation,
        receiver_rates=allocation.as_dict(),
        expected_rates=dict(FIGURE1_EXPECTED_RATES),
        session_link_rates=link_rates,
        properties={name: report.holds for name, report in reports.items()},
    )


def _records(result: Figure1Result) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = [
        {
            "section": "receiver rates",
            "receiver": result.network.receiver(rid).name,
            "paper_rate": expected,
            "measured_rate": result.receiver_rates[rid],
        }
        for rid, expected in sorted(result.expected_rates.items())
    ]
    rows.extend(
        {"section": "session link rates", "link": name, "rates": list(rates)}
        for name, rates in sorted(result.session_link_rates.items())
    )
    rows.extend(
        {"section": "fairness properties", "property": name, "holds": holds}
        for name, holds in result.properties.items()
    )
    return rows


def _verdict(result: Figure1Result) -> Verdict:
    return Verdict(result.matches_paper, "matches paper" if result.matches_paper else "MISMATCH")


EXPERIMENT = register(
    Experiment(
        key="figure1",
        title="Figure 1 (sample network)",
        spec_cls=Figure1Spec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
