"""Experiment E2 — Figure 2: single-rate sessions break three fairness properties.

Computes the max-min fair allocation of the Figure 2 network twice — with
``S1`` single-rate (the paper's configuration) and with ``S1`` replaced by an
identical multi-rate session — and records which fairness properties hold in
each case.  The paper's statements reproduced here:

* single-rate: rates ``(2, 2, 2)`` for ``S1`` and ``3`` for ``S2``;
  same-path, fully-utilized-receiver, and per-receiver-link fairness all
  fail while per-session-link fairness holds;
* multi-rate: all four properties hold (Theorem 1) and the allocation is
  strictly "more max-min fair" under the ``<=_m`` ordering (Lemma 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core import (
    Allocation,
    check_all_properties,
    max_min_fair_allocation,
    strictly_min_unfavorable,
)
from ..network import Network, figure2_network
from ..network.topologies import FIGURE2_EXPECTED_MULTI_RATE, FIGURE2_EXPECTED_SINGLE_RATE
from .api import ExperimentSpec, Verdict
from .registry import Experiment, register

__all__ = ["Figure2Spec", "Figure2Result"]


@dataclass(frozen=True)
class Figure2Spec(ExperimentSpec):
    """Spec for Figure 2 — a deterministic example, identical at both scales."""


@dataclass
class Figure2Result:
    """Single-rate versus multi-rate allocations on the Figure 2 topology."""

    single_rate_network: Network
    multi_rate_network: Network
    single_rate_allocation: Allocation
    multi_rate_allocation: Allocation
    single_rate_properties: Dict[str, bool]
    multi_rate_properties: Dict[str, bool]
    expected_single_rate: Dict[Tuple[int, int], float]
    expected_multi_rate: Dict[Tuple[int, int], float]

    @property
    def single_rate_matches_paper(self) -> bool:
        return all(
            abs(self.single_rate_allocation.rate(rid) - expected) <= 1e-9
            for rid, expected in self.expected_single_rate.items()
        )

    @property
    def multi_rate_is_more_max_min_fair(self) -> bool:
        """Lemma 3: the single-rate allocation is strictly min-unfavorable."""
        return strictly_min_unfavorable(
            self.single_rate_allocation.ordered_vector(),
            self.multi_rate_allocation.ordered_vector(),
        )


def body(spec: Figure2Spec) -> Figure2Result:
    """Compute both variants of the Figure 2 example."""
    del spec  # deterministic closed-form example; no tunable parameters
    single_network = figure2_network(single_rate=True)
    multi_network = figure2_network(single_rate=False)
    single_allocation = max_min_fair_allocation(single_network)
    multi_allocation = max_min_fair_allocation(multi_network)
    return Figure2Result(
        single_rate_network=single_network,
        multi_rate_network=multi_network,
        single_rate_allocation=single_allocation,
        multi_rate_allocation=multi_allocation,
        single_rate_properties={
            name: report.holds
            for name, report in check_all_properties(single_allocation).items()
        },
        multi_rate_properties={
            name: report.holds
            for name, report in check_all_properties(multi_allocation).items()
        },
        expected_single_rate=dict(FIGURE2_EXPECTED_SINGLE_RATE),
        expected_multi_rate=dict(FIGURE2_EXPECTED_MULTI_RATE),
    )


def _records(result: Figure2Result) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = [
        {
            "section": "receiver rates",
            "receiver": result.single_rate_network.receiver(rid).name,
            "paper_single_rate": result.expected_single_rate[rid],
            "measured_single_rate": result.single_rate_allocation.rate(rid),
            "expected_multi_rate": result.expected_multi_rate[rid],
            "measured_multi_rate": result.multi_rate_allocation.rate(rid),
        }
        for rid in sorted(result.expected_single_rate)
    ]
    rows.extend(
        {
            "section": "fairness properties",
            "property": name,
            "single_rate_holds": result.single_rate_properties[name],
            "multi_rate_holds": result.multi_rate_properties[name],
        }
        for name in result.single_rate_properties
    )
    return rows


def _verdict(result: Figure2Result) -> Verdict:
    ok = result.single_rate_matches_paper and result.multi_rate_is_more_max_min_fair
    return Verdict(ok, "matches paper" if ok else "MISMATCH")


EXPERIMENT = register(
    Experiment(
        key="figure2",
        title="Figure 2 (single-rate limitations)",
        spec_cls=Figure2Spec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
