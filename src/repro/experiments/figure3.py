"""Experiment E3 — Figure 3: receiver removal moves fair rates in either direction.

Reproduces the two Section 2.5 examples: removing receiver ``r3,2`` from its
session makes the remaining intra-session receiver ``r3,1`` *lose* rate in
network (a) and *gain* rate in network (b), while ``r1,1`` moves the other
way — demonstrating that membership changes have non-obvious effects on
max-min fair rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core import Allocation, max_min_fair_allocation
from ..network import Network, figure3a_network, figure3b_network
from ..network.topologies import FIGURE3A_EXPECTED, FIGURE3B_EXPECTED
from .api import ExperimentSpec, Verdict
from .registry import Experiment, register

__all__ = ["Figure3Spec", "RemovalOutcome", "Figure3Result"]


@dataclass(frozen=True)
class Figure3Spec(ExperimentSpec):
    """Spec for Figure 3 — a deterministic example, identical at both scales."""

#: Receiver removed in both examples: ``r3,2`` (session 2, index 1).
REMOVED_RECEIVER: Tuple[int, int] = (2, 1)


@dataclass
class RemovalOutcome:
    """Before/after allocations of one removal example."""

    name: str
    network: Network
    before: Allocation
    after: Allocation
    expected_before: Dict[Tuple[int, int], float]
    expected_after: Dict[Tuple[int, int], float]

    def rate_change(self, receiver_id: Tuple[int, int]) -> float:
        """After-minus-before rate of a receiver that survives the removal."""
        return self.after.rate(receiver_id) - self.before.rate(receiver_id)

    @property
    def matches_paper(self) -> bool:
        before_ok = all(
            abs(self.before.rate(rid) - value) <= 1e-9
            for rid, value in self.expected_before.items()
        )
        after_ok = all(
            abs(self.after.rate(rid) - value) <= 1e-9
            for rid, value in self.expected_after.items()
        )
        return before_ok and after_ok


@dataclass
class Figure3Result:
    """Both removal examples (Figure 3(a) and 3(b))."""

    example_a: RemovalOutcome
    example_b: RemovalOutcome

    @property
    def demonstrates_both_directions(self) -> bool:
        """r3,1 decreases in (a) and increases in (b); r1,1 moves opposite."""
        a_down = self.example_a.rate_change((2, 0)) < 0 and self.example_a.rate_change((0, 0)) > 0
        b_up = self.example_b.rate_change((2, 0)) > 0 and self.example_b.rate_change((0, 0)) < 0
        return a_down and b_up


def _run_example(
    name: str,
    network: Network,
    expectations: Dict[str, Dict[Tuple[int, int], float]],
) -> RemovalOutcome:
    before = max_min_fair_allocation(network)
    after = max_min_fair_allocation(network.without_receiver(REMOVED_RECEIVER))
    return RemovalOutcome(
        name=name,
        network=network,
        before=before,
        after=after,
        expected_before=dict(expectations["before"]),
        expected_after=dict(expectations["after"]),
    )


def body(spec: Figure3Spec) -> Figure3Result:
    """Compute the before/after allocations for both Figure 3 examples."""
    del spec  # deterministic closed-form example; no tunable parameters
    return Figure3Result(
        example_a=_run_example("Figure 3(a)", figure3a_network(), FIGURE3A_EXPECTED),
        example_b=_run_example("Figure 3(b)", figure3b_network(), FIGURE3B_EXPECTED),
    )


def _records(result: Figure3Result) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for outcome in (result.example_a, result.example_b):
        for rid in sorted(outcome.expected_before):
            removed = rid not in outcome.expected_after
            rows.append(
                {
                    "section": outcome.name,
                    "receiver": outcome.network.receiver(rid).name,
                    "before": outcome.before.rate(rid),
                    "after": None if removed else outcome.after.rate(rid),
                    "removed": removed,
                }
            )
    return rows


def _verdict(result: Figure3Result) -> Verdict:
    ok = result.demonstrates_both_directions
    return Verdict(ok, "matches paper" if ok else "MISMATCH")


EXPERIMENT = register(
    Experiment(
        key="figure3",
        title="Figure 3 (receiver removal)",
        spec_cls=Figure3Spec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
