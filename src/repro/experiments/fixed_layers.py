"""Experiment E7 — Section 3's fixed-layer non-existence example.

Enumerates the feasible fixed-subscription allocations of the paper's
single-link example (session 1 with three layers of rate ``c/3``, session 2
with two layers of rate ``c/2``), verifies the set matches the seven
allocations listed in the paper, and confirms that no element of the set is
max-min fair — whereas once receivers may time joins and leaves (the quantum
model), the max-min fair rates ``(c/2, c/2)`` become achievable as long-term
averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import max_min_fair_allocation
from ..layering.fixed import section3_nonexistence_example
from ..network.topologies import single_bottleneck_network
from .api import ExperimentSpec, Verdict
from .registry import Experiment, register

__all__ = ["FixedLayersSpec", "FixedLayerResult"]


@dataclass(frozen=True)
class FixedLayersSpec(ExperimentSpec):
    """Spec for the Section 3 fixed-layer example: the bottleneck capacity."""

    capacity: float = 1.0


@dataclass
class FixedLayerResult:
    """Feasible fixed-layer allocations and the (absent) max-min fair element."""

    capacity: float
    feasible_allocations: List[Tuple[float, ...]]
    max_min_fair: Optional[Tuple[float, ...]]
    unconstrained_fair_rates: Tuple[float, ...]

    @property
    def paper_expected_set(self) -> List[Tuple[float, float]]:
        """The seven feasible allocations listed in the paper (scaled by capacity)."""
        c = self.capacity
        return sorted(
            [
                (0.0, 0.0),
                (0.0, c / 2),
                (0.0, c),
                (c / 3, 0.0),
                (c / 3, c / 2),
                (2 * c / 3, 0.0),
                (c, 0.0),
            ]
        )

    @property
    def matches_paper_set(self) -> bool:
        measured = sorted(tuple(round(v, 9) for v in a) for a in self.feasible_allocations)
        expected = sorted(tuple(round(v, 9) for v in a) for a in self.paper_expected_set)
        return measured == expected

    @property
    def no_max_min_fair_exists(self) -> bool:
        return self.max_min_fair is None


def body(spec: FixedLayersSpec) -> FixedLayerResult:
    """Enumerate the paper's fixed-layer example and contrast with the fluid rates."""
    feasible, max_min = section3_nonexistence_example(spec.capacity)
    network = single_bottleneck_network(num_sessions=2, capacity=spec.capacity)
    allocation = max_min_fair_allocation(network)
    return FixedLayerResult(
        capacity=spec.capacity,
        feasible_allocations=feasible,
        max_min_fair=max_min,
        unconstrained_fair_rates=allocation.ordered_vector(),
    )


def _records(result: FixedLayerResult) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = [
        {"section": "feasible fixed-layer allocations", "a1": a, "a2": b}
        for a, b in result.feasible_allocations
    ]
    rows.append(
        {
            "section": "summary",
            "max_min_fair_exists": result.max_min_fair is not None,
            "max_min_fair": list(result.max_min_fair) if result.max_min_fair else None,
            "unconstrained_fair_rates": list(result.unconstrained_fair_rates),
        }
    )
    return rows


def _verdict(result: FixedLayerResult) -> Verdict:
    ok = result.no_max_min_fair_exists
    return Verdict(ok, "no max-min fair allocation exists" if ok else "MISMATCH")


EXPERIMENT = register(
    Experiment(
        key="fixed_layers",
        title="Section 3 fixed-layer example",
        spec_cls=FixedLayersSpec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
