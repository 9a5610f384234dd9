"""Experiment E6 — Figure 6: the impact of redundancy on fair rates.

``n`` sessions are constrained by one shared bottleneck of capacity ``c``;
``m`` of them are multi-rate with redundancy ``v`` on that link.  Every
receiver's max-min fair rate is ``c / ((n - m) + m v)``; Figure 6 plots this
rate normalised by the all-efficient rate ``c/n`` against ``v`` for
``m/n in {0.01, 0.05, 0.1, 1}``.

Besides the closed form, this experiment cross-checks selected points by
building the actual bottleneck network with
:func:`repro.network.topologies.shared_bottleneck_with_redundancy` and
running the general water-filling construction, confirming that the formula
and the algorithm agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import bottleneck_fair_rate, max_min_fair_allocation, normalized_fair_rate
from ..network.topologies import shared_bottleneck_with_redundancy
from .api import ExperimentSpec, Verdict
from .registry import Experiment, register

__all__ = [
    "Figure6Spec",
    "Figure6Result",
    "DEFAULT_REDUNDANCIES",
    "DEFAULT_FRACTIONS",
]

#: Redundancy sweep of the paper's x-axis.
DEFAULT_REDUNDANCIES = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)

#: The m/n ratios plotted in Figure 6.
DEFAULT_FRACTIONS = (0.01, 0.05, 0.1, 1.0)

#: Tolerance below which the formula and the water-filling solver agree.
CROSS_CHECK_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Figure6Spec(ExperimentSpec):
    """Spec for Figure 6: redundancy/fraction grids and cross-check sizes.

    At paper scale the water-filling cross-check networks grow from 20 to
    100 sessions; the closed-form curves are scale-independent.
    """

    redundancies: Optional[Sequence[float]] = None
    fractions: Optional[Sequence[float]] = None
    cross_check_sessions: Optional[int] = None
    cross_check_redundancies: Optional[Sequence[float]] = None
    capacity: float = 1.0

    PRESETS = {
        "reduced": {
            "redundancies": DEFAULT_REDUNDANCIES,
            "fractions": DEFAULT_FRACTIONS,
            "cross_check_sessions": 20,
            "cross_check_redundancies": (1.0, 2.0, 5.0, 10.0),
        },
        "paper": {
            "redundancies": DEFAULT_REDUNDANCIES,
            "fractions": DEFAULT_FRACTIONS,
            "cross_check_sessions": 100,
            "cross_check_redundancies": (1.0, 2.0, 5.0, 10.0),
        },
    }


@dataclass
class Figure6Result:
    """Normalised fair-rate curves and water-filling cross-checks."""

    redundancies: Sequence[float]
    fractions: Sequence[float]
    curves: Dict[float, List[float]]
    cross_checks: List[Tuple[int, int, float, float, float]]

    @property
    def cross_check_max_error(self) -> float:
        """Largest |formula - water-filling| over the verified points."""
        if not self.cross_checks:
            return 0.0
        return max(abs(expected - measured) for *_rest, expected, measured in self.cross_checks)


def body(spec: Figure6Spec) -> Figure6Result:
    """Evaluate the Figure 6 curves and cross-checks described by ``spec``."""
    redundancies = tuple(spec.redundancies)
    fractions = tuple(spec.fractions)
    cross_check_sessions = spec.cross_check_sessions
    cross_check_redundancies = tuple(spec.cross_check_redundancies)
    capacity = spec.capacity
    curves: Dict[float, List[float]] = {}
    for fraction in fractions:
        curves[fraction] = [
            normalized_fair_rate(fraction, redundancy) for redundancy in redundancies
        ]

    cross_checks: List[Tuple[int, int, float, float, float]] = []
    num_sessions = cross_check_sessions
    num_redundant = max(1, num_sessions // 10)
    for redundancy in cross_check_redundancies:
        network = shared_bottleneck_with_redundancy(
            num_sessions=num_sessions,
            num_redundant=num_redundant,
            redundancy=redundancy,
            capacity=capacity,
        )
        allocation = max_min_fair_allocation(network)
        measured = allocation.min_rate()
        expected = bottleneck_fair_rate(num_sessions, num_redundant, redundancy, capacity)
        cross_checks.append((num_sessions, num_redundant, redundancy, expected, measured))

    return Figure6Result(
        redundancies=tuple(redundancies),
        fractions=tuple(fractions),
        curves=curves,
        cross_checks=cross_checks,
    )


def _records(result: Figure6Result) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = [
        {
            "section": "normalised fair rate",
            "fraction_multi_rate": fraction,
            "redundancy": redundancy,
            "normalized_rate": value,
        }
        for fraction, values in result.curves.items()
        for redundancy, value in zip(result.redundancies, values)
    ]
    rows.extend(
        {
            "section": "water-filling cross-checks",
            "sessions": sessions,
            "redundant_sessions": redundant,
            "redundancy": redundancy,
            "formula_rate": expected,
            "water_filling_rate": measured,
        }
        for sessions, redundant, redundancy, expected, measured in result.cross_checks
    )
    return rows


def _verdict(result: Figure6Result) -> Verdict:
    error = result.cross_check_max_error
    return Verdict(
        error <= CROSS_CHECK_TOLERANCE,
        f"formula vs water-filling max error {error:.2e}",
    )


EXPERIMENT = register(
    Experiment(
        key="figure6",
        title="Figure 6 (redundancy vs fair rate)",
        spec_cls=Figure6Spec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
