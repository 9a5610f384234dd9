"""Experiment E5 — Figure 5: redundancy of a single layer with random joins.

Evaluates the Appendix-B closed form for the five receiver-rate
configurations of Figure 5 over a logarithmic sweep of receiver counts
(1 to 100), optionally validating the analytical values against the
Monte-Carlo quantum simulator.  The shapes to reproduce:

* redundancy grows with the number of receivers and saturates at the bound
  ``lambda / max(a_t)`` (e.g. 10 for "All 0.1", 2 for "All 0.5");
* for a fixed efficient link rate, redundancy grows fastest when all
  receivers share the same rate ("All z" above "1st w rest z").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..layering.quantum import QuantumModel
from ..layering.random_joins import (
    FIGURE5_CONFIGURATIONS,
    figure5_curves,
    one_fast_rest_slow,
    redundancy_upper_bound,
)
from .api import ExperimentSpec, Verdict
from .registry import Experiment, register

__all__ = ["Figure5Spec", "Figure5Result", "DEFAULT_RECEIVER_COUNTS"]

#: Logarithmic receiver-count sweep matching the paper's 1..100 x-axis.
DEFAULT_RECEIVER_COUNTS = (1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 70, 100)


@dataclass(frozen=True)
class Figure5Spec(ExperimentSpec):
    """Spec for Figure 5: receiver-count sweep of the random-join closed form.

    ``receiver_counts=None`` uses the paper's 1..100 log sweep at either
    scale; ``simulate`` additionally cross-checks every point against the
    Monte-Carlo quantum model.
    """

    receiver_counts: Optional[Sequence[int]] = None
    transmission_rate: float = 1.0
    simulate: bool = False
    packets_per_quantum: int = 100
    num_quanta: int = 200
    seed: int = 0

    PRESETS = {
        "reduced": {"receiver_counts": DEFAULT_RECEIVER_COUNTS},
        "paper": {"receiver_counts": DEFAULT_RECEIVER_COUNTS},
    }


@dataclass
class Figure5Result:
    """Analytical (and optionally simulated) Figure 5 redundancy curves."""

    receiver_counts: Sequence[int]
    curves: Dict[str, List[float]]
    upper_bounds: Dict[str, float]
    simulated: Optional[Dict[str, List[float]]]

    @property
    def respects_upper_bounds(self) -> bool:
        return all(
            value <= self.upper_bounds[name] + 1e-9
            for name, values in self.curves.items()
            for value in values
        )


def body(spec: Figure5Spec) -> Figure5Result:
    """Evaluate the Figure 5 curves described by ``spec``."""
    receiver_counts = tuple(spec.receiver_counts)
    transmission_rate = spec.transmission_rate
    curves = figure5_curves(receiver_counts, transmission_rate)
    bounds = {}
    for name, params in FIGURE5_CONFIGURATIONS.items():
        rates = one_fast_rest_slow(max(receiver_counts), params["fast"], params["slow"])
        bounds[name] = redundancy_upper_bound(rates, transmission_rate)

    simulated: Optional[Dict[str, List[float]]] = None
    if spec.simulate:
        simulated = {}
        rng = random.Random(spec.seed)
        model = QuantumModel(
            transmission_rate=spec.packets_per_quantum, quantum=1.0
        )
        for name, params in FIGURE5_CONFIGURATIONS.items():
            points = []
            for count in receiver_counts:
                rates = {
                    index: rate * spec.packets_per_quantum / transmission_rate
                    for index, rate in enumerate(
                        one_fast_rest_slow(count, params["fast"], params["slow"])
                    )
                }
                points.append(
                    model.simulate_random_join_redundancy(rates, spec.num_quanta, rng)
                )
            simulated[name] = points

    return Figure5Result(
        receiver_counts=receiver_counts,
        curves=curves,
        upper_bounds=bounds,
        simulated=simulated,
    )


def _records(result: Figure5Result) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for name, values in result.curves.items():
        for index, (count, value) in enumerate(zip(result.receiver_counts, values)):
            row: Dict[str, object] = {
                "section": "redundancy curves",
                "configuration": name,
                "receivers": count,
                "redundancy": value,
            }
            if result.simulated is not None:
                row["simulated_redundancy"] = result.simulated[name][index]
            rows.append(row)
    rows.extend(
        {"section": "upper bounds", "configuration": name, "bound": bound}
        for name, bound in result.upper_bounds.items()
    )
    return rows


def _verdict(result: Figure5Result) -> Verdict:
    ok = result.respects_upper_bounds
    return Verdict(ok, "bounded as predicted" if ok else "MISMATCH")


EXPERIMENT = register(
    Experiment(
        key="figure5",
        title="Figure 5 (random-join redundancy)",
        spec_cls=Figure5Spec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
