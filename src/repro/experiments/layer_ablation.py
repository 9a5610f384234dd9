"""Ablation A1 — how the number of layers affects random-join redundancy.

Section 3 (summarising Appendix E of the technical report) observes that
"having additional layers often leads to a reduction in redundancy that is
sometimes substantial, and that it never increases redundancy beyond that
exhibited for the single-layer case".  This ablation evaluates the
multi-layer random-join model for several receiver-rate populations and
layer counts and checks both halves of that statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ExperimentError
from ..layering.random_joins import layer_count_ablation, one_fast_rest_slow, uniform_rates
from .api import ExperimentSpec, Verdict
from .registry import Experiment, register

__all__ = ["LayerAblationSpec", "LayerAblationResult", "DEFAULT_LAYER_COUNTS"]

DEFAULT_LAYER_COUNTS = (1, 2, 4, 8)


@dataclass(frozen=True)
class LayerAblationSpec(ExperimentSpec):
    """Spec for the layer-count ablation (paper scale sweeps more counts)."""

    layer_counts: Optional[Sequence[int]] = None
    max_rate: float = 1.0

    PRESETS = {
        "reduced": {"layer_counts": DEFAULT_LAYER_COUNTS},
        "paper": {"layer_counts": (1, 2, 4, 8, 16, 32)},
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        counts = self.layer_counts
        if counts is not None and not (
            isinstance(counts, (list, tuple))
            and counts
            and counts[0] == 1
            and all(
                isinstance(count, int) and not isinstance(count, bool) and count >= 1
                for count in counts
            )
        ):
            raise ExperimentError(
                "layer_counts must be a non-empty list of positive integers starting "
                f"with 1 (the single-layer baseline), got {counts!r}"
            )


#: Receiver-rate populations studied (transmission budget 1.0).
DEFAULT_POPULATIONS = {
    "All 0.1 (20 receivers)": uniform_rates(20, 0.1),
    "All 0.5 (20 receivers)": uniform_rates(20, 0.5),
    "1st .9 rest .1 (20 receivers)": one_fast_rest_slow(20, 0.9, 0.1),
    "All 0.9 (20 receivers)": uniform_rates(20, 0.9),
}


@dataclass
class LayerAblationResult:
    """Redundancy per population and layer count."""

    layer_counts: Sequence[int]
    max_rate: float
    redundancy: Dict[str, Dict[int, float]]

    @property
    def never_worse_than_single_layer(self) -> bool:
        """Multi-layer redundancy never exceeds the single-layer redundancy."""
        return all(
            values[count] <= values[self.layer_counts[0]] + 1e-9
            for values in self.redundancy.values()
            for count in self.layer_counts
        )

    @property
    def monotone_in_layers(self) -> bool:
        """Redundancy is non-increasing as layers are added."""
        counts = list(self.layer_counts)
        return all(
            values[counts[index + 1]] <= values[counts[index]] + 1e-9
            for values in self.redundancy.values()
            for index in range(len(counts) - 1)
        )


def body(spec: LayerAblationSpec) -> LayerAblationResult:
    """Evaluate random-join redundancy for each population and layer count."""
    layer_counts = tuple(spec.layer_counts)
    return LayerAblationResult(
        layer_counts=layer_counts,
        max_rate=spec.max_rate,
        redundancy={
            name: layer_count_ablation(rates, spec.max_rate, layer_counts)
            for name, rates in DEFAULT_POPULATIONS.items()
        },
    )


def _records(result: LayerAblationResult) -> List[Dict[str, object]]:
    return [
        {
            "section": "redundancy by layer count",
            "population": name,
            "layers": count,
            "redundancy": values[count],
        }
        for name, values in result.redundancy.items()
        for count in result.layer_counts
    ]


def _verdict(result: LayerAblationResult) -> Verdict:
    ok = result.never_worse_than_single_layer
    return Verdict(ok, "more layers never increase redundancy" if ok else "MISMATCH")


EXPERIMENT = register(
    Experiment(
        key="layer_ablation",
        title="Ablation: layer count",
        spec_cls=LayerAblationSpec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
