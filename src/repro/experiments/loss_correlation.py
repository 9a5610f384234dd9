"""Ablation A2 — loss correlation: shared versus independent loss at fixed total.

Section 4's summary states that "coordinated joins reduce redundancy most
significantly when the correlation in loss among receivers is high".  This
ablation keeps each receiver's end-to-end per-packet loss rate (approximately)
constant while shifting the loss budget between the shared link (perfectly
correlated across receivers) and the fan-out links (independent), and
measures the redundancy of each protocol on the shared link.

The expected shape: for every protocol, redundancy falls as the correlated
share of loss grows (receivers that lose the same packets stay synchronised),
and the sender-Coordinated protocol profits the most — with fully shared loss
it becomes nearly efficient (redundancy close to 1) while the uncoordinated
protocols remain well above it, which is the paper's "coordinated joins
reduce redundancy most significantly when the correlation in loss among
receivers is high".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ExperimentError
from ..protocols import make_protocol
from ..simulator.star import star_redundancy_group, uniform_star
from .api import ExperimentSpec, Verdict, check_counts, check_protocols, is_real
from .registry import Experiment, register

__all__ = [
    "LossCorrelationSpec",
    "LossCorrelationResult",
    "DEFAULT_CORRELATED_FRACTIONS",
]

PROTOCOLS = ("coordinated", "uncoordinated", "deterministic")

#: Fraction of the end-to-end loss budget placed on the shared link.
DEFAULT_CORRELATED_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class LossCorrelationSpec(ExperimentSpec):
    """Spec for the loss-correlation ablation (shared vs independent loss)."""

    total_loss_rate: float = 0.05
    correlated_fractions: Optional[Sequence[float]] = None
    num_receivers: Optional[int] = None
    duration_units: Optional[int] = None
    repetitions: Optional[int] = None
    base_seed: int = 0
    protocols: Optional[Sequence[str]] = None

    PRESETS = {
        "reduced": {
            "correlated_fractions": DEFAULT_CORRELATED_FRACTIONS,
            "num_receivers": 40,
            "duration_units": 1000,
            "repetitions": 2,
            "protocols": PROTOCOLS,
        },
        "paper": {
            "correlated_fractions": DEFAULT_CORRELATED_FRACTIONS,
            "num_receivers": 100,
            "duration_units": 2000,
            "repetitions": 5,
            "protocols": PROTOCOLS,
        },
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        check_protocols(self.protocols)
        check_counts(self)
        # The negated range tests also reject NaN.
        if not is_real(self.total_loss_rate) or not 0.0 < self.total_loss_rate < 1.0:
            raise ExperimentError(
                f"total_loss_rate must lie in (0, 1), got {self.total_loss_rate!r}"
            )
        fractions = self.correlated_fractions
        if fractions is not None and not (
            isinstance(fractions, (list, tuple))
            and all(is_real(f) and 0.0 <= f <= 1.0 for f in fractions)
        ):
            raise ExperimentError(
                f"correlated_fractions must be a list of fractions in [0, 1], got {fractions!r}"
            )


@dataclass
class LossCorrelationResult:
    """Redundancy of each protocol as loss moves from independent to shared."""

    total_loss_rate: float
    correlated_fractions: Sequence[float]
    num_receivers: int
    redundancy: Dict[str, List[float]] = field(default_factory=dict)

    def correlated_helps(self, protocol: str) -> bool:
        """Redundancy with fully shared loss is at most that with fully independent loss."""
        curve = self.redundancy[protocol]
        return curve[-1] <= curve[0] + 1e-9

    @property
    def all_protocols_benefit_from_correlation(self) -> bool:
        return all(self.correlated_helps(protocol) for protocol in self.redundancy)


def body(spec: LossCorrelationSpec) -> LossCorrelationResult:
    """Sweep the correlated share of a fixed end-to-end loss budget.

    Every (protocol, fraction) point goes to one
    :func:`~repro.simulator.star.star_redundancy_group` call, so each
    protocol's whole sweep rides one stacked scan.
    """
    total_loss_rate = spec.total_loss_rate
    fractions = tuple(spec.correlated_fractions)
    configs = []
    for fraction in fractions:
        shared = fraction * total_loss_rate
        # Keep the end-to-end loss (1 - (1-shared)(1-independent)) equal
        # to the budget as the split varies.
        independent = 1.0 - (1.0 - total_loss_rate) / (1.0 - shared)
        configs.append(
            uniform_star(
                num_receivers=spec.num_receivers,
                shared_loss_rate=shared,
                independent_loss_rate=max(independent, 0.0),
                duration_units=spec.duration_units,
            )
        )
    measurements = iter(
        star_redundancy_group(
            [make_protocol(name) for name in spec.protocols for _ in configs],
            [config for _ in spec.protocols for config in configs],
            repetitions=spec.repetitions,
            base_seed=spec.base_seed,
            engine=spec.engine,
        )
    )
    result = LossCorrelationResult(
        total_loss_rate=total_loss_rate,
        correlated_fractions=fractions,
        num_receivers=spec.num_receivers,
    )
    for protocol_name in spec.protocols:
        result.redundancy[protocol_name] = [
            next(measurements).mean_redundancy for _ in configs
        ]
    return result


def _records(result: LossCorrelationResult) -> List[Dict[str, object]]:
    return [
        {
            "section": "redundancy vs correlated loss share",
            "protocol": protocol,
            "correlated_fraction": fraction,
            "redundancy": value,
        }
        for protocol, curve in result.redundancy.items()
        for fraction, value in zip(result.correlated_fractions, curve)
    ]


def _verdict(result: LossCorrelationResult) -> Verdict:
    ok = result.all_protocols_benefit_from_correlation
    return Verdict(ok, "correlated loss lowers redundancy" if ok else "shape differs")


EXPERIMENT = register(
    Experiment(
        key="loss_correlation",
        title="Ablation: loss correlation",
        spec_cls=LossCorrelationSpec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
