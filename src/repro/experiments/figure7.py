"""Experiment E8 — Figure 7(a): Markov analysis of the two-receiver star.

Uses the :class:`~repro.protocols.markov.TwoReceiverMarkovModel` to study how
the split of a fixed end-to-end loss budget between shared and independent
loss — and between the two receivers — affects redundancy on the shared
link.  The headline finding to reproduce (Section 4): *redundancy is highest
when receivers experience the same end-to-end loss rates*, and sender
coordination lowers redundancy for every split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..protocols.markov import TwoReceiverMarkovModel
from .api import ExperimentSpec, Verdict
from .registry import Experiment, register

__all__ = ["Figure7Spec", "Figure7Result", "DEFAULT_SPLITS"]

#: How the fixed independent-loss budget is split between the two receivers.
DEFAULT_SPLITS = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)

PROTOCOLS = ("uncoordinated", "deterministic", "coordinated")


@dataclass(frozen=True)
class Figure7Spec(ExperimentSpec):
    """Spec for Figure 7(a): loss-split grid and Markov model parameters."""

    splits: Optional[Sequence[float]] = None
    total_independent_loss: float = 0.04
    shared_loss_rate: float = 0.0001
    num_layers: int = 8

    PRESETS = {
        "reduced": {"splits": DEFAULT_SPLITS},
        "paper": {"splits": DEFAULT_SPLITS},
    }


@dataclass
class Figure7Result:
    """Redundancy of each protocol as the loss split between receivers varies."""

    splits: Sequence[float]
    total_independent_loss: float
    shared_loss_rate: float
    redundancy: Dict[str, List[float]]
    mean_levels: Dict[str, List[Tuple[float, float]]]

    def peak_split(self, protocol: str) -> float:
        """The split at which the protocol's redundancy peaks."""
        values = self.redundancy[protocol]
        return self.splits[values.index(max(values))]

    @property
    def equal_loss_is_worst(self) -> bool:
        """True when every protocol peaks at (or adjacent to) the even split."""
        return all(abs(self.peak_split(protocol) - 0.5) <= 0.13 for protocol in self.redundancy)


def body(spec: Figure7Spec) -> Figure7Result:
    """Analyse the two-receiver star for every protocol and loss split."""
    splits = tuple(spec.splits)
    redundancy: Dict[str, List[float]] = {name: [] for name in PROTOCOLS}
    mean_levels: Dict[str, List[Tuple[float, float]]] = {name: [] for name in PROTOCOLS}
    for protocol in PROTOCOLS:
        for split in splits:
            model = TwoReceiverMarkovModel(
                protocol=protocol,
                shared_loss_rate=spec.shared_loss_rate,
                loss_rate_one=split * spec.total_independent_loss,
                loss_rate_two=(1.0 - split) * spec.total_independent_loss,
                num_layers=spec.num_layers,
            )
            analysis = model.analyze()
            redundancy[protocol].append(analysis.redundancy)
            mean_levels[protocol].append(analysis.mean_levels)
    return Figure7Result(
        splits=splits,
        total_independent_loss=spec.total_independent_loss,
        shared_loss_rate=spec.shared_loss_rate,
        redundancy=redundancy,
        mean_levels=mean_levels,
    )


def _records(result: Figure7Result) -> List[Dict[str, object]]:
    return [
        {
            "section": "redundancy vs loss split",
            "protocol": protocol,
            "split_to_r1": split,
            "redundancy": value,
            "mean_level_r1": result.mean_levels[protocol][index][0],
            "mean_level_r2": result.mean_levels[protocol][index][1],
        }
        for protocol in result.redundancy
        for index, (split, value) in enumerate(
            zip(result.splits, result.redundancy[protocol])
        )
    ]


def _verdict(result: Figure7Result) -> Verdict:
    ok = result.equal_loss_is_worst
    return Verdict(
        ok, "equal loss rates give the highest redundancy" if ok else "MISMATCH"
    )


EXPERIMENT = register(
    Experiment(
        key="figure7",
        title="Figure 7(a) Markov analysis",
        spec_cls=Figure7Spec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
