"""Ablation A4 — active-node coordination (Section 5 future work).

Compares the three receiver-driven protocols of Section 4 against the
active-node extension, in which the branch-point router makes group-wide
join/leave decisions.  The paper's conjecture is that moving the decision
into the network "would make a redundancy of one feasible"; this experiment
measures how close each scheme gets on the Figure 7(b) modified star.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.tables import format_series
from ..protocols import make_protocol
from ..simulator.star import star_redundancy, uniform_star
from .api import ExperimentSpec, Verdict
from .registry import Experiment, register

__all__ = [
    "ActiveNodesSpec",
    "ActiveNodeResult",
    "DEFAULT_INDEPENDENT_LOSS_RATES",
]

PROTOCOLS = ("active-node", "coordinated", "deterministic", "uncoordinated")

DEFAULT_INDEPENDENT_LOSS_RATES = (0.01, 0.05, 0.1)


@dataclass(frozen=True)
class ActiveNodesSpec(ExperimentSpec):
    """Spec for the active-node coordination extension experiment."""

    independent_loss_rates: Optional[Sequence[float]] = None
    shared_loss_rate: float = 0.0001
    num_receivers: Optional[int] = None
    duration_units: Optional[int] = None
    repetitions: Optional[int] = None
    base_seed: int = 0
    protocols: Optional[Sequence[str]] = None

    PRESETS = {
        "reduced": {
            "independent_loss_rates": DEFAULT_INDEPENDENT_LOSS_RATES,
            "num_receivers": 40,
            "duration_units": 1000,
            "repetitions": 2,
            "protocols": PROTOCOLS,
        },
        "paper": {
            "independent_loss_rates": DEFAULT_INDEPENDENT_LOSS_RATES,
            "num_receivers": 100,
            "duration_units": 2000,
            "repetitions": 5,
            "protocols": PROTOCOLS,
        },
    }


@dataclass
class ActiveNodeResult:
    """Redundancy and mean receiver rate per protocol and loss rate."""

    shared_loss_rate: float
    independent_loss_rates: Sequence[float]
    num_receivers: int
    redundancy: Dict[str, List[float]] = field(default_factory=dict)
    mean_receiver_rate: Dict[str, List[float]] = field(default_factory=dict)

    def table(self) -> str:
        redundancy_table = format_series(
            "independent link loss", list(self.independent_loss_rates), self.redundancy
        )
        rate_table = format_series(
            "independent link loss", list(self.independent_loss_rates), self.mean_receiver_rate
        )
        return (
            "redundancy on the shared link\n" + redundancy_table
            + "\n\nmean receiver rate (packets per unit)\n" + rate_table
        )

    @property
    def active_node_redundancy_near_one(self) -> bool:
        """The active node keeps redundancy within ~10% of one plus its loss overhead."""
        return all(value <= 1.25 for value in self.redundancy["active-node"])

    @property
    def active_node_is_lowest(self) -> bool:
        return all(
            self.redundancy["active-node"][index]
            <= min(self.redundancy[name][index] for name in PROTOCOLS if name != "active-node")
            + 1e-9
            for index in range(len(self.independent_loss_rates))
        )


def body(spec: ActiveNodesSpec) -> ActiveNodeResult:
    """Measure redundancy for the receiver-driven protocols and the active node."""
    loss_rates = tuple(spec.independent_loss_rates)
    result = ActiveNodeResult(
        shared_loss_rate=spec.shared_loss_rate,
        independent_loss_rates=loss_rates,
        num_receivers=spec.num_receivers,
    )
    for protocol_name in spec.protocols:
        redundancy: List[float] = []
        rates: List[float] = []
        for independent_loss in loss_rates:
            config = uniform_star(
                num_receivers=spec.num_receivers,
                shared_loss_rate=spec.shared_loss_rate,
                independent_loss_rate=independent_loss,
                duration_units=spec.duration_units,
            )
            measurement = star_redundancy(
                make_protocol(protocol_name),
                config,
                repetitions=spec.repetitions,
                base_seed=spec.base_seed,
                engine=spec.engine,
            )
            redundancy.append(measurement.mean_redundancy)
            rates.append(measurement.mean_receiver_rate)
        result.redundancy[protocol_name] = redundancy
        result.mean_receiver_rate[protocol_name] = rates
    return result


def _records(result: ActiveNodeResult) -> List[Dict[str, object]]:
    return [
        {
            "section": "redundancy and receiver rate",
            "protocol": protocol,
            "independent_loss_rate": loss,
            "redundancy": result.redundancy[protocol][index],
            "mean_receiver_rate": result.mean_receiver_rate[protocol][index],
        }
        for protocol in result.redundancy
        for index, loss in enumerate(result.independent_loss_rates)
    ]


def _verdict(result: ActiveNodeResult) -> Verdict:
    ok = result.active_node_redundancy_near_one and result.active_node_is_lowest
    return Verdict(ok, "redundancy of one is feasible" if ok else "shape differs")


EXPERIMENT = register(
    Experiment(
        key="active_nodes",
        title="Extension: active-node coordination",
        spec_cls=ActiveNodesSpec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
