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

from ..protocols import make_protocol
from ..simulator.star import star_redundancy_group, uniform_star
from .api import ExperimentSpec, Verdict, check_counts, check_protocols
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
    """Spec for the active-node coordination extension experiment.

    A ``protocols`` subset must include ``"active-node"``, the protocol the
    verdict judges.
    """

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

    def __post_init__(self) -> None:
        super().__post_init__()
        check_protocols(self.protocols, required=("active-node",))
        check_counts(self)


@dataclass
class ActiveNodeResult:
    """Redundancy and mean receiver rate per protocol and loss rate."""

    shared_loss_rate: float
    independent_loss_rates: Sequence[float]
    num_receivers: int
    redundancy: Dict[str, List[float]] = field(default_factory=dict)
    mean_receiver_rate: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def active_node_redundancy_near_one(self) -> bool:
        """The active node keeps redundancy within ~10% of one plus its loss overhead."""
        return all(value <= 1.25 for value in self.redundancy["active-node"])

    @property
    def active_node_is_lowest(self) -> bool:
        """The active node's redundancy is at most every other simulated
        protocol's; vacuously true when it ran alone."""
        others = [curve for name, curve in self.redundancy.items() if name != "active-node"]
        return not others or all(
            self.redundancy["active-node"][index]
            <= min(curve[index] for curve in others) + 1e-9
            for index in range(len(self.independent_loss_rates))
        )


def body(spec: ActiveNodesSpec) -> ActiveNodeResult:
    """Measure redundancy for the receiver-driven protocols and the active node.

    Every (protocol, loss rate) point goes to one
    :func:`~repro.simulator.star.star_redundancy_group` call: each
    receiver-driven protocol's points ride one stacked scan, and the
    active node's group state runs each repetition solo.
    """
    loss_rates = tuple(spec.independent_loss_rates)
    configs = [
        uniform_star(
            num_receivers=spec.num_receivers,
            shared_loss_rate=spec.shared_loss_rate,
            independent_loss_rate=independent_loss,
            duration_units=spec.duration_units,
        )
        for independent_loss in loss_rates
    ]
    measurements = iter(
        star_redundancy_group(
            [make_protocol(name) for name in spec.protocols for _ in configs],
            [config for _ in spec.protocols for config in configs],
            repetitions=spec.repetitions,
            base_seed=spec.base_seed,
            engine=spec.engine,
        )
    )
    result = ActiveNodeResult(
        shared_loss_rate=spec.shared_loss_rate,
        independent_loss_rates=loss_rates,
        num_receivers=spec.num_receivers,
    )
    for protocol_name in spec.protocols:
        points = [next(measurements) for _ in configs]
        result.redundancy[protocol_name] = [point.mean_redundancy for point in points]
        result.mean_receiver_rate[protocol_name] = [
            point.mean_receiver_rate for point in points
        ]
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
