"""Ablation A5 — leave latency (Section 5 future work).

"We believe that long leave latencies will also increase redundancy (a link
continues to receive at the rate prior to the leave, until the leave takes
effect, while the receiver's rate reduces immediately)."

This ablation sweeps the leave latency of the packet-level simulator (time
units between a receiver's leave and the moment the shared link stops
carrying the abandoned layer) and measures the redundancy of the session on
the shared link for the sender-coordinated protocol.  The expected shape is
monotone: larger latencies keep stale layers on the link for longer, so
redundancy rises with latency while receiver rates stay essentially flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.stats import mean
from ..errors import ExperimentError
from ..layering.layers import ExponentialLayerScheme
from ..protocols import make_protocol
from ..simulator.engine import LayeredSessionSimulator, simulate_session_group
from ..simulator.rng import spawn_run_entropy
from ..simulator.loss import BernoulliLoss, NoLoss
from .api import ExperimentSpec, Verdict, check_counts, is_real
from .registry import Experiment, register

__all__ = ["LeaveLatencySpec", "LeaveLatencyResult", "DEFAULT_LATENCIES"]

DEFAULT_LATENCIES = (0.0, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class LeaveLatencySpec(ExperimentSpec):
    """Spec for the leave-latency extension experiment."""

    latencies: Optional[Sequence[float]] = None
    protocol: str = "coordinated"
    independent_loss_rate: float = 0.05
    shared_loss_rate: float = 0.0001
    num_receivers: Optional[int] = None
    duration_units: Optional[int] = None
    repetitions: Optional[int] = None
    base_seed: int = 0

    PRESETS = {
        "reduced": {
            "latencies": DEFAULT_LATENCIES,
            "num_receivers": 40,
            "duration_units": 1000,
            "repetitions": 2,
        },
        "paper": {
            "latencies": DEFAULT_LATENCIES,
            "num_receivers": 100,
            "duration_units": 2000,
            "repetitions": 5,
        },
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        check_counts(self)
        # ``not >= 0`` also rejects NaN, which no comparison accepts.
        latencies = self.latencies
        if latencies is not None and not (
            isinstance(latencies, (list, tuple))
            and all(is_real(latency) and latency >= 0 for latency in latencies)
        ):
            raise ExperimentError(
                f"latencies must be a list of non-negative numbers, got {latencies!r}"
            )


@dataclass
class LeaveLatencyResult:
    """Redundancy and receiver rate as a function of the leave latency."""

    protocol: str
    latencies: Sequence[float]
    independent_loss_rate: float
    shared_loss_rate: float
    num_receivers: int
    redundancy: List[float] = field(default_factory=list)
    mean_receiver_rate: List[float] = field(default_factory=list)

    @property
    def redundancy_increases_with_latency(self) -> bool:
        """Redundancy at the largest latency clearly exceeds the zero-latency baseline."""
        return self.redundancy[-1] > self.redundancy[0]

    @property
    def monotone_within_tolerance(self) -> bool:
        """Redundancy never drops by more than simulation noise as latency grows."""
        return all(
            later >= earlier - 0.1
            for earlier, later in zip(self.redundancy, self.redundancy[1:])
        )


def body(spec: LeaveLatencySpec) -> LeaveLatencyResult:
    """Sweep the leave latency and measure shared-link redundancy."""
    latencies = tuple(spec.latencies)
    result = LeaveLatencyResult(
        protocol=spec.protocol,
        latencies=latencies,
        independent_loss_rate=spec.independent_loss_rate,
        shared_loss_rate=spec.shared_loss_rate,
        num_receivers=spec.num_receivers,
    )
    seeds = spawn_run_entropy(spec.base_seed, spec.repetitions)
    simulators = [
        LayeredSessionSimulator(
            protocol=make_protocol(spec.protocol),
            num_receivers=spec.num_receivers,
            shared_loss=BernoulliLoss(spec.shared_loss_rate)
            if spec.shared_loss_rate > 0
            else NoLoss(),
            independent_loss=BernoulliLoss(spec.independent_loss_rate)
            if spec.independent_loss_rate > 0
            else NoLoss(),
            scheme=ExponentialLayerScheme(8),
            duration_units=spec.duration_units,
            leave_latency=latency,
            engine=spec.engine,
        )
        for latency in latencies
    ]
    # Leave latency is a per-run value, so every latency's repetitions
    # stack into one scan.
    for runs in simulate_session_group(simulators, [seeds] * len(simulators)):
        result.redundancy.append(mean([run.redundancy for run in runs]))
        result.mean_receiver_rate.append(mean([run.mean_receiver_rate for run in runs]))
    return result


def _records(result: LeaveLatencyResult) -> List[Dict[str, object]]:
    return [
        {
            "section": "redundancy vs leave latency",
            "protocol": result.protocol,
            "leave_latency": latency,
            "redundancy": result.redundancy[index],
            "mean_receiver_rate": result.mean_receiver_rate[index],
        }
        for index, latency in enumerate(result.latencies)
    ]


def _verdict(result: LeaveLatencyResult) -> Verdict:
    ok = result.redundancy_increases_with_latency
    return Verdict(
        ok, "longer leave latency increases redundancy" if ok else "shape differs"
    )


EXPERIMENT = register(
    Experiment(
        key="leave_latency",
        title="Extension: leave latency",
        spec_cls=LeaveLatencySpec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
