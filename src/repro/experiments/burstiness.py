"""Ablation A6 — bursty (Gilbert–Elliott) versus Bernoulli loss.

Section 4 justifies the Bernoulli loss model by appeal to measurements of
temporal loss dependence; this ablation quantifies how much the conclusions
depend on that choice.  Each receiver's fan-out link is driven by a
two-state Gilbert–Elliott process whose *average* loss rate is held fixed
while the mean burst length grows, and the redundancy of each protocol on
the shared link is measured.

Expected shape: burstiness changes redundancy only mildly (losses within a
burst hit a receiver that has already backed off), and the protocol ordering
of Figure 8 — Coordinated lowest, Uncoordinated highest — is preserved for
every burst length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.stats import mean
from ..errors import ExperimentError
from ..layering.layers import ExponentialLayerScheme
from ..protocols import make_protocol
# Called through the module so that wrappers patched onto it (span tracers)
# see the group call.
from ..simulator import engine as session_engine
from ..simulator.rng import spawn_run_entropy
from ..simulator.loss import BernoulliLoss, GilbertElliottLoss, LossProcess, NoLoss
from .api import ExperimentSpec, Verdict, check_counts, check_protocols
from .registry import Experiment, register

__all__ = [
    "BurstinessSpec",
    "BurstinessResult",
    "DEFAULT_BURST_LENGTHS",
    "gilbert_for_average_loss",
]

PROTOCOLS = ("coordinated", "deterministic", "uncoordinated")

#: Mean burst lengths to sweep; 1 reduces to the Bernoulli model.
DEFAULT_BURST_LENGTHS = (1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class BurstinessSpec(ExperimentSpec):
    """Spec for the Gilbert–Elliott burstiness ablation."""

    burst_lengths: Optional[Sequence[float]] = None
    average_loss_rate: float = 0.05
    shared_loss_rate: float = 0.0001
    num_receivers: Optional[int] = None
    duration_units: Optional[int] = None
    repetitions: Optional[int] = None
    base_seed: int = 0
    protocols: Optional[Sequence[str]] = None

    PRESETS = {
        "reduced": {
            "burst_lengths": DEFAULT_BURST_LENGTHS,
            "num_receivers": 40,
            "duration_units": 1000,
            "repetitions": 2,
            "protocols": PROTOCOLS,
        },
        "paper": {
            "burst_lengths": DEFAULT_BURST_LENGTHS,
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


def gilbert_for_average_loss(average_loss: float, mean_burst_length: float) -> LossProcess:
    """A Gilbert–Elliott process with the given average loss and burst length.

    The bad state always loses (``loss_bad = 1``) and the good state never
    does, so the mean burst length is ``1 / p_bad_to_good`` and the average
    loss rate is the stationary probability of the bad state.  A burst
    length of 1 degenerates to an independent Bernoulli process.
    """
    if not 0.0 < average_loss < 1.0:
        raise ExperimentError(f"average_loss must lie in (0, 1), got {average_loss}")
    if mean_burst_length < 1.0:
        raise ExperimentError(
            f"mean_burst_length must be at least 1, got {mean_burst_length}"
        )
    if mean_burst_length == 1.0:
        return BernoulliLoss(average_loss)
    p_bad_to_good = 1.0 / mean_burst_length
    # Stationary bad-state probability p_g2b / (p_g2b + p_b2g) = average_loss.
    p_good_to_bad = average_loss * p_bad_to_good / (1.0 - average_loss)
    if p_good_to_bad > 1.0:
        raise ExperimentError(
            "requested burst length is unattainable at this average loss rate"
        )
    return GilbertElliottLoss(p_good_to_bad, p_bad_to_good, loss_good=0.0, loss_bad=1.0)


@dataclass
class BurstinessResult:
    """Redundancy per protocol as the fan-out loss burst length grows."""

    average_loss_rate: float
    burst_lengths: Sequence[float]
    num_receivers: int
    redundancy: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def judges_ordering(self) -> bool:
        """Whether the sweep ran both protocols the ordering claim compares."""
        return {"coordinated", "uncoordinated"} <= self.redundancy.keys()

    @property
    def ordering_preserved(self) -> bool:
        """Coordinated stays at or below Uncoordinated for every burst length.

        Vacuously true when the sweep did not run both protocols.
        """
        if not self.judges_ordering:
            return True
        return all(
            coordinated <= uncoordinated + 0.25
            for coordinated, uncoordinated in zip(
                self.redundancy["coordinated"], self.redundancy["uncoordinated"]
            )
        )

    def max_shift_from_bernoulli(self, protocol: str) -> float:
        """Largest absolute redundancy change relative to the Bernoulli baseline."""
        baseline = self.redundancy[protocol][0]
        return max(abs(value - baseline) for value in self.redundancy[protocol])


def body(spec: BurstinessSpec) -> BurstinessResult:
    """Sweep the fan-out loss burst length at a fixed average loss rate.

    Every (burst length, repetition) run of one protocol shares the session
    geometry, so all of them ride one stacked batched scan
    (:func:`repro.simulator.engine.simulate_session_group`); each result is
    bit for bit what the run would give solo.
    """
    burst_lengths = tuple(spec.burst_lengths)
    result = BurstinessResult(
        average_loss_rate=spec.average_loss_rate,
        burst_lengths=burst_lengths,
        num_receivers=spec.num_receivers,
    )
    seeds = spawn_run_entropy(spec.base_seed, spec.repetitions)
    shared_loss = (
        BernoulliLoss(spec.shared_loss_rate) if spec.shared_loss_rate > 0 else NoLoss()
    )
    for protocol_name in spec.protocols:
        simulators = [
            session_engine.LayeredSessionSimulator(
                protocol=make_protocol(protocol_name),
                num_receivers=spec.num_receivers,
                shared_loss=shared_loss,
                independent_loss=[
                    gilbert_for_average_loss(spec.average_loss_rate, burst_length)
                    for _ in range(spec.num_receivers)
                ],
                scheme=ExponentialLayerScheme(8),
                duration_units=spec.duration_units,
                engine=spec.engine,
            )
            for burst_length in burst_lengths
        ]
        grouped = session_engine.simulate_session_group(
            simulators, [seeds] * len(simulators)
        )
        result.redundancy[protocol_name] = [
            mean([run.redundancy for run in runs]) for runs in grouped
        ]
    return result


def _records(result: BurstinessResult) -> List[Dict[str, object]]:
    return [
        {
            "section": "redundancy vs burst length",
            "protocol": protocol,
            "mean_burst_length": burst_length,
            "redundancy": value,
        }
        for protocol, curve in result.redundancy.items()
        for burst_length, value in zip(result.burst_lengths, curve)
    ]


def _verdict(result: BurstinessResult) -> Verdict:
    if not result.judges_ordering:
        return Verdict(
            True, "ordering not judged (needs coordinated and uncoordinated)"
        )
    ok = result.ordering_preserved
    return Verdict(
        ok, "protocol ordering robust to burstiness" if ok else "shape differs"
    )


EXPERIMENT = register(
    Experiment(
        key="burstiness",
        title="Extension: bursty loss",
        spec_cls=BurstinessSpec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
