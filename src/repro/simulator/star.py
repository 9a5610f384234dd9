"""Modified-star experiment configurations (Figure 7) and run helpers.

Figure 7 defines the two network models of the Section-4 experiments:

* Figure 7(a), the *analysis model*: one session, two receivers, a shared
  link with loss rate ``p`` and per-receiver fan-out links with loss rates
  ``p1`` and ``p2``; analysed with the Markov model in
  :mod:`repro.protocols.markov` and also simulatable here for validation;
* Figure 7(b), the *simulation model*: one session, 100 receivers with
  identical fan-out loss rate ``pi`` behind a shared link with loss rate
  ``p``; this is the workload of Figure 8.

The helpers below build :class:`~repro.simulator.engine.LayeredSessionSimulator`
instances for both models and measure replicated redundancy through the
one stacking driver, :func:`~repro.simulator.engine.simulate_session_group`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import SimulationError
from ..layering.layers import ExponentialLayerScheme
from ..protocols.base import LayeredProtocol
from .engine import LayeredSessionSimulator, SessionSimulationResult, simulate_session_group
from .loss import BernoulliLoss, LossProcess, NoLoss
from .metrics import RedundancyMeasurement, summarize_redundancy
from .rng import spawn_run_entropy

__all__ = [
    "StarExperimentConfig",
    "two_receiver_star",
    "uniform_star",
    "simulate_star",
    "star_redundancy",
    "star_redundancy_group",
]


@dataclass(frozen=True)
class StarExperimentConfig:
    """Parameters of a modified-star layered-multicast experiment.

    ``independent_loss_rates`` has one entry per receiver (Figure 7(a) uses
    two potentially different rates; Figure 7(b) uses one rate repeated for
    every receiver).
    """

    num_receivers: int
    shared_loss_rate: float
    independent_loss_rates: Sequence[float]
    num_layers: int = 8
    duration_units: int = 800
    warmup_units: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_receivers < 1:
            raise SimulationError("need at least one receiver")
        if len(self.independent_loss_rates) != self.num_receivers:
            raise SimulationError(
                "independent_loss_rates must have one entry per receiver "
                f"({len(self.independent_loss_rates)} != {self.num_receivers})"
            )
        if not 0.0 <= self.shared_loss_rate < 1.0:
            raise SimulationError(
                f"shared loss rate must lie in [0, 1), got {self.shared_loss_rate}"
            )
        for rate in self.independent_loss_rates:
            if not 0.0 <= rate < 1.0:
                raise SimulationError(
                    f"independent loss rate must lie in [0, 1), got {rate}"
                )


def two_receiver_star(
    shared_loss_rate: float,
    loss_rate_one: float,
    loss_rate_two: float,
    num_layers: int = 8,
    duration_units: int = 800,
) -> StarExperimentConfig:
    """The Figure 7(a) analysis model as a simulation configuration."""
    return StarExperimentConfig(
        num_receivers=2,
        shared_loss_rate=shared_loss_rate,
        independent_loss_rates=(loss_rate_one, loss_rate_two),
        num_layers=num_layers,
        duration_units=duration_units,
    )


def uniform_star(
    num_receivers: int,
    shared_loss_rate: float,
    independent_loss_rate: float,
    num_layers: int = 8,
    duration_units: int = 800,
) -> StarExperimentConfig:
    """The Figure 7(b) simulation model: identical loss on every fan-out link."""
    return StarExperimentConfig(
        num_receivers=num_receivers,
        shared_loss_rate=shared_loss_rate,
        independent_loss_rates=tuple([independent_loss_rate] * num_receivers),
        num_layers=num_layers,
        duration_units=duration_units,
    )


def _loss_process(rate: float) -> LossProcess:
    return BernoulliLoss(rate) if rate > 0 else NoLoss()


def build_simulator(
    protocol: LayeredProtocol,
    config: StarExperimentConfig,
    engine: str = "bitpacked",
) -> LayeredSessionSimulator:
    """Assemble the packet-level simulator for a star configuration."""
    rates = list(config.independent_loss_rates)
    if len(set(rates)) == 1:
        independent: object = _loss_process(rates[0])
    else:
        independent = [_loss_process(rate) for rate in rates]
    return LayeredSessionSimulator(
        protocol=protocol,
        num_receivers=config.num_receivers,
        shared_loss=_loss_process(config.shared_loss_rate),
        independent_loss=independent,
        scheme=ExponentialLayerScheme(config.num_layers),
        duration_units=config.duration_units,
        warmup_units=config.warmup_units,
        engine=engine,
    )


def simulate_star(
    protocol: LayeredProtocol,
    config: StarExperimentConfig,
    seed: Optional[int] = None,
    engine: str = "bitpacked",
) -> SessionSimulationResult:
    """Run one simulation of a star configuration."""
    return build_simulator(protocol, config, engine=engine).run(seed=seed)


def star_redundancy(
    protocol: LayeredProtocol,
    config: StarExperimentConfig,
    repetitions: int = 5,
    base_seed: int = 0,
    engine: str = "bitpacked",
) -> RedundancyMeasurement:
    """Replicate a star simulation and summarise shared-link redundancy.

    The one-configuration case of :func:`star_redundancy_group`: the
    repetitions stack into one scan where the protocol allows it, with
    results identical to running the seeds one by one.
    """
    return star_redundancy_group(
        [protocol], [config], repetitions=repetitions, base_seed=base_seed, engine=engine
    )[0]


def star_redundancy_group(
    protocols: Sequence[LayeredProtocol],
    configs: Sequence[StarExperimentConfig],
    repetitions: int = 5,
    base_seed: int = 0,
    engine: str = "bitpacked",
) -> List[RedundancyMeasurement]:
    """Measure several star configurations' redundancy in one batched group.

    One measurement per (protocol, config) pair, each summarising
    ``repetitions`` runs seeded from ``base_seed``.  Every repetition of
    every configuration goes to one
    :func:`~repro.simulator.engine.simulate_session_group` call, which
    stacks the runs that share a session geometry and protocol (the three
    Section-4 protocols with matching parameters) into a single scan;
    that is how the Figure 8 sweep amortises its per-packet bookkeeping
    across a whole loss grid.
    """
    if repetitions < 1:
        raise SimulationError(f"repetitions must be positive, got {repetitions}")
    simulators = [
        build_simulator(protocol, config, engine=engine)
        for protocol, config in zip(protocols, configs)
    ]
    seeds = [spawn_run_entropy(base_seed, repetitions)] * len(simulators)
    grouped = simulate_session_group(simulators, seeds)
    return [summarize_redundancy(results) for results in grouped]
