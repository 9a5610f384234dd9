"""Packet-level layered-multicast simulator (the Section-4 substrate).

* :mod:`~repro.simulator.loss` — Bernoulli and Gilbert–Elliott loss
  processes;
* :mod:`~repro.simulator.packets` — the sender's periodic packet schedule
  with sender-coordinated sync marks;
* :mod:`~repro.simulator.engine` — the chunked, bit-packed simulation of a
  session on a modified star (with the per-packet reference loop as
  ``engine="reference"``), measuring shared-link redundancy;
* :mod:`~repro.simulator.rng` — counter-based Philox streams (RNG scheme
  5): per-run stream families and per-receiver draw streams;
* :mod:`~repro.simulator.star` — Figure 7 experiment configurations;
* :mod:`~repro.simulator.metrics` — summary statistics of replicated runs.
"""

from .engine import (
    ENGINES,
    RNG_SCHEME_VERSION,
    LayeredSessionSimulator,
    SessionSimulationResult,
    simulate_layered_session,
    simulate_session_group,
)
from .loss import BernoulliLoss, GilbertElliottLoss, LossProcess, NoLoss
from .metrics import RedundancyMeasurement, summarize_redundancy
from .packets import Packet, PacketSchedule
from .rng import ReceiverDrawStreams, RunStreams, spawn_run_entropy
from .star import (
    StarExperimentConfig,
    build_simulator,
    simulate_star,
    star_redundancy,
    star_redundancy_group,
    two_receiver_star,
    uniform_star,
)

__all__ = [
    "ENGINES",
    "RNG_SCHEME_VERSION",
    "LayeredSessionSimulator",
    "SessionSimulationResult",
    "simulate_layered_session",
    "simulate_session_group",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "LossProcess",
    "NoLoss",
    "RedundancyMeasurement",
    "summarize_redundancy",
    "Packet",
    "PacketSchedule",
    "ReceiverDrawStreams",
    "RunStreams",
    "spawn_run_entropy",
    "StarExperimentConfig",
    "build_simulator",
    "simulate_star",
    "star_redundancy",
    "star_redundancy_group",
    "two_receiver_star",
    "uniform_star",
]
