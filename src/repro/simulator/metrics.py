"""Aggregation of simulation runs into the statistics the paper reports.

Figure 8 reports, per (protocol, loss configuration) point, the mean
redundancy over 30 independent runs together with a 95% confidence
statement.  :func:`summarize_redundancy` packages replicated runs (see
:func:`repro.simulator.star.star_redundancy_group`) as a
:class:`RedundancyMeasurement`: the per-run redundancies with their
summary statistics (via :mod:`repro.analysis.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..analysis.stats import SummaryStatistics, summarize
from ..errors import SimulationError
from .engine import SessionSimulationResult

__all__ = ["RedundancyMeasurement", "summarize_redundancy"]


@dataclass
class RedundancyMeasurement:
    """Redundancy of a session on the shared link, aggregated over repetitions."""

    protocol: str
    shared_loss_rate: float
    independent_loss_rate: float
    num_receivers: int
    redundancies: List[float]
    receiver_rate_means: List[float]
    statistics: SummaryStatistics

    @property
    def mean_redundancy(self) -> float:
        return self.statistics.mean

    @property
    def mean_receiver_rate(self) -> float:
        return sum(self.receiver_rate_means) / len(self.receiver_rate_means)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.protocol}: shared={self.shared_loss_rate:g} "
            f"independent={self.independent_loss_rate:g} "
            f"redundancy={self.statistics}"
        )


def summarize_redundancy(
    results: Sequence[SessionSimulationResult],
    confidence: float = 0.95,
) -> RedundancyMeasurement:
    """Package replicated run results as a redundancy measurement."""
    if not results:
        raise SimulationError("cannot summarise an empty result list")
    first = results[0]
    redundancies = [result.redundancy for result in results]
    return RedundancyMeasurement(
        protocol=first.protocol,
        shared_loss_rate=first.shared_loss_rate,
        independent_loss_rate=float(first.independent_loss_rates.mean()),
        num_receivers=first.num_receivers,
        redundancies=redundancies,
        receiver_rate_means=[result.mean_receiver_rate for result in results],
        statistics=summarize(redundancies, confidence),
    )
