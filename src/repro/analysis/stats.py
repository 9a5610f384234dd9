"""Summary statistics and confidence intervals for simulation experiments.

The paper reports each Figure 8 point as the mean of 30 experiments with a
variance "less than 1% with 95% confidence".  This module provides the
small statistics toolkit needed to make the same statements about our own
runs: sample means and variances, Student-t confidence intervals, relative
half-widths, and a compact :class:`SummaryStatistics` container.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import ExperimentError

__all__ = [
    "SummaryStatistics",
    "mean",
    "sample_variance",
    "sample_stddev",
    "standard_error",
    "confidence_interval",
    "relative_half_width",
    "summarize",
    "jain_fairness_index",
]


def _require_values(values: Sequence[float], minimum: int = 1) -> List[float]:
    data = [float(v) for v in values]
    if len(data) < minimum:
        raise ExperimentError(
            f"need at least {minimum} value(s), got {len(data)}"
        )
    return data


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (exact summation, clamped into ``[min, max]``).

    Floating-point summation and division can land a final ulp outside
    the data range (e.g. ``sum([1.9] * 3) / 3 < 1.9``), violating the
    interval invariants downstream consumers rely on; the true mean
    always lies within [min, max], so clamping only removes rounding
    error.
    """
    data = _require_values(values)
    average = math.fsum(data) / len(data)
    return min(max(average, min(data)), max(data))


def sample_variance(values: Sequence[float]) -> float:
    """Unbiased sample variance (``n - 1`` denominator); 0 for a single value."""
    data = _require_values(values)
    if len(data) == 1:
        return 0.0
    centre = mean(data)
    return sum((v - centre) ** 2 for v in data) / (len(data) - 1)


def sample_stddev(values: Sequence[float]) -> float:
    """Unbiased sample standard deviation."""
    return math.sqrt(sample_variance(values))


def standard_error(values: Sequence[float]) -> float:
    """Standard error of the mean."""
    data = _require_values(values)
    return sample_stddev(data) / math.sqrt(len(data))


def confidence_interval(
    values: Sequence[float],
    confidence: float = 0.95,
) -> Tuple[float, float]:
    """Student-t confidence interval for the mean.

    For a single sample the interval degenerates to the point itself.
    """
    if not 0.0 < confidence < 1.0:
        raise ExperimentError(f"confidence must lie in (0, 1), got {confidence}")
    data = _require_values(values)
    centre = mean(data)
    if len(data) == 1:
        return (centre, centre)
    half_width = _t_half_width(data, confidence)
    return (centre - half_width, centre + half_width)


def _t_half_width(data: Sequence[float], confidence: float) -> float:
    se = standard_error(data)
    if se == 0.0:
        return 0.0
    # Imported here so only runs that state a confidence interval load SciPy.
    # stdtrit is the Student-t quantile scipy.stats.t.ppf computes; calling
    # it directly keeps scipy.stats, a slower import still, out as well.
    from scipy.special import stdtrit

    quantile = stdtrit(len(data) - 1, 0.5 + confidence / 2.0)
    return float(quantile) * se


def relative_half_width(values: Sequence[float], confidence: float = 0.95) -> float:
    """Confidence half-width divided by the mean (0 when the mean is 0)."""
    data = _require_values(values)
    centre = mean(data)
    if centre == 0.0:
        return 0.0
    if len(data) == 1:
        return 0.0
    return _t_half_width(data, confidence) / abs(centre)


@dataclass(frozen=True)
class SummaryStatistics:
    """Mean, dispersion, and confidence information for a set of repetitions."""

    count: int
    mean: float
    variance: float
    stddev: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def relative_half_width(self) -> float:
        if self.mean == 0.0:
            return 0.0
        return self.ci_half_width / abs(self.mean)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mean:.4g} +/- {self.ci_half_width:.2g} "
            f"({int(self.confidence * 100)}% CI, n={self.count})"
        )


def summarize(values: Sequence[float], confidence: float = 0.95) -> SummaryStatistics:
    """Full summary of a set of experiment repetitions."""
    data = _require_values(values)
    low, high = confidence_interval(data, confidence)
    return SummaryStatistics(
        count=len(data),
        mean=mean(data),
        variance=sample_variance(data),
        stddev=sample_stddev(data),
        minimum=min(data),
        maximum=max(data),
        ci_low=low,
        ci_high=high,
        confidence=confidence,
    )


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    Not used by the paper directly but a standard companion metric when
    comparing allocations; equals 1 for perfectly equal rates and approaches
    ``1/n`` when one receiver takes everything.
    """
    data = _require_values(values)
    square_of_sum = sum(data) ** 2
    sum_of_squares = sum(v * v for v in data)
    if sum_of_squares == 0.0:
        return 1.0
    return square_of_sum / (len(data) * sum_of_squares)
