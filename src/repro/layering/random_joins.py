"""Analytical redundancy of uncoordinated (random) joins — Appendix B / Figure 5.

With a single layer of rate ``lambda`` and downstream receivers that pick
their per-quantum packets uniformly at random and independently of each
other, the expected session link rate is::

    E[U_{i,j}] = lambda * (1 - prod_t (1 - a_t / lambda))

and the redundancy is that expectation divided by ``max_t a_t``.  Figure 5
plots this redundancy against the number of receivers for several receiver
rate configurations; this module provides the closed forms, the Figure 5
curve generators, the single-layer redundancy upper bound
``lambda / max_t a_t``, and a multi-layer extension showing how additional
layers reduce redundancy (the Appendix E observation).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.redundancy import random_join_link_rate
from ..errors import LayeringError
from .layers import LayerScheme

__all__ = [
    "expected_link_rate",
    "single_layer_redundancy",
    "redundancy_upper_bound",
    "uniform_rates",
    "one_fast_rest_slow",
    "FIGURE5_CONFIGURATIONS",
    "figure5_redundancy",
    "figure5_curves",
    "multi_layer_link_rate",
    "multi_layer_redundancy",
    "layer_count_ablation",
]


def expected_link_rate(rates: Sequence[float], transmission_rate: float) -> float:
    """The Appendix B expectation ``lambda * (1 - prod_t (1 - a_t / lambda))``.

    ``rates`` are the downstream receivers' (average) receiving rates
    ``a_t``.  Evaluates the water-filling link-rate function
    :func:`repro.core.redundancy.random_join_link_rate`, so both share one
    formula and one policy: rates are clamped to ``[0, lambda]``, since a
    receiver cannot take more than the layer offers.
    """
    if transmission_rate <= 0:
        raise LayeringError(
            f"transmission rate must be positive, got {transmission_rate}"
        )
    return random_join_link_rate(transmission_rate)(rates)


def single_layer_redundancy(rates: Sequence[float], transmission_rate: float) -> float:
    """Redundancy of a single layer under random joins: ``E[U] / max(a_t)``."""
    rates = list(rates)
    if not rates or max(rates) <= 0:
        return 1.0
    return expected_link_rate(rates, transmission_rate) / max(rates)


def redundancy_upper_bound(rates: Sequence[float], transmission_rate: float) -> float:
    """The paper's bound: redundancy never exceeds ``lambda / max(a_t)``."""
    rates = list(rates)
    if not rates or max(rates) <= 0:
        return 1.0
    return transmission_rate / max(rates)


# ----------------------------------------------------------------------
# Figure 5 receiver-rate configurations
# ----------------------------------------------------------------------

def uniform_rates(num_receivers: int, rate: float) -> List[float]:
    """The "All z" configurations of Figure 5: every receiver at rate ``z``."""
    if num_receivers < 1:
        raise LayeringError("need at least one receiver")
    return [rate] * num_receivers


def one_fast_rest_slow(num_receivers: int, fast: float, slow: float) -> List[float]:
    """The "1st w rest z" configurations: one receiver at ``w``, the rest at ``z``."""
    if num_receivers < 1:
        raise LayeringError("need at least one receiver")
    return [fast] + [slow] * (num_receivers - 1)


#: The five receiver-rate configurations plotted in Figure 5 (lambda = 1).
FIGURE5_CONFIGURATIONS: Dict[str, Dict[str, float]] = {
    "All 0.1": {"kind": 0.0, "fast": 0.1, "slow": 0.1},
    "All 0.5": {"kind": 0.0, "fast": 0.5, "slow": 0.5},
    "All 0.9": {"kind": 0.0, "fast": 0.9, "slow": 0.9},
    "1st .5 rest .1": {"kind": 1.0, "fast": 0.5, "slow": 0.1},
    "1st .9 rest .1": {"kind": 1.0, "fast": 0.9, "slow": 0.1},
}


def figure5_redundancy(
    configuration: str,
    num_receivers: int,
    transmission_rate: float = 1.0,
) -> float:
    """Redundancy for one Figure 5 configuration at one receiver count."""
    if configuration not in FIGURE5_CONFIGURATIONS:
        raise LayeringError(
            f"unknown Figure 5 configuration {configuration!r}; choose from "
            f"{sorted(FIGURE5_CONFIGURATIONS)}"
        )
    params = FIGURE5_CONFIGURATIONS[configuration]
    rates = one_fast_rest_slow(num_receivers, params["fast"], params["slow"])
    return single_layer_redundancy(rates, transmission_rate)


def figure5_curves(
    receiver_counts: Sequence[int],
    transmission_rate: float = 1.0,
) -> Dict[str, List[float]]:
    """All five Figure 5 curves evaluated at the given receiver counts."""
    return {
        name: [
            figure5_redundancy(name, count, transmission_rate)
            for count in receiver_counts
        ]
        for name in FIGURE5_CONFIGURATIONS
    }


# ----------------------------------------------------------------------
# multi-layer extension (Appendix E observation)
# ----------------------------------------------------------------------

def _per_layer_demands(rate: float, scheme: LayerScheme) -> List[float]:
    """How much of each layer a receiver with average rate ``rate`` needs.

    The receiver subscribes fully to every layer whose cumulative rate it can
    afford and takes the remaining fraction of the next layer via timed
    joins/leaves; higher layers are not needed at all.
    """
    demands: List[float] = []
    remaining = max(rate, 0.0)
    for layer_index in range(1, scheme.num_layers + 1):
        layer_rate = scheme.layer_rate(layer_index)
        take = min(remaining, layer_rate)
        demands.append(take)
        remaining -= take
    return demands


def multi_layer_link_rate(rates: Sequence[float], scheme: LayerScheme) -> float:
    """Expected link rate with random joins spread over several layers.

    Each receiver fully subscribes to the layers below its rate and picks
    packets uniformly at random from the first layer it only partially
    needs.  Fully subscribed layers are carried in full; partially needed
    layers follow the Appendix-B union expectation per layer.  Receiver
    rates must not exceed the scheme's maximum aggregate rate.
    """
    rates = list(rates)
    if not rates:
        return 0.0
    if max(rates) > scheme.max_rate + 1e-9:
        raise LayeringError(
            f"receiver rate {max(rates)} exceeds the scheme maximum {scheme.max_rate}"
        )
    per_receiver = [_per_layer_demands(rate, scheme) for rate in rates]
    total = 0.0
    for layer_index in range(1, scheme.num_layers + 1):
        layer_rate = scheme.layer_rate(layer_index)
        demands = [demand[layer_index - 1] for demand in per_receiver]
        if all(demand <= 0 for demand in demands):
            continue
        total += expected_link_rate(demands, layer_rate)
    return total


def multi_layer_redundancy(rates: Sequence[float], scheme: LayerScheme) -> float:
    """Redundancy with random joins over a multi-layer scheme."""
    rates = list(rates)
    if not rates or max(rates) <= 0:
        return 1.0
    return multi_layer_link_rate(rates, scheme) / max(rates)


def layer_count_ablation(
    rates: Sequence[float],
    max_rate: float,
    layer_counts: Sequence[int],
) -> Dict[int, float]:
    """Redundancy as a function of the number of (uniform) layers.

    Splits the total rate ``max_rate`` into ``k`` equal layers for each ``k``
    in ``layer_counts`` and reports the random-join redundancy.  Reproduces
    the paper's observation that additional layers reduce (and never
    increase) redundancy relative to the single-layer case.
    """
    from .layers import UniformLayerScheme

    results: Dict[int, float] = {}
    for count in layer_counts:
        if count < 1:
            raise LayeringError(f"layer count must be positive, got {count}")
        scheme = UniformLayerScheme(count, max_rate / count)
        results[count] = multi_layer_redundancy(rates, scheme)
    return results
