"""Redundancy: session link-rate functions ``v_i`` and derived quantities.

Section 3 of the paper defines the *redundancy* of a link ``l_j`` for a
session ``S_i`` as::

    redundancy = u_{i,j} / max{a_{i,k} : r_{i,k} in R_{i,j}}

the ratio of the bandwidth the session actually uses on the link to the
theoretical lower bound needed to deliver the downstream receivers' rates
(the *efficient link rate*).  A session is *efficient* on a link when its
redundancy there is one.

Section 3.1 generalises the network model by attaching to each session a
*link-rate function* ``v_i`` that maps the set of downstream receiver rates
to the session link rate, with ``v_i(X) >= max(X)``.  This module provides
the standard choices of ``v_i``:

* :func:`efficient_link_rate` — the Section 2 assumption ``v_i = max``;
* :func:`constant_redundancy` — ``v_i(X) = factor * max(X)`` (used by the
  Figure 4 and Figure 6 analyses and Lemma 4);
* :func:`random_join_link_rate` — the Appendix B expectation for a single
  layer with uncoordinated (random) joins,
  ``E[U_{i,j}] = lambda * (1 - prod_t (1 - a_t / lambda))``.

plus the closed forms behind Figure 6 (:func:`bottleneck_fair_rate`,
:func:`normalized_fair_rate`) and helpers for measuring redundancy from an
observed link rate.

A link-rate function that stops growing above some receiver rate declares
that rate as a ``transmission_rate`` attribute; :func:`flat_rate` reads it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from ..errors import AllocationError

__all__ = [
    "LinkRateFunction",
    "efficient_link_rate",
    "constant_redundancy",
    "random_join_link_rate",
    "flat_rate",
    "link_redundancy",
    "bottleneck_fair_rate",
    "normalized_fair_rate",
]

#: Type alias mirroring :data:`repro.network.network.LinkRateFunction` without
#: importing the network package (avoids a circular dependency).
LinkRateFunction = Callable[[Sequence[float]], float]


def efficient_link_rate(rates: Sequence[float]) -> float:
    """The efficient link rate ``max{a_{i,k}}`` (Section 2's assumption).

    Returns 0 for an empty rate collection (the session does not use the
    link at all).
    """
    rates = list(rates)
    if not rates:
        return 0.0
    return max(rates)


# The water-filling algorithm exploits linear link-rate functions to take
# exact steps; functions built by the factories below advertise their slope
# through the ``redundancy_factor`` attribute.
efficient_link_rate.redundancy_factor = 1.0  # type: ignore[attr-defined]


def constant_redundancy(factor: float, min_receivers: int = 1) -> LinkRateFunction:
    """A link-rate function with a fixed redundancy ``factor >= 1``.

    ``v(X) = factor * max(X)``: the session uses ``factor`` times the
    efficient link rate.  This is the model used by the Figure 6 fair-rate
    analysis, Lemma 4, and the Figure 4 example (factor 2 on the shared
    link).

    ``min_receivers`` controls on how many downstream receivers the
    inefficiency kicks in.  Redundancy physically arises from imperfect
    coordination of joins and leaves *among several receivers sharing a
    link*; a link with a single downstream receiver is always efficient.
    Passing ``min_receivers=2`` models exactly that (and reproduces the
    Figure 4 numbers, where only the shared link ``l4`` is inflated), while
    the default ``min_receivers=1`` applies the factor unconditionally
    (the abstract Lemma 4 / Figure 6 model).
    """
    if factor < 1.0:
        raise AllocationError(f"redundancy factor must be >= 1, got {factor}")
    if min_receivers < 1:
        raise AllocationError(f"min_receivers must be >= 1, got {min_receivers}")

    def link_rate(rates: Sequence[float]) -> float:
        rates = list(rates)
        if not rates:
            return 0.0
        if len(rates) < min_receivers:
            return max(rates)
        return factor * max(rates)

    if min_receivers == 1:
        # The function is then globally linear in the growing receiver rate,
        # which lets the water-filling construction take exact steps.
        link_rate.redundancy_factor = float(factor)  # type: ignore[attr-defined]
    link_rate.__name__ = f"constant_redundancy_{factor}"  # type: ignore[attr-defined]
    return link_rate


def _expected_random_join_rate(rates: Sequence[float], transmission_rate: float) -> float:
    """The Appendix B expectation behind :func:`random_join_link_rate`."""
    rates = list(rates)
    if not rates:
        return 0.0
    # Work in log space (log1p/expm1) so that tiny receiver rates do not
    # underflow to a link rate of exactly zero.
    log_miss = 0.0
    for rate in rates:
        fraction = min(max(rate, 0.0), transmission_rate) / transmission_rate
        if fraction >= 1.0:
            return transmission_rate
        log_miss += math.log1p(-fraction)
    return transmission_rate * (-math.expm1(log_miss))


def random_join_link_rate(transmission_rate: float) -> LinkRateFunction:
    """The Appendix B link-rate function ``v_i`` of one layer under random joins.

    A single layer transmits at rate ``transmission_rate`` (the paper's
    ``lambda``); each downstream receiver ``t`` independently picks the
    ``a_t * delta_t`` packets it receives uniformly at random from the
    ``lambda * delta_t`` packets of the quantum.  A packet crosses the link
    iff at least one receiver picked it, so the expected link rate is::

        E[U] = lambda * (1 - prod_t (1 - a_t / lambda))

    Receiver rates are clamped to ``[0, lambda]``: a receiver cannot take
    more than the layer offers.  The function is therefore flat above
    ``lambda`` and declares it as its ``transmission_rate`` attribute (see
    :func:`flat_rate`).
    """
    if transmission_rate <= 0:
        raise AllocationError(
            f"layer transmission rate must be positive, got {transmission_rate}"
        )

    link_rate = functools.partial(
        _expected_random_join_rate, transmission_rate=transmission_rate
    )
    link_rate.transmission_rate = float(transmission_rate)  # type: ignore[attr-defined]
    link_rate.__name__ = f"random_join_link_rate_{transmission_rate}"  # type: ignore[attr-defined]
    return link_rate


def flat_rate(function: LinkRateFunction) -> float:
    """The receiver rate above which ``function`` stops growing (``inf`` if undeclared).

    Raising a receiver past this rate adds no load on any link, so no link
    can saturate it there: the water-filling solvers and the fairness
    properties fold it into the session's maximum desired rate ``rho``.
    """
    return float(getattr(function, "transmission_rate", math.inf))


def link_redundancy(link_rate: float, receiver_rates: Sequence[float]) -> float:
    """Redundancy of a link for a session: ``u_{i,j} / max(a_{i,k})``.

    Returns 1.0 when the session has no downstream receivers with positive
    rate (both numerator and the efficient rate are then zero and the session
    is trivially efficient).
    """
    efficient = efficient_link_rate(receiver_rates)
    if efficient <= 0.0:
        return 1.0
    return link_rate / efficient


def bottleneck_fair_rate(
    num_sessions: int,
    num_redundant: int,
    redundancy: float,
    capacity: float = 1.0,
) -> float:
    """The Figure 6 closed form: fair rate on a shared bottleneck.

    ``n`` sessions are constrained by the same link of capacity ``c``; ``m``
    of them are multi-rate with redundancy ``v`` on that link and the rest
    are efficient.  Every receiver's max-min fair rate is::

        c / ((n - m) + m * v)
    """
    if num_sessions < 1:
        raise AllocationError("need at least one session")
    if not 0 <= num_redundant <= num_sessions:
        raise AllocationError(
            f"num_redundant must lie in [0, num_sessions], got {num_redundant}"
        )
    if redundancy < 1.0:
        raise AllocationError(f"redundancy must be >= 1, got {redundancy}")
    if capacity <= 0:
        raise AllocationError(f"capacity must be positive, got {capacity}")
    denominator = (num_sessions - num_redundant) + num_redundant * redundancy
    return capacity / denominator


def normalized_fair_rate(redundant_fraction: float, redundancy: float) -> float:
    """The Figure 6 y-axis: fair rate normalised by the all-efficient rate ``c/n``.

    With ``f = m/n`` the fraction of sessions exhibiting redundancy ``v``::

        normalised rate = 1 / ((1 - f) + f * v)

    which is 1 when ``v = 1`` or ``f = 0`` and decays towards ``1/v`` as the
    whole population becomes redundant.
    """
    if not 0.0 <= redundant_fraction <= 1.0:
        raise AllocationError(
            f"redundant fraction must lie in [0, 1], got {redundant_fraction}"
        )
    if redundancy < 1.0:
        raise AllocationError(f"redundancy must be >= 1, got {redundancy}")
    return 1.0 / ((1.0 - redundant_fraction) + redundant_fraction * redundancy)
