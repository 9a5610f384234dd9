"""Property tests: the single-rate filler against the general construction.

``unicast_max_min_fair`` and ``single_rate_max_min_fair`` share one
progressive filler (:func:`repro.core.single_rate_session_rates`), which is
independent of the Appendix-A water-filling in :mod:`repro.core.maxmin`.
On random tree networks whose capacities span 0.1 to 1e9 (so bottleneck
leftovers of a few ulps exceed the absolute tolerance), with finite and
infinite ``rho``, the filler must agree with
``max_min_fair_allocation`` to a relative 1e-9, and the unicast allocation
must pass ``check_feasibility``.  Tier-1 runs the pinned ``ci`` hypothesis
profile; ``--hypothesis-profile=thorough`` runs the larger randomised
budget.
"""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    check_feasibility,
    max_min_fair_allocation,
    single_rate_max_min_fair,
    unicast_max_min_fair,
)
from repro.core.allocation import Allocation
from repro.network import random_multicast_network
from repro.network.network import Network


@st.composite
def wide_capacity_networks(draw, max_receivers_per_session: int) -> Network:
    """Random trees with capacities in [0.1, 1e9] and per-session ``rho``."""
    low = 10.0 ** draw(st.floats(min_value=-1.0, max_value=9.0))
    high = min(1e9, low * 10.0 ** draw(st.floats(min_value=0.0, max_value=3.0)))
    network = random_multicast_network(
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        num_links=draw(st.integers(min_value=3, max_value=25)),
        num_sessions=draw(st.integers(min_value=1, max_value=10)),
        max_receivers_per_session=max_receivers_per_session,
        capacity_range=(low, high),
    )
    sessions = [
        session.with_max_rate(
            draw(
                st.one_of(
                    st.just(math.inf),
                    st.floats(min_value=low / 10.0, max_value=high),
                )
            )
        )
        for session in network.sessions
    ]
    return Network(network.graph, sessions)


def assert_rates_close(actual: Allocation, expected: Allocation) -> None:
    for rid in actual.network.all_receiver_ids():
        assert math.isclose(actual.rate(rid), expected.rate(rid), rel_tol=1e-9), (
            rid, actual.rate(rid), expected.rate(rid)
        )


@given(wide_capacity_networks(max_receivers_per_session=1))
def test_unicast_is_feasible_and_matches_general_construction(network):
    allocation = unicast_max_min_fair(network)
    report = check_feasibility(allocation)
    assert report.feasible, report.summary()
    assert_rates_close(allocation, max_min_fair_allocation(network))


@given(wide_capacity_networks(max_receivers_per_session=5))
def test_single_rate_matches_general_construction(network):
    assert_rates_close(
        single_rate_max_min_fair(network),
        max_min_fair_allocation(network.with_all_single_rate()),
    )
