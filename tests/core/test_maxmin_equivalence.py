"""Vectorised-vs-reference equivalence of the water-filling construction.

The ``method="vectorized"`` engine (including its scalar small-network twin)
must reproduce the ``method="reference"`` implementation exactly: same
allocations (within tolerance) and the same freeze order, across randomised
networks mixing single-rate/multi-rate/unicast sessions, finite and infinite
``rho``, and linear and non-linear link-rate functions.
"""

from __future__ import annotations

import math

import pytest

from repro.core import (
    MaxMinTrace,
    constant_redundancy,
    max_min_fair_allocation,
    random_join_link_rate,
)
from repro.core.maxmin import (
    _ScalarWaterFillState,
    _SCALAR_ENGINE_CUTOFF,
    _VectorizedWaterFillState,
)
from repro.network import random_multicast_network

#: >= 20 randomised scenarios: (seed, multi-rate fraction, rho, functions).
EQUIVALENCE_CASES = []
for seed in range(20):
    multi_rate_fraction = (1.0, 0.5, 0.0)[seed % 3]
    max_rate = math.inf if seed % 4 else 6.0
    functions = {}
    if seed % 2 == 0:
        functions[0] = constant_redundancy(1.0 + 0.25 * (seed % 5))
    if seed % 5 == 0:
        # Non-linear v_i: exercises the bisection fallback in both engines.
        functions[1] = random_join_link_rate(40.0)
    EQUIVALENCE_CASES.append((seed, multi_rate_fraction, max_rate, functions))


def _compare(network, functions):
    reference_trace, vectorized_trace = MaxMinTrace(), MaxMinTrace()
    reference = max_min_fair_allocation(
        network, functions or None, trace=reference_trace, method="reference"
    )
    vectorized = max_min_fair_allocation(
        network, functions or None, trace=vectorized_trace, method="vectorized"
    )

    for rid in network.all_receiver_ids():
        assert vectorized.rate(rid) == pytest.approx(
            reference.rate(rid), abs=1e-7, rel=1e-7
        ), f"receiver {rid} disagrees"

    reference_freezes = [step.frozen_receivers for step in reference_trace.steps]
    vectorized_freezes = [step.frozen_receivers for step in vectorized_trace.steps]
    assert vectorized_freezes == reference_freezes, "freeze order differs"
    assert [step.saturated_links for step in vectorized_trace.steps] == [
        step.saturated_links for step in reference_trace.steps
    ]


@pytest.mark.parametrize(
    "seed,multi_rate_fraction,max_rate,functions",
    EQUIVALENCE_CASES,
    ids=[f"seed{case[0]}" for case in EQUIVALENCE_CASES],
)
def test_vectorized_matches_reference(seed, multi_rate_fraction, max_rate, functions):
    network = random_multicast_network(
        seed=seed,
        num_links=14,
        num_sessions=5,
        multi_rate_fraction=multi_rate_fraction,
        max_receivers_per_session=4,
        max_rate=max_rate,
    )
    _compare(network, functions)


@pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
@pytest.mark.parametrize("seed", [100, 101, 102])
def test_numpy_engine_matches_reference_above_cutoff(seed, nonlinear):
    """Networks above the scalar cutoff exercise the NumPy state machine.

    The ``nonlinear`` cases give every even session the Appendix-B
    ``random_join_link_rate``, so the NumPy twin's per-link bisection runs
    against the reference one.
    """
    network = random_multicast_network(
        seed=seed,
        num_links=200,
        num_sessions=70,
        multi_rate_fraction=0.7,
        max_receivers_per_session=6,
    )
    incidence = network.incidence()
    assert (
        incidence.num_receivers + incidence.num_links + incidence.num_pairs
        > _SCALAR_ENGINE_CUTOFF
    ), "test network too small to reach the NumPy engine"
    functions = {0: constant_redundancy(1.5)} if seed % 2 == 0 else {}
    if nonlinear:
        # Layer rates above every link capacity keep v_i strictly increasing
        # over the reachable rates, so every bisection ends on a saturation.
        functions.update(
            {
                session.session_id: random_join_link_rate(25.0 + seed % 7)
                for session in network.sessions
                if session.session_id % 2 == 0
            }
        )
        functions[1] = constant_redundancy(1.75)
    _compare(network, functions)


def test_scalar_and_numpy_twins_agree_directly():
    """The two vectorized-engine twins agree when driven on the same network."""
    network = random_multicast_network(
        seed=7, num_links=20, num_sessions=6, multi_rate_fraction=0.5,
        max_receivers_per_session=4,
    )
    functions = {0: constant_redundancy(2.0), 1: random_join_link_rate(30.0)}

    results = {}
    for engine_cls in (_ScalarWaterFillState, _VectorizedWaterFillState):
        state = engine_cls(network, functions, 1e-9)
        while state.has_active:
            increment = state.compute_increment()
            state.apply_increment(increment)
            state.freeze_receivers()
        results[engine_cls.__name__] = state.final_rates()

    scalar = results["_ScalarWaterFillState"]
    numpy_rates = results["_VectorizedWaterFillState"]
    assert set(scalar) == set(numpy_rates)
    for rid, rate in scalar.items():
        assert numpy_rates[rid] == pytest.approx(rate, abs=1e-9)


def test_unknown_method_rejected(figure1):
    with pytest.raises(ValueError):
        max_min_fair_allocation(figure1, method="quantum")
