"""Definition-based oracle for every water-filling solver.

The equivalence suites compare the solvers with each other, which cannot
catch a bug they share.  This suite certifies each allocation against the
definition instead, using only the library's own checkers:

* ``check_feasibility`` passes (rates within ``[0, rho]``, links within
  capacity under their link-rate functions, single-rate sessions uniform);
* ``fully_utilized_receiver_fairness`` holds for every multi-rate and
  unicast receiver: it is at its ``rho`` or crosses a fully utilised link on
  which nobody receives more (its bottleneck);
* in every single-rate session at least one receiver passes that check
  (the session's rate is set by its most constrained receiver).

The three solvers — the reference state, the scalar twin and the NumPy
twin — are each driven directly on every generated network, so all three
run whatever the network's size.  Networks are random multicast trees and
Barabasi-Albert, Waxman and fat-tree graphs placed through
``Network.from_graph``, with mixed session types, finite and infinite
``rho``, and linear and non-linear link-rate functions (random-join layer
rates above and below the link capacities), plus the networks the
``scalefree_bottleneck`` experiment itself solves at its reduced preset.  Tier-1 runs the
pinned ``ci`` hypothesis profile; ``--hypothesis-profile=thorough`` runs the
larger randomised budget.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    check_feasibility,
    constant_redundancy,
    fully_utilized_receiver_fairness,
    max_min_fair_allocation,
    random_join_link_rate,
)
from repro.core.allocation import DEFAULT_TOLERANCE, Allocation
from repro.core.maxmin import (
    _SCALAR_ENGINE_CUTOFF,
    _merged_link_rate_functions,
    _ScalarWaterFillState,
    _VectorizedWaterFillState,
    _water_fill,
    _WaterFillState,
)
from repro.experiments.registry import get_experiment
from repro.experiments.scalefree_bottleneck import _build_network
from repro.network import SessionType, random_multicast_network
from repro.network.network import Network
from repro.network.topology.generators import barabasi_albert, fat_tree, waxman

SOLVER_STATES = (_WaterFillState, _ScalarWaterFillState, _VectorizedWaterFillState)


def certify(allocation: Allocation) -> None:
    """Assert that ``allocation`` is max-min fair by the definition."""
    feasibility = check_feasibility(allocation)
    assert feasibility.feasible, feasibility.summary()
    network = allocation.network
    for session in network.sessions:
        report = fully_utilized_receiver_fairness(allocation, session.receiver_ids)
        if session.is_single_rate and not session.is_unicast:
            failed = {violation.subject for violation in report.violations}
            assert failed != set(session.receiver_ids), (
                f"no receiver of single-rate session {session.name} has a bottleneck\n"
                + report.summary()
            )
        else:
            assert report.holds, report.summary()


def certify_every_solver(network: Network) -> None:
    functions = _merged_link_rate_functions(network, None)
    for state_cls in SOLVER_STATES:
        state = state_cls(network, functions, DEFAULT_TOLERANCE)
        rates = _water_fill(state, network, DEFAULT_TOLERANCE)
        certify(Allocation(network, rates, functions))


@st.composite
def varied_sessions(draw, network: Network) -> Network:
    """``network`` with drawn session types, ``rho`` and link-rate functions."""
    max_capacity = max(link.capacity for link in network.graph.links)
    sessions = []
    functions = {}
    for session in network.sessions:
        session_type = draw(st.sampled_from(list(SessionType)))
        rho = draw(
            st.one_of(
                st.just(math.inf),
                st.floats(min_value=0.1, max_value=1.2 * max_capacity),
            )
        )
        sessions.append(session.with_type(session_type).with_max_rate(rho))
        kind = draw(st.sampled_from(["max", "constant", "shared-only", "random-join"]))
        if kind == "constant":
            functions[session.session_id] = constant_redundancy(
                draw(st.floats(min_value=1.0, max_value=3.0))
            )
        elif kind == "shared-only":
            functions[session.session_id] = constant_redundancy(
                draw(st.floats(min_value=1.0, max_value=3.0)), min_receivers=2
            )
        elif kind == "random-join":
            # Layer rates below capacity too: v_i is then flat above the
            # layer rate, which the solvers fold into the session's rho.
            functions[session.session_id] = random_join_link_rate(
                max_capacity * draw(st.floats(min_value=0.05, max_value=4.0))
            )
    return Network(network.graph, sessions, link_rate_functions=functions)


@st.composite
def tree_networks(draw) -> Network:
    network = random_multicast_network(
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        num_links=draw(st.integers(min_value=3, max_value=30)),
        num_sessions=draw(st.integers(min_value=1, max_value=8)),
        max_receivers_per_session=draw(st.integers(min_value=1, max_value=5)),
    )
    return draw(varied_sessions(network))


@st.composite
def graph_networks(draw) -> Network:
    model = draw(st.sampled_from(["ba", "waxman", "fat-tree"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    if model == "ba":
        graph = barabasi_albert(
            draw(st.integers(min_value=6, max_value=40)),
            draw(st.integers(min_value=1, max_value=3)),
            seed=seed,
        )
    elif model == "waxman":
        graph = waxman(draw(st.integers(min_value=6, max_value=40)), seed=seed)
    else:
        graph = fat_tree(draw(st.sampled_from([2, 4])))
    network = Network.from_graph(
        graph,
        num_sessions=draw(st.integers(min_value=1, max_value=8)),
        receivers_per_session=draw(st.integers(min_value=1, max_value=4)),
        seed=seed,
    )
    return draw(varied_sessions(network))


@given(tree_networks())
def test_every_solver_is_max_min_fair_on_trees(network):
    certify_every_solver(network)


@given(graph_networks())
def test_every_solver_is_max_min_fair_on_generated_graphs(network):
    certify_every_solver(network)


@given(
    st.sampled_from(["ba", "waxman", "fat-tree", "abilene", "triangle"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_every_solver_is_max_min_fair_on_scalefree_bottleneck_networks(descriptor, seed):
    """The experiment's own networks, at its reduced preset's sizes."""
    spec = get_experiment("scalefree_bottleneck").make_spec().resolved()
    certify_every_solver(_build_network(descriptor, spec, seed))


@settings(max_examples=max(3, settings.default.max_examples // 10))
@given(st.integers(min_value=0, max_value=2**31 - 1), st.data())
def test_default_solver_above_cutoff_is_max_min_fair(seed, data):
    """The public default on networks big enough to dispatch to the NumPy twin."""
    network = Network.from_graph(
        barabasi_albert(400, 2, seed=seed),
        num_sessions=100,
        receivers_per_session=3,
        seed=seed,
    )
    incidence = network.incidence()
    assert (
        incidence.num_receivers + incidence.num_links + incidence.num_pairs
        > _SCALAR_ENGINE_CUTOFF
    ), "network too small to reach the NumPy twin"
    network = data.draw(varied_sessions(network))
    certify(max_min_fair_allocation(network))


def test_random_join_layer_rates_below_capacity_never_stall():
    """Receivers cap at their layer rate instead of stalling the water-fill.

    Above its layer rate a random-join link-rate function is flat, so no
    link saturates and, without the cap, every solver raised "water-filling
    stalled" on 18 of these 60 trees.
    """
    for seed in range(60):
        network = random_multicast_network(
            seed, num_links=60, num_sessions=15, max_receivers_per_session=6
        )
        rng = random.Random(seed)
        functions = {
            session.session_id: random_join_link_rate(rng.uniform(4.0, 12.0))
            for session in network.sessions
        }
        certify_every_solver(
            Network(network.graph, network.sessions, link_rate_functions=functions)
        )
