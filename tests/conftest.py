"""Shared fixtures: the paper's example networks and small synthetic networks.

``route_store_oracle`` checks a network's route store (the CSR arrays its
routing table builds, and the frozenset accessors that read them) against
sets and lists derived from ``network.data_path`` alone.

Also registers the hypothesis profiles for the differential engine fuzzer
(``tests/simulator/test_engine_fuzz.py``):

``ci`` (default)
    Derandomized with a bounded example budget — every run draws the same
    examples, so tier-1 stays deterministic and a failure reproduces
    without a shared example database.
``thorough``
    A nightly-style budget with fresh randomness each run; opt in with
    ``pytest --hypothesis-profile=thorough``.
"""

from __future__ import annotations

from itertools import accumulate

import pytest

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.register_profile(
    "thorough",
    max_examples=400,
    derandomize=False,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("ci")

from repro.network import (
    NetworkGraph,
    Network,
    Session,
    SessionType,
    figure1_network,
    figure2_network,
    figure3a_network,
    figure3b_network,
    figure4_network,
    random_multicast_network,
    single_bottleneck_network,
)


@pytest.fixture
def figure1() -> Network:
    return figure1_network()


@pytest.fixture
def figure2_single() -> Network:
    return figure2_network(single_rate=True)


@pytest.fixture
def figure2_multi() -> Network:
    return figure2_network(single_rate=False)


@pytest.fixture
def figure3a() -> Network:
    return figure3a_network()


@pytest.fixture
def figure3b() -> Network:
    return figure3b_network()


@pytest.fixture
def figure4() -> Network:
    return figure4_network()


@pytest.fixture
def two_flow_line() -> Network:
    """Two unicast sessions sharing a single 10-capacity link plus a private link."""
    graph = NetworkGraph()
    graph.add_link("a", "b", capacity=10.0, name="shared")
    graph.add_link("b", "c", capacity=3.0, name="private")
    sessions = [
        Session(0, "a", ["b"], SessionType.MULTI_RATE),
        Session(1, "a", ["c"], SessionType.MULTI_RATE),
    ]
    return Network(graph, sessions)


@pytest.fixture
def bottleneck_network() -> Network:
    return single_bottleneck_network(num_sessions=4, capacity=8.0)


@pytest.fixture(params=[0, 1, 2, 3])
def small_random_network(request) -> Network:
    """A deterministic family of small random multicast networks."""
    return random_multicast_network(
        seed=request.param, num_links=10, num_sessions=4, max_receivers_per_session=3
    )


def _check_route_store(network: Network) -> None:
    receivers = network.all_receiver_ids()
    paths = {rid: network.data_path(rid) for rid in receivers}
    links = sorted({link for path in paths.values() for link in path})
    # (link, session) -> downstream receiver indices, ascending.
    members = {}
    for index, rid in enumerate(receivers):
        for link in paths[rid]:
            members.setdefault((link, rid[0]), []).append(index)
    pairs = sorted(members)
    receiver_pairs = [
        [pair for pair, key in enumerate(pairs) if index in members[key]]
        for index in range(len(receivers))
    ]

    incidence = network.incidence()
    assert incidence.relevant_links == links
    assert incidence.pair_link.tolist() == [links.index(link) for link, _ in pairs]
    assert incidence.pair_session.tolist() == [session for _, session in pairs]
    assert incidence.pair_ptr.tolist() == list(accumulate([len(members[key]) for key in pairs], initial=0))
    assert incidence.pair_receivers.tolist() == [r for key in pairs for r in members[key]]
    assert incidence.receiver_pair_ptr.tolist() == list(accumulate(map(len, receiver_pairs), initial=0))
    assert incidence.receiver_pairs.tolist() == [pair for row in receiver_pairs for pair in row]

    routing = network.routing
    assert routing.links_used() == frozenset(links)
    session_ids = [session.session_id for session in network.sessions]
    for session_id in session_ids:
        assert routing.session_data_path(session_id) == frozenset(
            link for rid in receivers if rid[0] == session_id for link in paths[rid]
        )
    for link in range(-1, network.num_links + 1):
        on_link = frozenset(rid for rid in receivers if link in paths[rid])
        assert routing.receivers_on_link(link) == on_link
        assert routing.sessions_on_link(link) == frozenset(rid[0] for rid in on_link)
        for session_id in session_ids:
            assert routing.receivers_of_session_on_link(session_id, link) == frozenset(
                rid for rid in on_link if rid[0] == session_id
            )


@pytest.fixture(scope="session")
def route_store_oracle():
    """A checker of a network's route store against its data-paths (see module docstring)."""
    return _check_route_store
