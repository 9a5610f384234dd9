"""CSR conformance: the NumPy water-filling twin and the incidence gathers.

``NetworkIncidence`` holds the receiver/link/pair incidence as CSR arrays
only, and the NumPy twin of the water-filling construction reads nothing
else.  This suite drives that twin directly (so it runs even on networks
small enough for the scalar twin) on every built-in topology plus generated
graphs and checks it against ``method="reference"``: same rates, same
saturation order, same multi-vs-single-rate throughput.  The CSR gather and
``receivers_on_links`` are checked against masks built straight from
``network.data_path``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MaxMinTrace, max_min_fair_allocation
from repro.core.allocation import DEFAULT_TOLERANCE, Allocation
from repro.core.maxmin import (
    _merged_link_rate_functions,
    _VectorizedWaterFillState,
    _water_fill,
)
from repro.network import (
    figure1_network,
    figure2_network,
    figure3a_network,
    figure3b_network,
    figure4_network,
    modified_star_network,
    random_multicast_network,
    shared_bottleneck_with_redundancy,
    single_bottleneck_network,
    star_network,
)
from repro.network.incidence import NetworkIncidence, csr_gather
from repro.network.network import Network
from repro.network.topology.generators import barabasi_albert, fat_tree, waxman

BUILTIN_TOPOLOGIES = {
    "figure1": lambda: figure1_network(),
    "figure2": lambda: figure2_network(),
    "figure3a": lambda: figure3a_network(),
    "figure3b": lambda: figure3b_network(),
    "figure4": lambda: figure4_network(),
    "single_bottleneck": lambda: single_bottleneck_network(4, capacity=2.0,
                                                           receivers_per_session=3),
    "shared_bottleneck": lambda: shared_bottleneck_with_redundancy(6, 2, 2.5, 3.0),
    "star": lambda: star_network(5, shared_capacity=4.0, fanout_capacity=1.0),
    "modified_star": lambda: modified_star_network(4),
    "random_tree": lambda: random_multicast_network(seed=3, num_links=18,
                                                    num_sessions=6,
                                                    multi_rate_fraction=0.5),
    "ba": lambda: Network.from_graph(barabasi_albert(40, 2, seed=1),
                                     num_sessions=6, receivers_per_session=3, seed=2),
    "waxman": lambda: Network.from_graph(waxman(30, seed=4),
                                         num_sessions=5, receivers_per_session=3, seed=5),
    "fat_tree": lambda: Network.from_graph(fat_tree(4),
                                           num_sessions=6, receivers_per_session=3, seed=6),
}


def _numpy_twin(network: Network, trace: MaxMinTrace) -> Allocation:
    """The full construction on the NumPy state, whatever the problem size."""
    functions = _merged_link_rate_functions(network, None)
    state = _VectorizedWaterFillState(network, functions, DEFAULT_TOLERANCE)
    rates = _water_fill(state, network, DEFAULT_TOLERANCE, trace)
    return Allocation(network, rates, functions)


@pytest.mark.parametrize("name", sorted(BUILTIN_TOPOLOGIES))
def test_numpy_twin_matches_reference(name):
    network = BUILTIN_TOPOLOGIES[name]()
    numpy_trace, reference_trace = MaxMinTrace(), MaxMinTrace()
    numpy_alloc = _numpy_twin(network, numpy_trace)
    reference = max_min_fair_allocation(network, trace=reference_trace, method="reference")

    assert list(numpy_alloc) == list(reference)
    for rid in reference:
        assert numpy_alloc[rid] == pytest.approx(reference[rid], abs=1e-9, rel=1e-9)
    assert [step.saturated_links for step in numpy_trace.steps] == [
        step.saturated_links for step in reference_trace.steps
    ]
    assert [step.frozen_receivers for step in numpy_trace.steps] == [
        step.frozen_receivers for step in reference_trace.steps
    ]


@pytest.mark.parametrize("name", ["figure2", "shared_bottleneck", "ba"])
def test_numpy_twin_redundancy_matches_reference(name):
    """Multi-vs-single-rate throughputs (the redundancy comparison) agree."""
    network = BUILTIN_TOPOLOGIES[name]()
    for variant in (network.with_all_multi_rate(), network.with_all_single_rate()):
        twin = _numpy_twin(variant, MaxMinTrace()).total_receiver_throughput()
        reference = max_min_fair_allocation(
            variant, method="reference"
        ).total_receiver_throughput()
        assert twin == pytest.approx(reference, abs=1e-9, rel=1e-9)


def _subsets(count: int):
    """None, one, every row, and a subset with repeats, out of order."""
    return {
        "none": np.array([], dtype=np.int64),
        "one": np.array([count // 2]),
        "all": np.arange(count, dtype=np.int64),
        "repeated": np.array([count - 1, 0, count - 1, count // 2, 0]),
    }


@pytest.mark.parametrize("name", sorted(BUILTIN_TOPOLOGIES))
def test_receivers_on_links_matches_data_paths(name):
    network = BUILTIN_TOPOLOGIES[name]()
    incidence = network.incidence()
    for label, links in _subsets(incidence.num_links).items():
        link_ids = {incidence.relevant_links[int(link)] for link in links}
        expected = np.array(
            [bool(link_ids & set(network.data_path(rid))) for rid in incidence.receiver_ids]
        )
        np.testing.assert_array_equal(
            incidence.receivers_on_links(links), expected, err_msg=label
        )


@pytest.mark.parametrize("name", sorted(BUILTIN_TOPOLOGIES))
def test_csr_gather_matches_slice_concatenation(name):
    """Both CSR families the solver gathers from, against the data-paths."""
    network = BUILTIN_TOPOLOGIES[name]()
    incidence = network.incidence()
    compact = incidence.link_index
    for label, links in _subsets(incidence.num_links).items():
        gathered = csr_gather(
            incidence.link_receiver_ptr, incidence.link_receiver_indices, links
        )
        expected = [
            r
            for link in links
            for r, rid in enumerate(incidence.receiver_ids)
            if incidence.relevant_links[int(link)] in network.data_path(rid)
        ]
        assert gathered.tolist() == expected, label
    for label, rows in _subsets(incidence.num_receivers).items():
        gathered = csr_gather(
            incidence.receiver_link_ptr, incidence.receiver_link_indices, rows
        )
        expected = [
            link
            for r in rows
            for link in sorted(compact[j] for j in network.data_path(incidence.receiver_ids[r]))
        ]
        assert gathered.tolist() == expected, label
        pairs = csr_gather(incidence.receiver_pair_ptr, incidence.receiver_pairs, rows)
        assert pairs.dtype == np.int64
        assert pairs.tolist() == [
            int(p) for r in rows for p in incidence.receiver_incident_pairs(int(r))
        ], label


def test_density_heuristic():
    small = NetworkIncidence(BUILTIN_TOPOLOGIES["figure1"]())
    assert small.is_sparse is False  # tiny networks are not described as sparse
    assert 0.0 < small.density <= 1.0
    large = Network.from_graph(
        barabasi_albert(400, 2, seed=3), num_sessions=100, receivers_per_session=3, seed=4
    ).incidence()
    assert large.is_sparse is True
    assert 0.0 < large.density < 0.05
