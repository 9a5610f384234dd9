"""Benchmarks for the Section-5 extension experiments (A4-A6).

* active-node coordination: redundancy of one is feasible when joins/leaves
  are decided at the branch-point router;
* leave latency: longer leave latencies increase redundancy;
* bursty loss: the Figure-8 protocol ordering survives Gilbert–Elliott loss.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def test_bench_extension_active_nodes(benchmark):
    run = benchmark.pedantic(get_experiment("active_nodes").run, rounds=1, iterations=1)
    print("\n" + run.table())
    result = run.payload
    assert result.active_node_redundancy_near_one
    assert result.active_node_is_lowest


def test_bench_extension_leave_latency(benchmark):
    run = benchmark.pedantic(get_experiment("leave_latency").run, rounds=1, iterations=1)
    print("\n" + run.table())
    result = run.payload
    assert result.redundancy_increases_with_latency
    assert result.monotone_within_tolerance


def test_bench_extension_burstiness(benchmark):
    run = benchmark.pedantic(get_experiment("burstiness").run, rounds=1, iterations=1)
    print("\n" + run.table())
    result = run.payload
    assert result.ordering_preserved
