"""Benchmark E1 — regenerate Figure 1 (sample network, multi-rate max-min fairness).

Prints the receiver rates, session link rates, and fairness-property status
for the Figure 1 network and checks them against the values in the paper.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def test_bench_figure1(benchmark):
    run = benchmark(get_experiment("figure1").run)
    print("\n" + run.table())
    result = run.payload
    assert result.matches_paper
    assert all(result.properties.values())
