"""Benchmark E4 — regenerate Figure 4 (redundancy breaking session-perspective fairness)."""

from __future__ import annotations

from repro.experiments import get_experiment


def test_bench_figure4(benchmark):
    run = benchmark(get_experiment("figure4").run)
    print("\n" + run.table())
    result = run.payload
    assert result.matches_paper
    assert result.shared_link_redundancy == 2.0
