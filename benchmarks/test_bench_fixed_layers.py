"""Benchmark E7 — the Section 3 fixed-layer example (no max-min fair allocation)."""

from __future__ import annotations

from repro.experiments import get_experiment


def test_bench_fixed_layers(benchmark):
    run = benchmark(get_experiment("fixed_layers").run)
    print("\n" + run.table())
    result = run.payload
    assert result.matches_paper_set
    assert result.no_max_min_fair_exists
