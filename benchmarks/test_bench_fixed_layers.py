"""Benchmark E7 — the Section 3 fixed-layer example (no max-min fair allocation)."""

from __future__ import annotations

from repro.experiments import get_experiment


def test_bench_fixed_layers(benchmark):
    result = benchmark(get_experiment("fixed_layers").run).payload
    print("\n" + result.table())
    assert result.matches_paper_set
    assert result.no_max_min_fair_exists
