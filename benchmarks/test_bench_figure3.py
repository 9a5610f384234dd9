"""Benchmark E3 — regenerate Figure 3 (receiver removal moving rates both ways)."""

from __future__ import annotations

from repro.experiments import get_experiment


def test_bench_figure3(benchmark):
    run = benchmark(get_experiment("figure3").run)
    print("\n" + run.table())
    result = run.payload
    assert result.example_a.matches_paper
    assert result.example_b.matches_paper
    assert result.demonstrates_both_directions
