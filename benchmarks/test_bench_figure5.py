"""Benchmark E5 — regenerate Figure 5 (single-layer redundancy with random joins).

Evaluates the Appendix-B closed form for the paper's five receiver-rate
configurations over receiver counts 1..100 and prints the curves.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def test_bench_figure5(benchmark):
    run = benchmark(get_experiment("figure5").run)
    print("\n" + run.table())
    result = run.payload
    assert result.respects_upper_bounds
    # Asymptotes from the paper: All 0.1 -> 10, All 0.5 -> 2, All 0.9 -> ~1.11.
    assert abs(result.curves["All 0.1"][-1] - 10.0) < 0.05
    assert abs(result.curves["All 0.5"][-1] - 2.0) < 0.01
    assert abs(result.curves["All 0.9"][-1] - 1.0 / 0.9) < 0.01
