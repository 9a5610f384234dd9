"""Benchmark E6 — regenerate Figure 6 (impact of redundancy on fair rates).

Evaluates the normalised fair-rate curves for m/n in {0.01, 0.05, 0.1, 1}
and cross-checks the closed form against the water-filling construction on
concrete bottleneck networks.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def test_bench_figure6(benchmark):
    run = benchmark(get_experiment("figure6").run)
    print("\n" + run.table())
    result = run.payload
    assert result.cross_check_max_error < 1e-9
    # The m/n = 1 curve is exactly 1/v; small fractions barely move.
    assert abs(result.curves[1.0][-1] - 0.1) < 1e-9
    assert result.curves[0.01][-1] > 0.9
