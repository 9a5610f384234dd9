"""Benchmark E2 — regenerate Figure 2 (single-rate fairness limitations).

Reports the single-rate and multi-rate max-min allocations on the Figure 2
topology and which fairness properties each satisfies.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def test_bench_figure2(benchmark):
    run = benchmark(get_experiment("figure2").run)
    print("\n" + run.table())
    result = run.payload
    assert result.single_rate_matches_paper
    assert result.multi_rate_is_more_max_min_fair
    assert result.single_rate_properties["per-session-link-fairness"]
    assert not result.single_rate_properties["same-path-receiver-fairness"]
    assert all(result.multi_rate_properties.values())
