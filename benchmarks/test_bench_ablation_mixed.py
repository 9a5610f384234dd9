"""Ablation A3 — converting single-rate sessions to multi-rate (Lemma 3).

Sweeps the number of multi-rate sessions in a random network and checks the
min-unfavorability chain and the Theorem 2 properties at every step.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def test_bench_ablation_mixed_sessions(benchmark):
    run = benchmark(get_experiment("mixed_sessions").run)
    print("\n" + run.table())
    result = run.payload
    assert result.ordering_is_monotone
    assert result.theorem2_holds_throughout
