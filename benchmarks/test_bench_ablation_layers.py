"""Ablation A1 — layer count versus random-join redundancy.

Verifies the paper's Appendix-E observation that adding layers reduces (and
never increases) redundancy relative to a single layer.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def test_bench_ablation_layer_count(benchmark):
    run = benchmark(get_experiment("layer_ablation").run)
    print("\n" + run.table())
    result = run.payload
    assert result.never_worse_than_single_layer
    assert result.monotone_in_layers
