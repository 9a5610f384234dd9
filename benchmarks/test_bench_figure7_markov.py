"""Benchmark E8 — the Figure 7(a) Markov analysis of the two-receiver star.

Sweeps the split of a fixed independent-loss budget between the two
receivers for all three protocols and verifies the paper's finding that
redundancy peaks when the receivers' end-to-end loss rates are equal.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def test_bench_figure7_markov(benchmark):
    run = benchmark(get_experiment("figure7").run)
    print("\n" + run.table())
    result = run.payload
    assert result.equal_loss_is_worst
    for split_index in range(len(result.splits)):
        assert (
            result.redundancy["coordinated"][split_index]
            <= result.redundancy["uncoordinated"][split_index] + 1e-9
        )
