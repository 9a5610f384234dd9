"""Ablation A2 — loss correlation: shared versus independent loss at fixed budget.

Verifies Section 4's claim that coordinated (shared) loss keeps receivers
synchronised and therefore lowers redundancy for every protocol.
"""

from __future__ import annotations

from repro.experiments import get_experiment


def _run():
    return get_experiment("loss_correlation").run(
        total_loss_rate=0.05,
        correlated_fractions=(0.0, 0.25, 0.5, 0.75, 1.0),
        num_receivers=40,
        duration_units=1000,
        repetitions=2,
    )


def test_bench_ablation_loss_correlation(benchmark):
    run = benchmark.pedantic(_run, rounds=1, iterations=1)
    print("\n" + run.table())
    result = run.payload
    assert result.all_protocols_benefit_from_correlation
    # "Coordinated joins reduce redundancy most significantly when the
    # correlation in loss among receivers is high" (Section 4): the gap to the
    # uncoordinated protocol is widest when the loss budget is fully shared.
    coordinated = result.redundancy["coordinated"]
    uncoordinated = result.redundancy["uncoordinated"]
    assert uncoordinated[-1] - coordinated[-1] >= uncoordinated[0] - coordinated[0] - 0.25
