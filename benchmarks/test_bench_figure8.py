"""Benchmarks E9/E10 — regenerate Figure 8 (protocol redundancy vs independent loss).

Each panel simulates the three Section-4 protocols on the Figure 7(b)
modified star and prints redundancy on the shared link as a function of the
independent (fan-out) loss rate.  Panel (a) uses a negligible shared loss
rate, panel (b) a high one (0.05).

Scale: 60 receivers, 1200 sender time units, 3 repetitions and 5 loss points
per curve — reduced from the paper's 100 receivers / 100k packets / 30
repetitions so the full figure regenerates in seconds while the qualitative
shape (Coordinated lowest and below ~2.5, redundancy rising with independent
loss, everything below 5) is already stable.  Run
``get_experiment("figure8_panel").run(scale="paper", ...)`` for paper scale.

The panels run on the default ``bitpacked`` engine, which stacks each
protocol's loss sweep and repetitions into one bit-packed event scan; the
``slow`` engine-comparison benchmarks pit it against the per-packet
reference loop on reduced workloads for both shared-loss regimes
(identical results, very different wall time — see
``docs/performance.md`` for recorded numbers).
"""

from __future__ import annotations

import pytest

from repro.experiments import get_experiment
from repro.protocols.kernel import ENGINES

INDEPENDENT_LOSS_RATES = (0.005, 0.02, 0.05, 0.08, 0.1)
NUM_RECEIVERS = 60
DURATION_UNITS = 1200
REPETITIONS = 3


def _run_panel(shared_loss_rate: float, engine: str = "bitpacked", duration: int = DURATION_UNITS):
    return get_experiment("figure8_panel").run(
        shared_loss_rate=shared_loss_rate,
        independent_loss_rates=INDEPENDENT_LOSS_RATES,
        num_receivers=NUM_RECEIVERS,
        duration_units=duration,
        repetitions=REPETITIONS,
        engine=engine,
    )


def _check_panel(panel, coordinated_cap: float) -> None:
    assert panel.coordinated_is_lowest
    assert panel.max_redundancy("coordinated") < coordinated_cap
    for protocol in ("coordinated", "uncoordinated", "deterministic"):
        curve = panel.curve(protocol)
        assert max(curve) < 5.0
        # Redundancy grows (allowing small simulation noise) with independent loss.
        assert curve[-1] >= curve[0] - 0.2


def test_bench_figure8a_low_shared_loss(benchmark):
    run = benchmark.pedantic(_run_panel, args=(0.0001,), rounds=1, iterations=1)
    print(f"\nFigure 8(a) - shared loss 0.0001, {NUM_RECEIVERS} receivers\n" + run.table())
    _check_panel(run.payload, coordinated_cap=2.5)


def test_bench_figure8b_high_shared_loss(benchmark):
    run = benchmark.pedantic(_run_panel, args=(0.05,), rounds=1, iterations=1)
    print(f"\nFigure 8(b) - shared loss 0.05, {NUM_RECEIVERS} receivers\n" + run.table())
    _check_panel(run.payload, coordinated_cap=2.5)


@pytest.mark.slow
@pytest.mark.parametrize("engine", ENGINES)
def test_bench_figure8_engine_comparison(benchmark, engine):
    """Both engines on a reduced high-shared-loss panel (same results).

    The scan gets three rounds; the reference loop is several times slower
    and one round suffices.
    """
    run = benchmark.pedantic(
        _run_panel, args=(0.05,), kwargs={"engine": engine, "duration": 400},
        rounds=1 if engine == "reference" else 3, iterations=1,
    )
    _check_panel(run.payload, coordinated_cap=2.6)


@pytest.mark.slow
@pytest.mark.parametrize("engine", ENGINES)
def test_bench_figure8a_engine_comparison(benchmark, engine):
    """Both engines on the low-shared-loss panel (a)."""
    run = benchmark.pedantic(
        _run_panel, args=(0.0001,), kwargs={"engine": engine, "duration": 400},
        rounds=1 if engine == "reference" else 3, iterations=1,
    )
    _check_panel(run.payload, coordinated_cap=2.6)
