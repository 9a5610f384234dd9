"""Bench-envelope regression against the recorded ``BENCH_core.json``.

The committed baseline used to be eyeball-diffed: regenerate, stare at the
stdout table, decide whether the numbers moved.  This module turns the two
properties we actually relied on into assertions (seeding ROADMAP item 3's
performance tracking):

* the *recorded* baseline itself must stay well-formed and keep the engine
  ordering the docs are justified by: on the Figure-8 panel (b) engine
  comparison the bit-packed scan beats the per-packet reference loop;
* a *live* re-measurement (``-m slow``, run with the other scale
  benchmarks) must land inside a generous tolerance band of the recorded
  medians, so a silent performance cliff in the scan fails the bench step
  instead of shipping unnoticed.

The band is wide (``ENVELOPE = 4``) because shared CI machines jitter by
integer factors; the test is a cliff detector, not a microbenchmark.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_core.json"

#: Benchmarks the envelope tracks, and the live/recorded tolerance factor.
ENGINE_COMPARISON = (
    "test_bench_figure8_engine_comparison[bitpacked]",
    "test_bench_figure8_engine_comparison[reference]",
    "test_bench_figure8a_engine_comparison[bitpacked]",
)
FIGURE8_PANELS = (
    "test_bench_figure8a_low_shared_loss",
    "test_bench_figure8b_high_shared_loss",
)
LARGE_SCALE = (
    "test_bench_water_filling_scalefree_csr",
)
ENVELOPE = 4.0


def _recorded_stats():
    with open(BASELINE_PATH) as handle:
        data = json.load(handle)
    return {bench["name"]: bench["stats"] for bench in data["benchmarks"]}


class TestRecordedBaseline:
    """Fast sanity of the committed baseline (runs in tier-1)."""

    def test_baseline_records_every_tracked_benchmark(self):
        stats = _recorded_stats()
        for name in ENGINE_COMPARISON + FIGURE8_PANELS + LARGE_SCALE:
            assert name in stats, f"BENCH_core.json lost {name}"
            for field in ("mean", "median", "min"):
                assert stats[name][field] > 0.0

    def test_recorded_engine_ordering_holds(self):
        # The bit-packed default rests on this ordering; regenerating the
        # baseline on a machine where it no longer holds must fail loudly.
        stats = _recorded_stats()
        bitpacked = stats["test_bench_figure8_engine_comparison[bitpacked]"]
        reference = stats["test_bench_figure8_engine_comparison[reference]"]
        assert bitpacked["mean"] < reference["mean"]


@pytest.mark.slow
class TestLiveEnvelope:
    """Re-measure and compare against the recorded medians (``-m slow``)."""

    @pytest.mark.parametrize("engine", ("bitpacked",))
    def test_panel_b_engine_comparison_within_envelope(self, engine):
        from test_bench_figure8 import _run_panel

        recorded = _recorded_stats()[
            f"test_bench_figure8_engine_comparison[{engine}]"
        ]["median"]
        _run_panel(0.05, engine=engine, duration=400)  # warm caches
        elapsed = min(
            _timed(_run_panel, 0.05, engine=engine, duration=400)
            for _ in range(2)
        )
        assert recorded / ENVELOPE <= elapsed <= recorded * ENVELOPE, (
            f"{engine} panel (b) took {elapsed:.3f}s; recorded median "
            f"{recorded:.3f}s (envelope x{ENVELOPE})"
        )


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start
