"""Deterministic multi-process fan-out: parallel results must equal serial.

Fan-out itself is :func:`repro.experiments.resilient.resilient_map`; its
fault handling lives in ``test_resilient.py``, and the plain-map contract
the sweeps rely on (order, in-process single task, fail-fast) is pinned
here.
"""

from __future__ import annotations

import os
import re
import time

import pytest

from repro.errors import ExecutionError, SimulationError
from repro.experiments import run_figure8_panel
from repro.experiments.parallel import (
    default_jobs,
    run_star_repetitions,
    task_seeds,
)
from repro.experiments.resilient import resilient_map
from repro.experiments.runner import EXPERIMENT_KEYS, run_all
from repro.simulator import uniform_star


def _square(value):
    return value * value


def _pid():
    return os.getpid()


def _fail_first_else_sleep(marker_dir, value):
    """Task 0 fails immediately; every other task leaves a footprint and
    sleeps, so the test can count how many tasks actually executed."""
    if value == 0:
        raise ValueError("injected failure for value 0")
    with open(os.path.join(marker_dir, f"ran-{value}"), "w"):
        pass
    time.sleep(0.5)
    return value


class TestFanOut:
    def test_serial_and_parallel_agree_and_preserve_order(self):
        tasks = [(value,) for value in range(8)]
        serial = resilient_map(_square, tasks, jobs=1)
        parallel = resilient_map(_square, tasks, jobs=2)
        assert serial == parallel == [value * value for value in range(8)]

    def test_single_task_stays_in_process(self):
        assert resilient_map(_pid, [()], jobs=4) == [os.getpid()]

    def test_fail_fast_names_task_and_cancels_pending(self, tmp_path):
        tasks = [(str(tmp_path), value) for value in range(16)]
        with pytest.raises(ExecutionError) as excinfo:
            resilient_map(_fail_first_else_sleep, tasks, jobs=2, retries=0)
        message = str(excinfo.value)
        assert "task 0" in message and repr(str(tmp_path)) in message
        assert "injected failure for value 0" in message
        # Fail-fast kills the pool instead of draining all 15 sleepers; at
        # most the in-flight window (one task per worker) may have run.
        ran = len(list(tmp_path.glob("ran-*")))
        assert ran < 8, f"pending tasks were drained ({ran} of 15 ran)"

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_default_jobs_respects_cpu_affinity(self):
        # On Linux the worker count must follow the affinity mask (what a
        # container/cgroup actually grants), not the host's CPU count.
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no CPU affinity")
        assert default_jobs() == max(1, len(os.sched_getaffinity(0)))


class TestTaskSeeds:
    def test_schedule_is_deterministic_and_prefix_stable(self):
        assert task_seeds(5, 3) == task_seeds(5, 3)
        assert task_seeds(5, 3) == task_seeds(5, 8)[:3]

    def test_entries_pairwise_distinct_across_nearby_base_seeds(self):
        # The scheme-4 guarantee: spawn-derived schedules never collide,
        # even for adjacent base seeds (the pre-scheme-4 ``base_seed +
        # index`` schedule overlapped in all but one entry here).
        pool = [seed for base in range(8) for seed in task_seeds(base, 16)]
        assert len(set(pool)) == len(pool)

    def test_entropy_is_wide(self):
        # 128-bit spawned entropy, not small sequential integers.
        assert all(seed > 2 ** 64 for seed in task_seeds(0, 4))

    def test_rejects_empty_schedule(self):
        with pytest.raises(SimulationError):
            task_seeds(0, 0)


class TestStarRepetitions:
    def test_parallel_repetitions_match_serial(self):
        config = uniform_star(5, 0.001, 0.05, duration_units=80)
        serial = run_star_repetitions("deterministic", config, 3, base_seed=2, jobs=1)
        parallel = run_star_repetitions("deterministic", config, 3, base_seed=2, jobs=2)
        assert [r.shared_link_packets for r in serial] == [
            r.shared_link_packets for r in parallel
        ]
        for first, second in zip(serial, parallel):
            assert (first.receiver_packets == second.receiver_packets).all()


#: Verdicts end with a per-experiment timing suffix " (1.2s)" — the only
#: jobs-dependent part of the output, stripped before comparing.
_TIMING_SUFFIX = re.compile(r" \(\d+\.\d+s\)$")


class TestRunAllJobs:
    def test_verdicts_identical_for_jobs_1_and_2(self):
        subset = ["figure1", "figure3", "figure7"]
        serial = run_all(only=subset, jobs=1)
        parallel = run_all(only=subset, jobs=2)
        assert [(name, _TIMING_SUFFIX.sub("", verdict)) for name, _, verdict in serial] == [
            (name, _TIMING_SUFFIX.sub("", verdict)) for name, _, verdict in parallel
        ]
        for _name, _result, verdict in serial:
            assert _TIMING_SUFFIX.search(verdict), f"missing timing suffix: {verdict!r}"
        assert len(serial) == len(subset)

    def test_only_rejects_unknown_keys(self):
        with pytest.raises(KeyError):
            run_all(only=["figure1", "nonsense"])

    def test_registry_keys_exposed(self):
        assert "figure8" in EXPERIMENT_KEYS
        assert len(EXPERIMENT_KEYS) == 16


class TestFigure8Jobs:
    def test_panel_identical_across_jobs(self):
        kwargs = dict(
            shared_loss_rate=0.001,
            independent_loss_rates=(0.02, 0.08),
            num_receivers=6,
            duration_units=80,
            repetitions=2,
        )
        serial = run_figure8_panel(**kwargs, jobs=1)
        parallel = run_figure8_panel(**kwargs, jobs=2)
        assert [(p.protocol, p.independent_loss_rate, p.redundancy) for p in serial.points] == [
            (p.protocol, p.independent_loss_rate, p.redundancy) for p in parallel.points
        ]
