"""Deterministic multi-process fan-out: parallel results must equal serial.

Fan-out itself is :func:`repro.experiments.resilient.resilient_map`; its
fault handling lives in ``test_resilient.py``, and the plain-map contract
the sweeps rely on (order, in-process single task, fail-fast) is pinned
here.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import ExecutionError
from repro.experiments import run_specs
from repro.experiments.registry import experiment_keys, get_experiment, select_experiments
from repro.experiments.resilient import resilient_map


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


class TestRunSpecsJobs:
    def test_canonical_json_identical_for_jobs_1_and_2(self):
        tasks = [
            (experiment.key, experiment.make_spec())
            for experiment in select_experiments(["figure1", "figure3", "figure7"])
        ]
        serial = run_specs(tasks, jobs=1)
        parallel = run_specs(tasks, jobs=2)
        assert [result.key for result in serial] == ["figure1", "figure3", "figure7"]
        assert [result.canonical_json() for result in serial] == [
            result.canonical_json() for result in parallel
        ]

    def test_selection_rejects_unknown_keys(self):
        with pytest.raises(KeyError, match="nonsense"):
            select_experiments(["figure1", "nonsense"])

    def test_default_suite_keys(self):
        assert "figure8" in experiment_keys()
        assert len(experiment_keys()) == 16


class TestFigure8Jobs:
    @pytest.mark.parametrize(
        "key, overrides",
        [("figure8_panel", {"shared_loss_rate": 0.001}), ("figure8", {})],
        ids=["figure8_panel", "figure8"],
    )
    def test_panel_identical_across_jobs(self, key, overrides):
        # Both keys fan their (panel, protocol) sweeps out as one task list.
        kwargs = dict(
            independent_loss_rates=(0.02, 0.08),
            num_receivers=6,
            duration_units=80,
            repetitions=2,
            **overrides,
        )
        experiment = get_experiment(key)
        serial = experiment.run(**kwargs, jobs=1)
        parallel = experiment.run(**kwargs, jobs=2)
        assert parallel.canonical_json() == serial.canonical_json()
        assert len(serial.records) == (2 if key == "figure8" else 1) * 3 * 2
