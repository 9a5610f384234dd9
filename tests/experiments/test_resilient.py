"""Fault-injection suite for the crash/timeout-hardened parallel runner.

Every failure mode the runner claims to survive is provoked for real:
workers are killed with ``os._exit`` (pool-breaking crash), put to sleep
past their wall-clock timeout (hang), and made to raise (poison) — and
each sweep must still complete with results identical to an undisturbed
serial run.  The byte-identity acceptance checks run genuine registry
experiments through the fault wrappers and compare
``ExperimentResult.canonical_json()`` output.
"""

from __future__ import annotations

import os
import time

import pytest

import faults
from repro.errors import ExecutionError, SimulationError, TaskTimeoutError
from repro.experiments import run_specs
from repro.experiments.registry import get_experiment
from repro.experiments.resilient import ResilientPool, resilient_map
from repro.experiments.store import ResultStore

#: Fast wall-clock budget for hang tests: real tasks here finish in
#: milliseconds, so anything that trips this is genuinely stuck.
TIMEOUT = 2.0

class TestSerialPath:
    def test_plain_map_semantics(self):
        out = resilient_map(faults.flaky_square, [("/nonexistent/disarmed", "none", v) for v in range(4)])
        assert out == [0, 1, 4, 9]

    def test_poison_retried_to_success(self, tmp_path):
        marker = str(tmp_path / "poison")
        out = resilient_map(
            faults.flaky_square, [(marker, "poison", 7)], retries=2, backoff=0.0
        )
        assert out == [49]
        assert os.path.exists(marker)  # the fault really fired once

    def test_exhausted_retries_raise_with_report(self):
        with pytest.raises(ExecutionError) as excinfo:
            resilient_map(faults.always_raise, [(1,), (2,)], retries=1, backoff=0.0)
        (failure,) = excinfo.value.failures
        assert failure.index == 0
        assert failure.attempts == 2
        assert failure.error_type == "ValueError"
        assert "value=1" in failure.arguments or "1" in failure.arguments
        assert "always fails" in failure.message
        assert "ValueError" in failure.traceback
        assert "task 0" in str(excinfo.value)

    def test_on_result_fires_once_per_task_in_order(self):
        seen = []
        resilient_map(
            faults.flaky_square,
            [("/nonexistent/disarmed", "none", v) for v in range(3)],
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert seen == [(0, 0), (1, 1), (2, 4)]

    def test_validates_parameters(self):
        with pytest.raises(SimulationError):
            resilient_map(faults.always_raise, [(1,)], jobs=-1)
        with pytest.raises(SimulationError):
            resilient_map(faults.always_raise, [(1,)], retries=-1)
        with pytest.raises(SimulationError):
            resilient_map(faults.always_raise, [(1,)], jobs=2, timeout=0.0)


class TestWorkerCrash:
    def test_crash_recovered_and_completed_results_kept(self, tmp_path):
        # One worker dies with os._exit (breaking the whole pool); the
        # runner must rebuild and re-dispatch only unfinished work.
        tasks = [(str(tmp_path / f"crash{i}"), "crash" if i == 1 else "none", i) for i in range(5)]
        seen = []
        out = resilient_map(
            faults.flaky_square, tasks, jobs=2, retries=2, backoff=0.0,
            on_result=lambda index, value: seen.append(index),
        )
        assert out == [0, 1, 4, 9, 16]
        assert sorted(seen) == [0, 1, 2, 3, 4]  # exactly once per task

    def test_every_task_crashing_once_still_completes(self, tmp_path):
        tasks = [(str(tmp_path / f"all{i}"), "crash", i) for i in range(4)]
        out = resilient_map(faults.flaky_square, tasks, jobs=2, retries=3, backoff=0.0)
        assert out == [0, 1, 4, 9]

    def test_degrades_to_serial_when_pool_unusable(self, tmp_path):
        # Workers always die, the parent always succeeds: only in-process
        # serial degradation can finish this sweep.
        tasks = [(os.getpid(), value) for value in range(3)]
        out = resilient_map(
            faults.hostile_to_pools, tasks, jobs=2,
            retries=10, backoff=0.0, max_pool_rebuilds=2,
        )
        assert out == [0, 3, 6]


class TestHangTimeout:
    def test_hung_task_killed_and_retried(self, tmp_path):
        tasks = [(str(tmp_path / f"hang{i}"), "hang" if i == 0 else "none", i) for i in range(3)]
        out = resilient_map(
            faults.flaky_square, tasks, jobs=2,
            timeout=TIMEOUT, retries=2, backoff=0.0,
        )
        assert out == [0, 1, 4]

    def test_unrecoverable_hang_raises_timeout_error(self):
        with pytest.raises(TaskTimeoutError) as excinfo:
            resilient_map(
                faults.always_hang, [(1,), (2,)], jobs=2,
                timeout=0.5, retries=0, backoff=0.0,
            )
        (failure,) = excinfo.value.failures
        assert "timed out" in failure.message
        # TaskTimeoutError is an ExecutionError is a ReproError.
        assert isinstance(excinfo.value, ExecutionError)


class TestNestedFanOut:
    """A pool worker never opens a pool: a pooled task that fans out again
    runs its inner tasks in its own process, where a timeout's terminate
    reaches them."""

    def test_pooled_task_runs_inner_tasks_in_its_own_process(self):
        outer = resilient_map(faults.fan_out_pids, [(0,), (1,)], jobs=2)
        for worker_pid, inner_pids in outer:
            assert worker_pid != os.getpid()
            assert inner_pids == (worker_pid, worker_pid)


class TestResilientPool:
    """The persistent pool behind ``repro serve`` (and ``resilient_map``)."""

    def test_submit_wait_drain(self):
        pool = ResilientPool(faults.flaky_square, jobs=2)
        handles = [
            pool.submit(("/nonexistent/disarmed", "none", value), token=value)
            for value in range(5)
        ]
        pool.shutdown(wait=True)
        assert [handle.result for handle in handles] == [0, 1, 4, 9, 16]
        assert all(handle.done() and handle.failure is None for handle in handles)

    def test_terminal_failure_settles_only_its_handle(self, tmp_path):
        pool = ResilientPool(faults.flaky_square, jobs=2, retries=0, backoff=0.0)
        try:
            bad = pool.submit((None, "poison", 1))  # markerless: fails every attempt
            good = pool.submit(("/nonexistent/disarmed", "none", 6))
            assert bad.wait(30.0) and good.wait(30.0)
            assert bad.failure is not None
            assert bad.failure.error_type == "RuntimeError"
            assert isinstance(bad.exception(), ExecutionError)
            assert good.result == 36 and good.exception() is None
            # The pool outlives the failure: later submissions still run.
            again = pool.submit(("/nonexistent/disarmed", "none", 7))
            assert again.wait(30.0) and again.result == 49
        finally:
            pool.kill()

    def test_kill_settles_unfinished_handles_as_cancelled(self):
        pool = ResilientPool(faults.always_hang, jobs=1)
        handle = pool.submit((1,))
        time.sleep(0.3)
        pool.kill()
        assert handle.done() and handle.failure is not None
        assert "shut down" in handle.failure.message
        with pytest.raises(ExecutionError):
            pool.submit((2,))

    def test_submit_validates_overrides(self):
        with pytest.raises(SimulationError):
            ResilientPool(faults.flaky_square, jobs=-1)
        pool = ResilientPool(faults.flaky_square, jobs=2)
        try:
            with pytest.raises(SimulationError):
                pool.submit((None, "none", 1), timeout=0)
            with pytest.raises(SimulationError):
                pool.submit((None, "none", 1), retries=-1)
        finally:
            pool.shutdown(wait=True)

    def test_backoff_does_not_skew_unrelated_deadline(self, tmp_path):
        # Task A fails once and parks in a 3 s backoff window; task B hangs
        # with a 1 s per-task timeout submitted *during* that window.  With
        # the old inline-sleep backoff the dispatcher slept through B's
        # deadline; the not-before design must kill B on time.
        pool = ResilientPool(
            faults.flaky_square, jobs=2, retries=5, backoff=3.0, max_backoff=3.0
        )
        try:
            slow = pool.submit((str(tmp_path / "poison-once"), "poison", 2))
            time.sleep(0.3)  # let A's first attempt fail and park
            hung = pool.submit(
                (str(tmp_path / "hang-once"), "hang", 4), timeout=1.0, retries=0
            )
            start = time.monotonic()
            assert hung.wait(30.0)
            elapsed = time.monotonic() - start
            assert hung.failure is not None
            assert "timed out" in hung.failure.message
            assert hung.error_class is TaskTimeoutError
            assert elapsed < 2.5, f"timeout enforced {elapsed:.2f}s after submit"
            # A's retry (after its backoff matures) still succeeds.
            assert slow.wait(30.0) and slow.result == 4
        finally:
            pool.kill()


class TestJournalingGuarantees:
    """Regression tests: fail-fast must never drop a completed sibling."""

    def test_same_batch_success_is_journaled_before_fail_fast(self, tmp_path):
        # Both workers rendezvous, then one returns and one raises — the
        # success completes alongside (or just before) the terminal
        # failure, and its on_result must fire even though the sweep
        # aborts.  The old done-set loop raised mid-batch and dropped it.
        sync = str(tmp_path)
        peers = ("winner", "loser")
        seen = []
        with pytest.raises(ExecutionError) as excinfo:
            resilient_map(
                faults.rendezvous_then,
                [
                    (sync, peers, "loser", "poison", 0.25, 0),
                    (sync, peers, "winner", "ok", 0.0, 7),
                ],
                jobs=2,
                retries=0,
                backoff=0.0,
                on_result=lambda index, value: seen.append((index, value)),
            )
        assert (1, 49) in seen, "completed sibling was dropped on fail-fast"
        (failure,) = excinfo.value.failures
        assert failure.error_type == "RuntimeError"

    def test_fail_fast_keeps_completed_result_in_checkpoint(self, tmp_path):
        # The store-level form of the same guarantee: a sweep that aborts
        # on one task's permanent failure must leave the other task's
        # finished result journaled on disk for the next resume.
        probe = get_experiment("fault_probe")
        log_path = str(tmp_path / "invocations.log")
        ok_spec = probe.make_spec(inner_key="figure1", log_path=log_path)
        bad_spec = probe.make_spec(
            inner_key="figure1", mode="poison", sleep_seconds=4.0, log_path=log_path
        )
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(ExecutionError):
            run_specs(
                [("fault_probe", bad_spec), ("fault_probe", ok_spec)],
                jobs=2,
                store=store,
                retries=0,
            )
        fresh = ResultStore(tmp_path / "cache")
        assert fresh.get("fault_probe", ok_spec) is not None, (
            "completed result missing from the checkpoint after fail-fast"
        )

    def test_backoff_does_not_block_sibling_journaling(self, tmp_path):
        # One task fails at the rendezvous and enters a 2 s backoff; its
        # sibling completes 0.3 s later.  The sibling's on_result must
        # fire during the backoff window, not after it (the old code
        # slept the dispatcher inline).
        sync = str(tmp_path)
        peers = ("steady", "flaky")
        journaled = {}
        start = time.monotonic()
        with pytest.raises(ExecutionError):
            resilient_map(
                faults.rendezvous_then,
                [
                    (sync, peers, "flaky", "poison", 0.0, 0),
                    (sync, peers, "steady", "ok", 0.3, 5),
                ],
                jobs=2,
                retries=1,
                backoff=2.0,
                max_backoff=2.0,
                on_result=lambda index, value: journaled.setdefault(
                    index, (value, time.monotonic() - start)
                ),
            )
        end = time.monotonic() - start
        assert 1 in journaled, "sibling was never journaled"
        value, journaled_at = journaled[1]
        assert value == 25
        # The sweep ended >= one full backoff window after the sibling
        # completed: its journaling did not wait for the retry sleep.
        assert end - journaled_at >= 1.0, (
            f"sibling journaled only {end - journaled_at:.2f}s before the end "
            "— the dispatcher slept through its completion"
        )


class TestByteIdenticalAcceptance:
    """The ISSUE's acceptance bar: faulted sweeps == undisturbed serial runs."""

    def _tasks(self):
        experiment = get_experiment("figure8_panel")
        spec = experiment.make_spec(
            shared_loss_rate=0.05,
            independent_loss_rates=(0.02, 0.08),
            num_receivers=6,
            duration_units=80,
            repetitions=2,
        )
        cheap = get_experiment("figure4")
        return [("figure8_panel", spec), ("figure4", cheap.make_spec())]

    def _canonical(self, results):
        return [result.canonical_json() for result in results]

    def test_crashed_sweep_matches_serial(self, tmp_path):
        tasks = self._tasks()
        baseline = self._canonical(run_specs(tasks, jobs=1))
        faulted = resilient_map(
            faults.run_task_with_fault,
            [(str(tmp_path / f"m{i}"), "crash" if i == 0 else "none", key, spec)
             for i, (key, spec) in enumerate(tasks)],
            jobs=2, retries=2, backoff=0.0,
        )
        assert self._canonical(faulted) == baseline

    def test_hung_sweep_matches_serial(self, tmp_path):
        tasks = self._tasks()
        baseline = self._canonical(run_specs(tasks, jobs=1))
        faulted = resilient_map(
            faults.run_task_with_fault,
            [(str(tmp_path / f"m{i}"), "hang" if i == 1 else "none", key, spec)
             for i, (key, spec) in enumerate(tasks)],
            jobs=2, timeout=TIMEOUT, retries=2, backoff=0.0,
        )
        assert self._canonical(faulted) == baseline

    def test_poisoned_sweep_matches_serial(self, tmp_path):
        tasks = self._tasks()
        baseline = self._canonical(run_specs(tasks, jobs=1))
        faulted = resilient_map(
            faults.run_task_with_fault,
            [(str(tmp_path / f"m{i}"), "poison", key, spec)
             for i, (key, spec) in enumerate(tasks)],
            jobs=2, retries=1, backoff=0.0,
        )
        assert self._canonical(faulted) == baseline
