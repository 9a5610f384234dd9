"""Fault-injection harness for the hardened runner and result store tests.

Not a test module — a library of *picklable* workers that misbehave on
demand, imported by ``test_resilient.py``, ``test_store.py``, and the CLI
tests.  Faults are armed through marker files created with
``O_CREAT | O_EXCL``: the first process to trip a marker atomically claims
the fault (crash, hang, or poison) and every later attempt runs clean, so
a retried task deterministically succeeds.  Markers live on disk rather
than in memory because the faulting attempt may die in a different
process from the retry.

The module also registers a ``fault_probe`` experiment wrapping a real
registered experiment, so registry-level sweeps (``run_specs``, the
result store, the CLI) can be fault-injected end-to-end: the probe
optionally trips a fault, appends one line to an invocation log (the
"did the simulator actually run?" counter for warm-cache tests), then
runs its inner experiment with a fixed spec — its records are therefore
bit-identical whether or not a fault fired first.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from repro.experiments.api import ExperimentSpec
from repro.experiments.registry import Experiment, get_experiment, register
from repro.experiments.resilient import resilient_map

#: Fault kinds understood by :func:`inject`.
MODES = ("none", "crash", "hang", "poison")

#: How long a "hang" sleeps — effectively forever next to test timeouts.
HANG_SECONDS = 600.0


def arm(marker: str) -> bool:
    """Atomically claim a fault marker; True exactly once per path."""
    try:
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(handle)
    return True


def pre_arm(marker: str) -> str:
    """Disarm a marker up front (for clean baseline runs); returns it."""
    with open(marker, "a"):
        pass
    return marker


def inject(mode: str, marker: Optional[str]) -> None:
    """Trip ``mode`` once per ``marker``; no-op when disarmed or ``none``.

    Without a marker the fault fires on *every* attempt — the shape of a
    permanent failure that exhausts the whole retry budget.
    """
    if mode == "none":
        return
    if marker is not None and not arm(marker):
        return
    if mode == "crash":
        os._exit(137)  # simulates SIGKILL/OOM: no exception, no cleanup
    if mode == "hang":
        time.sleep(HANG_SECONDS)
        return
    if mode == "poison":
        raise RuntimeError("injected fault: poison")
    raise ValueError(f"unknown fault mode {mode!r}")


def log_invocation(log_path: Optional[str]) -> None:
    """Append one line per actual execution (warm-cache counters)."""
    if log_path is not None:
        with open(log_path, "a") as log:
            log.write(f"{os.getpid()}\n")


def invocations(log_path: str) -> int:
    """Number of executions recorded in ``log_path`` (0 if absent)."""
    try:
        with open(log_path) as log:
            return sum(1 for _ in log)
    except FileNotFoundError:
        return 0


# -- picklable workers for resilient_map-level tests -------------------------

def flaky_square(marker: str, mode: str, value: int) -> int:
    """Square ``value``, tripping the armed fault on the first attempt."""
    inject(mode, marker)
    return value * value


def always_raise(value: int) -> int:
    """Deterministic failure: exhausts every retry."""
    raise ValueError(f"always fails (value={value})")


def always_hang(value: int) -> int:
    """Deterministic hang: exceeds any per-task timeout on every attempt."""
    time.sleep(HANG_SECONDS)
    return value  # pragma: no cover - never reached


def hostile_to_pools(main_pid: int, value: int) -> int:
    """Dies in any worker process, succeeds in ``main_pid`` — the shape of a
    bug that only in-process serial degradation can route around."""
    if os.getpid() != main_pid:
        os._exit(1)
    return value * 3


def rendezvous_then(
    sync_dir: str, peers: tuple, me: str, mode: str, delay: float, value: int
) -> int:
    """Check in, wait for every peer, then (after ``delay``) fail or succeed.

    Each worker drops ``sync_dir/<me>`` and spins until every name in
    ``peers`` has checked in, so a test can force tasks in different
    worker processes to finish near-simultaneously — e.g. to prove that a
    sibling's success is journaled even when a permanent failure settles
    in the same completion batch.  ``mode`` is ``"ok"`` (return
    ``value * value``) or ``"poison"`` (raise).
    """
    with open(os.path.join(sync_dir, me), "w"):
        pass
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if all(os.path.exists(os.path.join(sync_dir, name)) for name in peers):
            break
        time.sleep(0.005)
    else:
        raise RuntimeError(f"rendezvous timed out waiting for {peers!r}")
    if delay:
        time.sleep(delay)
    if mode == "poison":
        raise RuntimeError(f"injected fault: rendezvous poison ({me})")
    return value * value


def own_pid(value: int) -> int:
    """The pid of the process that ran this task."""
    return os.getpid()


def fan_out_pids(value: int) -> tuple:
    """A task that fans out again with ``jobs=2``: returns its own pid and
    the pids its two inner tasks ran in."""
    return os.getpid(), tuple(resilient_map(own_pid, [(0,), (1,)], jobs=2))


def run_task_with_fault(marker: Optional[str], mode: str, key: str, spec) -> object:
    """One real registry task with a fault injected ahead of it.

    The fault fires *before* the experiment runs, so a retried task
    reproduces the uninterrupted result bit-for-bit (the spec — seeds
    included — is frozen at submission).
    """
    inject(mode, marker)
    return get_experiment(key).run(spec)


# -- a registered fault-injecting experiment for registry-level sweeps -------

@dataclass(frozen=True)
class FaultProbeSpec(ExperimentSpec):
    """Spec for ``fault_probe``: which inner experiment, which fault."""

    inner_key: str = "figure4"
    marker: Optional[str] = None
    mode: str = "none"
    log_path: Optional[str] = None
    #: Artificial execution time (seconds) — widens the in-flight window
    #: so concurrent-query coalescing can be pinned deterministically.
    sleep_seconds: float = 0.0


def _run_probe(spec: FaultProbeSpec):
    log_invocation(spec.log_path)
    if spec.sleep_seconds:
        time.sleep(spec.sleep_seconds)
    inject(spec.mode, spec.marker)
    inner = get_experiment(spec.inner_key)
    return inner.run(inner.make_spec(scale=spec.scale, engine=spec.engine))


register(
    Experiment(
        key="fault_probe",
        title="Fault-injection probe (test harness)",
        spec_cls=FaultProbeSpec,
        body=_run_probe,
        to_records=lambda inner_result: inner_result.records,
        judge=lambda inner_result: inner_result.verdict,
        default=False,
    )
)
