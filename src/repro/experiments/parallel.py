"""Deterministic seeding and worker counts for experiment sweeps.

The figure-level experiments are embarrassingly parallel: every
``(protocol, loss-rate)`` point of a Figure-8 panel, and every task of
:func:`~repro.experiments.runner.run_specs`, is an independent computation
with its own fixed seeds.  Process fan-out itself is
:func:`repro.experiments.resilient.resilient_map` (order-preserving,
fail-fast, with retries and worker-crash recovery; ``jobs=1`` runs
in-process).  This module holds what the sweeps share on top of it:

* :func:`default_jobs` — a worker count that respects CPU affinity;
* :func:`task_seeds` — the canonical per-task seed schedule: one spawned
  ``SeedSequence`` child per task (RNG scheme 4), shared by serial and
  parallel paths so that the two produce identical results.

Determinism.  Workers receive explicit seeds derived from the caller's
``base_seed``; no worker draws from an unseeded generator.  Because the
per-task seed schedule is the same one the serial code uses, a sweep run
with ``jobs=N`` is bit-identical to ``jobs=1`` (smoke-tested in
``tests/experiments/test_parallel.py``).
"""

from __future__ import annotations

import os
from typing import List

from ..errors import SimulationError
from ..simulator.rng import spawn_run_entropy

__all__ = ["default_jobs", "task_seeds"]


def default_jobs() -> int:
    """A sensible worker count for this machine (>= 1).

    Respects the process's CPU *affinity* where the platform exposes it
    (``os.sched_getaffinity``), so a container or cgroup-limited CI job
    pinned to 2 of a host's 64 cores gets 2 workers instead of 64 —
    ``os.cpu_count`` reports the host and oversubscribes.  Falls back to
    ``os.cpu_count`` on platforms without affinity (macOS, Windows).
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def task_seeds(base_seed: int, num_tasks: int) -> List[int]:
    """The per-task seed schedule: one ``SeedSequence.spawn`` child per task.

    Matches :func:`repro.simulator.star.star_redundancy_group`'s repetition
    seeds, so replicated runs produce the same seeds whether executed
    serially or in parallel.
    Through RNG scheme 3 this was ``base_seed + index``, under which two
    sweeps with nearby base seeds silently shared most of their replicate
    streams (base 0 and base 1 overlap in all but one seed); scheme 4
    derives each task's 128-bit seed by spawning children of
    ``SeedSequence(base_seed)``, so the schedules of *any* two distinct
    base seeds are pairwise disjoint with overwhelming probability (and a
    schedule is a prefix of every longer schedule for the same base).
    """
    if num_tasks < 1:
        raise SimulationError(f"num_tasks must be positive, got {num_tasks}")
    return spawn_run_entropy(base_seed, num_tasks)
