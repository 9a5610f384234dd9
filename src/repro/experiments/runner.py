"""Run registered experiments and aggregate their typed results.

This module is the execution layer over
:mod:`repro.experiments.registry`: :func:`run_specs` executes a list of
``(key, spec)`` pairs (optionally across worker processes — workers are
handed only the key and the picklable spec and resolve the experiment from
the registry themselves) and returns one typed
:class:`~repro.experiments.api.ExperimentResult` per pair.

Execution is fault-tolerant: tasks run through
:func:`repro.experiments.resilient.resilient_map` (bounded retries,
optional per-task wall-clock timeouts, worker-crash recovery, graceful
serial degradation), and an optional content-addressed
:class:`~repro.experiments.store.ResultStore` turns every sweep into a
checkpointed one — completed results are journaled as they finish, cache
hits skip simulation entirely, and an interrupted sweep resumes from its
last completed task (``python -m repro run --cache DIR [--resume]``).

The command-line surface over this module is :mod:`repro.__main__`
(``python -m repro list | run | verify``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import ExperimentError
from .api import ExperimentResult, ExperimentSpec
from .registry import get_experiment
from .resilient import resilient_map
from .store import ResultStore

__all__ = ["run_specs", "shard_tasks"]


def _run_task(key: str, spec: ExperimentSpec) -> ExperimentResult:
    """Worker entry point: run one registered experiment from its spec.

    Picklable by construction — workers receive only the ``(key, spec)``
    pair and resolve the experiment from the registry after import, so no
    callables cross the process boundary.  Wall time is measured inside
    :meth:`~repro.experiments.registry.Experiment.run`, so per-experiment
    timings survive the multi-process path.
    """
    return get_experiment(key).run(spec)


def run_specs(
    tasks: Sequence[Tuple[str, ExperimentSpec]],
    jobs: int = 1,
    *,
    store: Optional[ResultStore] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
) -> List[ExperimentResult]:
    """Run ``(key, spec)`` pairs, preserving order; fan out over ``jobs``.

    Every spec carries fixed seeds, so results are identical for any
    ``jobs`` value (only the envelope's wall times differ).

    Execution rides the hardened runner
    (:func:`~repro.experiments.resilient.resilient_map`): each task gets
    bounded ``retries`` (a retried task re-runs its frozen spec with the
    same seed schedule, so it reproduces bit-identically), an optional
    per-task wall-clock ``timeout`` (multi-process path only), and worker
    crashes rebuild the pool without discarding completed results.

    With a ``store``, the sweep is cached and checkpointed: tasks whose
    content address (experiment key + canonical spec + RNG scheme
    version) is already on disk are served from the store without running
    the simulator, and every freshly completed result is journaled the
    moment it finishes — so an interrupted sweep, re-invoked with the
    same store, resumes from its last completed task.
    """
    tasks = list(tasks)
    results: List[Optional[ExperimentResult]] = [None] * len(tasks)
    to_run: List[int] = []
    if store is not None:
        for index, (key, spec) in enumerate(tasks):
            cached = store.get(key, spec)
            if cached is not None:
                results[index] = cached
            else:
                to_run.append(index)
    else:
        to_run = list(range(len(tasks)))
    if to_run:
        def _journal(position: int, result: ExperimentResult) -> None:
            index = to_run[position]
            results[index] = result
            if store is not None:
                key, spec = tasks[index]
                store.put(key, spec, result)

        resilient_map(
            _run_task,
            [tasks[index] for index in to_run],
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            on_result=_journal,
        )
    return results  # type: ignore[return-value]


def shard_tasks(tasks: Sequence, shards: int, shard_index: int) -> List:
    """Deterministically partition a task list across ``shards`` invocations.

    Returns the sub-list owned by ``shard_index``: the tasks at positions
    ``shard_index, shard_index + shards, ...`` (round-robin by position).
    The partition is a pure function of the list — every host slicing the
    same task list with the same ``shards`` computes the same partition,
    the shards are pairwise disjoint, their union is the full list, and
    shard sizes differ by at most one.  ``python -m repro run --shards N
    --shard-index I`` uses this to split one sweep across hosts that
    share a cache directory: each shard journals its own tasks, and a
    final unsharded run (or any cache consumer) sees the union.

    Invoke every shard with an identical task list — same keys, same
    order.  The CLI builds the list from the selection arguments, so
    command lines identical apart from ``--shard-index`` are guaranteed
    identical partitions.
    """
    if shards < 1:
        raise ExperimentError(f"shards must be >= 1, got {shards}")
    if not 0 <= shard_index < shards:
        raise ExperimentError(
            f"shard index must be in [0, {shards}), got {shard_index}"
        )
    return [task for position, task in enumerate(tasks) if position % shards == shard_index]
