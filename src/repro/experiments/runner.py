"""Run registered experiments and aggregate their typed results.

This module is the execution layer over
:mod:`repro.experiments.registry`: :func:`run_specs` executes a list of
``(key, spec)`` pairs (optionally across worker processes — workers are
handed only the key and the picklable spec and resolve the experiment from
the registry themselves), and :func:`run_all` is the historical entry point
returning ``(title, result, verdict-string)`` triples for every registered
experiment.

Execution is fault-tolerant: tasks run through
:func:`repro.experiments.resilient.resilient_map` (bounded retries,
optional per-task wall-clock timeouts, worker-crash recovery, graceful
serial degradation), and an optional content-addressed
:class:`~repro.experiments.store.ResultStore` turns every sweep into a
checkpointed one — completed results are journaled as they finish, cache
hits skip simulation entirely, and an interrupted sweep resumes from its
last completed task (``python -m repro run --cache DIR [--resume]``).

``python -m repro.experiments.runner`` remains the legacy flag-style CLI
(``--full``, ``--jobs``, ``--only``, ``--engine``); the primary command-line
surface is the subcommand CLI in :mod:`repro.__main__`
(``python -m repro list | run | verify``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence, Tuple

from ..errors import ExperimentError, ReproError
from ..protocols.kernel import ENGINE_ALIASES
from .api import ENGINES, ExperimentResult, ExperimentSpec
from .registry import experiment_keys, get_experiment, select_experiments
from .resilient import resilient_map
from .store import ResultStore

__all__ = ["run_specs", "shard_tasks", "run_all", "main", "EXPERIMENT_KEYS"]


#: Keys of the default experiment suite accepted by ``run_all(only=...)``,
#: in execution order (standalone entries like ``figure8_panel`` are also
#: accepted but not listed here; see ``experiment_keys(default_only=False)``).
EXPERIMENT_KEYS: Tuple[str, ...] = tuple(experiment_keys())


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


def run_all(
    full_scale: bool = False,
    jobs: int = 1,
    only: Optional[Sequence[str]] = None,
    engine: str = "bitpacked",
) -> List[Tuple[str, object, str]]:
    """Run every registered experiment; return (title, result, verdict) triples.

    The historical aggregate entry point: ``result`` is each experiment's
    rich payload object (``Figure1Result``, ...) and the verdict string
    carries a trailing ``(<elapsed>s)`` timing suffix.  For the typed
    envelopes use :func:`run_specs` or the registry directly.

    Parameters
    ----------
    full_scale:
        Run Figure 8 at paper scale (100 receivers, full loss sweep); the
        other experiments stay at reduced scale, matching the historical
        ``--full`` behaviour.  For a uniform paper-scale sweep build the
        specs explicitly (``python -m repro run all --scale paper``).
    jobs:
        Number of worker processes.  ``1`` (the default) runs everything
        in-process; larger values fan the experiments out via
        :func:`repro.experiments.resilient.resilient_map` (and Figure 8
        additionally fans its point sweep).  All experiments use fixed
        seeds, so results and verdicts are independent of ``jobs`` apart
        from each verdict's trailing ``(<elapsed>s)`` timing suffix.
    only:
        Optional subset of :data:`EXPERIMENT_KEYS` to run (registry order is
        preserved regardless of the order given here).
    engine:
        Simulation engine for the packet-level experiments — any name in
        :data:`repro.experiments.api.ENGINES` (default ``"bitpacked"``).
        Results are identical; only the runtime differs.
    """
    if only is not None and not list(only):
        return []
    experiments = select_experiments(only)
    tasks = []
    for experiment in experiments:
        scale = "paper" if (full_scale and experiment.key == "figure8") else "reduced"
        tasks.append((experiment.key, experiment.make_spec(scale=scale, jobs=jobs, engine=engine)))
    results = run_specs(tasks, jobs=jobs)
    # Verdict format matches the original runner: "<verdict> (<elapsed>s)".
    # The timing suffix is the only jobs-dependent part of the output.
    return [
        (
            experiment.title,
            result.payload,
            f"{result.verdict.summary} ({result.wall_time_seconds:.1f}s)",
        )
        for experiment, result in zip(experiments, results)
    ]


def main(argv: List[str] | None = None) -> int:
    """Legacy flag-style CLI (``--full``/``--jobs``/``--only``/``--engine``)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="run Figure 8 at paper scale (100 receivers, full loss sweep)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="number of worker processes (default 1: run serially in-process)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        choices=list(experiment_keys(default_only=False)),
        default=None,
        help="run only the named experiments",
    )
    parser.add_argument(
        "--engine",
        type=lambda name: ENGINE_ALIASES.get(name, name),
        choices=ENGINES,
        default="bitpacked",
        help="simulation engine for the packet-level experiments "
        "(identical results; 'reference' is the slow per-packet loop; the "
        "retired names 'batched' and 'compiled' select 'bitpacked')",
    )
    args = parser.parse_args(argv)

    start = time.time()
    try:
        triples = run_all(
            full_scale=args.full, jobs=args.jobs, only=args.only, engine=args.engine
        )
    except ReproError as error:
        # Same error hygiene as ``python -m repro``: one clean line, exit 2.
        print(f"error: {error}", file=sys.stderr)
        return 2
    for name, result, verdict in triples:
        print("=" * 72)
        print(f"{name}: {verdict}")
        print("=" * 72)
        table = getattr(result, "table", None)
        if callable(table):
            print(table())
        print()
    print(f"total wall time: {time.time() - start:.1f}s (jobs={args.jobs})")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
