"""Crash/timeout-hardened parallel execution for experiment sweeps.

Two public surfaces share one dispatch engine:

* :class:`ResilientPool` — a persistent, submit-at-any-time worker pool
  (``repro serve`` keeps one alive for the lifetime of the daemon).
  ``submit`` returns a :class:`TaskHandle`; tasks settle independently,
  so a permanent failure fails its own handle without stopping the pool.
* :func:`resilient_map` — the batch form: apply a picklable function to
  argument tuples, preserving input order, with fail-fast error
  reporting.  It is a thin wrapper over a short-lived pool, and the one
  process fan-out every sweep uses (``jobs <= 1`` runs in-process).

Both survive the failure modes that turn a multi-hour sweep into a
restart-from-zero:

* **Worker crashes** (OOM kill, segfault, ``os._exit``): a dead worker
  poisons the whole :class:`~concurrent.futures.ProcessPoolExecutor`
  (every outstanding future raises ``BrokenProcessPool``).  The pool is
  rebuilt and only unfinished tasks are re-dispatched; completed results
  are never discarded.
* **Hangs**: each task gets a wall-clock ``timeout`` measured from
  dispatch.  The in-flight window is capped at the worker count, so
  dispatch coincides with execution start.  A task past its deadline that
  cannot be cancelled is hung inside a worker — the only remedy is to
  kill the pool's processes, rebuild, and re-dispatch the unfinished
  tasks (the hung task is charged an attempt; innocent casualties are
  re-dispatched uncharged).
* **Transient task exceptions**: bounded ``retries`` with exponential
  backoff.  Retries are **deterministically re-seeded by construction**:
  a task's arguments (including its seeds, spawned by
  :func:`~repro.simulator.rng.spawn_run_entropy`) are fixed at
  submission, so a retried task re-runs bit-identically.  Backoff never
  blocks the dispatcher: a failed task is parked with a ``not_before``
  timestamp and simply not re-dispatched until it matures, while
  completions, deadlines, and new submissions keep being serviced.
* **Repeated pool failures**: after ``max_pool_rebuilds`` rebuilds the
  pool degrades gracefully to in-process serial execution for the
  remaining tasks — slower, but immune to pool-level failures (per-task
  timeouts cannot be enforced in-process and are ignored there).

Journaling guarantee
--------------------

The ``on_result(token, result)`` callback fires exactly once per
successful task, from the dispatcher thread, *before* the task's handle
settles — and within one completion batch every success is delivered
before any failure is surfaced.  When the pool is torn down (fail-fast
``kill`` included) it drains already-completed futures first, so a
result that finished before teardown is journaled even while a sibling's
terminal failure is propagating.  This is the hook
:func:`repro.experiments.runner.run_specs` uses to checkpoint every
finished result through the on-disk store: no completed result is ever
lost from a checkpoint.

Failures that survive every retry settle their handle with a structured
:class:`TaskFailure` report — task index, arguments, attempt count, and
the final traceback.  :func:`resilient_map` converts the first such
failure into a raised :class:`~repro.errors.ExecutionError` (or its
subclass :class:`~repro.errors.TaskTimeoutError`) and cancels pending
work (fail-fast) rather than draining it.
"""

from __future__ import annotations

import math
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..errors import ExecutionError, SimulationError, TaskTimeoutError

__all__ = [
    "TaskFailure",
    "TaskHandle",
    "ResilientPool",
    "check_task_limits",
    "resilient_map",
]


#: Sentinel distinguishing "use the pool default" from an explicit
#: ``None`` (which *disables* the timeout) in per-task submit overrides;
#: also the value of an in-process task abandoned on a pool stop.
_UNSET = object()

#: Dispatcher poll granularity: upper bound on how long the dispatcher
#: blocks in ``concurrent.futures.wait`` before re-checking submissions,
#: deadlines, and the stop flag.
_POLL_SECONDS = 0.05


def check_task_limits(timeout: Any, retries: Any) -> None:
    """Validate per-task ``timeout`` (seconds, or ``None``) and ``retries``.

    Both arrive from outside (pool defaults, ``repro serve`` requests), so
    a boolean — an ``int`` subclass — or a non-finite timeout is refused
    with a :class:`~repro.errors.SimulationError` naming the field instead
    of silently meaning ``1`` or "no deadline".
    """
    if timeout is not None and (
        isinstance(timeout, bool)
        or not isinstance(timeout, (int, float))
        or not math.isfinite(timeout)
        or timeout <= 0
    ):
        raise SimulationError(
            f"timeout must be positive and finite (seconds), got {timeout!r}"
        )
    if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
        raise SimulationError(
            f"retries must be a non-negative integer, got {retries!r}"
        )


@dataclass(frozen=True)
class TaskFailure:
    """Structured report for one task that failed all its attempts."""

    index: int
    arguments: str
    attempts: int
    error_type: str
    message: str
    traceback: str

    def summary(self) -> str:
        """One human-readable line (CLI failure reports)."""
        return (
            f"task {self.index} failed after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.message} [args: {self.arguments}]"
        )


def _describe_arguments(arguments: Tuple) -> str:
    """Compact repr of a task's argument tuple for failure reports."""
    text = repr(arguments)
    if len(text) > 200:
        text = text[:197] + "..."
    return text


def _failure(
    index: int,
    arguments: Tuple,
    attempts: int,
    error: Optional[BaseException],
    message: Optional[str] = None,
) -> TaskFailure:
    """Build a :class:`TaskFailure` from an exception or a synthetic message."""
    if error is not None:
        trace = "".join(traceback.format_exception(type(error), error, error.__traceback__))
        return TaskFailure(
            index=index,
            arguments=_describe_arguments(arguments),
            attempts=attempts,
            error_type=type(error).__name__,
            message=str(error),
            traceback=trace,
        )
    return TaskFailure(
        index=index,
        arguments=_describe_arguments(arguments),
        attempts=attempts,
        error_type="TaskTimeoutError" if "timed out" in (message or "") else "ExecutionError",
        message=message or "task failed",
        traceback="",
    )


def _backoff_delay(attempt: int, backoff: float, max_backoff: float) -> float:
    """Seconds a task must wait before its next attempt may dispatch."""
    if backoff <= 0.0:
        return 0.0
    return min(max_backoff, backoff * (2.0 ** (attempt - 1)))


def _kill_pool(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: cancel queued work, terminate worker processes.

    ``shutdown`` alone never stops a *running* task, so a hung or
    poisoned worker must be terminated (and, if it ignores SIGTERM,
    killed) before a replacement pool can make progress.
    """
    process_map = getattr(executor, "_processes", None) or {}
    processes = list(process_map.values())
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown races on a broken pool
        pass
    for process in processes:
        if process.is_alive():
            process.terminate()
    deadline = time.monotonic() + 5.0
    for process in processes:
        process.join(timeout=max(0.0, deadline - time.monotonic()))
    for process in processes:  # pragma: no cover - SIGTERM is normally enough
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)


def _attempt_in_process(
    function: Callable[..., Any],
    arguments: Tuple,
    attempts: int,
    retries: int,
    backoff: float,
    max_backoff: float,
    stopped: Callable[[], bool] = lambda: False,
) -> Tuple[int, Any, Optional[Exception]]:
    """Run one task in-process, retrying with backoff (the serial paths).

    Backoff sleeps here; the pool path never does — it parks the task
    with a ``not_before`` timestamp instead (see
    :meth:`ResilientPool._charge`) so the dispatcher stays responsive.
    ``attempts`` is what the task has already been charged.  Returns
    ``(attempts, value, error)``: ``error`` is the last exception once
    the retry budget is spent, and ``None`` on success.  ``stopped`` is
    checked before every attempt; when it answers ``True`` the task is
    abandoned and ``value`` is :data:`_UNSET`.
    """
    while not stopped():
        attempts += 1
        try:
            return attempts, function(*arguments), None
        except Exception as error:
            if attempts > retries:
                return attempts, None, error
            time.sleep(_backoff_delay(attempts, backoff, max_backoff))
    return attempts, _UNSET, None


class TaskHandle:
    """Future-like handle for one task submitted to a :class:`ResilientPool`.

    ``wait()`` blocks until the task settles: either ``result`` holds the
    task's return value, or ``failure`` holds the structured
    :class:`TaskFailure` left after the task exhausted its retry budget
    (``error_class`` records whether that failure should surface as
    :class:`~repro.errors.ExecutionError` or
    :class:`~repro.errors.TaskTimeoutError`).  By the time a handle
    settles successfully, the pool's ``on_result`` journaling callback
    has already run for it.
    """

    __slots__ = ("token", "index", "result", "failure", "error_class", "_event")

    def __init__(self, token: Any, index: int) -> None:
        #: Caller-chosen identity, passed to ``on_result`` (defaults to
        #: the submission sequence number).
        self.token = token
        #: Submission sequence number within the pool.
        self.index = index
        self.result: Any = None
        self.failure: Optional[TaskFailure] = None
        self.error_class: Type[ExecutionError] = ExecutionError
        self._event = threading.Event()

    def done(self) -> bool:
        """Whether the task has settled (successfully or not)."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the task settles; returns ``False`` on wait timeout."""
        return self._event.wait(timeout)

    def exception(self) -> Optional[ExecutionError]:
        """The task's terminal error as a raisable exception, or ``None``."""
        if self.failure is None:
            return None
        return self.error_class(self.failure.summary(), failures=(self.failure,))

    def _resolve(self, value: Any) -> None:
        self.result = value
        self._event.set()

    def _fail(self, failure: TaskFailure, error_class: Type[ExecutionError]) -> None:
        self.failure = failure
        self.error_class = error_class
        self._event.set()


class _PoolTask:
    """Dispatcher-private state for one submitted task."""

    __slots__ = ("arguments", "timeout", "retries", "attempts", "not_before", "deadline", "handle")

    def __init__(
        self,
        arguments: Tuple,
        timeout: Optional[float],
        retries: int,
        handle: TaskHandle,
    ) -> None:
        self.arguments = arguments
        self.timeout = timeout
        self.retries = retries
        self.attempts = 0
        #: Earliest monotonic time the next attempt may be dispatched —
        #: the non-blocking replacement for sleeping backoff inline.
        self.not_before = 0.0
        #: Monotonic deadline of the current attempt (``None`` when the
        #: task has no timeout or is not in flight).
        self.deadline: Optional[float] = None
        self.handle = handle

    def failure_index(self) -> int:
        """Index reported in failure summaries: the token when it is an int."""
        if isinstance(self.handle.token, int):
            return self.handle.token
        return self.handle.index


class ResilientPool:
    """A persistent, crash/timeout-hardened worker pool.

    The long-lived form of :func:`resilient_map`: tasks may be submitted
    at any time, run on a :class:`ProcessPoolExecutor` with per-task
    wall-clock deadlines and bounded retries, and settle independently —
    a permanent failure fails only its own :class:`TaskHandle`, never the
    pool.  A single dispatcher thread owns all executor interaction;
    ``submit`` only enqueues.

    Parameters mirror :func:`resilient_map` (``timeout``/``retries`` are
    defaults that ``submit`` may override per task).  ``on_result(token,
    value)`` is the journaling hook; ``on_settle(handle)`` fires after
    every settlement, success or failure (used by :func:`resilient_map`
    for fail-fast bookkeeping).  Exceptions raised by either callback
    poison the pool and re-raise from :meth:`check`.
    """

    def __init__(
        self,
        function: Callable[..., Any],
        jobs: int = 1,
        *,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.25,
        max_backoff: float = 4.0,
        max_pool_rebuilds: int = 3,
        on_result: Optional[Callable[[Any, Any], None]] = None,
        on_settle: Optional[Callable[[TaskHandle], None]] = None,
    ) -> None:
        if jobs < 0:
            raise SimulationError(f"jobs must be non-negative, got {jobs}")
        check_task_limits(timeout, retries)
        self._function = function
        # Honour ``jobs`` literally: worker processes time-share on small
        # machines, so the pool never sizes itself from the CPU count
        # (the CLI's ``--jobs`` defaults to 1).
        self._workers = max(1, jobs)
        self._default_timeout = timeout
        self._default_retries = retries
        self._backoff = backoff
        self._max_backoff = max_backoff
        self._max_pool_rebuilds = max_pool_rebuilds
        self._on_result = on_result
        self._on_settle = on_settle

        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._submitted: deque = deque()  # handed over under the lock
        self._pending: deque = deque()  # dispatcher-private from here on
        self._in_flight: Dict[Any, _PoolTask] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        self._sequence = 0
        self._rebuilds = 0
        self._degraded = False
        self._stop = False
        self._draining = False
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="resilient-pool-dispatcher", daemon=True
        )
        self._thread.start()

    # -- public surface -----------------------------------------------------

    @property
    def rebuilds(self) -> int:
        """Executor rebuilds performed so far (crash or hang recoveries)."""
        return self._rebuilds

    @property
    def degraded(self) -> bool:
        """Whether the pool fell back to in-process serial execution."""
        return self._degraded

    def submit(
        self,
        arguments: Sequence[Any],
        *,
        token: Any = None,
        timeout: Any = _UNSET,
        retries: Any = _UNSET,
    ) -> TaskHandle:
        """Enqueue one task; returns a :class:`TaskHandle` that settles later.

        ``timeout``/``retries`` override the pool defaults for this task
        only (``timeout=None`` explicitly disables the deadline).
        ``token`` is the identity passed to ``on_result`` — defaults to
        the submission sequence number.
        """
        task_timeout = self._default_timeout if timeout is _UNSET else timeout
        task_retries = self._default_retries if retries is _UNSET else retries
        check_task_limits(task_timeout, task_retries)
        with self._lock:
            if self._stop or self._draining:
                raise ExecutionError("cannot submit to a worker pool that is shutting down")
            index = self._sequence
            self._sequence += 1
            handle = TaskHandle(token if token is not None else index, index)
            self._submitted.append(
                _PoolTask(tuple(arguments), task_timeout, task_retries, handle)
            )
        self._wake.set()
        return handle

    def check(self) -> None:
        """Re-raise a dispatcher-side error (callback failure, internal bug)."""
        if self._error is not None:
            raise self._error

    def shutdown(self, wait: bool = True) -> None:
        """Drain: finish (and journal) everything submitted, then stop.

        With ``wait=False`` this is :meth:`kill` instead.  Draining
        blocks until the queue is empty — a task hung forever with no
        timeout blocks shutdown forever; use :meth:`kill` to abandon it.
        """
        if not wait:
            self.kill()
            return
        with self._lock:
            self._draining = True
        self._wake.set()
        self._thread.join()

    def kill(self) -> None:
        """Hard stop: terminate workers, settle unfinished handles as cancelled.

        Already-completed futures are still collected and journaled on
        the way down — killing the pool never discards finished work.
        """
        with self._lock:
            self._stop = True
        self._wake.set()
        self._thread.join(timeout=30.0)

    # -- dispatcher thread ---------------------------------------------------

    def _dispatch_loop(self) -> None:
        try:
            while self._step():
                pass
        except BaseException as error:  # pragma: no cover - internal bug guard
            self._error = error
        finally:
            self._teardown()

    def _step(self) -> bool:
        """One dispatcher iteration; returns ``False`` to exit the loop."""
        with self._lock:
            while self._submitted:
                self._pending.append(self._submitted.popleft())
            stop = self._stop
            draining = self._draining
        if stop:
            return False
        if not self._pending and not self._in_flight:
            if draining:
                return False
            self._wake.wait(timeout=0.2)
            self._wake.clear()
            return True
        if self._degraded:
            self._run_degraded(self._pending.popleft())
            return True

        broken = self._dispatch_ready()
        if self._in_flight:
            broken = self._collect_completions() or broken
        elif not broken:
            # Every pending task is parked in backoff: sleep until the
            # earliest not_before matures (or new work arrives) instead
            # of spinning.
            self._idle_wait()
        hung = [] if broken else self._flag_hung()
        if broken or hung:
            self._recover(broken, hung)
        return True

    def _pop_ready(self, now: float) -> Optional[_PoolTask]:
        """Next pending task whose backoff has matured (FIFO among ready)."""
        for _ in range(len(self._pending)):
            task = self._pending.popleft()
            if task.not_before <= now:
                return task
            self._pending.append(task)
        return None

    def _dispatch_ready(self) -> bool:
        """Fill the dispatch window; returns ``True`` if the pool broke.

        Capping in-flight tasks at the worker count keeps "time since
        dispatch" an honest proxy for "time executing", which is what
        the per-task timeout measures.
        """
        now = time.monotonic()
        while self._pending and len(self._in_flight) < self._workers:
            task = self._pop_ready(now)
            if task is None:
                return False
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self._workers)
            try:
                future = self._executor.submit(self._function, *task.arguments)
            except BrokenProcessPool:
                self._pending.appendleft(task)
                return True
            self._in_flight[future] = task
            task.deadline = None if task.timeout is None else now + task.timeout
        return False

    def _collect_completions(self) -> bool:
        """Process one batch of completed futures; returns ``True`` on break.

        Successes are settled (journaled) **before** failures are charged,
        so a fail-fast consumer can never observe a terminal failure
        while a finished sibling in the same batch is still unjournaled.
        """
        now = time.monotonic()
        slack = _POLL_SECONDS
        for task in self._in_flight.values():
            if task.deadline is not None:
                slack = min(slack, task.deadline - now)
        done, _ = wait(
            set(self._in_flight), timeout=max(0.0, slack), return_when=FIRST_COMPLETED
        )
        successes: List[Tuple[_PoolTask, Any]] = []
        errors: List[Tuple[_PoolTask, Optional[BaseException], Optional[str]]] = []
        broken = False
        for future in done:
            task = self._in_flight.pop(future)
            task.deadline = None
            try:
                value = future.result()
            except BrokenProcessPool:
                # The pool is poisoned; this task may or may not be the
                # culprit — charge it and re-dispatch.
                broken = True
                errors.append((task, None, "worker process crashed (BrokenProcessPool)"))
            except Exception as error:
                errors.append((task, error, None))
            else:
                successes.append((task, value))
        for task, value in successes:
            self._settle_success(task, value)
        for task, error, message in errors:
            if not self._charge(task, error, message):
                self._pending.appendleft(task)
        return broken

    def _idle_wait(self) -> None:
        now = time.monotonic()
        slack = 0.2
        for task in self._pending:
            slack = min(slack, task.not_before - now)
        if slack > 0:
            self._wake.wait(timeout=slack)
            self._wake.clear()

    def _flag_hung(self) -> List[Any]:
        """Handle expired deadlines; returns futures hung inside workers."""
        if not self._in_flight:
            return []
        now = time.monotonic()
        hung = []
        for future, task in list(self._in_flight.items()):
            if task.deadline is None or task.deadline > now:
                continue
            if future.cancel():
                # Still queued — never started executing, so the deadline
                # was meaningless; re-dispatch uncharged.
                self._in_flight.pop(future)
                task.deadline = None
                self._pending.appendleft(task)
            else:
                hung.append(future)
        return hung

    def _recover(self, broken: bool, hung: List[Any]) -> None:
        """Kill and rebuild the executor after a crash or hang.

        The hung (or crashed) tasks are charged an attempt; innocent
        in-flight casualties of a broken pool are also charged (the
        culprit cannot be identified), while casualties of a hang-only
        kill are re-dispatched uncharged.
        """
        hung_set = set(hung)
        for future in hung:
            task = self._in_flight[future]
            message = f"timed out after {task.timeout:g}s (attempt {task.attempts + 1})"
            if self._charge(task, None, message):
                self._in_flight.pop(future)  # terminal: do not re-dispatch
        for future, task in list(self._in_flight.items()):
            self._in_flight.pop(future)
            task.deadline = None
            if future in hung_set:
                self._pending.appendleft(task)  # charged above, non-terminal
                continue
            if broken and self._charge(task, None, "worker process crashed (BrokenProcessPool)"):
                continue
            self._pending.appendleft(task)
        if self._executor is not None:
            _kill_pool(self._executor)
            self._executor = None
        self._rebuilds += 1
        if self._rebuilds > self._max_pool_rebuilds:
            self._degraded = True

    def _charge(
        self, task: _PoolTask, error: Optional[BaseException], message: Optional[str]
    ) -> bool:
        """Count a failed attempt; returns ``True`` when it was terminal.

        Non-terminal exception failures are parked with a ``not_before``
        timestamp (non-blocking backoff); crash/timeout charges re-dispatch
        immediately, as before — the pool rebuild already costs seconds.
        """
        task.attempts += 1
        if task.attempts > task.retries:
            failure = _failure(
                task.failure_index(), task.arguments, task.attempts, error, message
            )
            error_cls = (
                TaskTimeoutError
                if error is None and message and "timed out" in message
                else ExecutionError
            )
            self._settle_failure(task, failure, error_cls)
            return True
        if error is not None:
            task.not_before = time.monotonic() + _backoff_delay(
                task.attempts, self._backoff, self._max_backoff
            )
        return False

    def _run_degraded(self, task: _PoolTask) -> None:
        """In-process serial execution once the pool is unusable.

        Immune to pool-level failure (the bug being routed around) but
        cannot enforce wall-clock timeouts; retry/backoff semantics match
        the ``jobs <= 1`` path of :func:`resilient_map` (one
        :func:`_attempt_in_process` loop), continuing from the attempts
        the task has already been charged.
        """
        task.attempts, value, error = _attempt_in_process(
            self._function, task.arguments, task.attempts, task.retries,
            self._backoff, self._max_backoff, stopped=self._stopping,
        )
        if value is _UNSET:
            self._pending.appendleft(task)  # teardown settles it
        elif error is not None:
            failure = _failure(task.failure_index(), task.arguments, task.attempts, error)
            self._settle_failure(task, failure, ExecutionError)
        else:
            self._settle_success(task, value)

    def _stopping(self) -> bool:
        with self._lock:
            return self._stop

    def _settle_success(self, task: _PoolTask, value: Any) -> None:
        if self._on_result is not None:
            try:
                self._on_result(task.handle.token, value)
            except BaseException as error:
                # A failing journaling callback poisons the pool: stop
                # dispatching and surface the error via check().  The
                # handle still resolves so waiters are not stranded.
                self._error = error
                with self._lock:
                    self._stop = True
        task.handle._resolve(value)
        self._notify_settle(task.handle)

    def _settle_failure(
        self, task: _PoolTask, failure: TaskFailure, error_class: Type[ExecutionError]
    ) -> None:
        task.handle._fail(failure, error_class)
        self._notify_settle(task.handle)

    def _notify_settle(self, handle: TaskHandle) -> None:
        if self._on_settle is None:
            return
        try:
            self._on_settle(handle)
        except BaseException as error:  # pragma: no cover - consumer bug guard
            self._error = error
            with self._lock:
                self._stop = True

    def _teardown(self) -> None:
        """Dispatcher exit path: collect finished work, cancel the rest.

        Runs for drain and kill alike.  A final zero-timeout collection
        journals any future that completed before teardown — this is what
        makes the "no completed result is ever lost" guarantee hold even
        on a fail-fast kill.
        """
        if self._in_flight and self._error is None:
            try:
                self._collect_completions()
            except BaseException as error:  # pragma: no cover - defensive
                self._error = error
        with self._lock:
            leftovers = list(self._submitted)
            self._submitted.clear()
        leftovers = list(self._in_flight.values()) + list(self._pending) + leftovers
        self._in_flight.clear()
        self._pending.clear()
        for task in leftovers:
            if task.handle.done():
                continue
            failure = TaskFailure(
                index=task.failure_index(),
                arguments=_describe_arguments(task.arguments),
                attempts=task.attempts,
                error_type="ExecutionError",
                message="cancelled: worker pool shut down before the task finished",
                traceback="",
            )
            self._settle_failure(task, failure, ExecutionError)
        if self._executor is not None:
            if self._stop:
                _kill_pool(self._executor)
            else:
                self._executor.shutdown(wait=True)
            self._executor = None


def resilient_map(
    function: Callable[..., Any],
    argument_tuples: Sequence[Tuple],
    jobs: int = 1,
    *,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.25,
    max_backoff: float = 4.0,
    max_pool_rebuilds: int = 3,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Apply ``function`` to each argument tuple, surviving worker failure.

    Parameters
    ----------
    function, argument_tuples, jobs:
        ``function`` is applied to each argument tuple; it and all
        arguments/results must be picklable for the multi-process path.
        ``jobs <= 1`` (or a single task) runs in-process; otherwise
        ``min(jobs, len(argument_tuples))`` worker processes run them.
    timeout:
        Per-task wall-clock budget in seconds (pool path only).  A task
        exceeding it is charged a failed attempt; the pool is rebuilt if
        the task was already running.  ``None`` disables timeouts.
    retries:
        Failed attempts allowed *beyond* the first, per task.  Retries
        re-run the identical argument tuple, so seeded tasks reproduce
        bit-identically.
    backoff, max_backoff:
        Exponential backoff between attempts: ``backoff * 2**(attempt-1)``
        seconds, capped at ``max_backoff``.  On the pool path a backing-off
        task is parked, not slept on — other tasks keep completing and
        journaling in the meantime.
    max_pool_rebuilds:
        Pool rebuilds (crash or hang) tolerated before degrading to
        in-process serial execution for the remaining tasks.
    on_result:
        Called as ``on_result(index, result)`` exactly once per completed
        task, in completion order — the checkpoint-journaling hook.  On a
        fail-fast abort every task that completed before the abort has
        been journaled, including same-batch siblings of the failure.

    Raises
    ------
    ExecutionError
        When a task fails all its attempts; ``failures`` carries the
        structured reports.  :class:`~repro.errors.TaskTimeoutError` when
        the exhausted task timed out.
    """
    if jobs < 0:
        raise SimulationError(f"jobs must be non-negative, got {jobs}")
    check_task_limits(timeout, retries)
    tasks = list(argument_tuples)
    results: List[Any] = [None] * len(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        for index, arguments in enumerate(tasks):
            attempts, value, error = _attempt_in_process(
                function, arguments, 0, retries, backoff, max_backoff
            )
            if error is not None:
                failure = _failure(index, arguments, attempts, error)
                raise ExecutionError(failure.summary(), failures=(failure,)) from error
            results[index] = value
            if on_result is not None:
                on_result(index, value)
        return results

    state_lock = threading.Lock()
    settled = threading.Event()
    state: Dict[str, Any] = {"remaining": len(tasks), "failed": None}

    def _record(token: int, value: Any) -> None:
        results[token] = value
        if on_result is not None:
            on_result(token, value)

    def _settle(handle: TaskHandle) -> None:
        with state_lock:
            state["remaining"] -= 1
            if handle.failure is not None and state["failed"] is None:
                state["failed"] = handle
            finished = state["failed"] is not None or state["remaining"] == 0
        if finished:
            settled.set()

    pool = ResilientPool(
        function,
        jobs=min(jobs, len(tasks)),
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        max_backoff=max_backoff,
        max_pool_rebuilds=max_pool_rebuilds,
        on_result=_record,
        on_settle=_settle,
    )
    try:
        for index, arguments in enumerate(tasks):
            pool.submit(arguments, token=index)
        while not settled.wait(0.1):
            pool.check()
        pool.check()
        with state_lock:
            failed: Optional[TaskHandle] = state["failed"]
        if failed is not None:
            raise failed.exception()
        pool.shutdown(wait=True)
        pool.check()
    except BaseException:
        # Fail-fast: kill pending work — but the teardown still collects
        # and journals futures that had already completed.
        pool.kill()
        raise
    return results
