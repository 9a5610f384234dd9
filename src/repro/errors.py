"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause
while letting programming errors (``TypeError`` etc.) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class NetworkModelError(ReproError):
    """Raised when a network, graph, or session is structurally invalid."""


class RoutingError(NetworkModelError):
    """Raised when a data-path cannot be constructed or is inconsistent.

    A failed shortest-path search names the nodes it could not reach in
    :attr:`unreachable` (empty for every other routing failure).
    """

    def __init__(self, message: str, unreachable: tuple = ()) -> None:
        super().__init__(message)
        self.unreachable = tuple(unreachable)


class TopologyFormatError(NetworkModelError):
    """Raised when an on-disk topology file (GML/JSON) cannot be parsed or
    describes an invalid graph (missing endpoints, non-positive bandwidth)."""


class AllocationError(ReproError):
    """Raised when an allocation is malformed or references unknown members."""


class InfeasibleAllocationError(AllocationError):
    """Raised when an allocation violates capacity or session constraints."""


class FairnessComputationError(ReproError):
    """Raised when a fairness algorithm cannot make progress."""


class LayeringError(ReproError):
    """Raised for invalid layer schemes or layer subscriptions."""


class SimulationError(ReproError):
    """Raised when the packet-level simulator is misconfigured."""


class ProtocolError(SimulationError):
    """Raised when a congestion-control protocol is misconfigured."""


class ExperimentError(ReproError):
    """Raised when an experiment is given inconsistent parameters."""


class ExecutionError(ReproError):
    """Raised when task execution fails (worker crash, exhausted retries).

    Carries the structured per-task failure reports produced by the
    hardened runner (:mod:`repro.experiments.resilient`) in
    :attr:`failures` — each report names the task index, its arguments,
    the attempt count, and the final traceback — so callers can render an
    actionable summary instead of a bare traceback.
    """

    def __init__(self, message: str, failures: tuple = ()) -> None:
        super().__init__(message)
        self.failures = tuple(failures)


class TaskTimeoutError(ExecutionError):
    """Raised when a task exceeds its wall-clock timeout on every attempt."""


class ResultStoreError(ReproError):
    """Raised when the on-disk result store is misconfigured or unwritable.

    Corrupt *entries* never raise — they are quarantined and reported as
    cache misses (see :mod:`repro.experiments.store`); this error is for
    structural problems such as an unusable cache directory.
    """
