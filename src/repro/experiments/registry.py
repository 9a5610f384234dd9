"""The experiment registry: one uniform entry per paper artefact.

Each experiment module registers a single :class:`Experiment` describing how
to run it from a spec (:meth:`Experiment.run`), how its result is judged
against the paper (``judge``, whose verdict the envelope stores), and how its
data points serialise (the record rows inside
:class:`~repro.experiments.api.ExperimentResult`, which are also its one
text rendering).
:meth:`Experiment.run` is the one entry point: it resolves the spec's scale
presets and hands the resolved spec to the module's ``body``.  The runner,
the serving daemon and the ``python -m repro`` CLI all iterate this
registry — workers are handed a plain ``(key, spec)`` pair and resolve the
experiment here, so nothing but dataclasses ever crosses a process
boundary.

Registration order is execution order: the package ``__init__`` imports
the built-in experiment modules in it (paper figures first, then ablations
and extensions), and modules added with :func:`register_module` follow.

>>> from repro.experiments.registry import get_experiment
>>> result = get_experiment("figure1").run()
>>> result.verdict.ok
True
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Type

from ..errors import ExperimentError
from .api import ExperimentResult, ExperimentSpec, Verdict

__all__ = [
    "Experiment",
    "register",
    "register_module",
    "get_experiment",
    "experiment_keys",
    "all_experiments",
    "select_experiments",
]

_REGISTRY: Dict[str, "Experiment"] = {}

#: Extra experiment modules registered at runtime (:func:`register_module`):
#: imported by :func:`_load` alongside the built-ins so their experiments
#: resolve by key in *worker processes* too — a worker is handed only a
#: ``(key, spec)`` pair and replays the registry imports itself.
_EXTRA_MODULES: List[str] = []


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: key, title, spec class, and behaviour.

    ``body`` produces the experiment's rich in-memory payload (the module's
    result dataclass) from a *resolved* spec (every preset field filled
    in); ``to_records`` flattens that payload into JSON-safe record rows;
    ``judge`` checks the paper's qualitative claim.  :meth:`run` composes
    the three into the uniform
    :class:`~repro.experiments.api.ExperimentResult` envelope.

    ``default`` marks experiments included in the full-suite sweeps
    (``python -m repro run all`` / ``verify``); non-default entries (e.g.
    the single-panel ``figure8_panel``) remain invocable by key.
    """

    key: str
    title: str
    spec_cls: Type[ExperimentSpec]
    body: Callable[[ExperimentSpec], Any]
    to_records: Callable[[Any], Sequence[Mapping[str, Any]]]
    judge: Callable[[Any], Verdict]
    default: bool = True

    def make_spec(self, **overrides: Any) -> ExperimentSpec:
        """Build this experiment's spec from keyword overrides."""
        return self.spec_cls(**overrides)

    def run(self, spec: Optional[ExperimentSpec] = None, **overrides: Any) -> ExperimentResult:
        """Execute the experiment and wrap the outcome in a typed envelope.

        Pass a prebuilt ``spec`` or spec-field ``overrides`` (not both).
        The body receives the spec resolved against its scale presets
        (:meth:`~repro.experiments.api.ExperimentSpec.resolved`); the
        envelope echoes the spec as given, so preset fields stay ``None``.
        The envelope also carries the record rows, the verdict, the
        simulator's RNG scheme version, and the wall time; the rich payload
        object rides along in-memory as ``result.payload``.
        """
        from ..simulator.engine import RNG_SCHEME_VERSION

        if spec is None:
            spec = self.make_spec(**overrides)
        elif overrides:
            raise ExperimentError("pass either a spec or field overrides, not both")
        if not isinstance(spec, self.spec_cls):
            raise ExperimentError(
                f"experiment {self.key!r} expects a {self.spec_cls.__name__}, "
                f"got {type(spec).__name__}"
            )
        start = time.perf_counter()
        payload = self.body(spec.resolved())
        wall_time = time.perf_counter() - start
        return ExperimentResult(
            key=self.key,
            spec=spec,
            records=tuple(dict(record) for record in self.to_records(payload)),
            verdict=self.judge(payload),
            rng_scheme_version=RNG_SCHEME_VERSION,
            wall_time_seconds=wall_time,
            payload=payload,
        )


def register(experiment: Experiment) -> Experiment:
    """Add an experiment to the registry (module-import time); returns it.

    Duplicate keys are rejected so two modules can never silently shadow
    each other's entries.
    """
    existing = _REGISTRY.get(experiment.key)
    if existing is not None and existing is not experiment:
        raise ExperimentError(f"experiment key {experiment.key!r} registered twice")
    _REGISTRY[experiment.key] = experiment
    return experiment


def register_module(module_name: str) -> None:
    """Register an importable module that registers experiments on import.

    For experiments defined outside this package (extensions, the
    fault-injection test harness): the module is imported immediately —
    so its :func:`register` calls run, after the built-ins, which the
    package import has already registered — and recorded so every later
    :func:`_load` re-imports it.  This matters for multi-process sweeps:
    a worker resolves experiments by key from a *fresh* registry, so an
    experiment registered only by direct :func:`register` calls in the
    parent would be unknown to a spawned worker; module registration
    survives the process boundary.
    """
    importlib.import_module(module_name)
    if module_name not in _EXTRA_MODULES:
        _EXTRA_MODULES.append(module_name)


def _load() -> None:
    """Import every extra experiment module so its ``register`` call has run.

    The built-in modules need no loading here: importing this module
    imports the package, whose ``__init__`` imports them all.
    """
    for module_name in list(_EXTRA_MODULES):
        importlib.import_module(module_name)


def get_experiment(key: str) -> Experiment:
    """Look up one experiment by registry key (raises on unknown keys)."""
    _load()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown experiment key {key!r}; valid: {experiment_keys(default_only=False)}"
        ) from None


def experiment_keys(default_only: bool = True) -> List[str]:
    """Registered keys in execution order.

    ``default_only`` (the default) lists the experiments that make up the
    full-suite sweep; pass ``False`` to include standalone entries such as
    ``figure8_panel``.
    """
    return [e.key for e in all_experiments(default_only=default_only)]


def all_experiments(default_only: bool = True) -> List[Experiment]:
    """Registered experiments in registration order (see :func:`experiment_keys`)."""
    _load()
    return [
        experiment
        for experiment in _REGISTRY.values()
        if experiment.default or not default_only
    ]


def select_experiments(keys: Optional[Sequence[str]] = None) -> List[Experiment]:
    """Resolve a key subset to experiments, preserving registry order.

    ``None`` (or an empty sequence) selects the default suite.  Named keys
    may include non-default entries like ``figure8_panel``; unknown keys
    raise :class:`KeyError` listing the valid ones.  The ``python -m repro``
    CLI validates and orders its selections through it.
    """
    if not keys:
        return all_experiments()
    valid = [experiment.key for experiment in all_experiments(default_only=False)]
    unknown = sorted(set(keys) - set(valid))
    if unknown:
        raise KeyError(f"unknown experiment keys {unknown}; valid: {valid}")
    wanted = set(keys)
    return [
        experiment
        for experiment in all_experiments(default_only=False)
        if experiment.key in wanted
    ]
