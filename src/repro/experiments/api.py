"""Declarative experiment API: specs, verdicts, and typed result envelopes.

Every experiment in this package is described by three first-class objects:

* :class:`ExperimentSpec` — a frozen dataclass naming *what* to run: the
  scale preset (``"reduced"`` or ``"paper"``), the execution knobs shared by
  every experiment (``jobs``, ``engine``), and per-experiment overrides
  (seeds, receiver counts, loss grids, ...) declared by each experiment's
  spec subclass.  Fields left at ``None`` resolve to the value in the spec
  class's :attr:`~ExperimentSpec.PRESETS` table for the chosen scale
  (:meth:`ExperimentSpec.resolved`).
* :class:`Verdict` — the machine-readable outcome of an experiment's
  qualitative claim check (``ok`` plus a one-line summary).
* :class:`ExperimentResult` — the uniform envelope every experiment
  returns: the registry key, the spec echo, a list of flat JSON-safe
  records (the figure's data points), the verdict, the RNG scheme version
  the simulator ran under, and the wall time.  ``to_dict``/``from_dict``
  round-trip losslessly through JSON: for any result ``r``,
  ``ExperimentResult.from_dict(r.to_dict()) == r``.

The registry tying specs to runnable experiments lives in
:mod:`repro.experiments.registry`; the CLI on top of both is
``python -m repro`` (``list`` / ``run`` / ``verify``).

The ``engine`` field names one of the two simulation engines
(:data:`ENGINES`: the bit-packed chunk scan and the per-packet reference
loop).  The retired names ``"batched"`` and ``"compiled"`` are accepted and
resolved to ``"bitpacked"`` on construction, so specs and stored results
that still name them keep decoding.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Mapping, Optional, Sequence, Tuple

from ..errors import ExperimentError
from ..protocols import PROTOCOL_FACTORIES
from ..protocols.kernel import ENGINES, resolve_engine

__all__ = [
    "SCALES",
    "ENGINES",
    "RESULT_SCHEMA_VERSION",
    "ExperimentSpec",
    "Verdict",
    "ExperimentResult",
]

#: Recognised scale presets: ``"reduced"`` regenerates every figure in
#: seconds; ``"paper"`` uses the paper's full sweep sizes.
SCALES: Tuple[str, ...] = ("reduced", "paper")

# Recognised simulation engines: ``ENGINES`` (imported above) comes from
# the one registry in ``repro.protocols.kernel`` (also re-exported by
# ``repro.simulator.engine``): the bit-packed scan (uint64 words +
# popcount, the default) and the per-packet reference loop, bit-for-bit
# identical for any seed.

#: Version of the ``ExperimentResult.to_dict`` JSON layout.  Bump when the
#: envelope's keys change shape; ``from_dict`` rejects unknown versions.
RESULT_SCHEMA_VERSION = 1

#: Spec fields that choose *how* to execute, never *what* is computed:
#: results are guaranteed identical for every value (see
#: ``tests/simulator/test_engine_equivalence.py`` and
#: ``tests/experiments/test_parallel.py``).  Excluded, along with the wall
#: time, from :meth:`ExperimentResult.canonical_json`.
EXECUTION_ONLY_FIELDS: Tuple[str, ...] = ("jobs", "engine")


def _to_jsonable(value: Any) -> Any:
    """Normalise a value into the JSON-representable subset used by records.

    Tuples become lists, mapping keys become strings; anything that would
    not survive a JSON round-trip (sets, arbitrary objects, NaN) is
    rejected so results never silently lose information on serialisation.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ExperimentError(
                f"non-finite float {value!r} is not JSON round-trippable"
            )
        return value
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _to_jsonable(item) for key, item in value.items()}
    raise ExperimentError(
        f"value {value!r} of type {type(value).__name__} is not JSON-serialisable; "
        "experiment records must contain only str/int/float/bool/None/list/dict"
    )


def _freeze(value: Any) -> Any:
    """Convert JSON lists back into the tuples spec fields are declared with."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run.

    Subclasses add per-experiment override fields (loss grids, receiver
    counts, seeds, ...); fields defaulting to ``None`` mean "use the preset
    value for :attr:`scale`" and are filled in from :attr:`PRESETS` by
    :meth:`resolved`.

    Parameters
    ----------
    scale:
        ``"reduced"`` (default; regenerates in seconds) or ``"paper"``
        (the paper's full sweep sizes).
    jobs:
        Worker processes for experiments that fan out internally (Figure
        8's (panel, protocol) sweeps).  Results are identical for every
        value.
    engine:
        Simulation engine for the packet-level experiments — ``"bitpacked"``
        (the default) or ``"reference"``; the retired names ``"batched"``
        and ``"compiled"`` resolve to ``"bitpacked"``.  Ignored by the
        closed-form experiments.  Results are identical for every value,
        so the field is execution-only and excluded from canonical JSON —
        cache entries address identically whichever engine wrote them.
    """

    scale: str = "reduced"
    jobs: int = 1
    engine: str = "bitpacked"

    #: Scale presets: ``{scale: {field: value}}`` for the fields left at
    #: ``None``.  A class variable, not a field, so it is neither echoed
    #: in results nor hashed into store addresses.
    PRESETS: ClassVar[Mapping[str, Mapping[str, Any]]] = {}

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise ExperimentError(
                f"unknown scale {self.scale!r}; expected one of {list(SCALES)}"
            )
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise ExperimentError(f"jobs must be a positive integer, got {self.jobs!r}")
        try:
            object.__setattr__(self, "engine", resolve_engine(self.engine))
        except ValueError:
            raise ExperimentError(
                f"unknown engine {self.engine!r}; expected one of {list(ENGINES)}"
            ) from None

    @property
    def paper_scale(self) -> bool:
        """True when this spec selects the paper-scale preset."""
        return self.scale == "paper"

    def replace(self, **overrides: Any) -> "ExperimentSpec":
        """A copy of this spec with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **overrides)

    def resolved(self) -> "ExperimentSpec":
        """Fill every ``None`` field from :attr:`PRESETS` for this scale.

        Explicitly-set fields always win over the preset.  The registry
        resolves each spec once, right before the experiment body runs.
        """
        table = self.PRESETS.get(self.scale, {})
        updates = {
            name: value
            for name, value in table.items()
            if getattr(self, name) is None
        }
        return dataclasses.replace(self, **updates) if updates else self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe mapping of every spec field (tuples become lists)."""
        return {
            spec_field.name: _to_jsonable(getattr(self, spec_field.name))
            for spec_field in dataclasses.fields(self)
        }

    def canonical_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-safe mapping minus the execution-only fields.

        Two specs with equal canonical dicts describe the same computation:
        ``jobs`` and ``engine`` (:data:`EXECUTION_ONLY_FIELDS`) choose *how*
        to execute, never *what* is computed.  This is the form embedded in
        :meth:`ExperimentResult.canonical_json` and hashed into the result
        store's content address (:func:`repro.experiments.store.cache_key`).
        """
        data = self.to_dict()
        for field_name in EXECUTION_ONLY_FIELDS:
            data.pop(field_name, None)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (lists become tuples)."""
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ExperimentError(
                f"unknown {cls.__name__} fields {unknown}; expected subset of {sorted(known)}"
            )
        return cls(**{name: _freeze(value) for name, value in data.items()})


#: Smallest value each replicated-simulation count accepts (a run needs
#: at least two time units: the simulator's minimum duration).
COUNT_MINIMUMS: Mapping[str, int] = {
    "num_receivers": 1,
    "duration_units": 2,
    "repetitions": 1,
}


def is_real(value: object) -> bool:
    """True for an int or float spec value (bools are not numbers here)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_counts(spec: ExperimentSpec) -> None:
    """Validate a spec's simulation counts before anything is simulated.

    Each of ``num_receivers``, ``duration_units`` and ``repetitions`` left
    at ``None`` (resolved from the scale preset later) passes; anything
    else must be an integer of at least its :data:`COUNT_MINIMUMS` entry.
    """
    for name, minimum in COUNT_MINIMUMS.items():
        value = getattr(spec, name)
        if value is not None and not (
            isinstance(value, numbers.Integral)
            and not isinstance(value, bool)
            and value >= minimum
        ):
            raise ExperimentError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_protocols(protocols: Any, required: Sequence[str] = ()) -> None:
    """Validate a spec's ``protocols`` field before anything is simulated.

    ``None`` (resolved from the scale preset later) passes.  Anything else
    must be a non-empty list of known protocol names that includes every
    name in ``required`` — the protocols the experiment's claim is judged
    against.
    """
    if protocols is None:
        return
    if not isinstance(protocols, (list, tuple)) or not protocols:
        raise ExperimentError(
            f"protocols must be a non-empty list of protocol names, got {protocols!r}"
        )
    unknown = [
        name for name in protocols
        if not isinstance(name, str) or name.lower() not in PROTOCOL_FACTORIES
    ]
    if unknown:
        raise ExperimentError(
            f"protocols: unknown protocol(s) {unknown}; "
            f"choose from {sorted(PROTOCOL_FACTORIES)}"
        )
    missing = [name for name in required if name not in protocols]
    if missing:
        raise ExperimentError(
            f"protocols must include {missing}: the verdict compares against them"
        )


@dataclass(frozen=True)
class Verdict:
    """Machine-readable outcome of an experiment's qualitative claim check.

    ``ok`` is True when the paper's claim is reproduced; ``summary`` is the
    one-line human-readable form (e.g. ``"matches paper"`` or
    ``"shape differs"``) printed by the CLI and embedded in JSON output.
    """

    ok: bool
    summary: str

    def __str__(self) -> str:
        return self.summary

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe mapping with ``ok`` and ``summary``."""
        return {"ok": self.ok, "summary": self.summary}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Verdict":
        """Rebuild a verdict from :meth:`to_dict` output."""
        return cls(ok=bool(data["ok"]), summary=str(data["summary"]))


@dataclass(frozen=True)
class ExperimentResult:
    """Uniform, JSON-round-trippable envelope for one experiment run.

    ``records`` is the machine-readable form of the figure: a flat sequence
    of JSON-safe mappings (one per data point / table row, with an optional
    ``"section"`` key grouping rows into sub-tables).  They are also its one
    text form: :meth:`table` renders them, so a fresh result, a store hit
    and a :meth:`from_json` round trip print identically.  ``payload`` holds
    the experiment's rich in-memory result object (``Figure8Result``, ...)
    when the result was produced by running the experiment in this process;
    it is data only (no rendering of its own), is not serialised, and is
    excluded from equality, so a deserialised result compares equal to the
    original.
    """

    key: str
    spec: ExperimentSpec
    records: Tuple[Mapping[str, Any], ...]
    verdict: Verdict
    rng_scheme_version: int
    wall_time_seconds: float
    payload: Any = field(default=None, compare=False, repr=False)

    def __getstate__(self) -> Dict[str, Any]:
        """Drop the payload when pickling (e.g. crossing a worker boundary).

        The payload is documented as in-memory only, and some experiments'
        rich result objects hold closures that cannot be pickled — before
        this, a multi-process sweep crashed on the first such experiment
        instead of returning its (fully serialisable) envelope.
        """
        state = dict(self.__dict__)
        state["payload"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    @property
    def matches_current_rng_scheme(self) -> bool:
        """Whether this build can reproduce the envelope's numbers.

        Seeded results are only reproducible within one random-stream
        layout (``repro.simulator.engine.RNG_SCHEME_VERSION``); an
        envelope recorded under another scheme version — e.g. a scheme-3
        baseline replayed on the scheme-4 counter-based Philox streams —
        is statistically comparable but will not match byte-for-byte, so
        determinism checks against :meth:`canonical_json` must gate on
        this first.
        """
        from ..simulator.engine import RNG_SCHEME_VERSION

        return self.rng_scheme_version == RNG_SCHEME_VERSION

    def table(self) -> str:
        """Render :attr:`records` as aligned plain-text tables."""
        from ..analysis.tables import format_records

        return format_records(self.records)

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-safe mapping of the envelope (minus ``payload``)."""
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "key": self.key,
            "spec": self.spec.to_dict(),
            "records": [_to_jsonable(record) for record in self.records],
            "verdict": self.verdict.to_dict(),
            "rng_scheme_version": self.rng_scheme_version,
            "wall_time_seconds": self.wall_time_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output.

        The spec class is resolved through the registry by ``key``, so the
        experiment must be registered (all built-in experiments are).
        """
        from .registry import get_experiment

        version = data.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise ExperimentError(
                f"unsupported result schema_version {version!r}; "
                f"this build reads version {RESULT_SCHEMA_VERSION}"
            )
        experiment = get_experiment(data["key"])
        return cls(
            key=data["key"],
            spec=experiment.spec_cls.from_dict(data["spec"]),
            records=tuple(data["records"]),
            verdict=Verdict.from_dict(data["verdict"]),
            rng_scheme_version=int(data["rng_scheme_version"]),
            wall_time_seconds=float(data["wall_time_seconds"]),
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """The envelope as a JSON document (trailing newline).

        Keys keep their own order rather than being sorted: :meth:`table`
        takes a record's columns in first-seen order, so a result read back
        with :meth:`from_json` renders exactly like the original.
        :meth:`canonical_json` is the sorted form for byte comparison.
        """
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def canonical_json(self) -> str:
        """Deterministic JSON form excluding wall time and execution knobs.

        Two runs of the same workload produce byte-identical canonical JSON
        regardless of ``jobs``, ``engine``, or machine speed — the wall time
        and the :data:`EXECUTION_ONLY_FIELDS` of the spec echo are dropped.
        This is the form the determinism regression tests compare.  The
        RNG scheme version stays *in* the canonical form deliberately:
        envelopes from different stream layouts are never byte-comparable
        (see :attr:`matches_current_rng_scheme`).
        """
        data = self.to_dict()
        del data["wall_time_seconds"]
        data["spec"] = self.spec.canonical_dict()
        return json.dumps(data, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
