"""Content-addressed on-disk store for experiment result envelopes.

The store is the persistence layer under cached and resumable sweeps
(``python -m repro run --cache DIR`` / ``--resume``): every completed
:class:`~repro.experiments.api.ExperimentResult` is journaled to disk
under a deterministic content address, so a repeated run is an O(1)
lookup and an interrupted sweep resumes from its last completed task.

Content addressing
------------------

An entry's address is the SHA-256 of a canonical JSON blob of

* the experiment's registry key,
* the spec's :meth:`~repro.experiments.api.ExperimentSpec.canonical_dict`
  (execution-only fields — ``jobs``, ``engine`` — are excluded, because
  results are guaranteed identical for every value), and
* the simulator's ``RNG_SCHEME_VERSION``.

Including the scheme version in the address makes invalidation automatic:
a scheme bump changes every address, so stale entries can never be served
— they simply stop being found (and a version recorded *inside* an entry
is re-checked on read as a belt-and-braces guard).

Durability and integrity
------------------------

Writes are atomic: the entry is serialised to a temporary file in the
destination directory and published with ``os.replace``, so concurrent
writers of the same key both succeed and readers never observe a partial
file.  Every entry embeds a SHA-256 checksum of its result payload;
:meth:`ResultStore.get` verifies it (along with the address and schema
version) and **quarantines** any entry that fails — the damaged file is
moved into ``<root>/quarantine/`` for post-mortem and the lookup reports
a miss, so a corrupt entry is recomputed rather than silently served.

An entry is verified once per file identity: the store keeps each
verified envelope in a bounded LRU memo stamped with the file's
``(st_ino, st_size, st_mtime_ns)``, and a lookup whose ``os.stat`` still
matches the stamp is answered from memory.  A changed, missing or new
file is read and validated again (and quarantined if damaged), so the
disk stays the source of truth.

Layout::

    <root>/
      objects/<aa>/<sha256>.json    # aa = first two hex digits
      quarantine/<sha256>.<n>.json  # corrupt entries, never read again
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..errors import ResultStoreError
from .api import ExperimentResult, ExperimentSpec

__all__ = ["STORE_VERSION", "cache_key", "StoreStats", "ResultStore"]

#: Version of the on-disk entry layout.  Entries written under another
#: version are treated as misses (not quarantined: they are well-formed,
#: just foreign).
STORE_VERSION = 1

#: Budget of the verified-entry memo, in bytes of entry file.  Past it the
#: least recently used entry is dropped; a parsed envelope costs a few
#: times its file size in memory.
MEMO_BYTES = 8 * 1024 * 1024

#: A file's identity as the memo sees it: ``(st_ino, st_size, st_mtime_ns)``.
Stamp = Tuple[int, int, int]


def _stamp(info: os.stat_result) -> Stamp:
    return (info.st_ino, info.st_size, info.st_mtime_ns)


def _read_entry(path: Path) -> Tuple[Stamp, bytes]:
    """An entry's bytes and the identity of the file they were read from."""
    with open(path, "rb") as handle:
        return _stamp(os.fstat(handle.fileno())), handle.read()


def _canonical_bytes(document: object) -> bytes:
    """Canonical compact JSON encoding used for hashing."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def cache_key(
    experiment_key: str,
    spec: ExperimentSpec,
    rng_scheme_version: Optional[int] = None,
) -> str:
    """The content address (SHA-256 hex digest) of one experiment task.

    Two tasks share an address exactly when they are guaranteed to produce
    byte-identical :meth:`~repro.experiments.api.ExperimentResult.canonical_json`:
    same registry key, same canonical spec (execution-only fields dropped),
    same RNG scheme version.  ``rng_scheme_version`` defaults to the
    current build's ``repro.simulator.engine.RNG_SCHEME_VERSION``.
    """
    if rng_scheme_version is None:
        from ..simulator.engine import RNG_SCHEME_VERSION

        rng_scheme_version = RNG_SCHEME_VERSION
    blob = _canonical_bytes(
        {
            "experiment": experiment_key,
            "spec": spec.canonical_dict(),
            "rng_scheme_version": rng_scheme_version,
        }
    )
    return hashlib.sha256(blob).hexdigest()


@dataclasses.dataclass
class StoreStats:
    """Counters accumulated over one :class:`ResultStore`'s lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    quarantined: int = 0

    def summary(self) -> str:
        """One-line human-readable form (printed by the CLI)."""
        parts = [
            f"{self.hits} hit(s)",
            f"{self.misses} miss(es)",
            f"{self.writes} write(s)",
        ]
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        return ", ".join(parts)

    def to_dict(self) -> dict:
        """Plain-dict form (reported by the ``repro serve`` stats op)."""
        return dataclasses.asdict(self)


class ResultStore:
    """Content-addressed store of experiment result envelopes on disk.

    Parameters
    ----------
    root:
        Directory holding the store (created on first use).
    rng_scheme_version:
        RNG scheme version folded into every address; defaults to the
        current build's.  Exposed so tests can prove that a version bump
        invalidates previously stored entries.
    """

    def __init__(
        self,
        root: Union[str, Path],
        rng_scheme_version: Optional[int] = None,
    ) -> None:
        if rng_scheme_version is None:
            from ..simulator.engine import RNG_SCHEME_VERSION

            rng_scheme_version = RNG_SCHEME_VERSION
        self.root = Path(root)
        self.rng_scheme_version = int(rng_scheme_version)
        self.stats = StoreStats()
        # address -> (stamp, verified envelope dict), least recently used first.
        self._memo: "OrderedDict[str, Tuple[Stamp, Dict[str, Any]]]" = OrderedDict()
        self._memo_bytes = 0
        if self.root.exists() and not self.root.is_dir():
            raise ResultStoreError(
                f"result store path {self.root} exists and is not a directory"
            )

    # -- addressing ---------------------------------------------------------

    def key_for(self, experiment_key: str, spec: ExperimentSpec) -> str:
        """The content address of one ``(key, spec)`` task in this store."""
        return cache_key(experiment_key, spec, self.rng_scheme_version)

    def entry_path(self, address: str) -> Path:
        """Where the entry for ``address`` lives (whether or not it exists)."""
        return self.root / "objects" / address[:2] / f"{address}.json"

    # -- read path ----------------------------------------------------------

    def get(
        self, experiment_key: str, spec: ExperimentSpec
    ) -> Optional[ExperimentResult]:
        """The stored result for a task, or ``None`` on miss.

        A hit returns the envelope with its spec echo replaced by the
        *requested* spec: execution-only fields (``jobs``, ``engine``) are
        excluded from the address, so the cached computation may have run
        under different execution knobs — the numbers are identical by
        construction, and echoing the caller's spec keeps ``--format
        json`` output consistent with what was asked for.  An entry is
        verified once per file identity (see :meth:`get_envelope`); any
        entry that fails validation (truncated file, bit flip, checksum or
        address mismatch, wrong scheme version) is moved to the quarantine
        directory and reported as a miss.  The result's records are the
        caller's own copies.
        """
        envelope = self.get_envelope(experiment_key, spec)
        if envelope is None:
            return None
        owned = dict(envelope, records=copy.deepcopy(envelope["records"]))
        return dataclasses.replace(ExperimentResult.from_dict(owned), spec=spec)

    def get_envelope(
        self,
        experiment_key: str,
        spec: ExperimentSpec,
        address: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """The verified envelope dict stored for a task, or ``None`` on miss.

        The dict is :meth:`ExperimentResult.to_dict` of the stored result,
        with the spec echo *as stored*, and it is the memo's own copy:
        read it, never mutate it.  ``address`` skips re-hashing the spec
        when the caller already has it.  Counts a hit or a miss exactly
        like :meth:`get`.
        """
        if address is None:
            address = self.key_for(experiment_key, spec)
        envelope = self._verified(experiment_key, address)
        if envelope is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return envelope

    def __contains__(self, task) -> bool:
        """Whether ``(experiment_key, spec)`` has a *valid* entry on disk.

        Validates exactly like :meth:`get` — a corrupt or foreign entry
        answers ``False`` (and a corrupt one is quarantined on the way),
        so membership always agrees with what ``get`` would serve.  Does
        not touch the hit/miss counters: a membership probe is not a
        lookup.
        """
        experiment_key, spec = task
        address = self.key_for(experiment_key, spec)
        return self._verified(experiment_key, address) is not None

    def _verified(self, experiment_key: str, address: str) -> Optional[Dict[str, Any]]:
        """The verified envelope at ``address``, or ``None``.

        One ``os.stat`` decides: a file whose identity matches the memo's
        stamp is answered from memory; anything else is read, validated
        and memoised (or quarantined if damaged).
        """
        path = self.entry_path(address)
        try:
            stamp = _stamp(os.stat(path))
        except OSError:
            self._forget(address)
            return None
        held = self._memo.get(address)
        if held is not None and held[0] == stamp:
            self._memo.move_to_end(address)
            return held[1]
        self._forget(address)
        try:
            stamp, raw = _read_entry(path)
        except OSError:
            return None
        status, envelope = self._validate(raw, address, experiment_key)
        if status == "corrupt":
            self._quarantine(path, address)
        if status != "ok":
            return None
        self._remember(address, stamp, envelope)
        return envelope

    def _remember(self, address: str, stamp: Stamp, envelope: Dict[str, Any]) -> None:
        size = stamp[1]
        if size > MEMO_BYTES:
            return
        self._memo[address] = (stamp, envelope)
        self._memo_bytes += size
        while self._memo_bytes > MEMO_BYTES:
            _, (old_stamp, _) = self._memo.popitem(last=False)
            self._memo_bytes -= old_stamp[1]

    def _forget(self, address: str) -> None:
        held = self._memo.pop(address, None)
        if held is not None:
            self._memo_bytes -= held[0][1]

    def _validate(self, raw: bytes, address: str, experiment_key: str):
        """Verify one entry; returns ``(status, envelope)``.

        ``status`` is ``"ok"`` (entry verified; ``envelope`` is its
        result's :meth:`~repro.experiments.api.ExperimentResult.to_dict`),
        ``"corrupt"`` (damaged — the caller quarantines it), or
        ``"foreign"`` (well-formed but written under another store layout
        version: a miss, left in place for the build that understands it).
        """
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return "corrupt", None
        if not isinstance(entry, dict):
            return "corrupt", None
        if entry.get("store_version") != STORE_VERSION:
            return "foreign", None
        result_dict = entry.get("result")
        expected_digest = entry.get("payload_sha256")
        if not isinstance(result_dict, dict) or not isinstance(expected_digest, str):
            return "corrupt", None
        if entry.get("cache_key") != address:
            # The file content belongs to a different address (bit flip in
            # the recorded key, or a file copied over another name).
            return "corrupt", None
        digest = hashlib.sha256(_canonical_bytes(result_dict)).hexdigest()
        if digest != expected_digest:
            return "corrupt", None
        if result_dict.get("rng_scheme_version") != self.rng_scheme_version:
            return "corrupt", None
        if result_dict.get("key") != experiment_key:
            return "corrupt", None
        try:
            return "ok", ExperimentResult.from_dict(result_dict).to_dict()
        except Exception:
            return "corrupt", None

    def _quarantine(self, path: Path, address: str) -> None:
        """Move a damaged entry aside so it is never read (or served) again.

        ``stats.quarantined`` counts only *successful* moves: when
        ``os.replace`` fails the damaged file was typically already moved
        (or deleted) by a racing process, so there is nothing this store
        quarantined.  Exhausting every candidate name — a quarantine
        directory already holding 1000 copies of one address — is a
        structural problem and raises instead of silently leaving the
        damaged entry in place to be re-read forever.
        """
        quarantine_dir = self.root / "quarantine"
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        for attempt in range(1000):
            destination = quarantine_dir / f"{address}.{attempt}.json"
            if destination.exists():
                continue
            try:
                os.replace(path, destination)
            except OSError:
                # Raced with another process: the entry is gone either
                # way, but this store did not quarantine it.
                return
            self.stats.quarantined += 1
            return
        raise ResultStoreError(
            f"quarantine directory {quarantine_dir} already holds 1000 entries "
            f"for address {address}; refusing to overwrite them — clean it out"
        )

    # -- write path ---------------------------------------------------------

    def put(
        self, experiment_key: str, spec: ExperimentSpec, result: ExperimentResult
    ) -> Path:
        """Journal one completed result; returns the entry path.

        The write is atomic (temporary file + ``os.replace`` in the
        destination directory), so concurrent writers of the same address
        both succeed and a crash mid-write never leaves a partial entry
        under the published name.
        """
        if result.key != experiment_key:
            raise ResultStoreError(
                f"result key {result.key!r} does not match task key {experiment_key!r}"
            )
        address = self.key_for(experiment_key, spec)
        path = self.entry_path(address)
        result_dict = result.to_dict()
        entry = {
            "store_version": STORE_VERSION,
            "cache_key": address,
            "experiment": experiment_key,
            "payload_sha256": hashlib.sha256(_canonical_bytes(result_dict)).hexdigest(),
            "result": result_dict,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            temporary = path.parent / f".{address}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
            # Unsorted on purpose: a hit must render its records' columns in
            # their own order; the checksum uses the sorted canonical form.
            temporary.write_bytes(json.dumps(entry, indent=2).encode("utf-8") + b"\n")
            os.replace(temporary, path)
        except OSError as error:
            raise ResultStoreError(
                f"cannot write result store entry under {self.root}: {error}"
            ) from error
        self.stats.writes += 1
        return path
