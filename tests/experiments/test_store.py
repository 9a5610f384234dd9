"""Integrity suite for the content-addressed result store.

The store's promises, each provoked for real: corrupt entries (truncated
or bit-flipped) are detected and quarantined — never served; an RNG
scheme-version bump invalidates every hit; concurrent writers of the same
address both succeed (atomic rename); the verified-entry memo answers only
while an entry file keeps its identity; and a resumed ``jobs=N`` sweep is
bit-identical to an uninterrupted ``jobs=1`` run.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

import faults
import repro.experiments.store as store_module
from repro.errors import ResultStoreError
from repro.experiments import run_specs
from repro.experiments.api import ExperimentResult
from repro.experiments.registry import get_experiment, register_module
from repro.experiments.store import STORE_VERSION, ResultStore, StoreStats, cache_key
from repro.simulator.engine import RNG_SCHEME_VERSION

register_module("faults")


def _task(key="figure1", **overrides):
    return key, get_experiment(key).make_spec(**overrides)


def _run_one(key, spec):
    return get_experiment(key).run(spec)


class TestAddressing:
    def test_key_is_deterministic_and_spec_sensitive(self):
        key, spec = _task("figure8_panel", num_receivers=6)
        other = get_experiment("figure8_panel").make_spec(num_receivers=8)
        assert cache_key(key, spec) == cache_key(key, spec)
        assert cache_key(key, spec) != cache_key(key, other)
        assert cache_key("figure1", spec) != cache_key(key, spec)

    def test_execution_only_fields_do_not_change_address(self):
        key, spec = _task("figure8_panel", num_receivers=6)
        for variant in (spec.replace(jobs=4), spec.replace(engine="bitpacked")):
            assert cache_key(key, variant) == cache_key(key, spec)

    def test_scheme_version_changes_address(self):
        key, spec = _task()
        assert cache_key(key, spec, 4) != cache_key(key, spec, 5)


class TestRoundTrip:
    def test_put_get_round_trips_canonically(self, tmp_path):
        store = ResultStore(tmp_path)
        key, spec = _task()
        result = _run_one(key, spec)
        path = store.put(key, spec, result)
        assert path.is_file()
        cached = store.get(key, spec)
        assert cached is not None
        assert cached.canonical_json() == result.canonical_json()
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_miss_on_absent_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        key, spec = _task()
        assert store.get(key, spec) is None
        assert (key, spec) not in store
        assert store.stats.misses == 1

    def test_hit_echoes_requested_execution_knobs(self, tmp_path):
        # engine/jobs are excluded from the address; a hit echoes the
        # *caller's* spec so JSON output matches what was asked for.
        store = ResultStore(tmp_path)
        key, spec = _task("figure8_panel", num_receivers=6, duration_units=80,
                          independent_loss_rates=(0.02,), repetitions=1)
        store.put(key, spec, _run_one(key, spec))
        requested = spec.replace(engine="bitpacked", jobs=3)
        cached = store.get(key, requested)
        assert cached is not None
        assert cached.spec.engine == "bitpacked" and cached.spec.jobs == 3

    @pytest.mark.parametrize("retired", ("batched", "compiled"))
    def test_entry_stored_under_retired_engine_still_hits(self, tmp_path, retired):
        # Entries written while "batched"/"compiled" were engines carry the
        # name in their spec echo; it must decode (as the bitpacked alias)
        # instead of failing validation and being quarantined as corrupt.
        store = ResultStore(tmp_path)
        key, spec = _task("figure8_panel", num_receivers=6, duration_units=80,
                          independent_loss_rates=(0.02,), repetitions=1)
        path = store.put(key, spec, _run_one(key, spec))
        entry = json.loads(path.read_text())
        entry["result"]["spec"]["engine"] = retired
        entry["payload_sha256"] = hashlib.sha256(
            json.dumps(entry["result"], sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        path.write_text(json.dumps(entry))
        fresh = ResultStore(tmp_path)
        cached = fresh.get(key, spec)
        assert cached is not None
        assert fresh.stats.hits == 1 and fresh.stats.quarantined == 0
        assert path.exists()

    def test_put_rejects_mismatched_key(self, tmp_path):
        store = ResultStore(tmp_path)
        key, spec = _task()
        with pytest.raises(ResultStoreError):
            store.put("figure2", spec, _run_one(key, spec))

    def test_rejects_file_as_root(self, tmp_path):
        stomped = tmp_path / "not-a-dir"
        stomped.write_text("x")
        with pytest.raises(ResultStoreError):
            ResultStore(stomped)


class TestCorruptionQuarantine:
    def _stored(self, tmp_path):
        store = ResultStore(tmp_path)
        key, spec = _task()
        result = _run_one(key, spec)
        path = store.put(key, spec, result)
        return store, key, spec, path

    def test_truncated_entry_quarantined_not_served(self, tmp_path):
        store, key, spec, path = self._stored(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert store.get(key, spec) is None
        assert not path.exists()  # moved aside, never re-read
        assert store.stats.quarantined == 1
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert len(quarantined) == 1

    def test_bitflip_payload_detected_by_checksum(self, tmp_path):
        # Valid JSON, wrong bytes: only the embedded checksum can catch it.
        store, key, spec, path = self._stored(tmp_path)
        entry = json.loads(path.read_text())
        entry["result"]["records"][0] = dict(entry["result"]["records"][0])
        for field, value in entry["result"]["records"][0].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry["result"]["records"][0][field] = value + 1
                break
        path.write_text(json.dumps(entry))
        assert store.get(key, spec) is None
        assert store.stats.quarantined == 1

    def test_wrong_address_content_quarantined(self, tmp_path):
        # An entry copied over another name fails the recorded-address check.
        store, key, spec, path = self._stored(tmp_path)
        entry = json.loads(path.read_text())
        entry["cache_key"] = "0" * 64
        path.write_text(json.dumps(entry))
        assert store.get(key, spec) is None
        assert store.stats.quarantined == 1

    def test_repeated_corruption_gets_distinct_quarantine_names(self, tmp_path):
        store, key, spec, path = self._stored(tmp_path)
        for _ in range(2):
            store.put(key, spec, _run_one(key, spec))
            entry_path = store.entry_path(store.key_for(key, spec))
            entry_path.write_bytes(b"\x00 definitely not json")
            assert store.get(key, spec) is None
        assert len(list((tmp_path / "quarantine").iterdir())) == 2

    def test_foreign_store_version_is_a_miss_not_quarantine(self, tmp_path):
        store, key, spec, path = self._stored(tmp_path)
        entry = json.loads(path.read_text())
        entry["store_version"] = STORE_VERSION + 1
        path.write_text(json.dumps(entry))
        assert store.get(key, spec) is None
        # Well-formed entries from another layout version stay in place
        # (misses, not damage): the build that wrote them can still read them.
        assert store.stats.quarantined == 0
        assert path.exists()

    def test_quarantined_entry_is_recomputed_and_rewritten(self, tmp_path):
        store, key, spec, path = self._stored(tmp_path)
        path.write_bytes(b"garbage")
        assert store.get(key, spec) is None
        result = _run_one(key, spec)
        store.put(key, spec, result)
        cached = store.get(key, spec)
        assert cached is not None
        assert cached.canonical_json() == result.canonical_json()


class TestStatsReporting:
    def test_summary_includes_writes(self):
        stats = StoreStats(hits=2, misses=1, writes=3)
        assert stats.summary() == "2 hit(s), 1 miss(es), 3 write(s)"

    def test_summary_appends_quarantined_only_when_nonzero(self):
        assert "quarantined" not in StoreStats().summary()
        assert StoreStats(quarantined=1).summary().endswith("1 quarantined")

    def test_to_dict_round_trips_every_counter(self):
        stats = StoreStats(hits=1, misses=2, writes=3, quarantined=4)
        assert stats.to_dict() == {
            "hits": 1, "misses": 2, "writes": 3, "quarantined": 4,
        }


class TestContainsValidates:
    def _stored(self, tmp_path):
        store = ResultStore(tmp_path)
        key, spec = _task()
        path = store.put(key, spec, _run_one(key, spec))
        return store, key, spec, path

    def test_valid_entry_is_contained_without_counter_noise(self, tmp_path):
        store, key, spec, path = self._stored(tmp_path)
        assert (key, spec) in store
        # A membership probe is not a lookup: no hit/miss movement.
        assert store.stats.hits == 0 and store.stats.misses == 0

    def test_corrupt_entry_answers_not_contained(self, tmp_path):
        # The old stat-only check said True here while get() missed.
        store, key, spec, path = self._stored(tmp_path)
        path.write_bytes(b"\x00 definitely not json")
        assert (key, spec) not in store
        assert not path.exists()  # quarantined on the way
        assert store.stats.quarantined == 1

    def test_foreign_entry_answers_not_contained_but_stays(self, tmp_path):
        store, key, spec, path = self._stored(tmp_path)
        entry = json.loads(path.read_text())
        entry["store_version"] = STORE_VERSION + 1
        path.write_text(json.dumps(entry))
        assert (key, spec) not in store
        assert path.exists() and store.stats.quarantined == 0


class TestQuarantineAccounting:
    def _corrupted(self, tmp_path):
        store = ResultStore(tmp_path)
        key, spec = _task()
        path = store.put(key, spec, _run_one(key, spec))
        path.write_bytes(b"garbage")
        return store, key, spec, path

    def test_raced_move_is_not_counted_as_quarantined(self, tmp_path, monkeypatch):
        # Another process moved (or deleted) the damaged file first: the
        # lookup is still a clean miss, but *this* store quarantined
        # nothing and must not claim otherwise.
        store, key, spec, path = self._corrupted(tmp_path)

        def raced_replace(source, destination):
            raise FileNotFoundError(2, "raced: already moved", str(source))

        monkeypatch.setattr("repro.experiments.store.os.replace", raced_replace)
        assert store.get(key, spec) is None
        assert store.stats.quarantined == 0
        assert store.stats.misses == 1

    def test_exhausted_quarantine_names_surface_instead_of_silence(self, tmp_path):
        # 1000 existing quarantine copies of one address is a structural
        # problem; the old code silently left the damaged entry in place
        # to be re-read (and re-"quarantined") forever.
        store, key, spec, path = self._corrupted(tmp_path)
        address = store.key_for(key, spec)
        quarantine_dir = tmp_path / "quarantine"
        quarantine_dir.mkdir()
        for attempt in range(1000):
            (quarantine_dir / f"{address}.{attempt}.json").touch()
        with pytest.raises(ResultStoreError, match="quarantine"):
            store.get(key, spec)


class TestVerifiedMemo:
    """An entry is verified once per file identity, and only that long."""

    def _warm(self, tmp_path):
        store = ResultStore(tmp_path)
        key, spec = _task()
        path = store.put(key, spec, _run_one(key, spec))
        assert store.get(key, spec) is not None  # verified and memoised
        return store, key, spec, path

    @staticmethod
    def _count_reads(monkeypatch):
        reads = []
        read_entry = store_module._read_entry

        def counting(path):
            reads.append(path)
            return read_entry(path)

        monkeypatch.setattr(store_module, "_read_entry", counting)
        return reads

    def test_entry_replaced_after_a_memo_hit_is_quarantined(self, tmp_path):
        store, key, spec, path = self._warm(tmp_path)
        assert store.get(key, spec) is not None  # served from the memo
        damaged = path.with_name("damaged.tmp")
        damaged.write_bytes(b"\x00 definitely not json")
        os.replace(damaged, path)
        assert store.get(key, spec) is None
        assert not path.exists() and store.stats.quarantined == 1
        assert store.stats.hits == 2 and store.stats.misses == 1

    def test_entry_truncated_in_place_is_quarantined(self, tmp_path):
        store, key, spec, path = self._warm(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        assert store.get(key, spec) is None
        assert not path.exists() and store.stats.quarantined == 1
        assert store.stats.misses == 1

    def test_deleted_entry_is_a_miss(self, tmp_path):
        store, key, spec, path = self._warm(tmp_path)
        path.unlink()
        assert store.get(key, spec) is None
        assert (key, spec) not in store
        assert store.stats.misses == 1 and store.stats.quarantined == 0

    def test_membership_agrees_with_get_throughout(self, tmp_path):
        store, key, spec, path = self._warm(tmp_path)
        assert (key, spec) in store and store.get(key, spec) is not None
        path.write_bytes(b"garbage")
        assert (key, spec) not in store and store.stats.quarantined == 1
        assert store.get(key, spec) is None
        store.put(key, spec, _run_one(key, spec))
        assert (key, spec) in store and store.get(key, spec) is not None
        path.unlink()
        assert (key, spec) not in store and store.get(key, spec) is None

    def test_least_recently_used_entry_is_evicted_past_the_budget(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        tasks = [_task(key) for key in ("figure1", "figure2", "figure4")]
        paths = [store.put(key, spec, _run_one(key, spec)) for key, spec in tasks]
        # Room for any two entries, not all three.
        monkeypatch.setattr(
            store_module, "MEMO_BYTES", sum(path.stat().st_size for path in paths) - 1
        )
        first, second, third = tasks
        for task in (first, second, first, third):  # `second` is now the LRU
            assert store.get(*task) is not None
        reads = self._count_reads(monkeypatch)
        assert store.get(*first) is not None and store.get(*third) is not None
        assert reads == []
        assert store.get(*second) is not None
        assert reads == [paths[1]]

    def test_mutating_a_returned_record_does_not_leak(self, tmp_path):
        store, key, spec, path = self._warm(tmp_path)
        first = store.get(key, spec)
        pristine = json.loads(json.dumps(list(first.records)))
        first.records[0].clear()
        again = store.get(key, spec)
        assert list(again.records) == pristine
        assert store.get_envelope(key, spec)["records"] == pristine

    def test_unchanged_entry_is_not_read_again(self, tmp_path, monkeypatch):
        store, key, spec, path = self._warm(tmp_path)
        reads = self._count_reads(monkeypatch)
        for _ in range(3):
            assert store.get(key, spec) is not None
        assert (key, spec) in store
        assert store.get_envelope(key, spec) is not None
        assert reads == []
        assert store.stats.hits == 5


class TestSchemeVersionInvalidation:
    def test_bumped_scheme_never_hits_old_entries(self, tmp_path):
        key, spec = _task()
        old = ResultStore(tmp_path, rng_scheme_version=RNG_SCHEME_VERSION)
        old.put(key, spec, _run_one(key, spec))
        bumped = ResultStore(tmp_path, rng_scheme_version=RNG_SCHEME_VERSION + 1)
        assert bumped.get(key, spec) is None
        # The old entry is untouched (not quarantined): it is simply at a
        # different address, still valid for builds of its own scheme.
        assert ResultStore(tmp_path).get(key, spec) is not None


def _concurrent_put(root, key, spec, result_dict):
    """Worker: rebuild the envelope and write it (same content address)."""
    store = ResultStore(root)
    store.put(key, spec, ExperimentResult.from_dict(result_dict))
    return store.key_for(key, spec)


class TestConcurrentWriters:
    def test_same_key_writers_all_succeed_atomically(self, tmp_path):
        key, spec = _task()
        result = _run_one(key, spec)
        payload = result.to_dict()
        with ProcessPoolExecutor(max_workers=4) as executor:
            futures = [
                executor.submit(_concurrent_put, str(tmp_path), key, spec, payload)
                for _ in range(4)
            ]
            addresses = {future.result() for future in futures}
        assert len(addresses) == 1
        store = ResultStore(tmp_path)
        cached = store.get(key, spec)
        assert cached is not None and store.stats.quarantined == 0
        assert cached.canonical_json() == result.canonical_json()
        # No temporary files leaked by the atomic rename dance.
        leftovers = [p for p in (tmp_path / "objects").rglob("*") if p.name.endswith(".tmp")]
        assert leftovers == []


class TestRunSpecsIntegration:
    def _tasks(self, tmp_path, log_name="invocations.log"):
        log_path = str(tmp_path / log_name)
        probe = get_experiment("fault_probe")
        return log_path, [
            ("fault_probe", probe.make_spec(inner_key=inner, log_path=log_path))
            for inner in ("figure1", "figure2", "figure4")
        ]

    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        log_path, tasks = self._tasks(tmp_path)
        store = ResultStore(tmp_path / "cache")
        first = run_specs(tasks, store=store)
        assert faults.invocations(log_path) == len(tasks)
        warm = ResultStore(tmp_path / "cache")
        second = run_specs(tasks, store=warm)
        assert faults.invocations(log_path) == len(tasks)  # zero new runs
        assert warm.stats.hits == len(tasks) and warm.stats.writes == 0
        assert [r.canonical_json() for r in first] == [r.canonical_json() for r in second]

    def test_interrupted_sweep_resumes_from_checkpoint(self, tmp_path):
        log_path, tasks = self._tasks(tmp_path)
        baseline = [r.canonical_json() for r in run_specs(tasks, jobs=1)]
        store = ResultStore(tmp_path / "cache")
        # Simulate an interrupt after the first completed task: only the
        # journaled prefix exists on disk.
        run_specs(tasks[:1], store=store)
        runs_before_resume = faults.invocations(log_path)
        resumed_store = ResultStore(tmp_path / "cache")
        resumed = run_specs(tasks, jobs=2, store=resumed_store)
        assert resumed_store.stats.hits == 1  # the checkpointed task
        # Only the unfinished tasks ran again...
        assert faults.invocations(log_path) == runs_before_resume + len(tasks) - 1
        # ...and the resumed jobs=2 sweep is bit-identical to the
        # uninterrupted jobs=1 run.
        assert [r.canonical_json() for r in resumed] == baseline

    def test_results_returned_in_task_order_with_mixed_hits(self, tmp_path):
        log_path, tasks = self._tasks(tmp_path)
        store = ResultStore(tmp_path / "cache")
        run_specs([tasks[1]], store=store)
        results = run_specs(tasks, store=ResultStore(tmp_path / "cache"))
        inner_keys = [r.spec.inner_key for r in results]
        assert inner_keys == ["figure1", "figure2", "figure4"]
