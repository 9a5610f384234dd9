"""The unified experiment API: specs, registry, typed results, round-trips.

Every registered experiment must produce an
:class:`~repro.experiments.api.ExperimentResult` that survives a lossless
JSON round-trip (``from_dict(to_dict()) == result``), echo its spec and the
RNG scheme version, and carry the result dataclass its registered ``body``
declares as payload.  The simulation-heavy experiments run at reduced scale
with small grid overrides so the whole module stays fast.
"""

from __future__ import annotations

import dataclasses
import json
import typing

import pytest

from repro.errors import ExperimentError
from repro.experiments import all_experiments, get_experiment, experiment_keys
from repro.experiments.api import (
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
    ExperimentSpec,
    Verdict,
)
from repro.experiments.figure8 import Figure8Spec
from repro.experiments.serve import ExperimentService
from repro.experiments.store import ResultStore
from repro.simulator import RNG_SCHEME_VERSION

#: Reduced-scale spec overrides keeping the simulation-backed experiments
#: small enough for the tier-1 suite; theory experiments need none.
FAST_OVERRIDES = {
    "figure8": dict(
        independent_loss_rates=(0.02, 0.08),
        num_receivers=8,
        duration_units=200,
        repetitions=2,
    ),
    "figure8_panel": dict(
        independent_loss_rates=(0.02, 0.08),
        num_receivers=8,
        duration_units=200,
        repetitions=2,
    ),
    "active_nodes": dict(
        independent_loss_rates=(0.05,),
        num_receivers=10,
        duration_units=200,
        repetitions=2,
    ),
    "burstiness": dict(
        burst_lengths=(1.0, 4.0), num_receivers=10, duration_units=200, repetitions=2
    ),
    "leave_latency": dict(
        latencies=(0.0, 2.0), num_receivers=10, duration_units=200, repetitions=2
    ),
    "loss_correlation": dict(
        correlated_fractions=(0.0, 1.0),
        num_receivers=10,
        duration_units=200,
        repetitions=2,
    ),
}

#: The built-in experiments only.  Other test modules register the
#: fault-injection harness (``register_module("faults")``) at import, which
#: may run before this module is collected.
ALL_KEYS = [
    experiment.key
    for experiment in all_experiments(default_only=False)
    if experiment.body.__module__.startswith("repro.experiments.")
]


@pytest.fixture(scope="module")
def results():
    """One reduced-scale result per registered experiment (computed once)."""
    return {
        key: get_experiment(key).run(scale="reduced", **FAST_OVERRIDES.get(key, {}))
        for key in ALL_KEYS
    }


class TestRegistry:
    def test_seventeen_experiments_registered(self):
        assert len(ALL_KEYS) == 17
        assert len(set(ALL_KEYS)) == 17

    def test_default_suite_excludes_standalone_panel(self):
        default = experiment_keys()
        assert "figure8_panel" not in default
        assert "figure8" in default
        assert "scalefree_bottleneck" in default
        assert len(default) == 16

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            get_experiment("not-an-experiment")

    def test_spec_or_overrides_not_both(self):
        experiment = get_experiment("figure1")
        with pytest.raises(ExperimentError):
            experiment.run(experiment.make_spec(), scale="paper")

    def test_wrong_spec_class_rejected(self):
        with pytest.raises(ExperimentError):
            get_experiment("figure1").run(Figure8Spec())


class TestSpec:
    def test_scale_validated(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(scale="gigantic")

    def test_engine_validated(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(engine="warp-drive")
        with pytest.raises(ExperimentError):
            ExperimentSpec(engine=["bitpacked"])

    @pytest.mark.parametrize("retired", ("batched", "compiled"))
    def test_retired_engine_resolves_to_bitpacked(self, retired):
        spec = ExperimentSpec(engine=retired)
        assert spec.engine == "bitpacked"
        assert ExperimentSpec.from_dict(dict(spec.to_dict(), engine=retired)) == spec

    def test_engine_list_mirrors_simulator(self):
        # api.ENGINES is a deliberate import-light literal copy of the
        # simulator's tuple; divergence would make spec/CLI validation
        # disagree with what the simulator accepts.
        from repro.experiments.api import ENGINES as api_engines
        from repro.simulator.engine import ENGINES as simulator_engines

        assert api_engines == simulator_engines

    def test_jobs_validated(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(jobs=0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec.from_dict({"scale": "reduced", "bogus": 1})

    def test_replace_revalidates(self):
        spec = ExperimentSpec()
        with pytest.raises(ExperimentError):
            spec.replace(scale="nope")

    def test_round_trip_restores_tuples(self):
        spec = Figure8Spec(independent_loss_rates=(0.02, 0.08))
        rebuilt = Figure8Spec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.independent_loss_rates == (0.02, 0.08)


@pytest.mark.parametrize("key", ALL_KEYS)
class TestEnvelope:
    def test_json_round_trip_is_lossless(self, results, key):
        result = results[key]
        rebuilt = ExperimentResult.from_dict(result.to_dict())
        assert rebuilt == result
        assert ExperimentResult.from_json(result.to_json()) == result

    def test_envelope_metadata(self, results, key):
        result = results[key]
        assert result.key == key
        assert result.rng_scheme_version == RNG_SCHEME_VERSION
        assert result.wall_time_seconds >= 0.0
        assert result.records, "every experiment must emit records"
        assert isinstance(result.verdict, Verdict)
        assert result.verdict.ok, f"{key} should reproduce the paper at reduced scale"
        data = result.to_dict()
        assert data["schema_version"] == RESULT_SCHEMA_VERSION
        assert data["spec"]["scale"] == "reduced"

    def test_records_are_json_safe(self, results, key):
        # json.dumps with allow_nan=False raises on anything non-portable.
        text = json.dumps(list(results[key].records), allow_nan=False)
        assert json.loads(text) == list(results[key].records)

    def test_table_renders_from_records(self, results, key, tmp_path):
        # The records are the one text form, so a fresh result, its JSON
        # round trip and a store hit must all print the same columns in
        # the same order.
        result = results[key]
        rebuilt = ExperimentResult.from_json(result.to_json())
        assert rebuilt.payload is None
        store = ResultStore(tmp_path)
        store.put(key, result.spec, result)
        cached = store.get(key, result.spec)
        assert cached is not None and cached.payload is None
        table = result.table()
        assert table.strip()
        assert rebuilt.table() == table
        assert cached.table() == table

    def test_entry_written_with_sorted_keys_still_hits(self, results, key, tmp_path):
        # Stores filled before entries kept the records' key order hold
        # sorted JSON.  The checksum covers the canonical (sorted) form, so
        # those entries must keep validating, not be quarantined.
        result = results[key]
        store = ResultStore(tmp_path)
        path = store.put(key, result.spec, result)
        entry = json.loads(path.read_text())
        path.write_text(json.dumps(entry, sort_keys=True, indent=2) + "\n")
        assert store.get(key, result.spec) == result
        assert store.stats.hits == 1 and store.stats.quarantined == 0


    @pytest.mark.parametrize("include_result", (True, False))
    def test_served_hit_matches_the_entry_file(self, results, key, include_result, tmp_path):
        # `repro serve` answers a repeat hit from the store's verified memo.
        # Its response must be the one a hit rebuilt from the entry file
        # gives, key order included, with the requested execution knobs
        # echoed.
        result = results[key]
        store = ResultStore(tmp_path)
        path = store.put(key, result.spec, result)
        on_disk = ExperimentResult.from_dict(json.loads(path.read_text())["result"])
        service = ExperimentService(store)
        try:
            for knobs in ({}, {"jobs": 2}, {"engine": "reference"}):
                requested = result.spec.replace(**knobs)
                rebuilt = dataclasses.replace(on_disk, spec=requested)
                expected = {
                    "cache": "hit",
                    "address": store.key_for(key, requested),
                    "verdict": rebuilt.verdict.to_dict(),
                }
                if include_result:
                    expected["result"] = rebuilt.to_dict()
                payload = {
                    "op": "run",
                    "experiment": key,
                    "spec": requested.to_dict(),
                    "include_result": include_result,
                }
                for _ in range(2):  # the first read, then a memo hit
                    response = service.handle_request(payload)
                    assert response.pop("ok") is True
                    del response["op"], response["elapsed_seconds"]
                    assert json.dumps(response) == json.dumps(expected)
        finally:
            service.drain()
        assert store.stats.hits == 6 and store.stats.misses == 0


class TestPayloadTypes:
    def test_payload_is_the_body_return_annotation(self, results):
        # Every payload is the module's documented result dataclass, which
        # the registered body declares as its return type.
        import repro.experiments as experiments

        expected = {
            "figure1": experiments.Figure1Result,
            "figure2": experiments.Figure2Result,
            "figure3": experiments.Figure3Result,
            "figure4": experiments.Figure4Result,
            "figure5": experiments.Figure5Result,
            "figure6": experiments.Figure6Result,
            "figure7": experiments.Figure7Result,
            "figure8": experiments.Figure8Result,
            "figure8_panel": experiments.Figure8Panel,
            "fixed_layers": experiments.FixedLayerResult,
            "layer_ablation": experiments.LayerAblationResult,
            "loss_correlation": experiments.LossCorrelationResult,
            "mixed_sessions": experiments.MixedSessionsResult,
            "active_nodes": experiments.ActiveNodeResult,
            "leave_latency": experiments.LeaveLatencyResult,
            "burstiness": experiments.BurstinessResult,
            "scalefree_bottleneck": experiments.ScaleFreeBottleneckResult,
        }
        for key, result in results.items():
            declared = typing.get_type_hints(get_experiment(key).body)["return"]
            assert type(result.payload) is declared is expected[key], key


class TestDeterminism:
    def test_figure8_serial_vs_jobs2_byte_identical_json(self):
        """Serial and jobs=2 runs of the same figure8 workload match byte-for-byte."""
        overrides = FAST_OVERRIDES["figure8"]
        experiment = get_experiment("figure8")
        serial = experiment.run(scale="reduced", jobs=1, **overrides)
        parallel = experiment.run(scale="reduced", jobs=2, **overrides)
        assert serial.canonical_json() == parallel.canonical_json()
        # The full envelope still differs only in wall time and the jobs echo.
        assert serial.records == parallel.records
        assert serial.verdict == parallel.verdict

    def test_repeated_run_byte_identical(self):
        experiment = get_experiment("figure7")
        first = experiment.run()
        second = experiment.run()
        assert first.canonical_json() == second.canonical_json()


class TestSpecEcho:
    def test_explicit_overrides_echoed_not_resolved(self, results):
        spec_echo = results["figure8"].to_dict()["spec"]
        assert spec_echo["num_receivers"] == 8
        assert spec_echo["independent_loss_rates"] == [0.02, 0.08]

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_presets_are_not_spec_fields(self, key):
        # A class variable: never echoed, never part of a store address.
        spec_cls = get_experiment(key).spec_cls
        assert "PRESETS" not in {spec_field.name for spec_field in dataclasses.fields(spec_cls)}
        assert "PRESETS" not in spec_cls().to_dict()

    def test_preset_fields_stay_none_in_echo(self):
        result = get_experiment("layer_ablation").run()
        assert result.to_dict()["spec"]["layer_counts"] is None
        rebuilt = ExperimentResult.from_dict(result.to_dict())
        assert rebuilt.spec == result.spec


class TestRngSchemeEcho:
    def test_fresh_results_match_current_scheme(self):
        result = get_experiment("figure1").run()
        assert result.rng_scheme_version == RNG_SCHEME_VERSION
        assert result.matches_current_rng_scheme

    def test_foreign_scheme_is_flagged(self):
        result = get_experiment("figure1").run()
        stale = dataclasses.replace(result, rng_scheme_version=RNG_SCHEME_VERSION - 1)
        assert not stale.matches_current_rng_scheme
        # ... but stays in the canonical form: cross-scheme envelopes must
        # never compare byte-identical.
        assert f'"rng_scheme_version": {RNG_SCHEME_VERSION - 1}' in stale.canonical_json()
