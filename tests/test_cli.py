"""Tests for the ``python -m repro`` subcommand CLI.

Covers the documented surface: ``list`` (text and JSON), ``run`` with the
typed JSON result envelope (spec echo, RNG scheme version, lossless
``from_dict`` round-trip), ``--out`` files, ``--set`` spec overrides,
``verify`` exit codes, the fault-tolerance flags (``--cache``,
``--resume``, ``--retries``), and error hygiene (clean one-line messages,
exit code 2, SIGINT → 130 with the checkpoint preserved).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments import runner
from repro.experiments.api import ExperimentResult
from repro.__main__ import main

#: ``repro list`` order: the paper figures, then ablations and extensions,
#: then modules registered at runtime.
LIST_ORDER = [
    "figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
    "fixed_layers", "figure7", "figure8", "figure8_panel", "layer_ablation",
    "loss_correlation", "mixed_sessions", "active_nodes", "leave_latency",
    "burstiness", "scalefree_bottleneck",
]

#: Fast figure8 overrides for subprocess runs (reduced scale, tiny grids).
FIGURE8_SET_FLAGS = [
    "--set", "independent_loss_rates=[0.02,0.08]",
    "--set", "num_receivers=8",
    "--set", "duration_units=200",
    "--set", "repetitions=2",
]


def _run_python(*args: str) -> subprocess.CompletedProcess:
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return _run_python("-m", "repro", *args)


class TestHelp:
    def test_top_level_help_lists_subcommands(self):
        completed = _run_cli("--help")
        assert completed.returncode == 0
        for command in ("list", "run", "verify"):
            assert command in completed.stdout

    def test_run_help_documents_flags(self):
        completed = _run_cli("run", "--help")
        assert completed.returncode == 0
        for flag in ("--scale", "--jobs", "--engine", "--format", "--out", "--set"):
            assert flag in completed.stdout

    def test_no_subcommand_is_an_error(self):
        completed = _run_cli()
        assert completed.returncode != 0


class TestList:
    def test_list_shows_every_experiment(self):
        completed = _run_cli("list")
        assert completed.returncode == 0
        for key in ("figure1", "figure8", "figure8_panel", "leave_latency"):
            assert key in completed.stdout

    def test_list_json_is_machine_readable(self):
        completed = _run_cli("list", "--format", "json")
        assert completed.returncode == 0
        listing = json.loads(completed.stdout)
        keys = {entry["key"] for entry in listing}
        assert len(listing) == 17
        assert {"figure8", "figure8_panel", "scalefree_bottleneck"} <= keys
        by_key = {entry["key"]: entry for entry in listing}
        assert by_key["figure8_panel"]["default"] is False
        assert "scale" in by_key["figure8"]["spec_fields"]
        assert [entry["key"] for entry in listing] == LIST_ORDER

    def test_list_order_with_an_extra_module_registered(self):
        # The extra module is imported before the CLI touches the registry;
        # the built-ins still come first, in order, and the extra follows.
        harness = os.path.join(os.path.dirname(os.path.abspath(__file__)), "experiments")
        completed = _run_python(
            "-c",
            "import sys; "
            f"sys.path.insert(0, {harness!r}); "
            "from repro.experiments.registry import register_module; "
            "register_module('faults'); "
            "from repro.__main__ import main; "
            "sys.exit(main(['list', '--format', 'json']))",
        )
        assert completed.returncode == 0, completed.stderr
        listing = json.loads(completed.stdout)
        assert [entry["key"] for entry in listing] == LIST_ORDER + ["fault_probe"]


class TestRun:
    def test_run_figure8_json_round_trips(self):
        completed = _run_cli("run", "figure8", "--format", "json", *FIGURE8_SET_FLAGS)
        assert completed.returncode == 0, completed.stderr
        # Output is always a JSON array, one envelope per requested key.
        documents = json.loads(completed.stdout)
        assert isinstance(documents, list) and len(documents) == 1
        data = documents[0]
        # Spec echo and RNG scheme version ride in the envelope.
        assert data["key"] == "figure8"
        assert data["spec"]["scale"] == "reduced"
        assert data["spec"]["num_receivers"] == 8
        assert data["rng_scheme_version"] >= 3
        assert data["verdict"]["ok"] is True
        # Lossless round-trip through the typed result class.
        result = ExperimentResult.from_dict(data)
        assert result.to_dict() == data
        assert list(result.records) == data["records"]

    def test_run_text_prints_tables_and_verdicts(self):
        completed = _run_cli("run", "figure1", "figure6")
        assert completed.returncode == 0
        assert "Figure 1 (sample network): matches paper" in completed.stdout
        assert "receiver" in completed.stdout
        assert "total wall time" in completed.stdout

    def test_run_out_writes_envelope_files(self, tmp_path):
        completed = _run_cli(
            "run", "figure4", "--format", "json", "--out", str(tmp_path)
        )
        assert completed.returncode == 0
        written = json.loads((tmp_path / "figure4.json").read_text())
        assert ExperimentResult.from_dict(written).key == "figure4"

    def test_run_rejects_unknown_key(self):
        completed = _run_cli("run", "not-an-experiment")
        assert completed.returncode == 2
        assert "unknown experiment" in completed.stderr

    def test_run_rejects_unknown_spec_field(self):
        completed = _run_cli("run", "figure1", "--set", "bogus=1")
        assert completed.returncode != 0
        assert "unknown spec field" in completed.stderr

    def test_run_rejects_unknown_engine(self):
        completed = _run_cli("run", "figure1", "--engine", "warp-drive")
        assert completed.returncode == 2
        assert "warp-drive" in completed.stderr

    @pytest.mark.parametrize(
        "key, protocols",
        [
            ("burstiness", '["bogus"]'),
            ("loss_correlation", '["bogus"]'),
            ("figure8_panel", '["deterministic", "uncoordinated"]'),
            ("active_nodes", '["coordinated", "deterministic"]'),
        ],
        ids=["burstiness", "loss_correlation", "figure8_panel", "active_nodes"],
    )
    def test_run_rejects_protocols_before_simulating(self, capsys, key, protocols):
        assert main(["run", key, "--set", f"protocols={protocols}"]) == 2
        assert "protocols" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "latencies", ["[0.0,NaN]", "[0.0,-1.0]", "abc", '["a"]'],
        ids=["nan", "negative", "string", "string-entry"],
    )
    def test_run_rejects_invalid_latency_before_simulating(self, capsys, latencies):
        assert main(["run", "leave_latency", "--set", f"latencies={latencies}"]) == 2
        assert "latencies" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, override",
        [
            ("loss_correlation", "total_loss_rate=1.5"),
            ("loss_correlation", "total_loss_rate=abc"),
            ("loss_correlation", "correlated_fractions=[0.5,2.0]"),
            ("layer_ablation", "layer_counts=[2,4]"),
            ("layer_ablation", "layer_counts=[]"),
            ("figure8_panel", "num_receivers=abc"),
            ("figure8", "repetitions=0"),
            ("burstiness", "duration_units=1.5"),
        ],
        ids=[
            "loss-rate", "loss-rate-string", "fractions", "no-baseline", "empty",
            "receivers-string", "repetitions-zero", "duration-float",
        ],
    )
    def test_run_rejects_bad_spec_fields_before_running(self, capsys, key, override):
        assert main(["run", key, "--set", override]) == 2
        assert override.partition("=")[0] in capsys.readouterr().err

    def test_main_callable_in_process(self, capsys):
        assert main(["run", "figure1", "--format", "json"]) == 0
        [data] = json.loads(capsys.readouterr().out)
        assert data["key"] == "figure1"
        assert data["verdict"]["ok"] is True

    def test_json_document_renders_like_a_fresh_run(self, capsys):
        # The printed document keeps each record's key order, so the table
        # of a result read back from it is the fresh run's table.
        from repro.experiments.registry import get_experiment

        assert main(["run", "figure1", "--format", "json"]) == 0
        [data] = json.loads(capsys.readouterr().out)
        fresh = get_experiment("figure1").run()
        assert ExperimentResult.from_dict(data).table() == fresh.table()

    def test_set_may_override_common_flags(self, capsys):
        # --set scale=... is an accepted spelling of --scale (the override wins).
        assert main(["run", "figure1", "--format", "json", "--set", "scale=paper"]) == 0
        [data] = json.loads(capsys.readouterr().out)
        assert data["spec"]["scale"] == "paper"

    def test_set_applies_where_declared_across_mixed_selection(self, capsys):
        # figure1's spec has no repetitions field; figure8_panel's does — a
        # sweep-wide override applies where it exists instead of aborting.
        assert main([
            "run", "figure1", "figure8_panel", "--format", "json",
            "--set", "repetitions=2",
            "--set", "num_receivers=8",
            "--set", "duration_units=200",
            "--set", "independent_loss_rates=[0.02,0.08]",
        ]) == 0
        documents = json.loads(capsys.readouterr().out)
        by_key = {document["key"]: document for document in documents}
        assert set(by_key) == {"figure1", "figure8_panel"}
        assert by_key["figure8_panel"]["spec"]["repetitions"] == 2
        assert "repetitions" not in by_key["figure1"]["spec"]

    def test_all_combines_with_standalone_keys_and_validates(self):
        from repro.__main__ import _select

        keys = [experiment.key for experiment in _select(["all", "figure8_panel"])]
        assert "figure8_panel" in keys
        assert "figure1" in keys
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            _select(["all", "bogus"])


#: Tiny figure8_panel overrides for in-process engine-selection tests.
PANEL_TINY_FLAGS = [
    "--set", "independent_loss_rates=[0.02]",
    "--set", "num_receivers=6",
    "--set", "duration_units=64",
    "--set", "repetitions=1",
]


class TestDefaultEngine:
    """The bit-packed scan is the default engine; ``reference`` stays
    selectable and the retired names alias ``bitpacked``."""

    def test_run_without_engine_echoes_bitpacked(self, capsys):
        assert main(
            ["run", "figure8_panel", "--format", "json", *PANEL_TINY_FLAGS]
        ) == 0
        [data] = json.loads(capsys.readouterr().out)
        assert data["spec"]["engine"] == "bitpacked"

    @pytest.mark.parametrize("retired", ("batched", "compiled"))
    def test_cache_written_under_batched_hits_under_default(
        self, tmp_path, capsys, retired
    ):
        # A retired engine name still runs (as the bit-packed engine it
        # aliases), and what it caches keeps hitting under the default:
        # the engine is execution-only and excluded from the store address.
        cache = str(tmp_path / "cache")
        argv = ["run", "figure8_panel", "--cache", cache, "--format", "json"]
        assert main([*argv, "--engine", retired, *PANEL_TINY_FLAGS]) == 0
        first = capsys.readouterr()
        assert "0 hit(s), 1 miss(es)" in first.err
        assert main([*argv, *PANEL_TINY_FLAGS]) == 0
        second = capsys.readouterr()
        assert "1 hit(s), 0 miss(es)" in second.err
        [cold], [warm] = json.loads(first.out), json.loads(second.out)
        # The retired name echoes as the engine that ran, and the hit's
        # payload is byte-identical to the original.
        assert warm["spec"]["engine"] == "bitpacked"
        assert cold["spec"]["engine"] == "bitpacked"
        assert (
            json.dumps(warm["records"], sort_keys=True)
            == json.dumps(cold["records"], sort_keys=True)
        )

    def test_engine_reference_forces_per_packet_loop(self, monkeypatch, capsys):
        from repro.simulator.engine import LayeredSessionSimulator

        calls = {"reference": 0, "scan": 0}
        real_reference = LayeredSessionSimulator._run_reference
        real_batched = LayeredSessionSimulator._run_batched

        def spy_reference(self, *args, **kwargs):
            calls["reference"] += 1
            return real_reference(self, *args, **kwargs)

        def spy_batched(self, *args, **kwargs):
            calls["scan"] += 1
            return real_batched(self, *args, **kwargs)

        monkeypatch.setattr(LayeredSessionSimulator, "_run_reference", spy_reference)
        monkeypatch.setattr(LayeredSessionSimulator, "_run_batched", spy_batched)
        assert main([
            "run", "figure8_panel", "--engine", "reference",
            "--format", "json", *PANEL_TINY_FLAGS,
        ]) == 0
        [data] = json.loads(capsys.readouterr().out)
        assert data["spec"]["engine"] == "reference"
        assert calls["reference"] > 0 and calls["scan"] == 0

    def test_unknown_engine_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "figure8_panel", "--engine", "bogus", *PANEL_TINY_FLAGS])
        assert excinfo.value.code == 2
        assert "bogus" in capsys.readouterr().err


class TestVerify:
    def test_verify_subset_exits_zero_on_match(self):
        completed = _run_cli("verify", "figure1", "figure2", "figure3")
        assert completed.returncode == 0
        assert "figure1: ok" in completed.stdout
        assert "3 experiments reproduce" in completed.stdout

    def test_verify_reports_mismatch_with_exit_code(self, capsys, monkeypatch):
        from repro.experiments import registry as registry_module
        from repro.experiments.api import Verdict

        experiment = registry_module.get_experiment("figure1")
        broken = registry_module.Experiment(
            key="figure1",
            title=experiment.title,
            spec_cls=experiment.spec_cls,
            body=experiment.body,
            to_records=experiment.to_records,
            judge=lambda payload: Verdict(False, "forced mismatch"),
        )
        monkeypatch.setitem(registry_module._REGISTRY, "figure1", broken)
        assert main(["verify", "figure1"]) == 1
        out = capsys.readouterr().out
        assert "figure1: MISMATCH" in out


class TestCacheAndResume:
    def test_cached_rerun_hits_and_matches(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["run", "figure1", "--cache", cache, "--format", "json"]) == 0
        first = capsys.readouterr()
        assert "0 hit(s), 1 miss(es)" in first.err
        assert main(["run", "figure1", "--cache", cache, "--format", "json"]) == 0
        second = capsys.readouterr()
        assert "1 hit(s), 0 miss(es)" in second.err
        [cold], [warm] = json.loads(first.out), json.loads(second.out)
        cold_result = ExperimentResult.from_dict(cold)
        warm_result = ExperimentResult.from_dict(warm)
        assert warm_result.canonical_json() == cold_result.canonical_json()

    def test_warm_cache_runs_zero_simulations(self, tmp_path, capsys):
        # The fault_probe harness experiment counts real executions.
        import faults

        cache = str(tmp_path / "cache")
        log = str(tmp_path / "invocations.log")
        argv = [
            "run", "fault_probe", "--cache", cache, "--format", "json",
            "--set", "inner_key=figure1", "--set", f'log_path="{log}"',
        ]
        assert main(argv) == 0
        assert faults.invocations(log) == 1
        assert main(argv) == 0
        assert faults.invocations(log) == 1  # served from the store
        capsys.readouterr()

    def test_resume_requires_cache(self, capsys):
        assert main(["run", "figure1", "--resume"]) == 2
        assert "--resume requires --cache" in capsys.readouterr().err

    def test_resume_refuses_absent_checkpoint(self, tmp_path, capsys):
        missing = str(tmp_path / "never-created")
        assert main(["run", "figure1", "--resume", "--cache", missing]) == 2
        assert "no checkpoint directory" in capsys.readouterr().err

    def test_execution_failure_exits_2_with_task_report(self, tmp_path, capsys):
        import faults  # noqa: F401 - registers fault_probe

        marker = str(tmp_path / "marker")
        assert main([
            "run", "fault_probe", "--retries", "0",
            "--set", f'marker="{marker}"', "--set", "mode=poison",
        ]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "injected fault: poison" in err
        assert "task 0 failed after 1 attempt(s)" in err


class TestShards:
    """``--shards N --shard-index I``: deterministic multi-host sweep splits."""

    KEYS = ["figure1", "figure2", "figure4"]

    def test_shard_tasks_partitions_deterministically(self):
        tasks = list("abcdefg")
        halves = [runner.shard_tasks(tasks, 2, index) for index in range(2)]
        assert halves == [["a", "c", "e", "g"], ["b", "d", "f"]]
        # Every task lands in exactly one shard, and re-sharding is stable.
        rebuilt = sorted(halves[0] + halves[1])
        assert rebuilt == sorted(tasks)
        assert runner.shard_tasks(tasks, 2, 0) == halves[0]
        assert runner.shard_tasks(tasks, 1, 0) == tasks

    def test_shard_tasks_validates_arguments(self):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            runner.shard_tasks([1, 2], 0, 0)
        with pytest.raises(ExperimentError):
            runner.shard_tasks([1, 2], 2, 2)
        with pytest.raises(ExperimentError):
            runner.shard_tasks([1, 2], 2, -1)

    def test_invalid_shard_flags_exit_2(self, capsys):
        assert main(["run", "figure1", "--shards", "0"]) == 2
        assert "shards" in capsys.readouterr().err
        assert main(["run", "figure1", "--shards", "2", "--shard-index", "2"]) == 2
        assert "shard index" in capsys.readouterr().err

    def test_empty_shard_runs_nothing(self, capsys):
        # More shards than tasks: the surplus shard is a clean no-op.
        assert main(["run", "figure1", "--shards", "5", "--shard-index", "3",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_sharded_halves_union_matches_unsharded_run(self, tmp_path, capsys):
        # Two shards filling a shared cache must together journal exactly
        # the tasks of one unsharded sweep: the follow-up full run is all
        # hits and its output is byte-identical to a from-scratch run.
        cache = str(tmp_path / "cache")
        for index in ("0", "1"):
            assert main(["run", *self.KEYS, "--cache", cache, "--shards", "2",
                         "--shard-index", index, "--format", "json"]) == 0
            capsys.readouterr()
        assert main(["run", *self.KEYS, "--cache", cache, "--format", "json"]) == 0
        warm = capsys.readouterr()
        assert "3 hit(s), 0 miss(es)" in warm.err
        assert main(["run", *self.KEYS, "--format", "json"]) == 0
        scratch = capsys.readouterr()
        canonical = lambda raw: [  # noqa: E731 - tiny local shorthand
            ExperimentResult.from_dict(doc).canonical_json()
            for doc in json.loads(raw)
        ]
        assert canonical(warm.out) == canonical(scratch.out)


#: A sweep sized so the figure8_panel task is still running ~1.5s after
#: the cheap experiments have been journaled — the window the SIGINT test
#: aims for.
SIGINT_SWEEP = [
    "run", "figure1", "figure2", "figure4", "figure8_panel",
    "--set", "num_receivers=40",
    "--set", "duration_units=600",
    "--set", "repetitions=2",
    "--set", "independent_loss_rates=[0.02,0.05,0.08]",
]


class TestSigintResume:
    def _popen(self, *args: str) -> subprocess.Popen:
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )

    def test_mid_sweep_sigint_resumes_bit_identically(self, tmp_path):
        cache = tmp_path / "cache"
        resumed_out = tmp_path / "resumed"
        clean_out = tmp_path / "clean"

        # Interrupt the sweep once its first completed result has been
        # journaled (the remaining panel task runs for seconds more).
        process = self._popen(*SIGINT_SWEEP, "--cache", str(cache))
        objects = cache / "objects"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if objects.is_dir() and any(objects.rglob("*.json")):
                break
            if process.poll() is not None:  # pragma: no cover - diagnostics
                pytest.fail(f"sweep exited early: {process.communicate()}")
            time.sleep(0.02)
        else:  # pragma: no cover - diagnostics
            pytest.fail("no result was journaled within 60s")
        process.send_signal(signal.SIGINT)
        _stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 130, stderr
        assert "checkpointed" in stderr
        journaled = len(list(objects.rglob("*.json")))
        assert 1 <= journaled < 4  # interrupted mid-sweep, prefix kept

        # Resume from the checkpoint; previously completed tasks must hit.
        resumed = self._popen(
            *SIGINT_SWEEP, "--cache", str(cache), "--resume",
            "--out", str(resumed_out), "--format", "json",
        )
        _stdout, stderr = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, stderr
        assert f"{journaled} hit(s)" in stderr

        # And the resumed sweep is byte-identical to an uninterrupted run.
        clean = self._popen(*SIGINT_SWEEP, "--out", str(clean_out), "--format", "json")
        _stdout, stderr = clean.communicate(timeout=300)
        assert clean.returncode == 0, stderr
        for name in ("figure1", "figure2", "figure4", "figure8_panel"):
            resumed_result = ExperimentResult.from_json((resumed_out / f"{name}.json").read_text())
            clean_result = ExperimentResult.from_json((clean_out / f"{name}.json").read_text())
            assert resumed_result.canonical_json() == clean_result.canonical_json(), name


class TestTopo:
    """The ``repro topo`` subcommands: generation, inspection, exit codes."""

    def test_topo_in_top_level_help(self):
        completed = _run_cli("--help")
        assert completed.returncode == 0
        assert "topo" in completed.stdout

    def test_gen_writes_gml_and_info_reads_it_back(self, tmp_path, capsys):
        out = tmp_path / "ba.gml"
        assert main([
            "topo", "gen", "--model", "ba", "--nodes", "30",
            "--seed", "5", "--out", str(out),
        ]) == 0
        captured = capsys.readouterr()
        assert "30 nodes" in captured.err
        assert out.exists()
        assert main(["topo", "info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "30 nodes" in info
        assert "connected" in info

    def test_gen_to_stdout_is_parseable_gml(self, capsys):
        from repro.network.topology.formats import graph_from_gml

        assert main(["topo", "gen", "--model", "ba", "--nodes", "12", "--seed", "1"]) == 0
        graph = graph_from_gml(capsys.readouterr().out)
        assert graph.num_nodes == 12
        assert graph.is_connected()

    def test_gen_json_extension_dispatches(self, tmp_path, capsys):
        out = tmp_path / "wax.json"
        assert main([
            "topo", "gen", "--model", "waxman", "--nodes", "15",
            "--seed", "2", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        assert "bandwidth" in document

    def test_info_json_format_is_machine_readable(self, tmp_path, capsys):
        from repro.network.topology.samples import ABILENE_GML

        path = tmp_path / "abilene.gml"
        path.write_text(ABILENE_GML)
        assert main(["topo", "info", str(path), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["nodes"] == 11
        assert summary["links"] == 14
        assert summary["connected"] is True
        assert len(summary["top_betweenness"]) == 5

    def test_info_missing_file_exits_2(self, capsys):
        assert main(["topo", "info", "does-not-exist.gml"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_gen_rejects_unknown_model(self):
        completed = _run_cli("topo", "gen", "--model", "smallworld")
        assert completed.returncode == 2

    def test_scalefree_runs_end_to_end_and_hits_store(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["run", "scalefree_bottleneck", "--cache", cache, "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "0 hit(s), 1 miss(es)" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "1 hit(s), 0 miss(es)" in second.err
        [cold], [warm] = json.loads(first.out), json.loads(second.out)
        cold_result = ExperimentResult.from_dict(cold)
        warm_result = ExperimentResult.from_dict(warm)
        assert warm_result.canonical_json() == cold_result.canonical_json()
        assert cold_result.verdict.ok
