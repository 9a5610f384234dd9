"""End-to-end suite for ``repro serve`` — the cached experiment service.

The tentpole promises, each exercised over a real socket: warm queries
are answered from the store with **zero simulator invocations** (pinned
via the fault-probe invocation log), identical concurrent cold queries
coalesce onto one simulation, per-request timeout/retry knobs reach the
pool, the stats op reports request counters plus ``StoreStats``, and
shutdown drains in-flight tasks — journaling their results — before the
server exits.  A subprocess test drives the real ``python -m repro
serve`` daemon and client through a full cold → warm → shutdown cycle.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

import faults
from repro.errors import ExperimentError
from repro.experiments.api import ExperimentResult
from repro.experiments.registry import get_experiment, register_module
from repro.experiments.serve import (
    MAX_REQUEST_BYTES,
    PROTOCOL_VERSION,
    ExperimentService,
    create_server,
    parse_address,
    request,
    server_location,
)
from repro.experiments.store import ResultStore

register_module("faults")


@contextmanager
def running_service(tmp_path, **service_kwargs):
    """A live in-process service on an ephemeral loopback port."""
    store = ResultStore(tmp_path / "cache")
    service = ExperimentService(store, **service_kwargs)
    server = create_server(service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server.server_address[:2], service, store
    finally:
        server.shutdown()
        server.server_close()
        service.drain()


def _probe_payload(log_path, **spec_overrides):
    spec = {"inner_key": "figure1", "log_path": log_path}
    spec.update(spec_overrides)
    return {"op": "run", "experiment": "fault_probe", "spec": spec}


class TestProtocol:
    def test_parse_address_forms(self):
        assert parse_address("127.0.0.1:9999") == ("127.0.0.1", 9999)
        assert parse_address(":9999") == ("127.0.0.1", 9999)
        assert parse_address("/tmp/repro.sock") == "/tmp/repro.sock"
        assert parse_address("relative/path.sock") == "relative/path.sock"

    def test_ping_and_experiments(self, tmp_path):
        with running_service(tmp_path) as (address, _service, _store):
            pong = request(address, {"op": "ping"}, timeout=10.0)
            assert pong["ok"] and pong["pong"]
            assert pong["protocol_version"] == PROTOCOL_VERSION
            assert pong["elapsed_seconds"] >= 0.0
            listing = request(address, {"op": "experiments"}, timeout=10.0)
            assert "figure1" in listing["experiments"]
            assert "fault_probe" in listing["experiments"]

    def test_unknown_op_is_a_clean_error(self, tmp_path):
        with running_service(tmp_path) as (address, _service, _store):
            response = request(address, {"op": "bogus"}, timeout=10.0)
            assert response["ok"] is False
            assert "unknown op" in response["error"]

    def test_invalid_json_line_is_a_clean_error(self, tmp_path):
        with running_service(tmp_path) as (address, _service, _store):
            connection = socket.create_connection(address, timeout=10.0)
            try:
                connection.sendall(b"this is not json\n")
                with connection.makefile("rb") as reader:
                    response = json.loads(reader.readline())
            finally:
                connection.close()
            assert response["ok"] is False and response["op"] == "invalid"

    def test_unknown_experiment_and_bad_spec_are_clean_errors(self, tmp_path):
        with running_service(tmp_path) as (address, _service, _store):
            bad_key = request(
                address, {"op": "run", "experiment": "nope"}, timeout=10.0
            )
            assert bad_key["ok"] is False and "nope" in bad_key["error"]
            bad_field = request(
                address,
                {"op": "run", "experiment": "figure1", "spec": {"typo_field": 1}},
                timeout=10.0,
            )
            assert bad_field["ok"] is False and "typo_field" in bad_field["error"]
            not_object = request(
                address,
                {"op": "run", "experiment": "figure1", "spec": [1, 2]},
                timeout=10.0,
            )
            assert not_object["ok"] is False

    def test_oversized_request_line_is_refused_and_service_survives(self, tmp_path):
        with running_service(tmp_path) as (address, _service, _store):
            connection = socket.create_connection(address, timeout=10.0)
            line = b'{"op": "ping", "pad": "' + b"x" * (2 << 20) + b'"}\n'

            def send():
                try:
                    connection.sendall(line)
                except OSError:
                    pass  # the daemon stops reading and closes the connection

            sender = threading.Thread(target=send, daemon=True)
            sender.start()
            try:
                with connection.makefile("rb") as reader:
                    response = json.loads(reader.readline())
            finally:
                sender.join(10.0)
                connection.close()
            assert response["ok"] is False and response["op"] == "invalid"
            assert str(MAX_REQUEST_BYTES) in response["error"]
            pong = request(address, {"op": "ping"}, timeout=10.0)
            assert pong["ok"] and pong["pong"]

    def test_request_helper_rejects_dead_service(self, tmp_path):
        with running_service(tmp_path) as (address, _service, _store):
            pass  # server is now shut down
        with pytest.raises((OSError, ExperimentError)):
            request(address, {"op": "ping"}, timeout=2.0)


class TestWarmAndCold:
    def test_warm_query_answered_with_zero_simulator_invocations(self, tmp_path):
        """The acceptance pin: a repeated query never re-runs the simulator."""
        log_path = str(tmp_path / "invocations.log")
        with running_service(tmp_path) as (address, _service, store):
            payload = _probe_payload(log_path)
            cold = request(address, payload)
            assert cold["ok"] and cold["cache"] == "miss"
            assert faults.invocations(log_path) == 1
            warm = request(address, payload)
            assert warm["ok"] and warm["cache"] == "hit"
            assert warm["address"] == cold["address"]
            # Zero new simulator invocations — answered from the store.
            assert faults.invocations(log_path) == 1
            cold_result = ExperimentResult.from_dict(cold["result"])
            warm_result = ExperimentResult.from_dict(warm["result"])
            assert warm_result.canonical_json() == cold_result.canonical_json()
            assert store.stats.hits == 1 and store.stats.writes == 1

    def test_cold_results_are_journaled_for_later_processes(self, tmp_path):
        log_path = str(tmp_path / "invocations.log")
        with running_service(tmp_path) as (address, _service, _store):
            response = request(address, _probe_payload(log_path))
            assert response["ok"]
        # A fresh store (fresh process, conceptually) sees the entry.
        fresh = ResultStore(tmp_path / "cache")
        spec = get_experiment("fault_probe").make_spec(
            inner_key="figure1", log_path=log_path
        )
        assert fresh.get("fault_probe", spec) is not None

    def test_include_result_false_trims_the_response(self, tmp_path):
        log_path = str(tmp_path / "invocations.log")
        with running_service(tmp_path) as (address, _service, _store):
            payload = dict(_probe_payload(log_path), include_result=False)
            response = request(address, payload)
            assert response["ok"] and "result" not in response
            assert response["verdict"]["ok"] is True

    def test_included_result_renders_like_a_fresh_run(self, tmp_path):
        # The response line keeps each record's key order, so the table of
        # a result read back from a miss or a hit is the fresh run's table.
        fresh = get_experiment("figure1").run()
        with running_service(tmp_path) as (address, _service, _store):
            payload = {"op": "run", "experiment": "figure1", "include_result": True}
            for cache_state in ("miss", "hit"):
                response = request(address, payload)
                assert response["ok"] and response["cache"] == cache_state
                result = ExperimentResult.from_dict(response["result"])
                assert result.table() == fresh.table()

    def test_failed_run_is_a_clean_error_and_service_survives(self, tmp_path):
        log_path = str(tmp_path / "invocations.log")
        with running_service(tmp_path) as (address, _service, _store):
            poisoned = dict(
                _probe_payload(log_path, mode="poison"), retries=0
            )
            response = request(address, poisoned)
            assert response["ok"] is False
            assert "poison" in response["error"]
            # The pool survives a permanently failing task: the same
            # service still answers fresh queries.
            clean = request(address, _probe_payload(log_path))
            assert clean["ok"] and clean["cache"] == "miss"

    def test_per_request_timeout_reaches_the_pool(self, tmp_path):
        with running_service(tmp_path) as (address, _service, _store):
            hang = dict(
                _probe_payload(None, mode="hang"), timeout=1.0, retries=0
            )
            start = time.monotonic()
            response = request(address, hang)
            elapsed = time.monotonic() - start
            assert response["ok"] is False
            assert "timed out" in response["error"]
            assert elapsed < 30.0

    def test_unix_socket_transport(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        service = ExperimentService(store)
        socket_path = str(tmp_path / "repro.sock")
        server = create_server(service, socket_path=socket_path)
        assert server_location(server) == socket_path
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            pong = request(socket_path, {"op": "ping"}, timeout=10.0)
            assert pong["ok"] and pong["pong"]
        finally:
            server.shutdown()
            server.server_close()
            service.drain()


class TestStatsAndCoalescing:
    def test_stats_reports_counters_latency_and_store(self, tmp_path):
        log_path = str(tmp_path / "invocations.log")
        with running_service(tmp_path) as (address, _service, _store):
            payload = _probe_payload(log_path)
            request(address, payload)
            request(address, payload)
            stats = request(address, {"op": "stats"}, timeout=10.0)
            assert stats["ok"]
            counters = stats["counters"]
            assert counters["hits"] == 1 and counters["misses"] == 1
            assert counters["simulated"] == 1 and counters["errors"] == 0
            assert counters["requests"] == 2  # the stats request itself not yet counted
            assert stats["inflight"] == 0
            assert stats["store"]["writes"] == 1
            assert "write(s)" in stats["store_summary"]
            assert stats["latency"]["run"]["count"] == 2
            assert stats["latency"]["run"]["max_seconds"] >= stats["latency"]["run"]["mean_seconds"]
            assert stats["pool"] == {"degraded": False, "rebuilds": 0}
            assert stats["uptime_seconds"] > 0.0

    def test_identical_concurrent_cold_queries_coalesce(self, tmp_path):
        log_path = str(tmp_path / "invocations.log")
        with running_service(tmp_path) as (address, _service, _store):
            payload = dict(
                _probe_payload(log_path, sleep_seconds=2.0), include_result=False
            )
            responses = [None, None]

            def query(slot):
                responses[slot] = request(address, payload)

            leader = threading.Thread(target=query, args=(0,))
            leader.start()
            time.sleep(0.7)  # let the leader's task reach the pool
            joiner = threading.Thread(target=query, args=(1,))
            joiner.start()
            leader.join(60.0)
            joiner.join(60.0)
            assert all(r is not None and r["ok"] for r in responses)
            assert sorted(r["cache"] for r in responses) == ["join", "miss"]
            # One simulation served both queries.
            assert faults.invocations(log_path) == 1
            stats = request(address, {"op": "stats"}, timeout=10.0)
            assert stats["counters"]["coalesced"] == 1
            assert stats["counters"]["simulated"] == 1


class TestRunRequestValidation:
    @pytest.mark.parametrize(
        ("knobs", "field"),
        (
            ({"timeout": -1}, "timeout"),
            ({"timeout": float("nan")}, "timeout"),
            ({"timeout": float("inf")}, "timeout"),
            ({"timeout": True}, "timeout"),
            ({"timeout": "5"}, "timeout"),
            ({"retries": -1}, "retries"),
            ({"retries": True}, "retries"),
            ({"retries": 1.5}, "retries"),
        ),
        ids=(
            "timeout-negative", "timeout-nan", "timeout-inf", "timeout-bool",
            "timeout-string", "retries-negative", "retries-bool", "retries-float",
        ),
    )
    def test_rejected_knobs_move_no_counter(self, tmp_path, knobs, field):
        # A bad timeout/retries is refused before the request counts as a
        # miss or a simulation, and before any task is recorded in flight.
        log_path = str(tmp_path / "invocations.log")
        with running_service(tmp_path) as (address, service, _store):
            response = request(address, dict(_probe_payload(log_path), **knobs))
            assert response["ok"] is False
            assert field in response["error"]
            counters = request(address, {"op": "stats"}, timeout=10.0)["counters"]
            assert counters["misses"] == 0 and counters["simulated"] == 0
            assert counters["errors"] == 1
            assert not service._inflight_tasks
        assert faults.invocations(log_path) == 0

    @pytest.mark.parametrize(
        ("fields", "field"),
        (
            ({"spec": []}, "spec"),
            ({"spec": 0}, "spec"),
            ({"spec": ""}, "spec"),
            ({"spec": False}, "spec"),
            ({"spec": "{}"}, "spec"),
            ({"include_result": "false"}, "include_result"),
            ({"include_result": 0}, "include_result"),
            ({"include_result": 1}, "include_result"),
            ({"include_result": None}, "include_result"),
        ),
        ids=(
            "spec-list", "spec-zero", "spec-empty-string", "spec-false",
            "spec-string", "include-string", "include-zero", "include-one",
            "include-null",
        ),
    )
    def test_malformed_request_fields_move_no_counter(self, tmp_path, fields, field):
        # A spec that is not an object, or an include_result that is not a
        # JSON boolean, is a typed error: never the default spec, never a
        # truthy guess.
        log_path = str(tmp_path / "invocations.log")
        with running_service(tmp_path) as (address, service, _store):
            response = request(address, dict(_probe_payload(log_path), **fields))
            assert response["ok"] is False
            assert field in response["error"]
            counters = request(address, {"op": "stats"}, timeout=10.0)["counters"]
            assert counters["hits"] == 0 and counters["misses"] == 0
            assert counters["simulated"] == 0 and counters["errors"] == 1
            assert not service._inflight_tasks
        assert faults.invocations(log_path) == 0

    def test_null_spec_means_no_overrides(self, tmp_path):
        with running_service(tmp_path) as (address, _service, _store):
            absent = {"op": "run", "experiment": "figure1", "include_result": False}
            first = request(address, absent)
            second = request(address, dict(absent, spec=None))
            assert first["ok"] and first["cache"] == "miss"
            assert second["ok"] and second["cache"] == "hit"
            assert second["address"] == first["address"]

    def test_bad_spec_field_moves_no_counter(self, tmp_path):
        with running_service(tmp_path) as (address, _service, _store):
            payload = {"op": "run", "experiment": "layer_ablation",
                       "spec": {"layer_counts": [2, 4]}}
            response = request(address, payload)
            assert response["ok"] is False
            assert "layer_counts" in response["error"]
            counters = request(address, {"op": "stats"}, timeout=10.0)["counters"]
            assert counters["misses"] == 0 and counters["simulated"] == 0
            assert counters["errors"] == 1

    def test_valid_knobs_still_run(self, tmp_path):
        log_path = str(tmp_path / "invocations.log")
        with running_service(tmp_path) as (address, _service, _store):
            payload = dict(_probe_payload(log_path), timeout=30, retries=0)
            assert request(address, payload)["cache"] == "miss"
            payload = dict(_probe_payload(log_path), timeout=None)
            assert request(address, payload)["cache"] == "hit"

    @pytest.mark.parametrize("retired", ("batched", "compiled"))
    def test_retired_engine_name_is_served(self, tmp_path, retired):
        log_path = str(tmp_path / "invocations.log")
        with running_service(tmp_path) as (address, _service, _store):
            response = request(address, _probe_payload(log_path, engine=retired))
            assert response["ok"] and response["cache"] == "miss"
            assert response["result"]["spec"]["engine"] == "bitpacked"

    def test_unknown_engine_is_a_typed_error(self, tmp_path):
        with running_service(tmp_path) as (address, _service, _store):
            response = request(address, _probe_payload(None, engine="bogus"))
            assert response["ok"] is False
            assert "unknown engine 'bogus'" in response["error"]


class TestLifecycle:
    def test_shutdown_drains_and_journals_inflight_work(self, tmp_path):
        log_path = str(tmp_path / "invocations.log")
        store = ResultStore(tmp_path / "cache")
        service = ExperimentService(store)
        server = create_server(service)
        address = server.server_address[:2]
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        payload = dict(
            _probe_payload(log_path, sleep_seconds=2.0), include_result=False
        )
        slow_response = {}

        def slow_query():
            slow_response.update(request(address, payload))

        runner = threading.Thread(target=slow_query)
        runner.start()
        time.sleep(0.7)  # the run is in flight now
        down = request(address, {"op": "shutdown"}, timeout=10.0)
        assert down["ok"] and down["shutdown"] and down["inflight"] == 1
        thread.join(15.0)
        assert not thread.is_alive()  # serve_forever exited
        # New runs are refused while draining.
        server.server_close()
        service.drain()
        runner.join(30.0)
        # The in-flight run finished, was journaled, and got its response.
        assert slow_response.get("ok") and slow_response.get("cache") == "miss"
        spec = get_experiment("fault_probe").make_spec(
            inner_key="figure1", log_path=log_path, sleep_seconds=2.0
        )
        assert ResultStore(tmp_path / "cache").get("fault_probe", spec) is not None

    def test_draining_service_refuses_new_runs(self, tmp_path):
        with running_service(tmp_path) as (address, service, _store):
            service._draining = True
            response = request(address, _probe_payload(None), timeout=10.0)
            assert response["ok"] is False
            assert "shutting down" in response["error"]


class TestServeCLI:
    """The real daemon + client subprocesses: cold → warm → shutdown."""

    def _environment(self):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_daemon_cold_warm_shutdown_cycle(self, tmp_path):
        env = self._environment()
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--cache", str(tmp_path / "cache"), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = daemon.stdout.readline()
            assert "repro-serve listening on" in banner
            address = banner.split("listening on ", 1)[1].split()[0]
            payload = {
                "op": "run",
                "experiment": "figure1",
                "include_result": False,
            }
            cold = request(address, payload)
            assert cold["ok"] and cold["cache"] == "miss"
            warm = request(address, payload)
            assert warm["ok"] and warm["cache"] == "hit"
            # Zero simulator invocations for the warm query: the store
            # answered it (hits == 1) and nothing new was scheduled.
            stats = request(address, {"op": "stats"}, timeout=10.0)
            assert stats["counters"]["hits"] == 1
            assert stats["counters"]["simulated"] == 1
            # The client-mode CLI speaks the same protocol.
            client = subprocess.run(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--connect", address, "--request", '{"op": "ping"}',
                ],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert client.returncode == 0, client.stderr
            assert json.loads(client.stdout)["pong"] is True
            down = request(address, {"op": "shutdown"}, timeout=10.0)
            assert down["ok"]
            stdout, stderr = daemon.communicate(timeout=30)
            assert daemon.returncode == 0, stderr
            assert "1 hit(s), 1 miss(es), 1 write(s)" in stderr
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()

    def test_client_mode_validates_arguments(self):
        env = self._environment()
        bad = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--request", "{}"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert bad.returncode == 2
        assert "--connect" in bad.stderr
        neither = subprocess.run(
            [sys.executable, "-m", "repro", "serve"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert neither.returncode == 2
        assert "--cache" in neither.stderr
