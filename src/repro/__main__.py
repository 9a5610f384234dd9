"""``python -m repro`` — the reproduction command-line interface.

Subcommands:

* ``python -m repro list`` — every registered experiment (key, title,
  spec fields); ``--format json`` for a machine-readable listing.
* ``python -m repro run <key> [<key> ...]`` — run experiments (or ``all``)
  at ``--scale reduced|paper``, optionally across ``--jobs N`` worker
  processes, printing tables (``--format text``) or the typed JSON result
  envelopes (``--format json``); ``--out DIR`` writes one ``<key>.json``
  per experiment; ``--set field=value`` overrides any spec field.
* ``python -m repro verify`` — run experiments and print one verdict line
  each; exits non-zero if any paper claim fails to reproduce (MISMATCH).
* ``python -m repro serve --cache DIR`` — long-running cached experiment
  service: JSON-lines queries over a local socket, warm specs answered
  from the store with zero simulator invocations, cold specs scheduled
  onto a persistent hardened worker pool (``--connect ADDR --request
  JSON`` is the matching one-shot client).
* ``python -m repro topo info FILE`` — summarise a ``.gml``/``.json``
  topology file (nodes, links, capacity range, density, top-betweenness
  links); ``--format json`` for a machine-readable summary.
* ``python -m repro topo gen --model ba --nodes N --seed S --out FILE`` —
  generate a seeded topology (``ba``/``waxman``/``fat-tree``) and write it
  as GML or JSON (by ``--out`` extension) or print it to stdout.

``run`` and ``verify`` share the fault-tolerance flags: ``--cache DIR``
journals every completed result into a content-addressed on-disk store
(repeated runs become O(1) lookups; an interrupted sweep resumes from its
last completed task), ``--resume`` asserts such a checkpoint exists,
``--timeout`` bounds each task's wall clock, and ``--retries`` bounds
re-attempts after worker crashes or task errors.  ``--shards N
--shard-index I`` deterministically partitions the selected tasks so N
invocations sharing a ``--cache`` directory split one sweep between them.

Exit codes: ``0`` success, ``1`` verify MISMATCH, ``2`` clean error
(:class:`~repro.errors.ReproError` — bad arguments, failed execution),
``130`` interrupted (completed results stay checkpointed under
``--cache``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .errors import ExecutionError, ExperimentError, ReproError
from .experiments.api import ENGINES, SCALES, ExperimentSpec
from .experiments.registry import Experiment, all_experiments, select_experiments
from .experiments.runner import run_specs, shard_tasks
from .experiments.store import ResultStore
from .protocols.kernel import ENGINE_ALIASES

__all__ = ["main"]


def _parse_override(text: str) -> Any:
    """Parse one ``--set field=value`` pair into ``(field, value)``.

    Values are parsed as JSON when possible (numbers, booleans, ``null``,
    lists) and fall back to plain strings; lists become tuples so they
    match the spec's declared field types.
    """
    field, separator, raw = text.partition("=")
    if not separator or not field:
        raise ExperimentError(f"--set expects field=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    if isinstance(value, list):
        value = tuple(value)
    return field, value


def _parse_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    """All ``--set field=value`` pairs as one mapping (last value wins)."""
    overrides: Dict[str, Any] = {}
    for pair in args.set or []:
        field, value = _parse_override(pair)
        overrides[field] = value
    return overrides


def _build_spec(
    experiment: Experiment,
    args: argparse.Namespace,
    overrides: Dict[str, Any],
) -> ExperimentSpec:
    """An experiment's spec from the common CLI flags plus ``--set`` overrides.

    ``--set`` wins over the dedicated flags, so ``--set scale=paper`` is an
    accepted (if redundant) spelling of ``--scale paper``.  Overrides of
    fields this experiment's spec does not declare are skipped here —
    :func:`_run_selected` rejects a ``--set`` field no selected experiment
    declares, so a sweep-wide override of a per-experiment knob
    (``run all --set repetitions=5``) applies where it exists and a typo'd
    field is still an error.
    """
    fields: Dict[str, Any] = {
        "scale": args.scale,
        "jobs": args.jobs,
        "engine": args.engine,
    }
    fields.update(overrides)
    known = {spec_field.name for spec_field in dataclasses.fields(experiment.spec_cls)}
    applicable = {name: value for name, value in fields.items() if name in known}
    return experiment.make_spec(**applicable)


def _select(keys: Sequence[str]) -> List[Experiment]:
    """Resolve CLI experiment keys in registry order.

    ``all`` expands to the default suite and may be combined with
    standalone keys (``run all figure8_panel``); every named key is
    validated, ``all`` or not.  Validation and ordering are
    :func:`repro.experiments.registry.select_experiments`.
    """
    named = [key for key in keys if key != "all"]
    try:
        selected = select_experiments(named or None)
    except KeyError as error:
        raise ExperimentError(str(error.args[0])) from None
    if not keys or "all" in keys:
        wanted = {experiment.key for experiment in selected}
        wanted.update(experiment.key for experiment in all_experiments())
        return [
            experiment
            for experiment in all_experiments(default_only=False)
            if experiment.key in wanted
        ]
    return selected


def _cmd_list(args: argparse.Namespace) -> int:
    experiments = all_experiments(default_only=False)
    if args.format == "json":
        listing = [
            {
                "key": experiment.key,
                "title": experiment.title,
                "default": experiment.default,
                "spec": experiment.spec_cls.__name__,
                "spec_fields": {
                    spec_field.name: repr(spec_field.default)
                    for spec_field in dataclasses.fields(experiment.spec_cls)
                },
            }
            for experiment in experiments
        ]
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    width = max(len(experiment.key) for experiment in experiments)
    for experiment in experiments:
        marker = " " if experiment.default else "*"
        print(f"{experiment.key.ljust(width)} {marker} {experiment.title}")
    print("\n(* = standalone: not part of 'run all'/'verify'; run it by key)")
    return 0


def _make_store(args: argparse.Namespace) -> Optional[ResultStore]:
    """The result store described by ``--cache``/``--resume`` (or ``None``).

    ``--resume`` is a statement of intent — "continue an interrupted
    sweep" — so it requires ``--cache`` and refuses to start from an
    absent checkpoint directory instead of silently recomputing
    everything.
    """
    if args.cache is None:
        if args.resume:
            raise ExperimentError(
                "--resume requires --cache DIR (the checkpoint directory "
                "of the interrupted sweep)"
            )
        return None
    cache_dir = Path(args.cache)
    if args.resume and not cache_dir.is_dir():
        raise ExperimentError(
            f"--resume: no checkpoint directory at {cache_dir}; "
            "run with --cache first (results are journaled as they complete)"
        )
    return ResultStore(cache_dir)


def _run_selected(args: argparse.Namespace):
    """Run the selected experiments via the registry's (key, spec) task form."""
    experiments = _select(args.keys)
    overrides = _parse_overrides(args)
    declared = {
        spec_field.name
        for experiment in experiments
        for spec_field in dataclasses.fields(experiment.spec_cls)
    }
    unknown = sorted(set(overrides) - declared)
    if unknown:
        raise ExperimentError(
            f"unknown spec fields {unknown} for the selected experiments; "
            f"valid fields: {sorted(declared)}"
        )
    tasks = [
        (experiment.key, _build_spec(experiment, args, overrides))
        for experiment in experiments
    ]
    if args.shards != 1 or args.shard_index != 0:
        # Partition (experiment, task) pairs together so titles/outputs
        # stay aligned with results within this shard.
        pairs = shard_tasks(list(zip(experiments, tasks)), args.shards, args.shard_index)
        experiments = [experiment for experiment, _ in pairs]
        tasks = [task for _, task in pairs]
    # "--set wins over the dedicated flags" includes jobs: an overridden
    # jobs value also drives the cross-experiment process fan-out.
    jobs = overrides.get("jobs", args.jobs)
    if not isinstance(jobs, int) or jobs < 1:
        raise ExperimentError(f"jobs must be a positive integer, got {jobs!r}")
    store = _make_store(args)
    results = run_specs(
        tasks, jobs=jobs, store=store, timeout=args.timeout, retries=args.retries
    )
    if store is not None:
        # Stats go to stderr so --format json keeps a pure-JSON stdout.
        print(f"cache: {store.stats.summary()} in {store.root}", file=sys.stderr)
    return experiments, results


def _cmd_run(args: argparse.Namespace) -> int:
    out_dir: Optional[Path] = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    json_documents: List[Dict[str, Any]] = []
    start = time.time()
    experiments, results = _run_selected(args)
    for experiment, result in zip(experiments, results):
        if out_dir is not None:
            (out_dir / f"{experiment.key}.json").write_text(result.to_json())
        if args.format == "json":
            json_documents.append(result.to_dict())
        else:
            print("=" * 72)
            print(f"{experiment.title}: {result.verdict.summary} "
                  f"({result.wall_time_seconds:.1f}s)")
            print("=" * 72)
            print(result.table())
            print()
    if args.format == "json":
        # Always an array — consumers get one stable top-level shape whether
        # one key or many were requested.  Keys keep their order, so a
        # document read back with ExperimentResult.from_dict renders the
        # same table as the fresh run.
        print(json.dumps(json_documents, indent=2))
    else:
        print(f"total wall time: {time.time() - start:.1f}s (jobs={args.jobs})")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    experiments, results = _run_selected(args)
    for experiment, result in zip(experiments, results):
        status = "ok" if result.verdict.ok else "MISMATCH"
        print(
            f"{experiment.key}: {status} — {result.verdict.summary} "
            f"({result.wall_time_seconds:.1f}s)"
        )
        if not result.verdict.ok:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) failed to reproduce the paper's claim")
        return 1
    print(f"all {len(experiments)} experiments reproduce the paper's claims")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .experiments.serve import request as serve_request
    from .experiments.serve import serve

    if args.connect is not None:
        # One-shot client mode: send each --request line, print each
        # response as one JSON line, exit 2 if any request failed.
        payloads = args.request or ['{"op": "stats"}']
        failed = 0
        for text in payloads:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as error:
                raise ExperimentError(f"--request must be a JSON object: {error}") from None
            try:
                response = serve_request(args.connect, payload, timeout=args.connect_timeout)
            except OSError as error:
                raise ExperimentError(
                    f"cannot reach repro-serve at {args.connect}: {error}"
                ) from None
            print(json.dumps(response))
            if not response.get("ok", False):
                failed += 1
        return 2 if failed else 0
    if args.request:
        raise ExperimentError("--request requires --connect ADDR (client mode)")
    if args.cache is None:
        raise ExperimentError(
            "serve needs --cache DIR (daemon mode) or --connect ADDR (client mode)"
        )
    store = ResultStore(Path(args.cache))
    return serve(
        store,
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
    )


def _cmd_topo_info(args: argparse.Namespace) -> int:
    from .network.topology.formats import load_topology
    from .network.topology.metrics import edge_betweenness

    graph = load_topology(args.file)
    capacities = graph.capacities()
    betweenness = edge_betweenness(graph)
    top_ids = sorted(
        range(graph.num_links), key=lambda lid: (-betweenness[lid], lid)
    )[: args.top]
    density = (
        2.0 * graph.num_links / (graph.num_nodes * (graph.num_nodes - 1))
        if graph.num_nodes > 1
        else 0.0
    )
    summary = {
        "file": str(args.file),
        "nodes": graph.num_nodes,
        "links": graph.num_links,
        "connected": graph.is_connected(),
        "density": density,
        "capacity_min": min(capacities) if capacities else None,
        "capacity_max": max(capacities) if capacities else None,
        "top_betweenness": [
            {
                "link": graph.link(lid).name,
                "endpoints": list(graph.link(lid).endpoints),
                "capacity": graph.link(lid).capacity,
                "betweenness": float(betweenness[lid]),
            }
            for lid in top_ids
        ],
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"{summary['file']}: {summary['nodes']} nodes, {summary['links']} links, "
          f"{'connected' if summary['connected'] else 'DISCONNECTED'}, "
          f"density {density:.4f}")
    if capacities:
        print(f"capacities: {summary['capacity_min']:g} .. {summary['capacity_max']:g}")
    print("top betweenness links:")
    for entry in summary["top_betweenness"]:
        print(f"  {entry['link']:>6} {entry['endpoints'][0]}--{entry['endpoints'][1]} "
              f"c={entry['capacity']:g} b={entry['betweenness']:.1f}")
    return 0


def _cmd_topo_gen(args: argparse.Namespace) -> int:
    from .network.topology.formats import graph_to_gml, graph_to_json
    from .network.topology.generators import generate

    graph = generate(
        args.model,
        num_nodes=args.nodes,
        seed=args.seed,
        attachments=args.attachments,
        alpha=args.alpha,
        beta=args.beta,
        arity=args.arity,
    )
    if args.out is None or str(args.out).endswith(".gml"):
        text = graph_to_gml(graph, name=f"{args.model}-{args.nodes}-s{args.seed}")
    elif str(args.out).endswith(".json"):
        text = json.dumps(graph_to_json(graph), indent=2, sort_keys=True) + "\n"
    else:
        raise ExperimentError(
            f"--out must end in .gml or .json, got {args.out!r}"
        )
    if args.out is None:
        print(text, end="")
    else:
        Path(args.out).write_text(text)
        print(f"wrote {graph.num_nodes} nodes / {graph.num_links} links to {args.out}",
              file=sys.stderr)
    return 0


def _add_common_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="reduced",
        help="scale preset: 'reduced' (seconds) or 'paper' (full sweep sizes)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for experiments that fan out internally "
        "(results are identical for every value)",
    )
    parser.add_argument(
        "--engine",
        type=lambda name: ENGINE_ALIASES.get(name, name),
        choices=ENGINES,
        default="bitpacked",
        help="simulation engine for the packet-level experiments "
        "(identical results; 'reference' is the slow per-packet loop, "
        "'bitpacked' the uint64+popcount scan; the retired names "
        "'batched' and 'compiled' select 'bitpacked')",
    )
    parser.add_argument(
        "--set",
        action="append",
        metavar="FIELD=VALUE",
        help="override a spec field (JSON values; repeatable), "
        "e.g. --set repetitions=5 --set 'independent_loss_rates=[0.02,0.08]'",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="content-addressed result store: completed results are "
        "journaled here as they finish, and tasks already stored (same "
        "spec + RNG scheme) are served without running the simulator",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from its --cache checkpoint "
        "(requires --cache; refuses to start without an existing one)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="per-task wall-clock timeout (multi-process runs); a task "
        "exceeding it is killed and retried",
    )
    parser.add_argument(
        "--retries",
        type=int,
        metavar="N",
        default=2,
        help="re-attempts allowed per task after a crash, timeout, or "
        "error (default 2); retried tasks reproduce bit-identically",
    )
    parser.add_argument(
        "--shards",
        type=int,
        metavar="N",
        default=1,
        help="split the selected tasks deterministically across N "
        "cooperating invocations that share a --cache directory "
        "(round-robin by task position; see --shard-index)",
    )
    parser.add_argument(
        "--shard-index",
        type=int,
        metavar="I",
        default=0,
        help="which shard (0-based, < --shards) this invocation runs; "
        "identical command lines apart from this flag partition "
        "identically",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list registered experiments (key, title)"
    )
    list_parser.add_argument("--format", choices=("text", "json"), default="text")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = subparsers.add_parser(
        "run", help="run experiments and print tables or JSON result envelopes"
    )
    run_parser.add_argument(
        "keys",
        nargs="+",
        metavar="KEY",
        help="experiment keys to run, or 'all' for the default suite "
        "(see 'python -m repro list')",
    )
    _add_common_run_flags(run_parser)
    run_parser.add_argument("--format", choices=("text", "json"), default="text")
    run_parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write one <key>.json result envelope per experiment to DIR",
    )
    run_parser.set_defaults(handler=_cmd_run)

    verify_parser = subparsers.add_parser(
        "verify",
        help="run experiments and exit non-zero if any paper claim MISMATCHes",
    )
    verify_parser.add_argument(
        "keys",
        nargs="*",
        metavar="KEY",
        help="experiment keys to verify (default: the full default suite)",
    )
    _add_common_run_flags(verify_parser)
    verify_parser.set_defaults(handler=_cmd_verify)

    serve_parser = subparsers.add_parser(
        "serve",
        help="long-running cached experiment service (JSON lines over a "
        "local socket); or, with --connect, a one-shot client",
    )
    serve_parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="content-addressed result store to serve (daemon mode); warm "
        "queries are answered from it without running the simulator",
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; the service is "
        "unauthenticated, keep it loopback-only)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="TCP port to bind (default 0: pick an ephemeral port and "
        "print it in the first stdout line)",
    )
    serve_parser.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="bind a Unix domain socket at PATH instead of TCP",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes in the persistent pool (default 1)",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="default per-task wall-clock timeout (requests may override)",
    )
    serve_parser.add_argument(
        "--retries",
        type=int,
        metavar="N",
        default=2,
        help="default re-attempts per task (requests may override)",
    )
    serve_parser.add_argument(
        "--connect",
        metavar="ADDR",
        default=None,
        help="client mode: send --request payload(s) to a running service "
        "at HOST:PORT or a Unix socket path, print the JSON response(s)",
    )
    serve_parser.add_argument(
        "--request",
        action="append",
        metavar="JSON",
        help="client mode: a request object to send (repeatable; default "
        "one {\"op\": \"stats\"} request)",
    )
    serve_parser.add_argument(
        "--connect-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="client mode: bound connect and response wait (default: "
        "wait as long as the run takes)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    topo_parser = subparsers.add_parser(
        "topo", help="inspect and generate topology files (.gml/.json)"
    )
    topo_subparsers = topo_parser.add_subparsers(dest="topo_command", required=True)

    info_parser = topo_subparsers.add_parser(
        "info", help="summarise a topology file (nodes, links, betweenness)"
    )
    info_parser.add_argument("file", metavar="FILE", help="a .gml or .json topology file")
    info_parser.add_argument("--format", choices=("text", "json"), default="text")
    info_parser.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="how many top-betweenness links to list (default 5)",
    )
    info_parser.set_defaults(handler=_cmd_topo_info)

    gen_parser = topo_subparsers.add_parser(
        "gen", help="generate a seeded topology and write it as GML or JSON"
    )
    gen_parser.add_argument(
        "--model", choices=("ba", "waxman", "fat-tree"), required=True,
        help="generator model (Barabási–Albert, Waxman, or k-ary fat tree)",
    )
    gen_parser.add_argument(
        "--nodes", type=int, default=50, metavar="N",
        help="number of nodes (ignored by fat-tree; see --arity)",
    )
    gen_parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="base seed; all randomness derives from it via spawn_run_entropy",
    )
    gen_parser.add_argument(
        "--attachments", type=int, default=2, metavar="M",
        help="ba: links added per new node (default 2)",
    )
    gen_parser.add_argument(
        "--alpha", type=float, default=0.4, help="waxman: edge-probability scale"
    )
    gen_parser.add_argument(
        "--beta", type=float, default=0.2, help="waxman: edge-probability decay"
    )
    gen_parser.add_argument(
        "--arity", type=int, default=None, metavar="K",
        help="fat-tree: switch arity k (even; default 4)",
    )
    gen_parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="output file (.gml or .json); omit to print GML to stdout",
    )
    gen_parser.set_defaults(handler=_cmd_topo_gen)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Error hygiene: every :class:`~repro.errors.ReproError` — bad
    arguments, failed tasks — exits with a clean one-line message and
    code 2 (code 1 is reserved for ``verify`` MISMATCH); execution
    failures additionally print one line per failed task.  An interrupt
    exits 130; with ``--cache``, everything completed before the
    interrupt is already journaled and a re-run resumes from there.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        for failure in error.failures:
            print(f"  {failure.summary()}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        message = "interrupted"
        if getattr(args, "cache", None):
            message += (
                f" — completed results are checkpointed in {args.cache}; "
                "re-run with --resume to continue"
            )
        print(message, file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
