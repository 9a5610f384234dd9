"""Experiment — scale-free bottlenecks: fairness at Internet scale.

The paper's water-filling construction (Appendix A) is proved correct on
arbitrary topologies but exercised only on small stars and trees.  This
experiment runs it on realistic graphs — generated (Barabási–Albert,
Waxman, fat trees) and ingested (GML/JSON files, embedded samples) — and
tests the scale-free-bottleneck hypothesis from the related literature:

* **betweenness vs saturation** — links that carry many shortest paths
  (high Brandes edge betweenness) should be the ones water-filling
  saturates, so saturated links should show above-average betweenness and
  link utilisation should rank-correlate positively with betweenness;
* **redundancy** — replacing every multi-rate session by its single-rate
  twin can only lose throughput (Corollary 1's direction), on big graphs
  as on the paper's examples.

Regular topologies (``fat-tree``) are included as controls: their symmetric
link structure carries no betweenness signal, so they contribute records
but are excluded from the correlation verdict.

Every random quantity (graph structure, capacities, placement) derives
from ``spec.seed`` through the :func:`repro.simulator.rng.spawn_run_entropy`
scheme, so results are bit-reproducible and cacheable through the result
store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import MaxMinTrace, max_min_fair_allocation
from ..errors import ExperimentError
from ..network.graph import NetworkGraph
from ..network.network import Network
from ..network.topology.formats import graph_from_gml, graph_from_json, load_topology
from ..network.topology.generators import barabasi_albert, fat_tree, waxman
from ..network.topology.metrics import edge_betweenness
from ..network.topology.samples import ABILENE_GML, TRIANGLE_CORE_JSON
from ..simulator.rng import spawn_run_entropy
from .api import ExperimentSpec, Verdict
from .registry import Experiment, register

__all__ = [
    "ScaleFreeBottleneckSpec",
    "ScaleFreeBottleneckResult",
    "TopologyOutcome",
]

#: Topology descriptors with no betweenness signal (symmetric/regular
#: structure): they run as controls but do not enter the correlation verdict.
_CONTROL_TOPOLOGIES = ("fat-tree", "triangle")

#: Throughput may dip below the single-rate baseline only by numerics.
_THROUGHPUT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ScaleFreeBottleneckSpec(ExperimentSpec):
    """Spec for the scale-free bottleneck experiment.

    ``topologies`` lists descriptors: generator names (``"ba"``,
    ``"waxman"``, ``"fat-tree"``), embedded samples (``"abilene"``,
    ``"triangle"``), or paths to ``.gml``/``.json`` files.  Generated
    graphs use ``num_nodes``/``attachments``; ``betweenness_pivots``
    switches the exact Brandes pass to the pivot approximation at paper
    scale.
    """

    topologies: Optional[Sequence[str]] = None
    num_nodes: Optional[int] = None
    attachments: int = 2
    num_sessions: Optional[int] = None
    receivers_per_session: Optional[int] = None
    placement: str = "random"
    seed: int = 0
    betweenness_pivots: Optional[int] = None
    top_bottlenecks: int = 5

    PRESETS = {
        "reduced": {
            "topologies": ("ba", "abilene", "triangle"),
            "num_nodes": 60,
            "num_sessions": 8,
            "receivers_per_session": 3,
        },
        "paper": {
            "topologies": ("ba", "waxman", "fat-tree", "abilene", "triangle"),
            "num_nodes": 1000,
            "num_sessions": 100,
            "receivers_per_session": 8,
        },
    }


@dataclass
class TopologyOutcome:
    """Everything measured on one topology."""

    descriptor: str
    num_nodes: int
    num_links: int
    num_sessions: int
    density: float
    sparse: bool
    min_rate: float
    mean_rate: float
    max_rate: float
    multi_rate_throughput: float
    single_rate_throughput: float
    iterations: int
    num_saturated: int
    bottleneck_betweenness_ratio: Optional[float]
    utilization_betweenness_corr: Optional[float]
    control: bool
    top_bottlenecks: List[Dict[str, object]]


@dataclass
class ScaleFreeBottleneckResult:
    """Per-topology outcomes plus the aggregate claim checks."""

    outcomes: List[TopologyOutcome]

    @property
    def claim_outcomes(self) -> List[TopologyOutcome]:
        """Outcomes that participate in the betweenness claim (non-control)."""
        return [o for o in self.outcomes if not o.control and o.num_saturated > 0]

    @property
    def min_betweenness_ratio(self) -> Optional[float]:
        ratios = [
            o.bottleneck_betweenness_ratio
            for o in self.claim_outcomes
            if o.bottleneck_betweenness_ratio is not None
        ]
        return min(ratios) if ratios else None

    @property
    def mean_utilization_corr(self) -> Optional[float]:
        corrs = [
            o.utilization_betweenness_corr
            for o in self.claim_outcomes
            if o.utilization_betweenness_corr is not None
        ]
        return float(np.mean(corrs)) if corrs else None

    @property
    def redundancy_ok(self) -> bool:
        return all(
            o.multi_rate_throughput >= o.single_rate_throughput - _THROUGHPUT_TOLERANCE
            for o in self.outcomes
        )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks with ties averaged (the Spearman convention)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(len(values), dtype=np.float64)
    _, inverse = np.unique(values, return_inverse=True)
    sums = np.bincount(inverse, weights=ranks)
    counts = np.bincount(inverse)
    return (sums / counts)[inverse]


def _spearman(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    """Spearman rank correlation; ``None`` when either side is constant."""
    if len(x) < 2:
        return None
    rx, ry = _average_ranks(x), _average_ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return None
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def _build_graph(descriptor: str, spec: ScaleFreeBottleneckSpec, seed: int) -> NetworkGraph:
    if descriptor == "ba":
        return barabasi_albert(spec.num_nodes, attachments=spec.attachments, seed=seed)
    if descriptor == "waxman":
        return waxman(spec.num_nodes, seed=seed)
    if descriptor == "fat-tree":
        return fat_tree(4 if not spec.paper_scale else 8)
    if descriptor == "abilene":
        return graph_from_gml(ABILENE_GML)
    if descriptor == "triangle":
        return graph_from_json(TRIANGLE_CORE_JSON)
    if descriptor.endswith(".gml") or descriptor.endswith(".json"):
        return load_topology(descriptor)
    raise ExperimentError(
        f"unknown topology descriptor {descriptor!r}; expected a generator name "
        "('ba', 'waxman', 'fat-tree'), an embedded sample ('abilene', 'triangle'), "
        "or a .gml/.json path"
    )


def _build_network(
    descriptor: str, spec: ScaleFreeBottleneckSpec, topology_seed: int
) -> Network:
    """One topology's graph with the spec's sessions placed on it."""
    graph_seed, placement_seed = spawn_run_entropy(topology_seed, 2)
    graph = _build_graph(descriptor, spec, graph_seed)
    return Network.from_graph(
        graph,
        num_sessions=min(spec.num_sessions, max(1, graph.num_nodes // 2)),
        receivers_per_session=min(spec.receivers_per_session, graph.num_nodes - 1),
        seed=placement_seed,
        placement=spec.placement,
    )


def _measure_topology(
    descriptor: str, spec: ScaleFreeBottleneckSpec, topology_seed: int
) -> TopologyOutcome:
    network = _build_network(descriptor, spec, topology_seed)
    graph = network.graph
    incidence = network.incidence()

    trace = MaxMinTrace()
    allocation = max_min_fair_allocation(network, trace=trace)
    rates = np.array([allocation[rid] for rid in network.all_receiver_ids()])

    # Saturation order: first water-filling step at which each link saturates.
    saturation_step: Dict[int, int] = {}
    for step_index, step in enumerate(trace.steps):
        for link_id in step.saturated_links:
            saturation_step.setdefault(link_id, step_index)

    betweenness = edge_betweenness(graph, pivots=spec.betweenness_pivots)
    link_rates = allocation.link_rates()
    utilization = np.array(
        [link_rates.get(link.link_id, 0.0) / link.capacity for link in graph.links]
    )
    used = utilization > 0.0
    corr = _spearman(betweenness[used], utilization[used]) if used.sum() >= 2 else None

    saturated = sorted(saturation_step)
    ratio: Optional[float] = None
    if saturated and betweenness.mean() > 0:
        ratio = float(betweenness[saturated].mean() / betweenness.mean())

    ranks = len(betweenness) - 1 - np.argsort(np.argsort(betweenness, kind="stable"), kind="stable")
    top = [
        {
            "link": graph.link(link_id).name,
            "saturation_step": saturation_step[link_id],
            "betweenness": float(betweenness[link_id]),
            "betweenness_rank": int(ranks[link_id]),
        }
        for link_id in sorted(saturated, key=lambda lid: saturation_step[lid])[
            : spec.top_bottlenecks
        ]
    ]

    single = max_min_fair_allocation(network.with_all_single_rate())
    return TopologyOutcome(
        descriptor=descriptor,
        num_nodes=graph.num_nodes,
        num_links=graph.num_links,
        num_sessions=len(network.sessions),
        density=float(incidence.density),
        sparse=bool(incidence.is_sparse),
        min_rate=float(rates.min()),
        mean_rate=float(rates.mean()),
        max_rate=float(rates.max()),
        multi_rate_throughput=float(allocation.total_receiver_throughput()),
        single_rate_throughput=float(single.total_receiver_throughput()),
        iterations=trace.num_iterations,
        num_saturated=len(saturated),
        bottleneck_betweenness_ratio=ratio,
        utilization_betweenness_corr=corr,
        control=any(descriptor.startswith(name) for name in _CONTROL_TOPOLOGIES),
        top_bottlenecks=top,
    )


def body(spec: ScaleFreeBottleneckSpec) -> ScaleFreeBottleneckResult:
    topologies = tuple(spec.topologies)
    if not topologies:
        raise ExperimentError("scalefree_bottleneck needs at least one topology")
    seeds = spawn_run_entropy(spec.seed, len(topologies))
    outcomes = [
        _measure_topology(descriptor, spec, topology_seed)
        for descriptor, topology_seed in zip(topologies, seeds)
    ]
    return ScaleFreeBottleneckResult(outcomes=outcomes)


def _records(result: ScaleFreeBottleneckResult) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = [
        {
            "section": "topologies",
            "topology": o.descriptor,
            "nodes": o.num_nodes,
            "links": o.num_links,
            "sessions": o.num_sessions,
            "density": o.density,
            "sparse": o.sparse,
            "control": o.control,
        }
        for o in result.outcomes
    ]
    rows.extend(
        {
            "section": "fairness",
            "topology": o.descriptor,
            "min_rate": o.min_rate,
            "mean_rate": o.mean_rate,
            "max_rate": o.max_rate,
            "iterations": o.iterations,
            "saturated_links": o.num_saturated,
            "multi_rate_throughput": o.multi_rate_throughput,
            "single_rate_throughput": o.single_rate_throughput,
        }
        for o in result.outcomes
    )
    rows.extend(
        {
            "section": "betweenness vs saturation",
            "topology": o.descriptor,
            "bottleneck_betweenness_ratio": o.bottleneck_betweenness_ratio,
            "utilization_betweenness_corr": o.utilization_betweenness_corr,
        }
        for o in result.outcomes
    )
    rows.extend(
        {"section": "top bottlenecks", "topology": o.descriptor, **entry}
        for o in result.outcomes
        for entry in o.top_bottlenecks
    )
    return rows


def _verdict(result: ScaleFreeBottleneckResult) -> Verdict:
    ratio = result.min_betweenness_ratio
    corr = result.mean_utilization_corr
    betweenness_ok = ratio is not None and ratio >= 1.0
    corr_ok = corr is None or corr > 0.0
    ok = betweenness_ok and corr_ok and result.redundancy_ok
    parts = []
    if ratio is not None:
        parts.append(f"saturated-link betweenness {ratio:.2f}x mean")
    if corr is not None:
        parts.append(f"utilisation-betweenness corr {corr:+.2f}")
    parts.append(
        "multi-rate >= single-rate throughput"
        if result.redundancy_ok
        else "multi-rate throughput fell below single-rate"
    )
    return Verdict(ok, "; ".join(parts))


EXPERIMENT = register(
    Experiment(
        key="scalefree_bottleneck",
        title="Scale-free bottlenecks (topology subsystem)",
        spec_cls=ScaleFreeBottleneckSpec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
