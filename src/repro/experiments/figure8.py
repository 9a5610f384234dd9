"""Experiments E9/E10 — Figure 8: protocol redundancy versus independent loss.

Simulates the three Section-4 protocols on the Figure 7(b) modified star
(one session, identical Bernoulli loss on every fan-out link, Bernoulli loss
on the shared link) and measures the session's redundancy on the shared
link.  Figure 8(a) fixes the shared loss rate at ``1e-4`` (essentially no
correlated loss) and Figure 8(b) at ``0.05``; the independent loss rate is
swept from 0 to 0.1.

Shapes to reproduce (the paper's testbed is the authors' own simulator, so
absolute values may differ slightly):

* redundancy grows with the independent loss rate for every protocol;
* the sender-coordinated protocol has the lowest redundancy and stays below
  about 2.5 even with 100 receivers;
* all protocols stay below 5 for loss rates up to 0.1;
* with high shared (correlated) loss the curves sit no higher than with low
  shared loss, because correlated losses keep receivers synchronised.

Scale.  The paper uses 100 receivers, 100,000 packets per run, and 30
repetitions per point.  Those settings are available via the parameters, but
the defaults are reduced (fewer receivers, shorter runs, fewer repetitions
and loss points) so the full figure regenerates in seconds; the shape is
already stable at that scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..protocols import make_protocol
from ..simulator.metrics import RedundancyMeasurement
from ..simulator.star import star_redundancy_group, uniform_star
from .api import ExperimentSpec, Verdict, check_counts, check_protocols
from .resilient import resilient_map
from .registry import Experiment, register

__all__ = [
    "Figure8Spec",
    "Figure8PanelSpec",
    "Figure8Point",
    "Figure8Panel",
    "Figure8Result",
    "DEFAULT_INDEPENDENT_LOSS_RATES",
    "PAPER_INDEPENDENT_LOSS_RATES",
]

PROTOCOLS = ("coordinated", "uncoordinated", "deterministic")

#: Reduced sweep used by default (plus the defaults below) so the whole
#: figure regenerates quickly; the paper sweeps 0..0.1 in steps of 0.01.
DEFAULT_INDEPENDENT_LOSS_RATES = (0.005, 0.02, 0.05, 0.08, 0.1)

#: The paper's full x-axis.
PAPER_INDEPENDENT_LOSS_RATES = tuple(round(0.01 * i, 3) for i in range(0, 11))

@dataclass(frozen=True)
class Figure8Spec(ExperimentSpec):
    """Spec for the two-panel Figure 8 protocol-redundancy sweep.

    Fields left at ``None`` resolve to the scale preset: reduced runs 60
    receivers x 1200 units x 3 repetitions over a 5-point loss grid; paper
    runs 100 x 2000 x 5 over the full 0..0.1 grid.  ``jobs`` fans the
    six (panel, protocol) sweeps across worker processes with identical
    results.
    """

    independent_loss_rates: Optional[Sequence[float]] = None
    num_receivers: Optional[int] = None
    duration_units: Optional[int] = None
    repetitions: Optional[int] = None
    base_seed: int = 0
    low_shared_loss: float = 0.0001
    high_shared_loss: float = 0.05

    PRESETS = {
        "reduced": {
            "independent_loss_rates": DEFAULT_INDEPENDENT_LOSS_RATES,
            "num_receivers": 60,
            "duration_units": 1200,
            "repetitions": 3,
        },
        "paper": {
            "independent_loss_rates": PAPER_INDEPENDENT_LOSS_RATES,
            "num_receivers": 100,
            "duration_units": 2000,
            "repetitions": 5,
        },
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        check_counts(self)


@dataclass(frozen=True)
class Figure8PanelSpec(ExperimentSpec):
    """Spec for a single Figure 8 panel at one fixed shared loss rate.

    Presets match :class:`Figure8Spec`, plus all three protocols.  A
    ``protocols`` subset must include ``"coordinated"``, the protocol the
    verdict judges.
    """

    shared_loss_rate: float = 0.05
    independent_loss_rates: Optional[Sequence[float]] = None
    num_receivers: Optional[int] = None
    num_layers: int = 8
    duration_units: Optional[int] = None
    repetitions: Optional[int] = None
    base_seed: int = 0
    protocols: Optional[Sequence[str]] = None

    PRESETS = {
        scale: {**table, "protocols": PROTOCOLS}
        for scale, table in Figure8Spec.PRESETS.items()
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        check_protocols(self.protocols, required=("coordinated",))
        check_counts(self)


@dataclass
class Figure8Point:
    """One (protocol, independent-loss) measurement."""

    protocol: str
    independent_loss_rate: float
    measurement: RedundancyMeasurement

    @property
    def redundancy(self) -> float:
        return self.measurement.mean_redundancy


@dataclass
class Figure8Panel:
    """One panel of Figure 8 (fixed shared loss rate)."""

    shared_loss_rate: float
    independent_loss_rates: Sequence[float]
    num_receivers: int
    points: List[Figure8Point] = field(default_factory=list)

    def curve(self, protocol: str) -> List[float]:
        return [
            point.redundancy
            for point in self.points
            if point.protocol == protocol
        ]

    def curves(self) -> Dict[str, List[float]]:
        """One curve per protocol the panel simulated, in simulation order."""
        protocols = dict.fromkeys(point.protocol for point in self.points)
        return {protocol: self.curve(protocol) for protocol in protocols}

    def max_redundancy(self, protocol: str) -> float:
        return max(self.curve(protocol))

    @property
    def coordinated_is_lowest(self) -> bool:
        """Coordinated redundancy never exceeds the other simulated
        protocols' (with slack); vacuously true when it ran alone."""
        curves = self.curves()
        coordinated = curves.pop("coordinated")
        others = list(curves.values())
        return not others or all(
            coordinated[index] <= min(curve[index] for curve in others) + 0.35
            for index in range(len(coordinated))
        )


@dataclass
class Figure8Result:
    """Both panels of Figure 8."""

    low_shared_loss: Figure8Panel
    high_shared_loss: Figure8Panel


def _protocol_sweep(protocol_name: str, spec: Figure8PanelSpec) -> List[Figure8Point]:
    """One protocol's points of one panel; picklable for workers.

    The whole loss grid and its repetitions go to one
    :func:`~repro.simulator.star.star_redundancy_group` call, so they ride
    one stacked scan.
    """
    loss_rates = tuple(spec.independent_loss_rates)
    configs = [
        uniform_star(
            num_receivers=spec.num_receivers,
            shared_loss_rate=spec.shared_loss_rate,
            independent_loss_rate=independent_loss,
            num_layers=spec.num_layers,
            duration_units=spec.duration_units,
        )
        for independent_loss in loss_rates
    ]
    measurements = star_redundancy_group(
        [make_protocol(protocol_name) for _ in configs],
        configs,
        repetitions=spec.repetitions,
        base_seed=spec.base_seed,
        engine=spec.engine,
    )
    return [
        Figure8Point(
            protocol=protocol_name,
            independent_loss_rate=independent_loss,
            measurement=measurement,
        )
        for independent_loss, measurement in zip(loss_rates, measurements)
    ]


def _panels(specs: Sequence[Figure8PanelSpec], jobs: int) -> List[Figure8Panel]:
    """Simulate panels as one list of (panel, protocol) sweeps.

    With ``jobs > 1`` the sweeps run in parallel worker processes.  Every
    sweep carries its own fixed seeds, so results are identical for any
    ``jobs`` and either ``engine``.
    """
    tasks = [(protocol_name, spec) for spec in specs for protocol_name in spec.protocols]
    if jobs == 1:
        sweeps = [_protocol_sweep(*task) for task in tasks]
    else:
        sweeps = resilient_map(_protocol_sweep, tasks, jobs=jobs)
    points = iter(sweeps)
    panels = []
    for spec in specs:
        panel = Figure8Panel(
            shared_loss_rate=spec.shared_loss_rate,
            independent_loss_rates=tuple(spec.independent_loss_rates),
            num_receivers=spec.num_receivers,
        )
        for _protocol_name in spec.protocols:
            panel.points.extend(next(points))
        panels.append(panel)
    return panels


def panel_body(spec: Figure8PanelSpec) -> Figure8Panel:
    """Simulate one Figure 8 panel (one shared loss rate)."""
    return _panels([spec], spec.jobs)[0]


def body(spec: Figure8Spec) -> Figure8Result:
    """Simulate both Figure 8 panels (optionally across ``jobs`` processes).

    Each (panel, protocol) sweep keeps its own stacked scan.  Stacking both
    panels per protocol was measured: at reduced scale it cut CPU time by
    about 13% but raised peak RSS by 3 MiB; at paper scale it gained
    nothing and added 20 MiB.
    """
    low, high = _panels(
        [
            Figure8PanelSpec(
                scale=spec.scale,
                engine=spec.engine,
                shared_loss_rate=shared_loss_rate,
                independent_loss_rates=spec.independent_loss_rates,
                num_receivers=spec.num_receivers,
                duration_units=spec.duration_units,
                repetitions=spec.repetitions,
                base_seed=spec.base_seed,
                protocols=PROTOCOLS,
            )
            for shared_loss_rate in (spec.low_shared_loss, spec.high_shared_loss)
        ],
        spec.jobs,
    )
    return Figure8Result(low_shared_loss=low, high_shared_loss=high)


def _panel_records(panel: Figure8Panel, section: str) -> List[Dict[str, object]]:
    return [
        {
            "section": section,
            "shared_loss_rate": panel.shared_loss_rate,
            "protocol": point.protocol,
            "independent_loss_rate": point.independent_loss_rate,
            "redundancy": point.redundancy,
            "mean_receiver_rate": point.measurement.mean_receiver_rate,
            "runs": list(point.measurement.redundancies),
        }
        for point in panel.points
    ]


def _records(result: Figure8Result) -> List[Dict[str, object]]:
    return _panel_records(result.low_shared_loss, "panel (a): low shared loss") + (
        _panel_records(result.high_shared_loss, "panel (b): high shared loss")
    )


def _verdict(result: Figure8Result) -> Verdict:
    ok = (
        result.low_shared_loss.coordinated_is_lowest
        and result.low_shared_loss.max_redundancy("coordinated") < 2.5
    )
    return Verdict(ok, "coordinated protocol lowest; below 2.5" if ok else "shape differs")


def _panel_only_records(panel: Figure8Panel) -> List[Dict[str, object]]:
    return _panel_records(panel, f"shared loss {panel.shared_loss_rate:g}")


def _panel_verdict(panel: Figure8Panel) -> Verdict:
    ok = panel.coordinated_is_lowest
    return Verdict(ok, "coordinated protocol lowest" if ok else "shape differs")


EXPERIMENT = register(
    Experiment(
        key="figure8",
        title="Figure 8 (protocol redundancy)",
        spec_cls=Figure8Spec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)

#: Single-panel variant: not part of the default sweep (``figure8`` already
#: covers both panels) but invocable by key for targeted shared-loss studies.
PANEL_EXPERIMENT = register(
    Experiment(
        key="figure8_panel",
        title="Figure 8 single panel (one shared loss rate)",
        spec_cls=Figure8PanelSpec,
        body=panel_body,
        to_records=_panel_only_records,
        judge=_panel_verdict,
        default=False,
    )
)
