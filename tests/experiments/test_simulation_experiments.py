"""Smoke/shape tests for the simulation-backed experiments (Figure 8, loss correlation),
plus the boundary checks every replicated-simulation spec applies.

These run the packet-level simulator at a reduced scale so the whole module
stays within a few tens of seconds; the full-scale regeneration lives in the
benchmark harness.
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import get_experiment
from repro.experiments.api import ExperimentResult
from repro.experiments.figure8 import Figure8Panel
from repro.experiments.loss_correlation import LossCorrelationSpec


@pytest.fixture(scope="module")
def small_run() -> ExperimentResult:
    return get_experiment("figure8_panel").run(
        shared_loss_rate=0.0001,
        independent_loss_rates=(0.01, 0.08),
        num_receivers=25,
        duration_units=500,
        repetitions=2,
        base_seed=0,
    )


@pytest.fixture(scope="module")
def small_panel(small_run) -> Figure8Panel:
    return small_run.payload


class TestFigure8Panel:
    def test_panel_structure(self, small_panel):
        assert small_panel.num_receivers == 25
        assert len(small_panel.points) == 3 * 2
        curves = small_panel.curves()
        assert set(curves) == {"coordinated", "uncoordinated", "deterministic"}
        assert all(len(values) == 2 for values in curves.values())

    def test_redundancy_values_reasonable(self, small_panel):
        for point in small_panel.points:
            assert 1.0 <= point.redundancy < 5.0

    def test_redundancy_grows_with_independent_loss(self, small_panel):
        for protocol in ("coordinated", "uncoordinated"):
            curve = small_panel.curve(protocol)
            assert curve[-1] >= curve[0] - 0.15

    def test_coordinated_not_worst(self, small_panel):
        for index in range(2):
            coordinated = small_panel.curve("coordinated")[index]
            uncoordinated = small_panel.curve("uncoordinated")[index]
            assert coordinated <= uncoordinated + 0.2

    def test_table_renders(self, small_run):
        table = small_run.table()
        assert "independent_loss_rate" in table
        assert "coordinated" in table

    def test_protocol_subset_is_judged_on_what_it_ran(self):
        result = get_experiment("figure8_panel").run(
            protocols=("coordinated", "deterministic"),
            independent_loss_rates=(0.02, 0.08),
            num_receivers=8,
            duration_units=100,
            repetitions=1,
        )
        assert set(result.payload.curves()) == {"coordinated", "deterministic"}
        assert {record["protocol"] for record in result.records} == {
            "coordinated", "deterministic"
        }
        assert isinstance(result.payload.coordinated_is_lowest, bool)

    @pytest.mark.parametrize(
        "protocols",
        [("deterministic", "uncoordinated"), ("bogus",), ()],
        ids=["without-coordinated", "unknown", "empty"],
    )
    def test_rejects_protocols_it_cannot_judge(self, protocols):
        with pytest.raises(ExperimentError, match="protocols"):
            get_experiment("figure8_panel").make_spec(protocols=protocols)


class TestLossCorrelation:
    def test_correlated_loss_lowers_redundancy(self):
        run = get_experiment("loss_correlation").run(
            total_loss_rate=0.05,
            correlated_fractions=(0.0, 1.0),
            num_receivers=20,
            duration_units=400,
            repetitions=2,
        )
        result = run.payload
        assert result.all_protocols_benefit_from_correlation
        assert "correlated_fraction" in run.table()

    def test_validation(self):
        with pytest.raises(ExperimentError):
            get_experiment("loss_correlation").run(total_loss_rate=0.0)
        with pytest.raises(ExperimentError):
            get_experiment("loss_correlation").run(
                correlated_fractions=(2.0,), repetitions=1, duration_units=100
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"total_loss_rate": 0.0},
            {"total_loss_rate": 1.0},
            {"total_loss_rate": float("nan")},
            {"total_loss_rate": "0.05"},
            {"correlated_fractions": (0.5, 2.0)},
            {"correlated_fractions": (-0.1,)},
            {"correlated_fractions": (float("nan"),)},
            {"correlated_fractions": 0.5},
        ],
        ids=[
            "loss-zero", "loss-one", "loss-nan", "loss-string",
            "fraction-above-one", "fraction-negative", "fraction-nan", "fractions-scalar",
        ],
    )
    def test_bad_fields_are_spec_errors(self, overrides):
        # Rejected when the spec is built, before anything is simulated.
        field = next(iter(overrides))
        with pytest.raises(ExperimentError, match=field):
            LossCorrelationSpec(**overrides)

    def test_unknown_protocol_is_a_spec_error(self):
        with pytest.raises(ExperimentError, match="protocols"):
            get_experiment("loss_correlation").make_spec(protocols=("bogus",))


#: Every experiment whose spec carries the replicated-simulation counts.
COUNTED_KEYS = (
    "figure8", "figure8_panel", "burstiness", "loss_correlation",
    "active_nodes", "leave_latency",
)


class TestSpecBoundaries:
    @pytest.mark.parametrize("key", COUNTED_KEYS)
    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_receivers", "abc"),
            ("num_receivers", 0),
            ("num_receivers", True),
            ("duration_units", 1),
            ("duration_units", 100.0),
            ("repetitions", 0),
            ("repetitions", "3"),
        ],
        ids=[
            "receivers-string", "receivers-zero", "receivers-bool", "duration-one",
            "duration-float", "repetitions-zero", "repetitions-string",
        ],
    )
    def test_bad_counts_are_spec_errors(self, key, field, value):
        # Rejected when the spec is built, before any task is simulated.
        with pytest.raises(ExperimentError, match=field):
            get_experiment(key).make_spec(**{field: value})

    @pytest.mark.parametrize("key", COUNTED_KEYS)
    def test_smallest_counts_are_accepted(self, key):
        spec = get_experiment(key).make_spec(
            num_receivers=1, duration_units=2, repetitions=1
        )
        assert (spec.num_receivers, spec.duration_units, spec.repetitions) == (1, 2, 1)

    @pytest.mark.parametrize(
        "latencies",
        ["abc", ("a",), (0.0, None), 1.0, (0.0, float("nan")), (0.0, -1.0), (True,)],
        ids=["string", "string-entry", "none-entry", "scalar", "nan", "negative", "bool"],
    )
    def test_bad_latencies_are_spec_errors(self, latencies):
        with pytest.raises(ExperimentError, match="latencies"):
            get_experiment("leave_latency").make_spec(latencies=latencies)
