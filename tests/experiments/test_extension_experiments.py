"""Tests for the Section-5 extension experiments (active nodes, leave latency, burstiness)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import gilbert_for_average_loss
from repro.experiments.registry import get_experiment
from repro.simulator import BernoulliLoss, GilbertElliottLoss


class TestActiveNodeExperiment:
    @pytest.fixture(scope="class")
    def run(self):
        return get_experiment("active_nodes").run(
            independent_loss_rates=(0.02, 0.08),
            num_receivers=20,
            duration_units=400,
            repetitions=2,
        )

    @pytest.fixture(scope="class")
    def result(self, run):
        return run.payload

    def test_redundancy_of_one_is_feasible(self, result):
        assert result.active_node_redundancy_near_one

    def test_active_node_is_lowest(self, result):
        assert result.active_node_is_lowest

    def test_table_renders(self, run):
        table = run.table()
        assert "active-node" in table and "mean_receiver_rate" in table

    def test_receiver_rates_reported_for_all_protocols(self, result):
        assert set(result.mean_receiver_rate) == set(result.redundancy)
        assert all(len(v) == 2 for v in result.mean_receiver_rate.values())

    def test_protocol_subset_is_judged_on_what_it_ran(self):
        result = get_experiment("active_nodes").run(
            protocols=("active-node", "deterministic"),
            independent_loss_rates=(0.02,),
            num_receivers=8,
            duration_units=100,
            repetitions=1,
        )
        assert set(result.payload.redundancy) == {"active-node", "deterministic"}
        assert isinstance(result.payload.active_node_is_lowest, bool)

    @pytest.mark.parametrize(
        "protocols",
        [("coordinated", "deterministic"), ("active-node", "bogus")],
        ids=["without-active-node", "unknown"],
    )
    def test_rejects_protocols_it_cannot_judge(self, protocols):
        with pytest.raises(ExperimentError, match="protocols"):
            get_experiment("active_nodes").make_spec(protocols=protocols)


class TestLeaveLatencyExperiment:
    @pytest.fixture(scope="class")
    def run(self):
        return get_experiment("leave_latency").run(
            latencies=(0.0, 2.0, 4.0),
            num_receivers=20,
            duration_units=400,
            repetitions=2,
        )

    @pytest.fixture(scope="class")
    def result(self, run):
        return run.payload

    def test_redundancy_increases(self, result):
        assert result.redundancy_increases_with_latency
        assert result.monotone_within_tolerance

    def test_receiver_rate_unchanged_by_latency(self, result):
        rates = result.mean_receiver_rate
        assert max(rates) - min(rates) <= 0.05 * max(rates)

    def test_table_renders(self, run):
        assert "leave_latency" in run.table()

    @pytest.mark.parametrize("bad", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_validation(self, bad):
        # The spec itself refuses the latency, so nothing is simulated; NaN
        # fails every comparison, so a ``< 0`` check would let it through.
        experiment = get_experiment("leave_latency")
        with pytest.raises(ExperimentError, match="latencies"):
            experiment.make_spec(latencies=(0.0, bad))
        assert experiment.make_spec(latencies=(0.0, float("inf"))).latencies[-1] == float("inf")


class TestBurstinessExperiment:
    def test_gilbert_factory_matches_average_loss(self):
        process = gilbert_for_average_loss(0.05, 4.0)
        assert isinstance(process, GilbertElliottLoss)
        assert process.average_loss_rate == pytest.approx(0.05)
        assert isinstance(gilbert_for_average_loss(0.05, 1.0), BernoulliLoss)

    def test_gilbert_factory_validation(self):
        with pytest.raises(ExperimentError):
            gilbert_for_average_loss(0.0, 2.0)
        with pytest.raises(ExperimentError):
            gilbert_for_average_loss(0.05, 0.5)
        with pytest.raises(ExperimentError):
            gilbert_for_average_loss(0.99, 2.0)

    def test_ordering_preserved_under_burstiness(self):
        run = get_experiment("burstiness").run(
            burst_lengths=(1.0, 4.0),
            num_receivers=20,
            duration_units=400,
            repetitions=2,
        )
        result = run.payload
        assert result.ordering_preserved
        assert "mean_burst_length" in run.table()
        assert result.max_shift_from_bernoulli("coordinated") < 1.5

    def test_protocol_subset_is_judged_without_the_missing_protocols(self):
        result = get_experiment("burstiness").run(
            protocols=("deterministic",),
            burst_lengths=(1.0, 4.0),
            num_receivers=8,
            duration_units=100,
            repetitions=1,
        )
        assert result.verdict.ok
        assert {record["protocol"] for record in result.records} == {"deterministic"}

    def test_unknown_protocol_is_a_typed_error_naming_the_field(self):
        with pytest.raises(ExperimentError, match="protocols"):
            get_experiment("burstiness").make_spec(protocols=("deterministic", "bogus"))
        with pytest.raises(ExperimentError, match="protocols"):
            get_experiment("burstiness").run(
                protocols=("bogus",), repetitions=1, duration_units=100
            )
