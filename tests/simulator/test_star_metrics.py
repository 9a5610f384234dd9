"""Unit tests for star configurations, replicated runs, and redundancy summaries."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.protocols import make_protocol
from repro.simulator import (
    RedundancyMeasurement,
    StarExperimentConfig,
    build_simulator,
    simulate_star,
    spawn_run_entropy,
    star_redundancy,
    two_receiver_star,
    uniform_star,
)


class TestStarConfigs:
    def test_uniform_star(self):
        config = uniform_star(10, 0.001, 0.05)
        assert config.num_receivers == 10
        assert len(config.independent_loss_rates) == 10
        assert set(config.independent_loss_rates) == {0.05}

    def test_two_receiver_star(self):
        config = two_receiver_star(0.01, 0.02, 0.03)
        assert config.num_receivers == 2
        assert config.independent_loss_rates == (0.02, 0.03)

    def test_validation(self):
        with pytest.raises(SimulationError):
            StarExperimentConfig(0, 0.1, [])
        with pytest.raises(SimulationError):
            StarExperimentConfig(2, 0.1, [0.1])
        with pytest.raises(SimulationError):
            StarExperimentConfig(1, 1.5, [0.1])
        with pytest.raises(SimulationError):
            StarExperimentConfig(1, 0.1, [1.5])

    def test_build_simulator_heterogeneous_losses(self):
        config = two_receiver_star(0.0, 0.1, 0.0, duration_units=100)
        simulator = build_simulator(make_protocol("deterministic"), config)
        assert simulator.num_receivers == 2
        result = simulator.run(seed=0)
        assert list(result.independent_loss_rates) == [0.1, 0.0]

    def test_simulate_star_runs(self):
        config = uniform_star(5, 0.001, 0.02, duration_units=120)
        result = simulate_star(make_protocol("coordinated"), config, seed=1)
        assert result.num_receivers == 5
        assert result.redundancy >= 1.0 - 1e-9


class TestReplicationAndSummary:
    def test_star_redundancy_uses_distinct_seeds(self):
        config = uniform_star(4, 0.001, 0.05, duration_units=120)
        protocol = make_protocol("uncoordinated")
        results = build_simulator(protocol, config).run_many(spawn_run_entropy(5, 3))
        assert len(results) == 3
        packet_counts = {tuple(r.receiver_packets) for r in results}
        assert len(packet_counts) == 3
        measurement = star_redundancy(protocol, config, repetitions=3, base_seed=5)
        assert measurement.redundancies == [r.redundancy for r in results]

    def test_star_redundancy_validation(self):
        config = uniform_star(4, 0.001, 0.05, duration_units=120)
        with pytest.raises(SimulationError, match="repetitions"):
            star_redundancy(make_protocol("coordinated"), config, repetitions=0)

    def test_star_redundancy_summary(self):
        config = uniform_star(6, 0.001, 0.05, duration_units=150)
        measurement = star_redundancy(
            make_protocol("coordinated"), config, repetitions=3, base_seed=0
        )
        assert isinstance(measurement, RedundancyMeasurement)
        assert measurement.protocol == "coordinated"
        assert measurement.num_receivers == 6
        assert len(measurement.redundancies) == 3
        assert measurement.mean_redundancy == pytest.approx(
            sum(measurement.redundancies) / 3
        )
        assert measurement.statistics.ci_low <= measurement.mean_redundancy
        assert measurement.mean_redundancy <= measurement.statistics.ci_high
        assert measurement.independent_loss_rate == pytest.approx(0.05)
        assert measurement.mean_receiver_rate > 0
        assert "coordinated" in str(measurement)

    def test_measurement_is_reproducible(self):
        config = uniform_star(4, 0.001, 0.03, duration_units=120)
        first = star_redundancy(make_protocol("deterministic"), config, repetitions=2)
        second = star_redundancy(make_protocol("deterministic"), config, repetitions=2)
        assert first.redundancies == second.redundancies
