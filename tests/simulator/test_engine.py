"""Unit tests for the packet-level layered-session simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.layering import ExponentialLayerScheme
from repro.protocols import CoordinatedProtocol, DeterministicProtocol, make_protocol
from repro.simulator import (
    BernoulliLoss,
    LayeredSessionSimulator,
    NoLoss,
    simulate_layered_session,
)


class TestConfigurationValidation:
    def test_requires_receivers_and_duration(self):
        with pytest.raises(SimulationError):
            LayeredSessionSimulator(DeterministicProtocol(), 0, NoLoss(), NoLoss())
        with pytest.raises(SimulationError):
            LayeredSessionSimulator(DeterministicProtocol(), 2, NoLoss(), NoLoss(), duration_units=1)

    def test_warmup_bounds(self):
        with pytest.raises(SimulationError):
            LayeredSessionSimulator(
                DeterministicProtocol(), 2, NoLoss(), NoLoss(), duration_units=10, warmup_units=10
            )

    def test_per_receiver_loss_count_must_match(self):
        with pytest.raises(SimulationError):
            LayeredSessionSimulator(
                DeterministicProtocol(),
                3,
                NoLoss(),
                [BernoulliLoss(0.1), BernoulliLoss(0.2)],
            )


class TestChunkPlan:
    """The chunk plan: the stack-height rule by default, an explicit width as given."""

    ROWS = (1, 17, 100, 160, 900, 10_000)

    @staticmethod
    def _simulator(chunk_units=None, num_layers=8, duration_units=1000, warmup_units=None):
        return LayeredSessionSimulator(
            DeterministicProtocol(), 4, NoLoss(), NoLoss(),
            scheme=ExponentialLayerScheme(num_layers),
            duration_units=duration_units, warmup_units=warmup_units,
            chunk_units=chunk_units,
        )

    @staticmethod
    def _check_tiling(simulator, plan):
        # The chunks tile the run in order and none crosses the warm-up
        # boundary: each is wholly measured or wholly warm-up.
        unit = 0
        for start, count, measuring in plan:
            assert start == unit and count >= 1
            assert measuring == (start >= simulator.warmup_units)
            assert (start < simulator.warmup_units) == (
                start + count <= simulator.warmup_units
            )
            unit += count
        assert unit == simulator.duration_units

    @pytest.mark.parametrize("num_layers", (2, 6, 8, 10))
    def test_default_widths_stay_in_bounds(self, num_layers):
        simulator = self._simulator(num_layers=num_layers)
        for rows in self.ROWS:
            plan = simulator._chunk_plan(rows)
            self._check_tiling(simulator, plan)
            widths = {count for _start, count, _measuring in plan}
            # Only the segment-closing chunks may be narrower than the rule.
            assert 8 <= max(widths) <= 64
            assert sum(count == max(widths) for _s, count, _m in plan) >= len(plan) - 2

    def test_default_widths_do_not_grow_with_rows(self):
        simulator = self._simulator()
        widths = [
            max(count for _start, count, _measuring in simulator._chunk_plan(rows))
            for rows in self.ROWS
        ]
        assert widths == sorted(widths, reverse=True)
        # Short stacks reach the 64-unit cap, the tallest the 8-unit floor,
        # and the benchmark's stack heights fall in between.
        assert widths[0] == 64 and widths[-1] == 8
        assert simulator._chunk_plan(160)[0][1] == 51
        assert simulator._chunk_plan(900)[0][1] == 9

    @pytest.mark.parametrize("warmup_units", (0, 1, 37, 250, 999))
    def test_no_chunk_crosses_the_warmup_boundary(self, warmup_units):
        for chunk_units in (None, 1, 7, 64, 5000):
            simulator = self._simulator(chunk_units, warmup_units=warmup_units)
            for rows in (1, 160, 900):
                self._check_tiling(simulator, simulator._chunk_plan(rows))

    @pytest.mark.parametrize("chunk_units", (1, 3, 8, 13, 100))
    def test_explicit_width_is_used_as_given(self, chunk_units):
        simulator = self._simulator(chunk_units, duration_units=400, warmup_units=100)
        for rows in self.ROWS:
            plan = simulator._chunk_plan(rows)
            self._check_tiling(simulator, plan)
            expected = []
            for low, high in ((0, 100), (100, 400)):
                expected += [
                    min(chunk_units, high - unit) for unit in range(low, high, chunk_units)
                ]
            assert [count for _start, count, _measuring in plan] == expected

    def test_rejects_non_positive_width(self):
        with pytest.raises(SimulationError, match="chunk_units"):
            self._simulator(0)


class TestLosslessBehaviour:
    def test_receivers_climb_to_top_layer_and_stay(self):
        result = simulate_layered_session(
            DeterministicProtocol(),
            num_receivers=5,
            shared_loss_rate=0.0,
            independent_loss_rate=0.0,
            num_layers=6,
            duration_units=300,
            seed=1,
        )
        top_rate = 2.0 ** (6 - 1)
        # After warm-up every receiver receives the full aggregate rate.
        assert result.max_receiver_rate == pytest.approx(top_rate, rel=0.02)
        assert result.mean_receiver_rate == pytest.approx(top_rate, rel=0.02)
        assert result.redundancy == pytest.approx(1.0, rel=0.02)
        assert result.mean_subscription_level == pytest.approx(6.0, abs=0.05)

    def test_lossless_coordinated_also_reaches_top(self):
        result = simulate_layered_session(
            CoordinatedProtocol(),
            num_receivers=4,
            shared_loss_rate=0.0,
            independent_loss_rate=0.0,
            num_layers=5,
            duration_units=300,
            seed=2,
        )
        assert result.mean_subscription_level == pytest.approx(5.0, abs=0.1)
        assert result.redundancy == pytest.approx(1.0, rel=0.02)


class TestMeasurementAccounting:
    def test_result_metadata(self):
        result = simulate_layered_session(
            DeterministicProtocol(),
            num_receivers=3,
            shared_loss_rate=0.01,
            independent_loss_rate=0.02,
            num_layers=4,
            duration_units=100,
            seed=0,
        )
        assert result.protocol == "deterministic"
        assert result.num_receivers == 3
        assert result.num_layers == 4
        assert result.duration_units == 100
        assert result.warmup_units == 25
        assert result.measured_units == 75
        assert result.shared_loss_rate == pytest.approx(0.01)
        assert np.allclose(result.independent_loss_rates, 0.02)
        assert result.total_sender_packets == 100 * 8
        assert "deterministic" in result.summary()

    def test_receiver_rates_bounded_by_link_rate(self):
        result = simulate_layered_session(
            make_protocol("uncoordinated"),
            num_receivers=10,
            shared_loss_rate=0.001,
            independent_loss_rate=0.03,
            duration_units=200,
            seed=3,
        )
        assert result.redundancy >= 1.0 - 1e-9
        assert (result.receiver_rates <= result.shared_link_rate + 1e-9).all()
        assert result.shared_link_rate <= 2.0 ** (result.num_layers - 1) + 1e-9

    def test_explicit_warmup_used(self):
        simulator = LayeredSessionSimulator(
            DeterministicProtocol(),
            num_receivers=2,
            shared_loss=NoLoss(),
            independent_loss=NoLoss(),
            scheme=ExponentialLayerScheme(4),
            duration_units=50,
            warmup_units=10,
        )
        result = simulator.run(seed=0)
        assert result.warmup_units == 10
        assert result.measured_units == 40

    def test_heterogeneous_per_receiver_loss(self):
        simulator = LayeredSessionSimulator(
            DeterministicProtocol(),
            num_receivers=2,
            shared_loss=NoLoss(),
            independent_loss=[BernoulliLoss(0.3), BernoulliLoss(0.0)],
            scheme=ExponentialLayerScheme(6),
            duration_units=300,
        )
        result = simulator.run(seed=4)
        assert list(result.independent_loss_rates) == [0.3, 0.0]
        # The lossless receiver must end up much faster than the lossy one.
        assert result.receiver_rates[1] > 3.0 * result.receiver_rates[0]

    def test_seed_reproducibility(self):
        first = simulate_layered_session(
            make_protocol("uncoordinated"), 5, 0.001, 0.05, duration_units=150, seed=11
        )
        second = simulate_layered_session(
            make_protocol("uncoordinated"), 5, 0.001, 0.05, duration_units=150, seed=11
        )
        assert first.shared_link_packets == second.shared_link_packets
        assert (first.receiver_packets == second.receiver_packets).all()

    def test_different_seeds_differ(self):
        first = simulate_layered_session(
            make_protocol("uncoordinated"), 5, 0.001, 0.05, duration_units=150, seed=1
        )
        second = simulate_layered_session(
            make_protocol("uncoordinated"), 5, 0.001, 0.05, duration_units=150, seed=2
        )
        assert (first.receiver_packets != second.receiver_packets).any()


class TestProtocolDynamics:
    def test_loss_keeps_levels_below_top(self):
        result = simulate_layered_session(
            DeterministicProtocol(),
            num_receivers=10,
            shared_loss_rate=0.0001,
            independent_loss_rate=0.08,
            num_layers=8,
            duration_units=400,
            seed=5,
        )
        assert result.mean_subscription_level < 5.0
        assert result.mean_subscription_level > 1.0

    def test_higher_loss_means_lower_rates(self):
        low = simulate_layered_session(
            DeterministicProtocol(), 10, 0.0001, 0.01, duration_units=400, seed=6
        )
        high = simulate_layered_session(
            DeterministicProtocol(), 10, 0.0001, 0.1, duration_units=400, seed=6
        )
        assert high.mean_receiver_rate < low.mean_receiver_rate

    def test_more_receivers_do_not_reduce_max_level(self):
        few = simulate_layered_session(
            make_protocol("uncoordinated"), 2, 0.0001, 0.05, duration_units=300, seed=7
        )
        many = simulate_layered_session(
            make_protocol("uncoordinated"), 40, 0.0001, 0.05, duration_units=300, seed=7
        )
        assert many.mean_max_subscription_level >= few.mean_max_subscription_level - 0.2


class TestDegenerateRedundancy:
    """Regression: a run where no receiver decodes anything must not report
    the ideal redundancy of 1.0 while the shared link carried packets."""

    def test_total_loss_reports_infinite_redundancy(self):
        # Every packet is lost at every receiver, but the shared link still
        # carries layer 1 (receivers stay subscribed), so the carried rate
        # is pure waste: redundancy is inf, not the vacuous ideal 1.0.
        simulator = LayeredSessionSimulator(
            DeterministicProtocol(),
            num_receivers=3,
            shared_loss=BernoulliLoss(1.0),
            independent_loss=NoLoss(),
            scheme=ExponentialLayerScheme(4),
            duration_units=40,
        )
        result = simulator.run(seed=0)
        assert result.shared_link_packets > 0
        assert result.max_receiver_rate == 0.0
        assert result.redundancy == float("inf")

    def test_total_loss_matches_reference_engine(self):
        def run(engine):
            return LayeredSessionSimulator(
                DeterministicProtocol(),
                num_receivers=3,
                shared_loss=BernoulliLoss(1.0),
                independent_loss=NoLoss(),
                scheme=ExponentialLayerScheme(4),
                duration_units=40,
                engine=engine,
            ).run(seed=7)

        bitpacked, reference = run("bitpacked"), run("reference")
        assert bitpacked.shared_link_packets == reference.shared_link_packets
        assert np.array_equal(bitpacked.receiver_packets, reference.receiver_packets)
        assert bitpacked.redundancy == reference.redundancy == float("inf")

    def test_idle_link_reports_vacuous_one(self):
        # Only when the link also carried nothing is 1.0 the right answer;
        # such results cannot come out of an engine run (layer 1 is always
        # carried), so construct the envelope directly.
        result = simulate_layered_session(
            DeterministicProtocol(),
            num_receivers=2,
            shared_loss_rate=0.0,
            independent_loss_rate=0.0,
            num_layers=3,
            duration_units=40,
            seed=0,
        )
        import dataclasses

        idle = dataclasses.replace(
            result,
            shared_link_packets=0,
            receiver_packets=np.zeros_like(result.receiver_packets),
        )
        assert idle.redundancy == 1.0


class TestPerRunIsolation:
    """RNG scheme 4: a seeded run depends only on its seed — never on what
    earlier runs consumed from a (stateful) loss process."""

    def test_gilbert_elliott_rerun_is_identical(self):
        from repro.simulator import GilbertElliottLoss

        simulator = LayeredSessionSimulator(
            DeterministicProtocol(),
            num_receivers=4,
            shared_loss=GilbertElliottLoss(0.05, 0.3),
            independent_loss=BernoulliLoss(0.05),
            scheme=ExponentialLayerScheme(5),
            duration_units=60,
        )
        first = simulator.run(seed=11)
        simulator.run(seed=99)  # consume state in between
        again = simulator.run(seed=11)
        assert first.shared_link_packets == again.shared_link_packets
        assert np.array_equal(first.receiver_packets, again.receiver_packets)
