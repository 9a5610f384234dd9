"""Unit tests for the leave-latency extension of the packet-level simulator."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.layering import ExponentialLayerScheme
from repro.protocols import DeterministicProtocol, make_protocol
from repro.simulator import BernoulliLoss, LayeredSessionSimulator, NoLoss, simulate_layered_session


class TestConfiguration:
    @pytest.mark.parametrize("latency", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_invalid_latency_rejected(self, latency):
        # NaN fails every comparison, so a ``< 0`` check would let it through.
        with pytest.raises(SimulationError, match="leave_latency"):
            LayeredSessionSimulator(
                DeterministicProtocol(), 2, NoLoss(), NoLoss(), leave_latency=latency
            )

    def test_infinite_latency_never_drops_and_engines_agree(self):
        # An infinite latency is valid: leaves never propagate, so the link
        # keeps every layer any receiver ever held.
        runs = {
            engine: simulate_layered_session(
                make_protocol("coordinated"), 6, 0.01, 0.08, num_layers=5,
                duration_units=120, leave_latency=float("inf"), seed=2, engine=engine,
            )
            for engine in ("reference", "bitpacked")
        }
        assert runs["bitpacked"].shared_link_packets == runs["reference"].shared_link_packets
        assert (runs["bitpacked"].receiver_packets == runs["reference"].receiver_packets).all()
        assert runs["bitpacked"].leave_latency == float("inf")

    def test_latency_recorded_in_result(self):
        result = simulate_layered_session(
            DeterministicProtocol(), 3, 0.001, 0.02, duration_units=100,
            leave_latency=2.0, seed=0,
        )
        assert result.leave_latency == 2.0


class TestBehaviour:
    def test_zero_latency_matches_previous_semantics(self):
        base = simulate_layered_session(
            make_protocol("coordinated"), 10, 0.001, 0.05, duration_units=300, seed=3
        )
        explicit_zero = simulate_layered_session(
            make_protocol("coordinated"), 10, 0.001, 0.05, duration_units=300,
            leave_latency=0.0, seed=3,
        )
        assert base.shared_link_packets == explicit_zero.shared_link_packets
        assert (base.receiver_packets == explicit_zero.receiver_packets).all()

    def test_lossless_runs_unaffected_by_latency(self):
        without = simulate_layered_session(
            DeterministicProtocol(), 5, 0.0, 0.0, num_layers=5, duration_units=200, seed=1
        )
        with_latency = simulate_layered_session(
            DeterministicProtocol(), 5, 0.0, 0.0, num_layers=5, duration_units=200,
            leave_latency=4.0, seed=1,
        )
        assert with_latency.redundancy == pytest.approx(without.redundancy)
        assert with_latency.shared_link_packets == without.shared_link_packets

    def test_latency_increases_shared_link_carriage(self):
        common = dict(
            num_receivers=20,
            shared_loss_rate=0.0001,
            independent_loss_rate=0.08,
            duration_units=500,
            seed=5,
        )
        instant = simulate_layered_session(make_protocol("coordinated"), **common)
        delayed = simulate_layered_session(
            make_protocol("coordinated"), leave_latency=4.0, **common
        )
        assert delayed.shared_link_rate > instant.shared_link_rate
        assert delayed.redundancy > instant.redundancy

    def test_receiver_rates_not_inflated_by_latency(self):
        common = dict(
            num_receivers=15,
            shared_loss_rate=0.0001,
            independent_loss_rate=0.05,
            duration_units=400,
            seed=7,
        )
        instant = simulate_layered_session(make_protocol("deterministic"), **common)
        delayed = simulate_layered_session(
            make_protocol("deterministic"), leave_latency=3.0, **common
        )
        # Reception stops immediately on a leave, so receiver rates are
        # essentially unchanged (identical random stream => identical rates).
        assert delayed.mean_receiver_rate == pytest.approx(
            instant.mean_receiver_rate, rel=0.02
        )

    def test_latency_with_per_receiver_loss_processes(self):
        simulator = LayeredSessionSimulator(
            make_protocol("coordinated"),
            num_receivers=3,
            shared_loss=NoLoss(),
            independent_loss=[BernoulliLoss(0.1), BernoulliLoss(0.05), BernoulliLoss(0.0)],
            scheme=ExponentialLayerScheme(6),
            duration_units=300,
            leave_latency=1.5,
        )
        result = simulator.run(seed=0)
        assert result.redundancy >= 1.0
