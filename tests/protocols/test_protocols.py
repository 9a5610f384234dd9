"""Unit tests for the three layered congestion-control protocols."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.layering import ExponentialLayerScheme
from repro.protocols import (
    CoordinatedProtocol,
    DeterministicProtocol,
    PROTOCOL_FACTORIES,
    UncoordinatedProtocol,
    join_threshold_packets,
    make_protocol,
)
from repro.simulator.packets import Packet


def make_packet(layer: int = 1, sync_levels=(), time: float = 0.0, sequence: int = 0) -> Packet:
    return Packet(time=time, layer=layer, sync_levels=tuple(sync_levels), sequence=sequence)


def ready(protocol, num_receivers=4, num_layers=8, seed=0):
    protocol.reset(num_receivers, ExponentialLayerScheme(num_layers), np.random.default_rng(seed))
    return protocol


class TestFactoryAndThresholds:
    def test_make_protocol(self):
        assert isinstance(make_protocol("uncoordinated"), UncoordinatedProtocol)
        assert isinstance(make_protocol("Deterministic"), DeterministicProtocol)
        assert isinstance(make_protocol("COORDINATED"), CoordinatedProtocol)
        with pytest.raises(KeyError):
            make_protocol("bogus")
        assert set(PROTOCOL_FACTORIES) == {
            "uncoordinated",
            "deterministic",
            "coordinated",
            "active-node",
        }

    def test_join_threshold_packets(self):
        assert join_threshold_packets(1) == 1.0
        assert join_threshold_packets(3) == 16.0
        with pytest.raises(ProtocolError):
            join_threshold_packets(0)

    def test_protocol_requires_reset_before_use(self):
        protocol = UncoordinatedProtocol()
        levels = np.ones(2, dtype=np.int64)
        with pytest.raises(ProtocolError):
            protocol.on_packet_received(np.ones(2, dtype=bool), levels, make_packet())

    def test_reset_validates_receiver_count(self):
        with pytest.raises(ProtocolError):
            UncoordinatedProtocol().reset(0, ExponentialLayerScheme(4), np.random.default_rng())

    def test_vectorised_threshold_helpers(self):
        protocol = ready(UncoordinatedProtocol())
        levels = np.array([1, 2, 3, 4])
        assert np.allclose(protocol.join_threshold(levels), [1.0, 4.0, 16.0, 64.0])
        assert np.allclose(protocol.join_probability_per_packet(levels), [1.0, 0.25, 1 / 16, 1 / 64])


class TestUncoordinatedProtocol:
    def test_chunk_scan_without_run_streams_raises(self):
        # The chunk scan draws its join countdowns from the counter-based
        # streams an engine run binds; reset() alone does not attach them,
        # so the scan's join locator refuses to run even with no rows.
        protocol = ready(UncoordinatedProtocol(), num_receivers=3, num_layers=4)
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ProtocolError, match="bind_run_streams"):
            protocol.scan_chain_join_packed(
                None, np.zeros((0, 1), dtype=np.uint64), 0, empty, empty, empty, empty, empty
            )

    def test_level_one_joins_immediately(self):
        protocol = ready(UncoordinatedProtocol())
        levels = np.ones(4, dtype=np.int64)
        joins = protocol.on_packet_received(np.ones(4, dtype=bool), levels, make_packet())
        # With join probability 1 at level 1, every receiving receiver joins.
        assert joins.all()

    def test_only_receiving_receivers_can_join(self):
        protocol = ready(UncoordinatedProtocol())
        levels = np.ones(4, dtype=np.int64)
        received = np.array([True, False, True, False])
        joins = protocol.on_packet_received(received, levels, make_packet())
        assert not joins[~received].any()

    def test_expected_join_interval_matches_threshold(self):
        protocol = ready(UncoordinatedProtocol(), num_receivers=2000, seed=3)
        levels = np.full(2000, 3, dtype=np.int64)
        received = np.ones(2000, dtype=bool)
        joins = protocol.on_packet_received(received, levels, make_packet())
        # Per-packet probability is 1/16; with 2000 receivers the join count
        # should be close to 125.
        assert joins.sum() == pytest.approx(2000 / 16, rel=0.35)


class TestDeterministicProtocol:
    def test_joins_after_exact_threshold(self):
        protocol = ready(DeterministicProtocol(), num_receivers=1)
        levels = np.array([2], dtype=np.int64)
        received = np.array([True])
        outcomes = []
        for _ in range(4):
            outcomes.append(protocol.on_packet_received(received, levels, make_packet())[0])
        # Threshold at level 2 is 4 packets: joins only on the fourth.
        assert outcomes == [False, False, False, True]

    def test_congestion_resets_counter(self):
        protocol = ready(DeterministicProtocol(), num_receivers=1)
        levels = np.array([2], dtype=np.int64)
        received = np.array([True])
        for _ in range(3):
            protocol.on_packet_received(received, levels, make_packet())
        protocol.on_congestion(np.array([True]), levels)
        assert protocol.received_since_event[0] == 0
        assert not protocol.on_packet_received(received, levels, make_packet())[0]

    def test_join_resets_counter(self):
        protocol = ready(DeterministicProtocol(), num_receivers=1)
        levels = np.array([1], dtype=np.int64)
        received = np.array([True])
        joins = protocol.on_packet_received(received, levels, make_packet())
        assert joins[0]
        protocol.on_join(joins, levels + 1)
        assert protocol.received_since_event[0] == 0

    def test_receivers_counted_independently(self):
        protocol = ready(DeterministicProtocol(), num_receivers=2)
        levels = np.array([2, 2], dtype=np.int64)
        protocol.on_packet_received(np.array([True, False]), levels, make_packet())
        assert list(protocol.received_since_event) == [1, 0]


class TestCoordinatedProtocol:
    def test_joins_only_at_sync_points(self):
        protocol = ready(CoordinatedProtocol(), num_receivers=1)
        levels = np.array([1], dtype=np.int64)
        received = np.array([True])
        no_sync = protocol.on_packet_received(received, levels, make_packet(sync_levels=()))
        assert not no_sync[0]
        at_sync = protocol.on_packet_received(received, levels, make_packet(sync_levels=(1,)))
        assert at_sync[0]

    def test_sync_for_other_level_does_not_trigger(self):
        protocol = ready(CoordinatedProtocol(), num_receivers=1)
        levels = np.array([3], dtype=np.int64)
        received = np.array([True])
        # Plenty of received packets, but the sync point is for level 1 only.
        for _ in range(100):
            protocol.on_packet_received(received, levels, make_packet())
        joins = protocol.on_packet_received(received, levels, make_packet(sync_levels=(1, 2)))
        assert not joins[0]
        joins = protocol.on_packet_received(received, levels, make_packet(sync_levels=(1, 2, 3)))
        assert joins[0]

    def test_gate_requires_enough_clean_packets(self):
        protocol = ready(CoordinatedProtocol(sync_threshold_fraction=0.5), num_receivers=1)
        levels = np.array([3], dtype=np.int64)
        received = np.array([True])
        # Gate at level 3 is 0.5 * 16 = 8 packets.
        for _ in range(6):
            protocol.on_packet_received(received, levels, make_packet())
        early = protocol.on_packet_received(received, levels, make_packet(sync_levels=(3,)))
        assert not early[0]
        for _ in range(3):
            protocol.on_packet_received(received, levels, make_packet())
        late = protocol.on_packet_received(received, levels, make_packet(sync_levels=(3,)))
        assert late[0]

    def test_congestion_resets_progress(self):
        protocol = ready(CoordinatedProtocol(), num_receivers=1)
        levels = np.array([2], dtype=np.int64)
        received = np.array([True])
        for _ in range(10):
            protocol.on_packet_received(received, levels, make_packet())
        protocol.on_congestion(np.array([True]), levels)
        joins = protocol.on_packet_received(received, levels, make_packet(sync_levels=(2,)))
        assert not joins[0]

    def test_receivers_at_same_level_join_together(self):
        protocol = ready(CoordinatedProtocol(), num_receivers=5)
        levels = np.full(5, 2, dtype=np.int64)
        received = np.ones(5, dtype=bool)
        for _ in range(4):
            protocol.on_packet_received(received, levels, make_packet())
        joins = protocol.on_packet_received(received, levels, make_packet(sync_levels=(2,)))
        assert joins.all()

    def test_sync_threshold_fraction_validation(self):
        with pytest.raises(ProtocolError):
            CoordinatedProtocol(sync_threshold_fraction=1.5)
