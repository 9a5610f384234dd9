"""Unit tests for the counter-based stream machinery (RNG scheme 4)."""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from repro.simulator.rng import ReceiverDrawStreams, RunStreams, spawn_run_entropy


class TestRunStreams:
    def test_same_seed_same_streams(self):
        a = RunStreams(42, num_receivers=5)
        b = RunStreams(42, num_receivers=5)
        assert np.array_equal(a.shared_rng.random(100), b.shared_rng.random(100))
        assert np.array_equal(
            a.independent_rng.random(100), b.independent_rng.random(100)
        )
        assert np.array_equal(a.protocol_rng.random(100), b.protocol_rng.random(100))

    def test_streams_are_distinct(self):
        streams = RunStreams(42, num_receivers=5)
        draws = [
            streams.shared_rng.random(50),
            streams.independent_rng.random(50),
            streams.protocol_rng.random(50),
        ]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_per_receiver_independent_streams(self):
        streams = RunStreams(7, num_receivers=3, per_receiver_independent=True)
        assert streams.independent_rng is None
        rows = [rng.random(20) for rng in streams.independent_rngs]
        assert not np.array_equal(rows[0], rows[1])
        again = RunStreams(7, num_receivers=3, per_receiver_independent=True)
        assert np.array_equal(rows[2], again.independent_rngs[2].random(20))

    def test_join_stream_seeds_reproducible(self):
        a = RunStreams(3, num_receivers=4).join_stream_seeds()
        b = RunStreams(3, num_receivers=4).join_stream_seeds()
        for seed_a, seed_b in zip(a, b):
            assert np.array_equal(seed_a.generate_state(4), seed_b.generate_state(4))

    def test_none_seed_draws_fresh_entropy(self):
        a = RunStreams(None, num_receivers=2)
        b = RunStreams(None, num_receivers=2)
        assert not np.array_equal(a.shared_rng.random(20), b.shared_rng.random(20))


class TestReceiverDrawStreams:
    def test_rows_track_their_own_philox_streams(self):
        seeds = RunStreams(11, num_receivers=3).join_stream_seeds()
        field = ReceiverDrawStreams(seeds, block=4)  # tiny block forces refills
        direct = [Generator(Philox(seed)).random(10) for seed in seeds]
        taken = np.array([field.take(np.arange(3)) for _ in range(10)])
        for row in range(3):
            assert np.array_equal(taken[:, row], direct[row])

    def test_partial_row_sets_advance_independently(self):
        seeds = RunStreams(13, num_receivers=2).join_stream_seeds()
        field = ReceiverDrawStreams(seeds)
        direct = [Generator(Philox(seed)).random(5) for seed in seeds]
        assert field.take(np.array([0]))[0] == direct[0][0]
        assert field.take(np.array([0]))[0] == direct[0][1]
        both = field.take(np.array([0, 1]))
        assert both[0] == direct[0][2]
        assert both[1] == direct[1][0]


class TestSpawnRunEntropy:
    def test_deterministic_and_prefix_stable(self):
        assert spawn_run_entropy(9, 4) == spawn_run_entropy(9, 4)
        assert spawn_run_entropy(9, 2) == spawn_run_entropy(9, 4)[:2]

    def test_distinct_across_bases(self):
        pool = [seed for base in range(6) for seed in spawn_run_entropy(base, 8)]
        assert len(set(pool)) == len(pool)

    def test_entropy_is_wide(self):
        # 128-bit spawned entropy, not small sequential integers.
        assert all(seed > 2 ** 64 for seed in spawn_run_entropy(0, 4))
