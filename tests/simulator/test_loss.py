"""Unit tests for the packet-loss processes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.protocols import DeterministicProtocol
from repro.simulator import BernoulliLoss, GilbertElliottLoss, NoLoss
from repro.simulator.engine import LayeredSessionSimulator
from repro.simulator.rng import RunStreams


def dense(process, rng, n):
    """The next ``n`` outcomes of ``process`` as a boolean loss mask."""
    out = np.zeros(n, dtype=bool)
    out[process.sample_positions(rng, n)] = True
    return out


class TestNoLoss:
    def test_never_loses(self):
        rng = np.random.default_rng(0)
        process = NoLoss()
        assert process.sample_positions(rng, 100).size == 0
        assert process.average_loss_rate == 0.0
        assert isinstance(process.copy(), NoLoss)


class TestBernoulliLoss:
    def test_validation(self):
        with pytest.raises(SimulationError):
            BernoulliLoss(-0.1)
        with pytest.raises(SimulationError):
            BernoulliLoss(1.5)

    def test_zero_probability_never_loses(self):
        rng = np.random.default_rng(0)
        process = BernoulliLoss(0.0)
        assert process.sample_positions(rng, 1000).size == 0

    def test_one_probability_always_loses(self):
        rng = np.random.default_rng(0)
        process = BernoulliLoss(1.0)
        assert dense(process, rng, 100).all()

    def test_empirical_rate_matches_probability(self):
        rng = np.random.default_rng(42)
        process = BernoulliLoss(0.2)
        samples = dense(process, rng, 50_000)
        assert samples.mean() == pytest.approx(0.2, abs=0.01)
        assert process.average_loss_rate == 0.2

    def test_copy_is_independent_instance(self):
        process = BernoulliLoss(0.3)
        clone = process.copy()
        assert clone is not process
        assert clone.probability == 0.3


class TestGilbertElliottLoss:
    def test_validation(self):
        with pytest.raises(SimulationError):
            GilbertElliottLoss(1.5, 0.5)
        with pytest.raises(SimulationError):
            GilbertElliottLoss(0.5, 0.0)  # bad state must be escapable

    def test_degenerate_good_only(self):
        rng = np.random.default_rng(1)
        process = GilbertElliottLoss(0.0, 1.0, loss_good=0.0, loss_bad=1.0)
        assert not any(process.sample(rng) for _ in range(200))
        assert process.average_loss_rate == 0.0

    def test_average_loss_rate_from_stationary_distribution(self):
        process = GilbertElliottLoss(0.1, 0.3, loss_good=0.0, loss_bad=1.0)
        assert process.average_loss_rate == pytest.approx(0.25)

    def test_empirical_rate_matches_stationary(self):
        rng = np.random.default_rng(3)
        process = GilbertElliottLoss(0.05, 0.2, loss_good=0.0, loss_bad=1.0)
        samples = [process.sample(rng) for _ in range(40_000)]
        assert np.mean(samples) == pytest.approx(process.average_loss_rate, abs=0.02)

    def test_losses_are_bursty(self):
        # Consecutive losses should be more likely than under Bernoulli with
        # the same average rate.
        rng = np.random.default_rng(5)
        process = GilbertElliottLoss(0.02, 0.2, loss_good=0.0, loss_bad=1.0)
        samples = np.array([process.sample(rng) for _ in range(60_000)])
        rate = samples.mean()
        consecutive = (samples[1:] & samples[:-1]).mean()
        assert consecutive > (rate * rate) * 2

    def test_shared_batch_arrays_are_read_only(self):
        process = GilbertElliottLoss(0.1, 0.4)
        clone = process.copy()
        shared = list(GilbertElliottLoss._BATCH_STATES) + list(process._batch_switch)
        for clone_switch, switch in zip(clone._batch_switch, process._batch_switch):
            assert clone_switch is switch
        for array in shared:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[1]

    def test_copy_resets_state(self):
        process = GilbertElliottLoss(0.5, 0.5)
        clone = process.copy()
        assert clone is not process
        assert clone.p_good_to_bad == 0.5


class TestSamplePositions:
    def test_noloss_positions_empty(self):
        rng = np.random.default_rng(0)
        assert NoLoss().sample_positions(rng, 50).size == 0

    @pytest.mark.parametrize(
        "process",
        [
            BernoulliLoss(0.0),
            BernoulliLoss(0.07),
            BernoulliLoss(1.0),
            GilbertElliottLoss(0.05, 0.3),
            GilbertElliottLoss(0.02, 0.2, loss_good=0.05, loss_bad=0.95),
        ],
        ids=repr,
    )
    def test_positions_are_sorted_distinct_int64_in_range(self, process):
        # The documented return form every engine scatters from.
        rng = np.random.default_rng(5)
        for n in (0, 1, 64, 128, 1000):
            positions = process.sample_positions(rng, n)
            assert positions.dtype == np.int64
            assert np.all(np.diff(positions) > 0)
            assert positions.size == 0 or (positions[0] >= 0 and positions[-1] < n)


#: Gilbert–Elliott parameters (p_good_to_bad, p_bad_to_good, loss_good,
#: loss_bad) covering every in-run loss branch and the absorbing state.
GILBERT_PARAMS = st.one_of(
    # Both states lossy, neither certain: gap-sampled in both.
    st.tuples(
        st.sampled_from((0.01, 0.2, 0.9)),
        st.sampled_from((0.05, 0.5, 1.0)),
        st.sampled_from((0.02, 0.3)),
        st.sampled_from((0.4, 0.95)),
    ),
    # The classical all-or-nothing states.
    st.tuples(
        st.sampled_from((0.01, 0.3)), st.sampled_from((0.1, 1.0)),
        st.just(0.0), st.just(1.0),
    ),
    # Absorbing good state: the chain never leaves it.
    st.tuples(
        st.just(0.0), st.sampled_from((0.0, 0.5)),
        st.sampled_from((0.0, 0.1, 1.0)), st.just(1.0),
    ),
    # Long dwells: one sojourn spans many calls.
    st.tuples(
        st.sampled_from((0.0005, 0.002)), st.sampled_from((0.001, 0.004)),
        st.sampled_from((0.0, 0.05)), st.sampled_from((0.7, 1.0)),
    ),
)


class TestSplitInvariance:
    """The :class:`LossProcess` contract: every process produces
    bit-identical outcomes however the packets are partitioned into calls,
    which is what lets the batched engine sample whole chunks while the
    reference engine samples unit by unit."""

    @given(
        params=GILBERT_PARAMS,
        sizes=st.lists(st.integers(0, 900), min_size=1, max_size=10),
        seed=st.integers(0, 2**16),
    )
    def test_gilbert_elliott_outcomes_independent_of_call_partition(
        self, params, sizes, seed
    ):
        whole_process = GilbertElliottLoss(*params)
        whole = dense(whole_process, np.random.default_rng(seed), sum(sizes))
        process = GilbertElliottLoss(*params)
        rng = np.random.default_rng(seed)
        parts = [dense(process, rng, size) for size in sizes]
        assert np.array_equal(np.concatenate(parts), whole)
        assert process._in_bad_state == whole_process._in_bad_state

    def test_gilbert_elliott_copy_resets_carried_sojourn(self):
        params = dict(p_good_to_bad=0.01, p_bad_to_good=0.05, loss_good=0.02, loss_bad=0.9)
        process = GilbertElliottLoss(**params)
        process.sample_positions(np.random.default_rng(0), 333)
        clone = process.copy()
        fresh = GilbertElliottLoss(**params)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        assert np.array_equal(
            clone.sample_positions(rng_a, 5000), fresh.sample_positions(rng_b, 5000)
        )
        assert clone._in_bad_state == fresh._in_bad_state

    @pytest.mark.parametrize("probability", [0.01, 0.2, 0.9])
    def test_bernoulli_outcomes_independent_of_call_granularity(self, probability):
        total = 4096
        whole_process = BernoulliLoss(probability)
        whole = dense(whole_process, np.random.default_rng(3), total)
        for split in (1, 7, 128, 1000):
            process = BernoulliLoss(probability)
            rng = np.random.default_rng(3)
            parts = []
            remaining = total
            while remaining:
                step = min(split, remaining)
                parts.append(dense(process, rng, step))
                remaining -= step
            assert np.array_equal(np.concatenate(parts), whole)

    def test_copy_resets_carried_gap(self):
        process = BernoulliLoss(0.3)
        process.sample_positions(np.random.default_rng(0), 100)
        clone = process.copy()
        fresh = BernoulliLoss(0.3)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        assert np.array_equal(
            clone.sample_positions(rng_a, 200), fresh.sample_positions(rng_b, 200)
        )


class TestGilbertElliottSojournConstruction:
    """Statistical proof obligations for the block (sojourn) construction:
    ``sample_positions`` must match ``sample``'s marginal loss rate and advance
    the chain exactly ``n`` steps — including with ``loss_good > 0``."""

    PARAMS = dict(p_good_to_bad=0.05, p_bad_to_good=0.25, loss_good=0.1, loss_bad=0.9)

    def test_marginal_loss_rate_matches_scalar_sampling(self):
        rng = np.random.default_rng(17)
        blocked = GilbertElliottLoss(**self.PARAMS)
        block_rate = np.mean(
            [dense(blocked, rng, 257).mean() for _ in range(300)]
        )
        scalar = GilbertElliottLoss(**self.PARAMS)
        scalar_rate = np.mean([scalar.sample(rng) for _ in range(77_100)])
        assert block_rate == pytest.approx(scalar.average_loss_rate, abs=0.01)
        assert scalar_rate == pytest.approx(scalar.average_loss_rate, abs=0.01)

    def test_chain_state_advance_matches_stationary_occupancy(self):
        # After many n-step blocks, the fraction of time the chain parks in
        # the bad state must match the stationary distribution, proving the
        # sojourn blocks advance the state like n scalar steps would.
        rng = np.random.default_rng(23)
        process = GilbertElliottLoss(**self.PARAMS)
        stationary_bad = process.p_good_to_bad / (
            process.p_good_to_bad + process.p_bad_to_good
        )
        ends_bad = []
        for _ in range(4000):
            process.sample_positions(rng, 29)
            ends_bad.append(process._in_bad_state)
        assert np.mean(ends_bad) == pytest.approx(stationary_bad, abs=0.02)

    def test_burstiness_survives_block_sampling(self):
        rng = np.random.default_rng(31)
        process = GilbertElliottLoss(0.02, 0.2, loss_good=0.05, loss_bad=0.95)
        samples = np.concatenate([dense(process, rng, 997) for _ in range(40)])
        rate = samples.mean()
        consecutive = (samples[1:] & samples[:-1]).mean()
        assert consecutive > (rate * rate) * 2


class TestEngineLossLayout:
    """How the engines read the loss streams (RNG scheme 5)."""

    def test_single_independent_process_is_unit_receiver_packet_ordered(self):
        # One independent-loss process shared by every receiver is read as
        # one stream in (unit, receiver, packet) order, however many units
        # one call covers: the chunked engine's k-unit call, the reference
        # loop's k one-unit calls and one direct draw of k*R*P outcomes all
        # agree.
        receivers, units, seed = 3, 5, 11
        simulator = LayeredSessionSimulator(
            DeterministicProtocol(), receivers, BernoulliLoss(0.03), BernoulliLoss(0.1)
        )
        per_unit = simulator.schedule.packets_per_unit
        width = units * per_unit

        def receiver_mask(rows, cols):
            mask = np.zeros((receivers, width), dtype=bool)
            mask[rows, cols] = True
            return mask

        shared_cols, rows, cols = simulator._loss_positions(
            simulator._make_run_context(seed), units, per_unit
        )
        streams = RunStreams(seed, receivers)
        flat = dense(BernoulliLoss(0.1), streams.independent_rng, units * receivers * per_unit)
        expected = flat.reshape(units, receivers, per_unit).transpose(1, 0, 2)
        assert np.array_equal(receiver_mask(rows, cols), expected.reshape(receivers, width))
        assert np.array_equal(
            shared_cols, BernoulliLoss(0.03).sample_positions(streams.shared_rng, width)
        )

        context = simulator._make_run_context(seed)
        unit_rows, unit_cols = [], []
        for unit in range(units):
            _shared, one_rows, one_cols = simulator._loss_positions(context, 1, per_unit)
            unit_rows.append(one_rows)
            unit_cols.append(one_cols + unit * per_unit)
        assert np.array_equal(
            receiver_mask(np.concatenate(unit_rows), np.concatenate(unit_cols)),
            receiver_mask(rows, cols),
        )

    def test_per_receiver_processes_read_one_spawned_stream_each(self):
        # A per-receiver process list reads receiver r's losses from its own
        # spawned stream r, in packet order, and a k-unit call equals k
        # one-unit calls.
        receivers, units, seed = 3, 4, 23
        processes = [
            BernoulliLoss(0.05),
            GilbertElliottLoss(0.05, 0.3),
            BernoulliLoss(0.2),
        ]
        simulator = LayeredSessionSimulator(
            DeterministicProtocol(), receivers, BernoulliLoss(0.03), processes
        )
        per_unit = simulator.schedule.packets_per_unit
        width = units * per_unit

        def receiver_mask(rows, cols):
            mask = np.zeros((receivers, width), dtype=bool)
            mask[rows, cols] = True
            return mask

        _shared, rows, cols = simulator._loss_positions(
            simulator._make_run_context(seed), units, per_unit
        )
        streams = RunStreams(seed, receivers, per_receiver_independent=True)
        expected = np.stack([
            dense(process.copy(), rng, width)
            for process, rng in zip(processes, streams.independent_rngs)
        ])
        assert np.array_equal(receiver_mask(rows, cols), expected)

        context = simulator._make_run_context(seed)
        unit_rows, unit_cols = [], []
        for unit in range(units):
            _shared, one_rows, one_cols = simulator._loss_positions(context, 1, per_unit)
            unit_rows.append(one_rows)
            unit_cols.append(one_cols + unit * per_unit)
        assert np.array_equal(
            receiver_mask(np.concatenate(unit_rows), np.concatenate(unit_cols)), expected
        )
