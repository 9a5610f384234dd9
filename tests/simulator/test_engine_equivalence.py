"""Bit-for-bit conformance of every engine (cross-engine matrix).

The simulator's engines — the per-packet ``reference`` loop, the
time-unit-batched ``batched`` scan, the uint64 ``bitpacked`` scan and the
optional numba ``compiled`` lowering (NumPy packed fallback when numba is
absent) — must reproduce each other *exactly* for any seed: all of them
lower the one :class:`repro.protocols.kernel.ScanKernel` decision sequence
and consume the same pre-sampled counter-based random streams
(``RNG_SCHEME_VERSION = 5``), so every measured quantity — shared-link
packet counts, per-receiver reception counts, and the subscription-level
statistics — has to match to the last bit.  The same holds for the stacked
fast paths (``run_many``, ``simulate_session_group`` and
``star_redundancy_group``), which fold many independently seeded runs into
one scan, and for the experiment API's ``canonical_json()`` envelopes,
which must be byte-identical across engines (``engine`` is an
execution-only spec field).

Every scan-engine case below runs against the reference loop, and the scan
engines are also checked against each other directly, so a drift in any
single engine — or in the packed reductions of
:mod:`repro.protocols.bitpack` / the jitted loops of
:mod:`repro.protocols.compiled` — shows up here first.  The engine lists
come straight from the kernel registry, so a fifth engine joins the matrix
by registering itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.registry import get_experiment
from repro.layering import ExponentialLayerScheme
from repro.protocols import make_protocol
from repro.protocols.kernel import SCAN_ENGINES
from repro.simulator import (
    ENGINES,
    BernoulliLoss,
    GilbertElliottLoss,
    LayeredSessionSimulator,
    NoLoss,
    simulate_session_group,
    star_redundancy,
    star_redundancy_group,
    uniform_star,
)

SEEDS = list(range(10))
PROTOCOLS = ("uncoordinated", "deterministic", "coordinated")
# SCAN_ENGINES (imported from the kernel registry) are the chunked engines
# under test; each is asserted against the reference loop (and thereby
# against the others).
#: Loss regimes of the matrix: (shared, independent) Bernoulli rates.
LOSS_REGIMES = (
    ("mixed", 0.01, 0.05),
    ("correlated", 0.05, 0.1),
    ("independent", 0.0001, 0.08),
    ("lossless", 0.0, 0.0),
    # Dense shared loss: scan windows hold *many* correlated-loss columns,
    # so the fused multi-event drain consumes long event chains per pass.
    ("dense-shared", 0.3, 0.05),
    ("saturated-shared", 0.5, 0.1),
)


def _simulator(protocol_name, engine, shared=0.01, independent=0.05,
               num_receivers=17, duration_units=96, leave_latency=0.0,
               num_layers=6, independent_loss=None):
    return LayeredSessionSimulator(
        protocol=make_protocol(protocol_name),
        num_receivers=num_receivers,
        shared_loss=BernoulliLoss(shared) if shared > 0 else NoLoss(),
        independent_loss=(
            independent_loss
            if independent_loss is not None
            else (BernoulliLoss(independent) if independent > 0 else NoLoss())
        ),
        scheme=ExponentialLayerScheme(num_layers),
        duration_units=duration_units,
        leave_latency=leave_latency,
        engine=engine,
    )


def assert_identical(reference, candidate):
    assert candidate.shared_link_packets == reference.shared_link_packets
    assert np.array_equal(candidate.receiver_packets, reference.receiver_packets)
    assert candidate.mean_subscription_level == reference.mean_subscription_level
    assert candidate.mean_max_subscription_level == reference.mean_max_subscription_level
    assert candidate.total_sender_packets == reference.total_sender_packets


class TestEngineEquivalence:
    @pytest.mark.parametrize("engine", SCAN_ENGINES)
    @pytest.mark.parametrize("regime", LOSS_REGIMES, ids=lambda r: r[0])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_section4_protocols_match_reference(self, protocol, regime, engine):
        _name, shared, independent = regime
        for seed in SEEDS:
            reference = _simulator(protocol, "reference", shared, independent).run(seed=seed)
            candidate = _simulator(protocol, engine, shared, independent).run(seed=seed)
            assert_identical(reference, candidate)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_scan_engines_match_each_other(self, protocol, seed):
        # Transitivity through the reference holds, but the direct check
        # localises a failure to the packed scan immediately.
        batched = _simulator(protocol, "batched", 0.03, 0.08).run(seed=seed)
        bitpacked = _simulator(protocol, "bitpacked", 0.03, 0.08).run(seed=seed)
        assert_identical(batched, bitpacked)

    @pytest.mark.parametrize("engine", SCAN_ENGINES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_active_node_matches_reference(self, seed, engine):
        # The group protocol has no packed path; under ``bitpacked`` it
        # must transparently run the dense scan with identical results.
        reference = _simulator("active-node", "reference").run(seed=seed)
        candidate = _simulator("active-node", engine).run(seed=seed)
        assert_identical(reference, candidate)

    @pytest.mark.parametrize("engine", SCAN_ENGINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("latency", (0.5, 1.0, 2.7))
    def test_leave_latency_matches_reference(self, protocol, latency, engine):
        for seed in SEEDS[:6]:
            reference = _simulator(protocol, "reference", leave_latency=latency).run(seed=seed)
            candidate = _simulator(protocol, engine, leave_latency=latency).run(seed=seed)
            assert_identical(reference, candidate)

    @pytest.mark.parametrize("engine", SCAN_ENGINES)
    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_bursty_per_receiver_losses_match_reference(self, seed, engine):
        def bursty(which):
            processes = [GilbertElliottLoss(0.02, 0.3) for _ in range(9)]
            return _simulator(
                "deterministic", which, num_receivers=9, independent_loss=processes
            )
        assert_identical(bursty("reference").run(seed=seed), bursty(engine).run(seed=seed))

    def test_every_engine_is_explicitly_selectable(self):
        for engine in ENGINES:
            assert _simulator("coordinated", engine).engine == engine
        with pytest.raises(Exception):
            _simulator("coordinated", "bogus")


class TestStackedRuns:
    @pytest.mark.parametrize("engine", SCAN_ENGINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_run_many_matches_reference_solo_runs(self, protocol, engine):
        solo = [_simulator(protocol, "reference").run(seed=seed) for seed in SEEDS]
        stacked = _simulator(protocol, engine).run_many(SEEDS)
        assert len(stacked) == len(SEEDS)
        for one, many in zip(solo, stacked):
            assert_identical(one, many)

    @pytest.mark.parametrize("engine", SCAN_ENGINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_run_many_matches_solo_runs_with_latency(self, protocol, engine):
        solo = [
            _simulator(protocol, engine, leave_latency=1.5).run(seed=seed)
            for seed in SEEDS[:5]
        ]
        stacked = _simulator(protocol, engine, leave_latency=1.5).run_many(SEEDS[:5])
        for one, many in zip(solo, stacked):
            assert_identical(one, many)

    @pytest.mark.parametrize("engine", SCAN_ENGINES)
    def test_active_node_run_many_falls_back(self, engine):
        # Group state cannot stack; run_many must still give exact results.
        solo = [_simulator("active-node", engine).run(seed=seed) for seed in SEEDS[:3]]
        stacked = _simulator("active-node", engine).run_many(SEEDS[:3])
        for one, many in zip(solo, stacked):
            assert_identical(one, many)

    @pytest.mark.parametrize("engine", SCAN_ENGINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_sub_unit_window_stack_matches_reference(self, protocol, engine):
        # Wide stacks clamp the scan window below one unit's packet count;
        # force that regime directly (the window is a pure performance
        # knob) on a stacked run and require exact results anyway.
        simulator = _simulator(protocol, engine, 0.3, 0.08)
        assemble = simulator._assemble_chunk

        def sub_unit_assemble(*args, **kwargs):
            chunk = assemble(*args, **kwargs)
            chunk.scan_window = max(2, chunk.packets_per_unit // 2)
            return chunk

        simulator._assemble_chunk = sub_unit_assemble
        stacked = simulator.run_many(SEEDS[:4])
        for seed, many in zip(SEEDS[:4], stacked):
            one = _simulator(protocol, "reference", 0.3, 0.08).run(seed=seed)
            assert_identical(one, many)

    @pytest.mark.parametrize("engine", SCAN_ENGINES)
    def test_session_group_matches_per_simulator_runs(self, engine):
        grouped = simulate_session_group(
            [
                _simulator("coordinated", engine, shared=0.01, independent=rate,
                           num_receivers=11, num_layers=6)
                for rate in (0.02, 0.08)
            ],
            [SEEDS[:4], SEEDS[:4]],
        )
        for rate, results in zip((0.02, 0.08), grouped):
            for seed, result in zip(SEEDS[:4], results):
                solo = _simulator("coordinated", "reference", shared=0.01,
                                  independent=rate, num_receivers=11,
                                  num_layers=6).run(seed=seed)
                assert_identical(solo, result)

    @pytest.mark.parametrize("engine", SCAN_ENGINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_session_group_with_bursty_per_receiver_losses(self, protocol, engine):
        # The burstiness sweep's shape: per-receiver process lists that
        # differ in burstiness (Bernoulli included) ride one stacked scan.
        def variants(which):
            processes = (
                lambda: GilbertElliottLoss(0.02, 0.3, loss_good=0.01),
                lambda: GilbertElliottLoss(0.1, 0.5, loss_bad=0.8),
                lambda: BernoulliLoss(0.05),
            )
            return [
                _simulator(protocol, which, num_receivers=9,
                           independent_loss=[make() for _ in range(9)])
                for make in processes
            ]

        grouped = simulate_session_group(variants(engine), [SEEDS[:3]] * 3)
        for solo_simulator, results in zip(variants("reference"), grouped):
            for seed, result in zip(SEEDS[:3], results):
                assert_identical(solo_simulator.run(seed=seed), result)

    @pytest.mark.parametrize("engine", SCAN_ENGINES)
    def test_star_redundancy_group_matches_pointwise(self, engine):
        configs = [
            uniform_star(13, 0.02, rate, num_layers=6, duration_units=96)
            for rate in (0.02, 0.05, 0.1)
        ]
        grouped = star_redundancy_group(
            [make_protocol("deterministic") for _ in configs],
            configs,
            repetitions=4,
            base_seed=3,
            engine=engine,
        )
        for config, measurement in zip(configs, grouped):
            pointwise = star_redundancy(
                make_protocol("deterministic"), config, repetitions=4,
                base_seed=3, engine="reference",
            )
            assert measurement.redundancies == pointwise.redundancies
            assert measurement.receiver_rate_means == pointwise.receiver_rate_means


class TestCanonicalJsonAcrossEngines:
    """The experiment envelope must serialise byte-identically per engine."""

    def test_figure8_panel_canonical_json_is_engine_invariant(self):
        experiment = get_experiment("figure8_panel")
        payloads = {}
        for engine in ENGINES:
            result = experiment.run(
                shared_loss_rate=0.05,
                independent_loss_rates=(0.02, 0.08),
                num_receivers=7,
                num_layers=5,
                duration_units=48,
                repetitions=2,
                engine=engine,
            )
            payloads[engine] = result.canonical_json()
        for engine in ENGINES:
            assert payloads[engine] == payloads["reference"], engine
