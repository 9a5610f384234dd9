"""Bit-for-bit conformance of every engine (cross-engine matrix).

The simulator's engines — the per-packet ``reference`` loop and the
uint64 ``bitpacked`` chunk scan — must reproduce each other *exactly* for
any seed: both drive the one :class:`repro.protocols.kernel.ScanKernel`
decision sequence and consume the same pre-sampled counter-based random streams
(``RNG_SCHEME_VERSION = 5``), so every measured quantity — shared-link
packet counts, per-receiver reception counts, and the subscription-level
statistics — has to match to the last bit.  The same holds for the stacked
fast paths (``run_many``, ``simulate_session_group`` and
``star_redundancy_group``), which fold many independently seeded runs into
one scan, and for the experiment API's ``canonical_json()`` envelopes,
which must be byte-identical across engines (``engine`` is an
execution-only spec field).

Every chunk-engine case below runs against the reference loop in each of
several chunk geometries (chunk sizes and scan-window widths), so a drift
in the scan — at a chunk or window edge, or in the packed reductions of
:mod:`repro.protocols.bitpack` — shows up here first.  The engine lists
come straight from the kernel registry, so a new engine joins the matrix
by registering itself.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.registry import get_experiment
from repro.layering import ExponentialLayerScheme
from repro.protocols import make_protocol
from repro.protocols.kernel import (
    ENGINE_ALIASES,
    PACKED_OPS,
    backend_ops_for,
    resolve_engine,
)
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
#: The chunked engines under test (every registered engine but the
#: reference loop); each is asserted against the reference loop.
CHUNK_ENGINES = tuple(engine for engine in ENGINES if engine != "reference")
#: Chunk geometries of the chunked engines, as ``(chunk_units,
#: scan_window_units)`` with ``None`` for the engine default.  Chunk and
#: scan-window edges are performance knobs only, so every geometry must
#: match the reference loop exactly: the default sizes chunks from the
#: stack height (64 units for these short stacks), eight-unit chunks pin
#: the former fixed default, one-unit chunks move every chunk edge, and
#: odd 13-unit chunks drained through the narrowest (32-column) windows
#: move every window edge off the chunk edges.
GEOMETRIES = {
    "default": (None, None),
    "eight-unit": (8, None),
    "unit-chunks": (1, 1),
    "narrow-windows": (13, 0),
}
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
               num_layers=6, independent_loss=None, geometry="default"):
    chunk_units, window_units = GEOMETRIES[geometry]
    simulator = LayeredSessionSimulator(
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
        chunk_units=chunk_units,
    )
    if window_units is not None:
        simulator.scan_window_units = window_units
    return simulator


def assert_identical(reference, candidate):
    assert candidate.shared_link_packets == reference.shared_link_packets
    assert np.array_equal(candidate.receiver_packets, reference.receiver_packets)
    assert candidate.mean_subscription_level == reference.mean_subscription_level
    assert candidate.mean_max_subscription_level == reference.mean_max_subscription_level
    assert candidate.total_sender_packets == reference.total_sender_packets


class TestEngineEquivalence:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    @pytest.mark.parametrize("regime", LOSS_REGIMES, ids=lambda r: r[0])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_section4_protocols_match_reference(self, protocol, regime, engine, geometry):
        _name, shared, independent = regime
        for seed in SEEDS:
            reference = _simulator(protocol, "reference", shared, independent).run(seed=seed)
            candidate = _simulator(protocol, engine, shared, independent,
                                   geometry=geometry).run(seed=seed)
            assert_identical(reference, candidate)

    @pytest.mark.parametrize("retired", sorted(ENGINE_ALIASES))
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_retired_engine_names_match_reference(self, protocol, seed, retired):
        # The retired names select the engine they alias, which must agree
        # with the reference loop like any other.
        candidate = _simulator(protocol, retired, 0.03, 0.08)
        assert candidate.engine == ENGINE_ALIASES[retired]
        reference = _simulator(protocol, "reference", 0.03, 0.08).run(seed=seed)
        assert_identical(reference, candidate.run(seed=seed))

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    @pytest.mark.parametrize("latency", (0.0, 1.0))
    @pytest.mark.parametrize("regime", LOSS_REGIMES, ids=lambda r: r[0])
    def test_active_node_matches_reference(self, regime, latency, engine, geometry):
        # The group protocol has no packed scan hooks; under ``bitpacked``
        # it runs its own group drain over the packed receivable words
        # (shared losses clear whole columns, so per-column loss counts
        # decide every group condition) with identical results.
        _name, shared, independent = regime
        for seed in SEEDS:
            reference = _simulator("active-node", "reference", shared, independent,
                                   leave_latency=latency).run(seed=seed)
            candidate = _simulator("active-node", engine, shared, independent,
                                   leave_latency=latency,
                                   geometry=geometry).run(seed=seed)
            assert_identical(reference, candidate)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("latency", (0.5, 1.0, 2.7))
    def test_leave_latency_matches_reference(self, protocol, latency, engine, geometry):
        for seed in SEEDS[:6]:
            reference = _simulator(protocol, "reference", leave_latency=latency).run(seed=seed)
            candidate = _simulator(protocol, engine, leave_latency=latency,
                                   geometry=geometry).run(seed=seed)
            assert_identical(reference, candidate)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_bursty_per_receiver_losses_match_reference(self, seed, engine, geometry):
        def bursty(which, geometry="default"):
            processes = [GilbertElliottLoss(0.02, 0.3) for _ in range(9)]
            return _simulator(
                "deterministic", which, num_receivers=9, independent_loss=processes,
                geometry=geometry,
            )
        assert_identical(
            bursty("reference").run(seed=seed), bursty(engine, geometry).run(seed=seed)
        )

    def test_every_engine_is_explicitly_selectable(self):
        for engine in ENGINES:
            assert _simulator("coordinated", engine).engine == engine
        for retired, engine in ENGINE_ALIASES.items():
            assert _simulator("coordinated", retired).engine == engine
        with pytest.raises(Exception):
            _simulator("coordinated", "bogus")


class TestEngineRegistry:
    def test_two_engines_and_their_retired_aliases(self):
        assert ENGINES == ("bitpacked", "reference")
        assert ENGINE_ALIASES == {"batched": "bitpacked", "compiled": "bitpacked"}
        for engine in ENGINES:
            assert resolve_engine(engine) == engine
        for retired, engine in ENGINE_ALIASES.items():
            assert resolve_engine(retired) == engine
        with pytest.raises(ValueError, match="bogus"):
            resolve_engine("bogus")

    def test_backend_ops_for_answers_every_engine_name(self):
        # The benchmark's environment stamp reads backend_ops_for("compiled").
        for name in (*ENGINES, *ENGINE_ALIASES):
            assert backend_ops_for(name) is PACKED_OPS
        with pytest.raises(ValueError, match="bogus"):
            backend_ops_for("bogus")


class TestStackedRuns:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_run_many_matches_reference_solo_runs(self, protocol, engine, geometry):
        solo = [_simulator(protocol, "reference").run(seed=seed) for seed in SEEDS]
        stacked = _simulator(protocol, engine, geometry=geometry).run_many(SEEDS)
        assert len(stacked) == len(SEEDS)
        for one, many in zip(solo, stacked):
            assert_identical(one, many)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_run_many_matches_solo_runs_with_latency(self, protocol, engine, geometry):
        solo = [
            _simulator(protocol, engine, leave_latency=1.5,
                       geometry=geometry).run(seed=seed)
            for seed in SEEDS[:5]
        ]
        stacked = _simulator(protocol, engine, leave_latency=1.5,
                             geometry=geometry).run_many(SEEDS[:5])
        for one, many in zip(solo, stacked):
            assert_identical(one, many)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    def test_active_node_run_many_falls_back(self, engine, geometry):
        # Group state cannot stack; run_many must still give exact results.
        solo = [
            _simulator("active-node", engine, geometry=geometry).run(seed=seed)
            for seed in SEEDS[:3]
        ]
        stacked = _simulator("active-node", engine, geometry=geometry).run_many(SEEDS[:3])
        for one, many in zip(solo, stacked):
            assert_identical(one, many)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_sub_unit_window_stack_matches_reference(self, protocol, engine, geometry):
        # Wide stacks clamp the scan window below one unit's packet count;
        # force that regime directly (the window is a pure performance
        # knob) on a stacked run and require exact results anyway.
        simulator = _simulator(protocol, engine, 0.3, 0.08, geometry=geometry)
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

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    def test_session_group_matches_per_simulator_runs(self, engine, geometry):
        grouped = simulate_session_group(
            [
                _simulator("coordinated", engine, shared=0.01, independent=rate,
                           num_receivers=11, num_layers=6, geometry=geometry)
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

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    def test_session_group_partitions_mixed_input(self, engine, geometry, monkeypatch):
        # One call spanning several partitions: two leave latencies, two
        # stackable protocols, a group protocol, a reference-engine run and
        # a per-receiver loss list, interleaved so a partition's members
        # are not adjacent.  Results come back in input order, each equal
        # field for field to its solo run.
        def build(protocol="coordinated", which=engine, **overrides):
            return lambda: _simulator(protocol, which, geometry=geometry, **overrides)

        makers = [
            build(independent=0.02),
            build(leave_latency=1.5),
            build("deterministic"),
            build("active-node"),
            build(which="reference"),
            build(independent_loss=[BernoulliLoss(0.01 * (1 + r % 3)) for r in range(17)]),
            build(independent=0.08),
            build("deterministic", leave_latency=1.5),
            build(),
        ]
        seed_lists = [SEEDS[:3], SEEDS[:2], SEEDS[2:5], SEEDS[:2], SEEDS[:2],
                      SEEDS[1:4], SEEDS[3:5], SEEDS[:2], []]
        stacks = []
        run_batched = LayeredSessionSimulator._run_batched

        def counting_run_batched(simulator, runs):
            stacks.append(len(runs))
            return run_batched(simulator, runs)

        monkeypatch.setattr(LayeredSessionSimulator, "_run_batched", counting_run_batched)
        grouped = simulate_session_group([make() for make in makers], seed_lists)
        # Leave latency is a per-run value, so it never splits a stack:
        # coordinated (0.02, latency 1.5, the per-receiver list, 0.08),
        # deterministic with and without latency, then the active node's
        # two solo runs; the reference run never enters the chunk scan.
        assert sorted(stacks) == [1, 1, 5, 10]
        monkeypatch.undo()
        assert [len(results) for results in grouped] == [len(s) for s in seed_lists]
        for make, seeds, results in zip(makers, seed_lists, grouped):
            for seed, result in zip(seeds, results):
                solo = make().run(seed=seed)
                for field in dataclasses.fields(solo):
                    expected, actual = getattr(solo, field.name), getattr(result, field.name)
                    if isinstance(expected, np.ndarray):
                        assert np.array_equal(expected, actual), field.name
                    else:
                        assert expected == actual, field.name

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_mixed_latencies_share_one_scan_and_match_reference(
        self, protocol, engine, geometry, monkeypatch
    ):
        # The leave-latency sweep's shape: every latency (zero, sub-unit,
        # fractional and longer than the explicit chunks) rides one
        # stacked scan, and each run's advertisements follow its own
        # latency exactly.
        latencies = (0.0, 0.5, 2.7, 9.5)
        stacks = []
        run_batched = LayeredSessionSimulator._run_batched

        def counting_run_batched(simulator, runs):
            stacks.append(len(runs))
            return run_batched(simulator, runs)

        monkeypatch.setattr(LayeredSessionSimulator, "_run_batched", counting_run_batched)
        grouped = simulate_session_group(
            [
                _simulator(protocol, engine, leave_latency=latency, geometry=geometry)
                for latency in latencies
            ],
            [SEEDS[:3]] * len(latencies),
        )
        monkeypatch.undo()
        assert stacks == [3 * len(latencies)]
        for latency, results in zip(latencies, grouped):
            for seed, result in zip(SEEDS[:3], results):
                solo = _simulator(protocol, "reference", leave_latency=latency).run(seed=seed)
                assert_identical(solo, result)
                assert result.leave_latency == latency

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_session_group_with_bursty_per_receiver_losses(self, protocol, engine, geometry):
        # The burstiness sweep's shape: per-receiver process lists that
        # differ in burstiness (Bernoulli included) ride one stacked scan.
        def variants(which, geometry="default"):
            processes = (
                lambda: GilbertElliottLoss(0.02, 0.3, loss_good=0.01),
                lambda: GilbertElliottLoss(0.1, 0.5, loss_bad=0.8),
                lambda: BernoulliLoss(0.05),
            )
            return [
                _simulator(protocol, which, num_receivers=9,
                           independent_loss=[make() for _ in range(9)],
                           geometry=geometry)
                for make in processes
            ]

        grouped = simulate_session_group(variants(engine, geometry), [SEEDS[:3]] * 3)
        for solo_simulator, results in zip(variants("reference"), grouped):
            for seed, result in zip(SEEDS[:3], results):
                assert_identical(solo_simulator.run(seed=seed), result)

    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_stack_height_chunk_width_with_bursty_losses(self, protocol, engine):
        # Nine stacked runs of 17 receivers on the 8-layer scheme: the
        # default rule picks 53-unit chunks for the 153-row stack, so the
        # 72 measured units end in a partial 19-unit chunk, and every
        # per-receiver Gilbert–Elliott stream is read across those edges.
        def variants(which):
            processes = (
                lambda: GilbertElliottLoss(0.02, 0.3, loss_good=0.01),
                lambda: GilbertElliottLoss(0.1, 0.5, loss_bad=0.8),
                lambda: BernoulliLoss(0.05),
            )
            return [
                _simulator(protocol, which, num_receivers=17, num_layers=8,
                           independent_loss=[make() for _ in range(17)])
                for make in processes
            ]

        simulators = variants(engine)
        plan = simulators[0]._chunk_plan(3 * len(SEEDS[:3]) * 17)
        assert [count for _start, count, _measuring in plan] == [24, 53, 19]
        grouped = simulate_session_group(simulators, [SEEDS[:3]] * 3)
        for solo_simulator, results in zip(variants("reference"), grouped):
            for seed, result in zip(SEEDS[:3], results):
                assert_identical(solo_simulator.run(seed=seed), result)

    @pytest.mark.parametrize("engine", CHUNK_ENGINES)
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
