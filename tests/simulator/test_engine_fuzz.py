"""Differential scenario fuzzer: every engine must agree byte-for-byte.

Where ``test_engine_equivalence.py`` pins a hand-picked conformance matrix,
this module *generates* scenarios with hypothesis — protocol x loss regime
(Bernoulli, bursty Gilbert-Elliott, shared+independent mixes, dense shared
loss, per-receiver heterogeneous processes) x receiver count x layer count
x leave latency x durations crossing chunk and scan-window boundaries —
and asserts that every engine in the kernel registry (``reference`` and
``bitpacked``) serialises to byte-identical JSON payloads, shrinking any
disagreement to a minimal repro.  The experiment-level check asserts byte-identical
``canonical_json()`` envelopes, which is exactly the document the PR-6
result store addresses and the figures are plotted from.  A separate
property pins per-receiver Gilbert–Elliott lists to byte-identical payloads
across ``chunk_units`` (the default stack-height rule included) and
scan-window widths as well as engines.

The second half property-tests the multi-event chain drain's conservation
invariants on every chunk the bit-packed scan processes: per-receiver
event columns strictly increasing (window-close monotonicity), level steps
of exactly one inside ``[1, num_layers]``, joins only on received packets
and leaves only on lost subscribed packets, and a full popcount accounting
replay — the receptions the scan credits must equal the receivable bits
under the event-reconstructed subscription timeline, so no bit is consumed
twice, refreshed into the wrong level mask, or dropped at a window close.

Profiles live in ``tests/conftest.py``: the default ``ci`` profile is
derandomized (fixed example sequence, no database) so tier-1 is
deterministic; ``--hypothesis-profile=thorough`` buys a nightly-sized
randomized budget.
"""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.registry import get_experiment
from repro.layering import ExponentialLayerScheme
from repro.protocols import base as protocol_base
from repro.protocols import make_protocol
from repro.simulator import (
    ENGINES,
    BernoulliLoss,
    GilbertElliottLoss,
    LayeredSessionSimulator,
    NoLoss,
    simulate_session_group,
    star_redundancy,
    uniform_star,
)

PROTOCOLS = ("uncoordinated", "deterministic", "coordinated")
#: The chunked engines (every registered engine but the reference loop).
CHUNK_ENGINES = tuple(engine for engine in ENGINES if engine != "reference")
#: Durations straddling the default chunk widths (8 units for tall stacks,
#: up to 64 for the short stacks drawn here) and the scan-window sizes of
#: the scan (windows close mid-chunk, at chunk edges, and never).
DURATIONS = (3, 7, 8, 9, 16, 25, 33, 48, 63, 64, 65, 96, 130)
#: Bernoulli rates; 0.3/0.5 exercise the dense multi-event drain regime.
RATES = (0.001, 0.01, 0.05, 0.1, 0.3, 0.5)
#: Leave latencies (zero twice: the instant-leave case stays common).
LATENCIES = (0.0, 0.0, 0.5, 1.3, 2.7)


def loss_specs(include_none: bool = True) -> st.SearchStrategy:
    """Declarative loss-process specs (rebuilt fresh per engine run)."""
    bernoulli = st.tuples(st.just("bernoulli"), st.sampled_from(RATES))
    gilbert = st.tuples(
        st.just("ge"),
        st.sampled_from((0.01, 0.05, 0.2)),
        st.sampled_from((0.1, 0.3, 0.8)),
        st.sampled_from((1.0, 0.7)),
    )
    options = [bernoulli, gilbert]
    if include_none:
        options.append(st.just(("none",)))
    return st.one_of(options)


def gilbert_specs() -> st.SearchStrategy:
    """Gilbert–Elliott specs with lossy good states and an absorbing one."""
    return st.tuples(
        st.just("ge"),
        st.sampled_from((0.0, 0.01, 0.05, 0.2)),
        st.sampled_from((0.1, 0.3, 0.8)),
        st.sampled_from((1.0, 0.7)),
        st.sampled_from((0.0, 0.05)),
    )


def _build_loss(spec):
    if spec[0] == "none":
        return NoLoss()
    if spec[0] == "bernoulli":
        return BernoulliLoss(spec[1])
    loss_good = spec[4] if len(spec) > 4 else 0.0
    return GilbertElliottLoss(spec[1], spec[2], loss_good=loss_good, loss_bad=spec[3])


@st.composite
def scenarios(draw):
    num_receivers = draw(st.integers(2, 10))
    independent = draw(
        st.one_of(
            loss_specs(),
            st.tuples(
                st.just("per-receiver"),
                st.tuples(*[loss_specs() for _ in range(num_receivers)]),
            ),
        )
    )
    return {
        "protocol": draw(st.sampled_from(PROTOCOLS)),
        "num_receivers": num_receivers,
        "num_layers": draw(st.integers(2, 6)),
        "duration": draw(st.sampled_from(DURATIONS)),
        "leave_latency": draw(st.sampled_from(LATENCIES)),
        "shared": draw(loss_specs()),
        "independent": independent,
        "seed": draw(st.integers(0, 2**16)),
    }


def build_simulator(scenario, engine, chunk_units=None) -> LayeredSessionSimulator:
    independent = scenario["independent"]
    if independent[0] == "per-receiver":
        independent_loss = [_build_loss(spec) for spec in independent[1]]
    else:
        independent_loss = _build_loss(independent)
    return LayeredSessionSimulator(
        protocol=make_protocol(scenario["protocol"]),
        num_receivers=scenario["num_receivers"],
        shared_loss=_build_loss(scenario["shared"]),
        independent_loss=independent_loss,
        scheme=ExponentialLayerScheme(scenario["num_layers"]),
        duration_units=scenario["duration"],
        leave_latency=scenario["leave_latency"],
        engine=engine,
        chunk_units=chunk_units,
    )


def result_payload(result) -> str:
    """Canonical JSON of everything a run measures (bit-exact floats)."""
    return json.dumps(
        {
            "protocol": result.protocol,
            "num_receivers": result.num_receivers,
            "num_layers": result.num_layers,
            "duration_units": result.duration_units,
            "warmup_units": result.warmup_units,
            "measured_units": result.measured_units,
            "shared_link_packets": result.shared_link_packets,
            "receiver_packets": result.receiver_packets.tolist(),
            "total_sender_packets": result.total_sender_packets,
            "mean_subscription_level": result.mean_subscription_level,
            "mean_max_subscription_level": result.mean_max_subscription_level,
            "shared_loss_rate": result.shared_loss_rate,
            "independent_loss_rates": result.independent_loss_rates.tolist(),
            "leave_latency": result.leave_latency,
        },
        sort_keys=True,
    )


class TestDifferentialFuzzer:
    @settings(max_examples=120)
    @given(scenario=scenarios())
    def test_fuzzed_scenarios_serialise_identically(self, scenario):
        payloads = {
            engine: result_payload(
                build_simulator(scenario, engine).run(seed=scenario["seed"])
            )
            for engine in ENGINES
        }
        for engine in ENGINES:
            assert payloads[engine] == payloads["reference"], engine

    @given(
        scenario=scenarios(),
        seeds=st.lists(st.integers(0, 4000), min_size=2, max_size=4, unique=True),
    )
    def test_fuzzed_stacked_runs_serialise_identically(self, scenario, seeds):
        # run_many stacks the seeds into one scan on the scan engines and
        # falls back to a per-seed loop on the reference engine; both must
        # keep serialising exactly like the solo runs.
        payloads = {
            engine: [
                result_payload(result)
                for result in build_simulator(scenario, engine).run_many(seeds)
            ]
            for engine in ENGINES
        }
        for engine in ENGINES:
            assert payloads[engine] == payloads["reference"], engine

    @given(
        scenario=scenarios(),
        rates=st.lists(st.sampled_from(RATES), min_size=2, max_size=2, unique=True),
        latencies=st.lists(st.sampled_from(LATENCIES), min_size=2, max_size=2),
        seeds=st.lists(st.integers(0, 4000), min_size=2, max_size=2, unique=True),
    )
    @settings(max_examples=30)
    def test_fuzzed_session_groups_serialise_identically(
        self, scenario, rates, latencies, seeds
    ):
        # Variants differ in loss rate and leave latency; both are per-run
        # values, so the scan engines stack every variant into one scan.
        def grouped(engine):
            variants = []
            for rate, latency in zip(rates, latencies):
                variant = dict(
                    scenario, independent=("bernoulli", rate), leave_latency=latency
                )
                variants.append(build_simulator(variant, engine))
            return [
                [result_payload(result) for result in results]
                for results in simulate_session_group(
                    variants, [seeds] * len(variants)
                )
            ]

        payloads = {engine: grouped(engine) for engine in ENGINES}
        for engine in ENGINES:
            assert payloads[engine] == payloads["reference"], engine

    @settings(max_examples=10)
    @given(
        num_receivers=st.integers(3, 6),
        num_layers=st.integers(3, 5),
        duration=st.sampled_from((24, 33, 48)),
        repetitions=st.integers(1, 2),
        shared=st.sampled_from((0.01, 0.05, 0.3)),
        rates=st.lists(
            st.sampled_from((0.02, 0.08, 0.3)), min_size=1, max_size=2, unique=True
        ),
    )
    def test_fuzzed_experiment_canonical_json_is_engine_invariant(
        self, num_receivers, num_layers, duration, repetitions, shared, rates
    ):
        # The experiment envelope is the store-addressed, plotted artifact;
        # ``engine`` is execution-only, so the canonical JSON must not
        # change by a single byte across engines.
        experiment = get_experiment("figure8_panel")
        payloads = {}
        for engine in ENGINES:
            result = experiment.run(
                shared_loss_rate=shared,
                independent_loss_rates=tuple(rates),
                num_receivers=num_receivers,
                num_layers=num_layers,
                duration_units=duration,
                repetitions=repetitions,
                engine=engine,
            )
            payloads[engine] = result.canonical_json()
        for engine in ENGINES:
            assert payloads[engine] == payloads["reference"], engine


class TestGilbertElliottChunkSplitInvariance:
    """Per-receiver Gilbert–Elliott lists are sampled a whole chunk per call
    (RNG scheme 5), so payloads must not depend on the chunk size, the scan
    window width or the engine."""

    @settings(max_examples=25)
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        num_receivers=st.integers(2, 6),
        num_layers=st.integers(2, 6),
        duration=st.sampled_from(DURATIONS),
        shared=loss_specs(),
        processes=st.lists(gilbert_specs(), min_size=6, max_size=6),
        chunk_units=st.sampled_from((None, 1, 3, 8, 13)),
        window=st.sampled_from((0, 1, 2, 5)),
        seed=st.integers(0, 2**16),
    )
    def test_ge_payloads_independent_of_chunking(
        self, protocol, num_receivers, num_layers, duration, shared, processes,
        chunk_units, window, seed,
    ):
        scenario = {
            "protocol": protocol,
            "num_receivers": num_receivers,
            "num_layers": num_layers,
            "duration": duration,
            "leave_latency": 0.0,
            "shared": shared,
            "independent": ("per-receiver", tuple(processes[:num_receivers])),
        }

        def payload(engine, chunk=None, window_units=None):
            simulator = build_simulator(scenario, engine, chunk_units=chunk)
            if window_units is not None:
                simulator.scan_window_units = window_units
            return result_payload(simulator.run(seed=seed))

        reference = payload("reference")
        for engine in ENGINES:
            assert payload(engine) == reference, engine
        for engine in CHUNK_ENGINES:
            assert payload(engine, chunk_units, window) == reference, (
                engine, chunk_units, window,
            )


def _capture_packed_chunks(simulator, seed):
    """Run under ``bitpacked`` and capture every (chunk, levels, result)."""
    captured = []
    real = protocol_base.scan_chunk_bitpacked

    def spy(protocol, chunk, levels):
        before = levels.copy()
        result = real(protocol, chunk, levels)
        captured.append((chunk, before, result))
        return result

    protocol_base.scan_chunk_bitpacked = spy
    try:
        simulator.run(seed=seed)
    finally:
        protocol_base.scan_chunk_bitpacked = real
    return captured


def _unpack(packed: np.ndarray, num_cols: int) -> np.ndarray:
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :num_cols].astype(bool)


class TestFusedDrainInvariants:
    """Conservation properties of the multi-event drain, chunk by chunk."""

    @given(scenario=scenarios())
    def test_packed_chunk_conservation(self, scenario):
        simulator = build_simulator(scenario, "bitpacked")
        chunks = _capture_packed_chunks(simulator, scenario["seed"])
        assert chunks, "the bit-packed scan never ran"
        for chunk, levels0, result in chunks:
            n = chunk.num_packets
            receivable = _unpack(chunk.receivable_packed, n)
            layers = chunk.layers
            top = chunk.num_layers
            for row in range(levels0.size):
                where = (result.event_receivers == row).nonzero()[0]
                cols = result.event_cols[where]
                old = result.event_old_levels[where]
                new = result.event_new_levels[where]
                # Window-close / event-order monotonicity: one receiver's
                # events land in strictly increasing packet order.
                assert np.all(np.diff(cols) > 0)
                level = int(levels0[row])
                counted = 0
                start = 0
                for c, lo, ln in zip(cols, old, new):
                    c = int(c)
                    assert lo == level
                    assert abs(int(ln) - lo) == 1
                    assert 1 <= ln <= top
                    # A join consumes a received subscribed packet; a
                    # leave reacts to a lost subscribed packet.
                    assert layers[c] <= level
                    if ln > lo:
                        assert receivable[row, c]
                    else:
                        assert not receivable[row, c]
                    segment = slice(start, c + 1)
                    counted += int(
                        (receivable[row, segment] & (layers[segment] <= level)).sum()
                    )
                    level = int(ln)
                    start = c + 1
                counted += int(
                    (receivable[row, start:] & (layers[start:] <= level)).sum()
                )
                # Popcount accounting: credited receptions == receivable
                # bits under the event-reconstructed subscription level.
                assert counted == int(result.received[row])

    @given(
        num_receivers=st.integers(3, 8),
        num_layers=st.integers(3, 5),
        duration=st.sampled_from((16, 48)),
        shared=st.sampled_from((0.0, 0.05, 0.3, 0.9)),
        independent=st.sampled_from((0.0, 0.08, 0.5)),
        base_seed=st.integers(0, 1000),
    )
    def test_redundancy_at_least_one_or_infinite(
        self, num_receivers, num_layers, duration, shared, independent, base_seed
    ):
        # The shared link cannot carry fewer packets than the fastest
        # receiver gets from it: redundancy is >= 1, or infinite when a
        # regime starves every receiver completely.
        config = uniform_star(
            num_receivers,
            shared,
            independent,
            num_layers=num_layers,
            duration_units=duration,
        )
        measurement = star_redundancy(
            make_protocol("deterministic"),
            config,
            repetitions=2,
            base_seed=base_seed,
        )
        for redundancy in measurement.redundancies:
            assert math.isinf(redundancy) or redundancy >= 1.0
