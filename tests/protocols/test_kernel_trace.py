"""Hook-trace equivalence: every engine emits the *same event sequence*.

The conformance matrix and the differential fuzzer pin identical final
payloads; this suite pins something strictly stronger — the ordered
sequence of protocol-visible kernel decisions.  A :class:`KernelTrace`
attached to a protocol records every level transition the kernel applies
(receiver, absolute packet column, kind, level before/after, cumulative
receptions credited at record time) plus the running reception credit.
Two engines could in principle agree on the final counters while visiting
different intermediate states; this suite forbids that by asserting the
per-receiver event streams are identical element-for-element between the
per-packet reference loop and every chunked engine in the kernel registry.

Credit is compared cumulatively: a windowed scan legitimately credits
receptions in bulk where the reference loop credits packet by packet, but
the cumulative count *at each recorded event* is part of the protocol
semantics (join thresholds fire on it) and must be engine-invariant.

The ``active-node`` group protocol is excluded by design: it overrides
``step_chunk`` wholesale and never passes through the scan kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.layering import ExponentialLayerScheme
from repro.protocols import make_protocol
from repro.protocols.kernel import ENGINES, KernelTrace
from repro.simulator import (
    BernoulliLoss,
    GilbertElliottLoss,
    LayeredSessionSimulator,
    NoLoss,
)

PROTOCOLS = ("uncoordinated", "deterministic", "coordinated")
#: (name, shared rate, independent rate) — sparse, dense-shared (long event
#: chains per scan window) and lossless regimes.
LOSS_REGIMES = (
    ("mixed", 0.02, 0.08),
    ("dense-shared", 0.3, 0.05),
    ("lossless", 0.0, 0.0),
)
SEEDS = (0, 3, 11)


def _traced_run(protocol_name, engine, shared, independent, seed,
                duration_units=48, num_receivers=9, num_layers=5,
                bursty=False):
    """Run one simulation with a trace attached; return the trace."""
    protocol = make_protocol(protocol_name)
    trace = KernelTrace(num_receivers)
    protocol.kernel_trace = trace
    if bursty:
        independent_loss = [
            GilbertElliottLoss(0.02, 0.3) for _ in range(num_receivers)
        ]
    else:
        independent_loss = (
            BernoulliLoss(independent) if independent > 0 else NoLoss()
        )
    simulator = LayeredSessionSimulator(
        protocol=protocol,
        num_receivers=num_receivers,
        shared_loss=BernoulliLoss(shared) if shared > 0 else NoLoss(),
        independent_loss=independent_loss,
        scheme=ExponentialLayerScheme(num_layers),
        duration_units=duration_units,
        engine=engine,
    )
    simulator.run(seed=seed)
    return trace


def assert_traces_identical(reference: KernelTrace, candidate: KernelTrace,
                            context: str) -> None:
    ref = reference.per_receiver()
    cand = candidate.per_receiver()
    assert set(cand) == set(ref), context
    for receiver in ref:
        assert cand[receiver] == ref[receiver], (
            f"{context}: receiver {receiver} event stream diverged"
        )
    assert np.array_equal(candidate.cum, reference.cum), (
        f"{context}: cumulative reception credit diverged"
    )


class TestHookTraceEquivalence:
    @pytest.mark.parametrize("regime", LOSS_REGIMES, ids=lambda r: r[0])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_event_streams_match_reference(self, protocol, regime):
        _name, shared, independent = regime
        for seed in SEEDS:
            reference = _traced_run(protocol, "reference", shared,
                                    independent, seed)
            for engine in ENGINES:
                if engine == "reference":
                    continue
                candidate = _traced_run(protocol, engine, shared,
                                        independent, seed)
                assert_traces_identical(
                    reference, candidate,
                    f"{protocol}/{_name}/seed={seed}/engine={engine}",
                )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_event_streams_match_under_bursty_losses(self, protocol):
        reference = _traced_run(protocol, "reference", 0.05, 0.0, 7,
                                bursty=True)
        for engine in ENGINES:
            if engine == "reference":
                continue
            candidate = _traced_run(protocol, engine, 0.05, 0.0, 7,
                                    bursty=True)
            assert_traces_identical(
                reference, candidate, f"{protocol}/bursty/engine={engine}"
            )

    def test_trace_records_absolute_columns_and_unit_steps(self):
        # Sanity of the instrument itself: strictly increasing columns per
        # receiver, level steps of exactly one, joins credit at least one
        # reception by record time.
        trace = _traced_run("deterministic", "bitpacked", 0.1, 0.1, 5)
        assert trace.events, "the traced run produced no kernel events"
        for receiver, events in trace.per_receiver().items():
            cols = [ev[0] for ev in events]
            assert cols == sorted(cols)
            assert len(cols) == len(set(cols))
            for col, kind, old, new, cum in events:
                assert kind in ("join", "congest")
                assert abs(new - old) <= 1
                assert cum >= 0
                if kind == "join":
                    assert new == old + 1
                    assert cum >= 1

    def test_congest_events_record_non_leaves_at_the_floor(self):
        # A congestion signal at level 1 is recorded (old == new) but must
        # not step below the floor — the kernel's leave invariant is
        # visible in the trace.
        trace = _traced_run("uncoordinated", "bitpacked", 0.4, 0.2, 2,
                            num_layers=3)
        floors = [
            ev
            for events in trace.per_receiver().values()
            for ev in events
            if ev[1] == "congest" and ev[2] == 1
        ]
        assert floors, "dense loss at 3 layers never congested a floor row"
        for _col, _kind, old, new, _cum in floors:
            assert old == new == 1
