"""Ablation A3 — mixed session types and the Lemma 3 / Corollary 1 ordering.

Sweeps the fraction of multi-rate sessions in randomised multicast networks
from "all single-rate" to "all multi-rate", converting sessions one at a
time (same members, same topology) and recomputing the max-min fair
allocation.  The properties verified:

* Lemma 3 / Corollary 1: each conversion makes the allocation at least as
  max-min fair under the ``<=_m`` ordering, so the ordered rate vectors form
  a monotone chain with the all-multi-rate allocation at the top;
* Theorem 2: after each conversion, the four fairness properties hold when
  restricted to the (current) multi-rate sessions, and per-session-link
  fairness holds for every session;
* the aggregate receiver throughput and minimum receiver rate never
  decrease relative to the all-single-rate baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import (
    Allocation,
    fully_utilized_receiver_fairness,
    max_min_fair_allocation,
    min_unfavorable,
    per_receiver_link_fairness,
    per_session_link_fairness,
    same_path_receiver_fairness,
)
from ..network import Network, SessionType
from ..network.topologies import random_multicast_network
from .api import ExperimentSpec, Verdict
from .registry import Experiment, register

__all__ = ["MixedSessionsSpec", "ConversionStep", "MixedSessionsResult"]


@dataclass(frozen=True)
class MixedSessionsSpec(ExperimentSpec):
    """Spec for the Lemma-3 conversion chain on a random multicast network.

    The paper preset grows the random network (24 links, 10 sessions); the
    reduced preset matches the historical defaults.
    """

    seed: int = 7
    num_links: Optional[int] = None
    num_sessions: Optional[int] = None
    max_receivers_per_session: Optional[int] = None

    PRESETS = {
        "reduced": {
            "num_links": 12,
            "num_sessions": 5,
            "max_receivers_per_session": 4,
        },
        "paper": {
            "num_links": 24,
            "num_sessions": 10,
            "max_receivers_per_session": 6,
        },
    }


@dataclass
class ConversionStep:
    """Allocation metrics after converting a prefix of sessions to multi-rate."""

    num_multi_rate: int
    ordered_rates: Tuple[float, ...]
    min_rate: float
    total_throughput: float
    multi_rate_properties_hold: bool
    per_session_link_fair: bool


@dataclass
class MixedSessionsResult:
    """The Lemma-3 conversion chain for one random network."""

    seed: int
    num_sessions: int
    steps: List[ConversionStep] = field(default_factory=list)

    @property
    def ordering_is_monotone(self) -> bool:
        """Each step's allocation is at least as max-min fair as the previous one."""
        return all(
            min_unfavorable(self.steps[index].ordered_rates, self.steps[index + 1].ordered_rates)
            for index in range(len(self.steps) - 1)
        )

    @property
    def theorem2_holds_throughout(self) -> bool:
        return all(
            step.multi_rate_properties_hold and step.per_session_link_fair
            for step in self.steps
        )


def _theorem2_checks(network: Network, allocation: Allocation) -> Tuple[bool, bool]:
    """(multi-rate restricted properties hold, per-session-link holds for all)."""
    multi_sessions = sorted(network.multi_rate_session_ids())
    multi_receivers = [
        rid for sid in multi_sessions for rid in network.session(sid).receiver_ids
    ]
    if multi_receivers:
        receiver_side = (
            fully_utilized_receiver_fairness(allocation, receivers=multi_receivers).holds
            and same_path_receiver_fairness(allocation, receivers=multi_receivers).holds
            and per_receiver_link_fairness(allocation, sessions=multi_sessions).holds
        )
    else:
        receiver_side = True
    session_side = per_session_link_fairness(allocation).holds
    return receiver_side, session_side


def body(spec: MixedSessionsSpec) -> MixedSessionsResult:
    """Convert sessions one at a time from single-rate to multi-rate.

    The conversion order is session-id order; step ``k`` has the first ``k``
    sessions multi-rate and the rest single-rate.
    """
    base = random_multicast_network(
        seed=spec.seed,
        num_links=spec.num_links,
        num_sessions=spec.num_sessions,
        max_receivers_per_session=spec.max_receivers_per_session,
        multi_rate_fraction=0.0,
    )
    result = MixedSessionsResult(seed=spec.seed, num_sessions=base.num_sessions)
    for num_multi in range(base.num_sessions + 1):
        types = {
            session_id: (
                SessionType.MULTI_RATE if session_id < num_multi else SessionType.SINGLE_RATE
            )
            for session_id in range(base.num_sessions)
        }
        network = base.with_session_types(types)
        allocation = max_min_fair_allocation(network)
        multi_props, session_props = _theorem2_checks(network, allocation)
        result.steps.append(
            ConversionStep(
                num_multi_rate=num_multi,
                ordered_rates=allocation.ordered_vector(),
                min_rate=allocation.min_rate(),
                total_throughput=allocation.total_receiver_throughput(),
                multi_rate_properties_hold=multi_props,
                per_session_link_fair=session_props,
            )
        )
    return result


def _records(result: MixedSessionsResult) -> List[Dict[str, object]]:
    return [
        {
            "section": "conversion chain",
            "num_multi_rate": step.num_multi_rate,
            "min_rate": step.min_rate,
            "total_throughput": step.total_throughput,
            "theorem2_multi_rate_properties": step.multi_rate_properties_hold,
            "per_session_link_fair": step.per_session_link_fair,
            "ordered_rates": list(step.ordered_rates),
        }
        for step in result.steps
    ]


def _verdict(result: MixedSessionsResult) -> Verdict:
    ok = result.ordering_is_monotone and result.theorem2_holds_throughout
    return Verdict(ok, "ordering monotone and Theorem 2 holds" if ok else "MISMATCH")


EXPERIMENT = register(
    Experiment(
        key="mixed_sessions",
        title="Ablation: mixed session types (Lemma 3)",
        spec_cls=MixedSessionsSpec,
        body=body,
        to_records=_records,
        judge=_verdict,
    )
)
