"""Sender/receiver placement: from a bare graph to the paper's sessions.

A topology file or generator yields only ``G``; the paper's model needs the
session structure ``{S_1..S_m}`` and the type mapping ``sigma`` as well.
:func:`place_sessions` fills that gap with three policies:

* ``random`` — sender and receivers drawn uniformly without replacement;
* ``hub`` — senders placed at the highest-degree nodes (content servers at
  well-connected points of presence), receivers uniform elsewhere;
* ``leaf`` — all members drawn from the lowest-degree half of the nodes
  (end hosts at the network edge), forcing traffic through the core.

Each session draws from its own Philox stream spawned via
:func:`repro.simulator.rng.spawn_run_entropy`, so placements are
bit-reproducible and *prefix-stable*: growing ``num_sessions`` never moves
the sessions already placed.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Union

from numpy.random import Generator, Philox, SeedSequence

from ...errors import NetworkModelError
from ...simulator.rng import spawn_run_entropy
from ..graph import NetworkGraph
from ..session import Session, SessionType

__all__ = ["place_sessions", "PLACEMENT_POLICIES"]

PLACEMENT_POLICIES = ("random", "hub", "leaf")


def _session_type(spec: Union[str, Sequence[SessionType]], index: int) -> SessionType:
    if isinstance(spec, str):
        if spec == "multi":
            return SessionType.MULTI_RATE
        if spec == "single":
            return SessionType.SINGLE_RATE
        if spec == "mixed":  # alternate, starting multi-rate
            return SessionType.MULTI_RATE if index % 2 == 0 else SessionType.SINGLE_RATE
        raise NetworkModelError(
            f"unknown session_types spec {spec!r}; valid: 'multi', 'single', 'mixed'"
        )
    return spec[index % len(spec)]


def place_sessions(
    graph: NetworkGraph,
    num_sessions: int,
    receivers_per_session: int,
    seed: int = 0,
    policy: str = "random",
    session_types: Union[str, Sequence[SessionType]] = "multi",
    max_rate: float = math.inf,
) -> List[Session]:
    """Place ``num_sessions`` sessions on ``graph`` under a placement policy.

    Every session needs ``receivers_per_session + 1`` distinct nodes (the
    paper forbids two members of one session sharing a node); sessions may
    freely overlap with each other.  Raises :class:`NetworkModelError` when
    the graph is too small or the policy is unknown.
    """
    if policy not in PLACEMENT_POLICIES:
        raise NetworkModelError(
            f"unknown placement policy {policy!r}; valid: {PLACEMENT_POLICIES}"
        )
    if num_sessions < 1:
        raise NetworkModelError(f"num_sessions must be >= 1, got {num_sessions}")
    if receivers_per_session < 1:
        raise NetworkModelError(
            f"receivers_per_session must be >= 1, got {receivers_per_session}"
        )
    members = receivers_per_session + 1
    nodes = list(graph.nodes)
    if len(nodes) < members:
        raise NetworkModelError(
            f"graph has {len(nodes)} nodes but each session needs {members} "
            f"distinct member nodes"
        )

    degree = {node: len(graph.incident_links(node)) for node in nodes}
    by_degree = sorted(nodes, key=lambda node: (-degree[node], node))
    if policy == "hub":
        hubs = by_degree[: max(1, len(nodes) // 10)]
    elif policy == "leaf":
        pool = sorted(nodes, key=lambda node: (degree[node], node))
        pool = pool[: max(members, len(nodes) // 2)]
    else:
        pool = nodes

    sessions: List[Session] = []
    entropy = spawn_run_entropy(seed, num_sessions)
    for index in range(num_sessions):
        rng = Generator(Philox(SeedSequence(entropy[index])))
        if policy == "hub":
            sender = hubs[index % len(hubs)]
            candidates = [node for node in nodes if node != sender]
            picks = rng.choice(len(candidates), size=receivers_per_session, replace=False)
            receivers = [candidates[int(p)] for p in sorted(picks.tolist())]
        else:
            picks = rng.choice(len(pool), size=members, replace=False)
            chosen = [pool[int(p)] for p in picks.tolist()]
            sender, receivers = chosen[0], sorted(chosen[1:])
        sessions.append(
            Session(
                session_id=index,
                sender_node=sender,
                receiver_nodes=receivers,
                session_type=_session_type(session_types, index),
                max_rate=max_rate,
            )
        )
    return sessions

