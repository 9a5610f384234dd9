"""Single-rate versus multi-rate sessions on randomised multicast networks.

This example reproduces the paper's core theoretical message (Section 2) on
workloads a network operator might care about: for a family of random tree
topologies carrying a mix of multicast sessions it

1. computes the max-min fair allocation with all sessions single-rate and
   with all sessions multi-rate (layered);
2. compares them under the min-unfavorability ordering (Lemma 3 / Corollary
   1) and reports the worst-off receiver's rate and Jain's fairness index;
3. converts sessions one at a time and shows the monotone improvement.

Run with::

    python examples/single_vs_multi_rate.py [num_networks]
"""

from __future__ import annotations

import sys

from repro.analysis import format_table, jain_fairness_index
from repro.core import (
    check_all_properties,
    max_min_fair_allocation,
    min_unfavorable,
    strictly_min_unfavorable,
)
from repro.experiments import get_experiment
from repro.network import random_multicast_network


def compare_on_random_networks(num_networks: int) -> None:
    rows = []
    strict_improvements = 0
    for seed in range(num_networks):
        network = random_multicast_network(
            seed=seed, num_links=16, num_sessions=6, max_receivers_per_session=4
        )
        single = max_min_fair_allocation(network.with_all_single_rate())
        multi = max_min_fair_allocation(network.with_all_multi_rate())

        assert min_unfavorable(single.ordered_vector(), multi.ordered_vector())
        if strictly_min_unfavorable(single.ordered_vector(), multi.ordered_vector()):
            strict_improvements += 1

        properties = check_all_properties(multi)
        rows.append(
            [
                seed,
                single.min_rate(),
                multi.min_rate(),
                jain_fairness_index(list(single.ordered_vector())),
                jain_fairness_index(list(multi.ordered_vector())),
                "yes" if all(r.holds for r in properties.values()) else "no",
            ]
        )

    print(
        format_table(
            ["seed", "min rate (single)", "min rate (multi)",
             "Jain (single)", "Jain (multi)", "Theorem 1 holds"],
            rows,
        )
    )
    print(
        f"\nmulti-rate strictly more max-min fair on {strict_improvements}/{num_networks} "
        "random networks (never less fair on any)"
    )


def show_gradual_conversion() -> None:
    print("\nConverting sessions one at a time (Lemma 3), seed 7:")
    run = get_experiment("mixed_sessions").run(seed=7, num_links=14, num_sessions=5)
    print(run.table())
    print(f"ordering monotone: {run.payload.ordering_is_monotone}")


def main() -> None:
    num_networks = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    compare_on_random_networks(num_networks)
    show_gradual_conversion()


if __name__ == "__main__":
    main()
