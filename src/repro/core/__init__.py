"""Core contribution: multi-rate multicast max-min fairness.

This subpackage implements the paper's primary machinery:

* :class:`~repro.core.allocation.Allocation` — receiver-rate allocations and
  the session/link rates they induce;
* :mod:`~repro.core.feasibility` — feasibility checks (Section 2);
* :func:`~repro.core.maxmin.max_min_fair_allocation` — the Appendix-A
  water-filling construction for arbitrary session-type mappings ``sigma``
  and arbitrary link-rate functions ``v_i``;
* :mod:`~repro.core.singlerate` — the single-rate (Tzeng–Siu style)
  baseline, and classic unicast max-min fairness as its one-receiver case;
* :mod:`~repro.core.properties` — the four desirable fairness properties;
* :mod:`~repro.core.ordering` — the min-unfavorability ordering ``<=_m``;
* :mod:`~repro.core.redundancy` — link-rate functions ``v_i`` and the
  redundancy metric of Section 3.
"""

from .allocation import DEFAULT_TOLERANCE, Allocation
from .feasibility import (
    FeasibilityReport,
    FeasibilityViolation,
    assert_feasible,
    check_feasibility,
    is_feasible,
)
from .maxmin import MaxMinStep, MaxMinTrace, max_min_fair_allocation
from .ordering import (
    compare_allocations,
    compare_ordered_vectors,
    count_at_or_below,
    is_ordered,
    lemma2_threshold,
    min_unfavorable,
    ordered_vector,
    strictly_min_unfavorable,
)
from .properties import (
    PROPERTY_CHECKERS,
    PropertyReport,
    PropertyViolation,
    check_all_properties,
    fully_utilized_receiver_fairness,
    per_receiver_link_fairness,
    per_session_link_fairness,
    same_path_receiver_fairness,
)
from .redundancy import (
    bottleneck_fair_rate,
    constant_redundancy,
    efficient_link_rate,
    link_redundancy,
    normalized_fair_rate,
    random_join_link_rate,
)
from .singlerate import (
    single_rate_max_min_fair,
    single_rate_session_rates,
    unicast_max_min_fair,
)
from .weighted import (
    normalized_rate_vector,
    rtt_weights,
    validate_weights,
    weighted_max_min_fair_allocation,
    weighted_same_path_receiver_fairness,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "Allocation",
    "FeasibilityReport",
    "FeasibilityViolation",
    "assert_feasible",
    "check_feasibility",
    "is_feasible",
    "MaxMinStep",
    "MaxMinTrace",
    "max_min_fair_allocation",
    "compare_allocations",
    "compare_ordered_vectors",
    "count_at_or_below",
    "is_ordered",
    "lemma2_threshold",
    "min_unfavorable",
    "ordered_vector",
    "strictly_min_unfavorable",
    "PROPERTY_CHECKERS",
    "PropertyReport",
    "PropertyViolation",
    "check_all_properties",
    "fully_utilized_receiver_fairness",
    "per_receiver_link_fairness",
    "per_session_link_fairness",
    "same_path_receiver_fairness",
    "bottleneck_fair_rate",
    "constant_redundancy",
    "efficient_link_rate",
    "link_redundancy",
    "normalized_fair_rate",
    "random_join_link_rate",
    "single_rate_max_min_fair",
    "single_rate_session_rates",
    "unicast_max_min_fair",
    "normalized_rate_vector",
    "rtt_weights",
    "validate_weights",
    "weighted_max_min_fair_allocation",
    "weighted_same_path_receiver_fairness",
]
