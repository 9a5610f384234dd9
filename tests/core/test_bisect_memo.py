"""The memoised bisection step against the plain 80-step loop it replaced.

``_bisect_increment`` skips ``rate_at`` when ``level + mid`` rounds to the
last point that fit or the last that did not.  ``plain_bisect_increment``
below is the loop without that memo, kept as the oracle: both must return
the same float for any deterministic ``rate_at``, and the memo must never
call ``rate_at`` more often.
"""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core.maxmin import _bisect_increment


def plain_bisect_increment(rate_at, level: float, capacity: float, upper: float) -> float:
    """The bisection without the memo: one ``rate_at`` call per step."""
    if upper <= 0:
        return 0.0
    if rate_at(level + upper) <= capacity:
        return upper
    lo, hi = 0.0, upper
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if rate_at(level + mid) <= capacity:
            lo = mid
        else:
            hi = mid
    return lo


def counted(function):
    """``function`` plus a list whose length is the number of calls made."""
    calls = []

    def rate_at(x: float) -> float:
        calls.append(x)
        return function(x)

    return rate_at, calls


def both(function, level: float, capacity: float, upper: float):
    """(memo result, plain result, memo calls, plain calls)."""
    memo_rate, memo_calls = counted(function)
    plain_rate, plain_calls = counted(function)
    memo = _bisect_increment(memo_rate, level, capacity, upper)
    plain = plain_bisect_increment(plain_rate, level, capacity, upper)
    return memo, plain, len(memo_calls), len(plain_calls)


def monotone_rate(kind: int, scale: float, offset: float):
    """A few non-decreasing shapes a link-rate function can take."""
    if kind == 0:
        return lambda x: scale * x + offset
    if kind == 1:
        return lambda x: scale * x * x + offset
    if kind == 2:
        return lambda x: scale * math.sqrt(x) + offset
    if kind == 3:
        return lambda x: scale * (1.0 - math.exp(-x)) + offset
    return lambda x: scale * math.floor(x) + offset


levels = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e3, max_value=1e12, allow_nan=False),
)
uppers = st.one_of(
    st.floats(min_value=1e-12, max_value=1e-6, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
)


@given(
    kind=st.integers(min_value=0, max_value=4),
    scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    offset=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    level=levels,
    upper=uppers,
    fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_memo_matches_plain_loop_with_no_more_calls(kind, scale, offset, level, upper, fraction):
    rate = monotone_rate(kind, scale, offset)
    # A capacity between the rates at both ends, so the search really bisects.
    low, high = rate(level), rate(level + upper)
    capacity = low + fraction * (high - low)
    memo, plain, memo_calls, plain_calls = both(rate, level, capacity, upper)
    assert memo == plain
    assert memo_calls <= plain_calls


def test_level_far_above_upper_skips_calls():
    # level + mid stops changing after a few halvings of a tiny upper.
    memo, plain, memo_calls, plain_calls = both(lambda x: 2.0 * x, 1e6, 2e6 + 1e-7, 1e-3)
    assert memo == plain
    assert memo_calls < plain_calls


def test_over_capacity_at_level_matches():
    # Nothing fits: the plain loop's calls at ``level`` itself all fail.
    memo, plain, memo_calls, plain_calls = both(lambda x: x + 1.0, 5.0, 5.5, 1e-9)
    assert memo == plain == 0.0
    assert memo_calls < plain_calls


def test_whole_interval_fits_and_empty_interval():
    assert both(lambda x: x, 1.0, 10.0, 2.0)[:2] == (2.0, 2.0)
    assert both(lambda x: x, 1.0, 10.0, 0.0)[:2] == (0.0, 0.0)
