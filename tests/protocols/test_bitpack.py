"""Property tests for the bit-packing primitives behind ``engine="bitpacked"``.

Every helper in :mod:`repro.protocols.bitpack` has a dense NumPy
equivalent; hypothesis drives random boolean matrices — deliberately
including ragged tails (column counts that are not multiples of 64, so the
last word is partially filled) — and asserts the packed and dense answers
are identical.  These are the per-primitive proof obligations; the
engine-level ones live in ``tests/simulator/test_engine_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols import bitpack as bp

# Column counts straddling word boundaries: 1..~3 words with ragged tails.
dims = st.tuples(
    st.integers(min_value=1, max_value=9),     # rows
    st.integers(min_value=1, max_value=200),   # columns (ragged tails included)
    st.integers(min_value=0, max_value=2**32 - 1),  # numpy seed
    st.floats(min_value=0.02, max_value=0.95),  # bit density
)


def random_dense(rows: int, cols: int, seed: int, density: float) -> np.ndarray:
    return np.random.default_rng(seed).random((rows, cols)) < density


@given(dims)
@settings(max_examples=120, deadline=None)
def test_pack_unpack_round_trip(params):
    rows, cols, seed, density = params
    dense = random_dense(rows, cols, seed, density)
    packed = bp.pack_bits(dense)
    assert packed.shape == (rows, bp.packed_width(cols))
    assert packed.dtype == np.uint64
    assert np.array_equal(bp.unpack_bits(packed, cols), dense)


@given(dims)
@settings(max_examples=120, deadline=None)
def test_row_counts_match_dense_sum(params):
    rows, cols, seed, density = params
    dense = random_dense(rows, cols, seed, density)
    packed = bp.pack_bits(dense)
    assert np.array_equal(bp.row_counts(packed), dense.sum(axis=1))


@given(dims)
@settings(max_examples=120, deadline=None)
def test_prefix_counts_match_dense_cumsum(params):
    rows, cols, seed, density = params
    dense = random_dense(rows, cols, seed, density)
    packed = bp.pack_bits(dense)
    rng = np.random.default_rng(seed + 1)
    # Per-row cut columns, including both extremes.
    cuts = rng.integers(0, cols + 1, size=rows)
    want = np.array([dense[r, : cuts[r]].sum() for r in range(rows)])
    assert np.array_equal(bp.prefix_counts(packed, 0, cuts), want)
    # Shared cut columns across all rows.
    shared = np.sort(rng.integers(0, cols + 1, size=4))
    want2 = np.stack([dense[:, :c].sum(axis=1) for c in shared], axis=1)
    assert np.array_equal(bp.prefix_counts_multi(packed, 0, shared), want2)


@given(dims)
@settings(max_examples=120, deadline=None)
def test_masked_popcount_matches_dense_masked_sum(params):
    rows, cols, seed, density = params
    dense = random_dense(rows, cols, seed, density)
    packed = bp.pack_bits(dense)
    rng = np.random.default_rng(seed + 2)
    num_words = packed.shape[1]
    starts = rng.integers(0, cols + 1, size=rows)
    window = packed & bp.start_masks(starts, 0, num_words)
    columns = np.arange(cols)
    want = (dense & (columns[None, :] >= starts[:, None])).sum(axis=1)
    assert np.array_equal(bp.row_counts(window), want)


@given(dims)
@settings(max_examples=120, deadline=None)
def test_first_and_kth_set_match_dense_argmax(params):
    rows, cols, seed, density = params
    dense = random_dense(rows, cols, seed, density)
    packed = bp.pack_bits(dense)
    has, col = bp.first_set(packed, 0)
    assert np.array_equal(has, dense.any(axis=1))
    assert np.array_equal(col[has], dense.argmax(axis=1)[has])
    counts = dense.sum(axis=1)
    populated = np.nonzero(counts)[0]
    if populated.size:
        rng = np.random.default_rng(seed + 3)
        ranks = rng.integers(1, counts[populated] + 1)
        want = np.array(
            [np.nonzero(dense[r])[0][k - 1] for r, k in zip(populated, ranks)]
        )
        assert np.array_equal(bp.kth_set(packed[populated], 0, ranks), want)
        # The rank-1 fast path must agree with the general path.
        first_bits = np.array([np.nonzero(dense[r])[0][0] for r in populated])
        ones = np.ones(populated.size, dtype=np.int64)
        assert np.array_equal(bp.kth_set(packed[populated], 0, ones), first_bits)


@given(dims)
@settings(max_examples=120, deadline=None)
def test_base_col_offsets_shift_all_column_answers(params):
    rows, cols, seed, density = params
    dense = random_dense(rows, cols, seed, density)
    packed = bp.pack_bits(dense)
    base = 64 * int(np.random.default_rng(seed + 4).integers(0, 4))
    has, col = bp.first_set(packed, base)
    assert np.array_equal(col[has], dense.argmax(axis=1)[has] + base)
    cuts = np.full(rows, base + cols)
    assert np.array_equal(bp.prefix_counts(packed, base, cuts), dense.sum(axis=1))


@given(dims, st.integers(min_value=1, max_value=2000))
@settings(max_examples=120, deadline=None)
def test_scatter_into_packed_matches_scatter_into_dense(params, num_hits):
    rows, cols, seed, density = params
    rng = np.random.default_rng(seed + 5)
    # Pairwise-distinct (row, col) hits — the clear_bits contract — drawn
    # large enough to exercise both the ufunc.at and the bincount path.
    flat = rng.choice(rows * cols, size=min(num_hits, rows * cols), replace=False)
    hit_rows = (flat // cols).astype(np.int64)
    hit_cols = (flat % cols).astype(np.int64)
    packed = bp.ones_rows(rows, cols)
    bp.clear_bits(packed, hit_rows, hit_cols)
    dense = np.ones((rows, cols), dtype=bool)
    dense[hit_rows, hit_cols] = False
    assert np.array_equal(bp.unpack_bits(packed, cols), dense)
    # Column-wise clearing (the shared-link loss path).
    shared_cols = np.unique(rng.integers(0, cols, size=min(7, cols)))
    bp.clear_cols(packed, shared_cols)
    dense[:, shared_cols] = False
    assert np.array_equal(bp.unpack_bits(packed, cols), dense)


def test_clear_bits_large_batch_uses_bincount_path():
    # 600 distinct hits in one call crosses the hybrid threshold.
    rows, cols = 30, 256
    rng = np.random.default_rng(0)
    flat = rng.choice(rows * cols, size=600, replace=False)
    hit_rows, hit_cols = np.divmod(flat.astype(np.int64), cols)
    packed = bp.ones_rows(rows, cols)
    bp.clear_bits(packed, hit_rows, hit_cols)
    dense = np.ones((rows, cols), dtype=bool)
    dense[hit_rows, hit_cols] = False
    assert np.array_equal(bp.unpack_bits(packed, cols), dense)


def test_ones_rows_keeps_tail_bits_clear():
    for cols in (1, 63, 64, 65, 127, 128, 200):
        packed = bp.ones_rows(3, cols)
        assert np.array_equal(bp.row_counts(packed), np.full(3, cols))
        assert np.array_equal(bp.unpack_bits(packed, cols), np.ones((3, cols), bool))


def test_popcount_matches_python_bit_count():
    rng = np.random.default_rng(7)
    words = rng.integers(0, 2**64, size=257, dtype=np.uint64)
    words[:3] = (0, 1, 2**64 - 1)
    want = np.array([int(w).bit_count() for w in words])
    assert np.array_equal(bp.popcount(words).astype(np.int64), want)


def test_native_popcount_flag_reflects_numpy_version():
    import os

    expected = hasattr(np, "bitwise_count") and not os.environ.get(
        "REPRO_FORCE_PORTABLE_POPCOUNT"
    )
    assert bp.HAVE_NATIVE_POPCOUNT == bool(expected)


def test_empty_scatter_calls_are_noops():
    packed = bp.ones_rows(2, 70)
    before = packed.copy()
    empty = np.zeros(0, dtype=np.int64)
    bp.clear_bits(packed, empty, empty)
    bp.clear_cols(packed, empty)
    assert np.array_equal(packed, before)


@pytest.mark.parametrize("cols", (64, 65, 128))
def test_bit_at_and_prefix_counts_multi_match_dense(cols):
    dense = np.random.default_rng(11).random((5, cols)) < 0.4
    packed = bp.pack_bits(dense)
    probe = np.array([0, cols // 2, cols - 1])
    assert np.array_equal(bp.bit_at(packed, 0, probe), dense[:, probe])
    for col in probe:
        assert np.array_equal(bp.bit_at(packed, 0, int(col)), dense[:, col])
    assert np.array_equal(
        bp.prefix_counts_multi(packed, 0, probe),
        np.stack([dense[:, :c].sum(axis=1) for c in probe], axis=1),
    )
    # A word-aligned base column shifts every absolute column alike.
    assert np.array_equal(bp.bit_at(packed, 128, probe + 128), dense[:, probe])
    assert np.array_equal(
        bp.prefix_counts_multi(packed, 128, probe + 128),
        bp.prefix_counts_multi(packed, 0, probe),
    )
