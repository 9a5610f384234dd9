"""Bit-packed boolean matrices for the scan engine (uint64 words + popcount).

The chunk event scan (:mod:`repro.protocols.scan`) spends its time on
receiver-major boolean matrices — ``receivable``, per-window ``recv`` and
``cong`` — whose reductions are first-congestion candidates, bulk
reception counts and segment refreshes.  Per-receiver loss indicators are
single bits, so the scan packs 64 packet columns into one ``uint64`` word (receiver-major: row ``r``,
word ``w`` holds columns ``64*w .. 64*w+63``, column ``c`` at bit
``c % 64``) and replaces the boolean reductions with masked popcounts.
This module holds the packing primitives; they are deliberately dependency
free so property tests can exercise them against dense NumPy equivalents.

Every helper is exact integer/bit arithmetic — no floating point — so the
packed scan's event sequence is bit-for-bit the per-packet reference
loop's (``tests/simulator/test_engine_equivalence.py`` holds the proof
obligations; ``tests/protocols/test_bitpack.py`` the per-helper ones).

Popcounts use :func:`numpy.bitwise_count` where available (NumPy >= 2.0)
and fall back to an ``unpackbits``-style byte table otherwise; see
:data:`HAVE_NATIVE_POPCOUNT`.
"""

from __future__ import annotations

import os
import sys

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "HAVE_NATIVE_POPCOUNT",
    "WORD_BITS",
    "PackedWindow",
    "bit_at",
    "clear_bits",
    "clear_cols",
    "clear_cols_and_bits",
    "first_set",
    "kth_set",
    "ones_rows",
    "pack_bits",
    "packed_width",
    "popcount",
    "prefix_counts",
    "prefix_counts_multi",
    "row_counts",
    "start_masks",
    "tail_mask",
    "unpack_bits",
    "word_base",
]

#: Packed word width: one ``uint64`` word holds 64 packet columns.
WORD_BITS = 64

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)

#: Whether :func:`numpy.bitwise_count` (NumPy >= 2.0) backs :func:`popcount`.
#: When false, popcounts run through a 256-entry per-byte table — same
#: results, roughly 8x the memory traffic.  Setting the
#: ``REPRO_FORCE_PORTABLE_POPCOUNT`` environment variable (to any non-empty
#: value) forces the table path even on NumPy >= 2.0, so CI can prove the
#: portable fallback stays bit-exact without pinning an old NumPy.
HAVE_NATIVE_POPCOUNT = hasattr(np, "bitwise_count") and not os.environ.get(
    "REPRO_FORCE_PORTABLE_POPCOUNT"
)

# Per-byte popcount table; also the rank-select helper's byte counter.
_BYTE_COUNTS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1, dtype=np.uint8)

#: Whether a raw ``uint64 -> uint8`` view walks each word's bits in
#: ascending order (bit ``8j`` of the word lands in byte ``j``).  Gates the
#: byte-table fast path of :func:`kth_set`; the shift-based fallback is
#: byte-order free.
_LITTLE_ENDIAN = sys.byteorder == "little"

# Shared row-index scratch: the hot helpers index rows of matrices whose
# row count varies call to call, and allocating a fresh ``arange`` each
# time costs more than the indexing itself at scan-window sizes.
_IOTA = np.arange(1024)


def _iota(n: int) -> np.ndarray:
    """First ``n`` row indices from the shared scratch (grown on demand)."""
    global _IOTA
    if n > _IOTA.size:
        _IOTA = np.arange(max(n, 2 * _IOTA.size))
    return _IOTA[:n]

if HAVE_NATIVE_POPCOUNT:

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word count of set bits (shape-preserving, small unsigned dtype)."""
        return np.bitwise_count(words)

else:  # pragma: no cover - NumPy < 2.0 or REPRO_FORCE_PORTABLE_POPCOUNT

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word count of set bits (shape-preserving, small unsigned dtype).

        Byte order within the word is irrelevant to the count, so the raw
        little-vs-big-endian view needs no correction.
        """
        words = np.ascontiguousarray(words)
        counts = _BYTE_COUNTS[words.view(np.uint8)]
        return counts.reshape(words.shape + (8,)).sum(axis=-1, dtype=np.uint8)


def packed_width(num_cols: int) -> int:
    """Words needed to hold ``num_cols`` columns."""
    return (int(num_cols) + WORD_BITS - 1) // WORD_BITS


def pack_bits(dense: np.ndarray) -> np.ndarray:
    """Pack a boolean array along its last axis into uint64 words.

    Column ``c`` lands in word ``c // 64`` at bit ``c % 64``; tail bits
    past the last column are zero.  Assembled byte-by-byte (explicit
    shifts), so the layout is identical on little- and big-endian hosts.
    """
    dense = np.asarray(dense, dtype=bool)
    as_bytes = np.packbits(dense, axis=-1, bitorder="little")
    pad = (-as_bytes.shape[-1]) % 8
    if pad:
        widths = as_bytes.shape[:-1] + (pad,)
        as_bytes = np.concatenate([as_bytes, np.zeros(widths, np.uint8)], axis=-1)
    grouped = as_bytes.reshape(as_bytes.shape[:-1] + (-1, 8)).astype(np.uint64)
    shifts = (np.arange(8, dtype=np.uint64) * np.uint64(8))
    return np.bitwise_or.reduce(grouped << shifts, axis=-1)


def unpack_bits(packed: np.ndarray, num_cols: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: a boolean array of ``num_cols`` columns."""
    packed = np.asarray(packed, dtype=np.uint64)
    shifts = (np.arange(8, dtype=np.uint64) * np.uint64(8))
    as_bytes = ((packed[..., None] >> shifts) & np.uint64(0xFF)).astype(np.uint8)
    flat = as_bytes.reshape(packed.shape[:-1] + (-1,))
    bits = np.unpackbits(flat, axis=-1, bitorder="little")
    return bits[..., :num_cols].astype(bool)


def ones_rows(num_rows: int, num_cols: int) -> np.ndarray:
    """All-true packed matrix of ``num_rows x num_cols`` (tail bits clear).

    Tail bits beyond ``num_cols`` must stay zero so row popcounts never
    overcount; every in-place mutation below preserves that invariant.
    """
    words = np.full((num_rows, packed_width(num_cols)), _ONES, dtype=np.uint64)
    tail = num_cols % WORD_BITS
    if tail:
        words[:, -1] = (_ONE << np.uint64(tail)) - _ONE
    return words


def clear_cols(packed: np.ndarray, cols: np.ndarray) -> None:
    """Clear the given columns in every row of ``packed`` (in place).

    ``cols`` may contain several columns of the same word; the mask is
    accumulated with an unbuffered scatter before the single row sweep.
    """
    if cols.size == 0:
        return
    mask = np.full(packed.shape[-1], _ONES, dtype=np.uint64)
    words = cols >> 6
    bits = _ONE << (cols & 63).astype(np.uint64)
    np.bitwise_and.at(mask, words, ~bits)
    packed &= mask


def _scatter_mask(
    shape: tuple,
    rows: np.ndarray,
    cols: np.ndarray,
    full_cols: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Word matrix with bit ``(rows[i], cols[i])`` set for every ``i``.

    ``full_cols``, when given, is additionally set across every row.  On
    little-endian hosts the bits are scattered into a byte-per-column
    scratch and ``packbits(bitorder="little")`` collapses it into words —
    one buffered fancy assignment instead of an unbuffered per-word
    scatter.  Big-endian hosts accumulate the *distinct* bit values with
    two ``bincount`` passes (a sum of distinct powers of two equals their
    bitwise OR, and each 32-bit half stays exact in the float64
    accumulator).
    """
    num_rows, num_words = shape
    if _LITTLE_ENDIAN:
        scratch = np.zeros((num_rows, num_words * WORD_BITS), dtype=np.uint8)
        scratch[rows, cols] = 1
        if full_cols is not None and full_cols.size:
            scratch[:, full_cols] = 1
        return np.packbits(scratch, axis=1, bitorder="little").view(np.uint64)
    words = cols >> 6
    bits = _ONE << (cols & 63).astype(np.uint64)
    lin = rows * num_words + words
    size = num_rows * num_words
    low = (bits & np.uint64(0xFFFFFFFF)).astype(np.float64)
    high = (bits >> np.uint64(32)).astype(np.float64)
    mask = np.bincount(lin, weights=high, minlength=size).astype(np.uint64)
    mask <<= np.uint64(32)
    mask |= np.bincount(lin, weights=low, minlength=size).astype(np.uint64)
    mask = mask.reshape(shape)
    if full_cols is not None and full_cols.size:
        shared = np.zeros(num_words, dtype=np.uint64)
        np.bitwise_or.at(
            shared, full_cols >> 6, _ONE << (full_cols & 63).astype(np.uint64)
        )
        mask |= shared[None, :]
    return mask


def clear_bits(packed: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Clear bit ``cols[i]`` of row ``rows[i]`` for every ``i`` (in place).

    The ``(row, col)`` pairs must be pairwise distinct (the engine's loss
    positions are).  Small batches use the unbuffered ``bitwise_and.at``
    scatter; large ones scatter into a byte-per-column scratch and
    ``packbits`` it into the clear mask (one cheap fancy assignment plus a
    vectorised pack instead of thousands of unbuffered word updates).
    """
    if cols.size == 0:
        return
    if cols.size < 512:
        words = cols >> 6
        bits = _ONE << (cols & 63).astype(np.uint64)
        np.bitwise_and.at(packed, (rows, words), ~bits)
        return
    mask = _scatter_mask(packed.shape, rows, cols)
    np.invert(mask, out=mask)
    packed &= mask


def clear_cols_and_bits(
    packed: np.ndarray,
    cols: np.ndarray,
    rows2: np.ndarray,
    cols2: np.ndarray,
) -> None:
    """Fused :func:`clear_cols` + :func:`clear_bits` (one row sweep, in place).

    Clears the whole columns ``cols`` in every row *and* the per-row bits
    ``(rows2[i], cols2[i])`` — the engine's shared plus independent loss
    scatter — touching the matrix once instead of twice.  Small per-row
    batches keep the unbuffered scatter (the whole-column mask still folds
    into the same sweep); large ones fold the shared-column clears into the
    ``packbits``-built mask before the single ``&=`` pass.
    """
    if cols2.size == 0:
        clear_cols(packed, cols)
        return
    if cols2.size < 512:
        if cols.size:
            shared = np.full(packed.shape[-1], _ONES, dtype=np.uint64)
            np.bitwise_and.at(
                shared, cols >> 6, ~(_ONE << (cols & 63).astype(np.uint64))
            )
            packed &= shared
        words2 = cols2 >> 6
        bits2 = _ONE << (cols2 & 63).astype(np.uint64)
        np.bitwise_and.at(packed, (rows2, words2), ~bits2)
        return
    mask = _scatter_mask(packed.shape, rows2, cols2, cols)
    np.invert(mask, out=mask)
    packed &= mask


def row_counts(words: np.ndarray) -> np.ndarray:
    """Set bits per row (int64)."""
    return popcount(words).sum(axis=-1, dtype=np.int64)


# _HIGH_MASKS[s] keeps bits >= s of a word (s in [0, 64]); _LOW_MASKS[k]
# keeps bits < k.  Table gathers replace the shift/clamp arithmetic in the
# hot mask builders (one fancy index instead of five ufunc passes).
_HIGH_MASKS = np.zeros(WORD_BITS + 1, dtype=np.uint64)
_HIGH_MASKS[:WORD_BITS] = _ONES << np.arange(WORD_BITS, dtype=np.uint64)
_LOW_MASKS = np.zeros(WORD_BITS + 1, dtype=np.uint64)
_LOW_MASKS[1:] = _ONES >> np.arange(WORD_BITS - 1, -1, -1, dtype=np.uint64)


def word_base(base_col: int, num_words: int) -> np.ndarray:
    """Absolute column of bit 0 of each word (precompute per window)."""
    return base_col + WORD_BITS * np.arange(num_words, dtype=np.int64)


def start_masks(
    starts: np.ndarray,
    base_col: int,
    num_words: int,
    bases: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-row masks keeping only bits at absolute columns ``>= starts[r]``.

    ``base_col`` is the absolute column of bit 0 of word 0 (a multiple of
    64).  Columns left of ``base_col`` are treated as already excluded.
    ``bases`` optionally reuses a precomputed :func:`word_base` row.
    """
    if bases is None:
        bases = word_base(base_col, num_words)
    shift = starts[:, None] - bases[None, :]
    np.maximum(shift, 0, out=shift)
    np.minimum(shift, WORD_BITS, out=shift)
    return _HIGH_MASKS[shift]


def tail_mask(
    stop: int,
    base_col: int,
    num_words: int,
    bases: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One mask row keeping only bits at absolute columns ``< stop``."""
    if bases is None:
        bases = word_base(base_col, num_words)
    keep = np.clip(stop - bases, 0, WORD_BITS)
    return _LOW_MASKS[keep]


def _cumulative_counts(words: np.ndarray) -> np.ndarray:
    """Per-row running popcount: ``cum[r, w]`` counts bits in words < ``w``."""
    num_rows, num_words = words.shape
    cum = np.zeros((num_rows, num_words + 1), dtype=np.int64)
    np.cumsum(popcount(words), axis=1, out=cum[:, 1:])
    return cum


def prefix_counts(words: np.ndarray, base_col: int, cols) -> np.ndarray:
    """Set bits strictly before the given per-row absolute columns.

    ``cols`` holds one column per row (``(rows,)``); the result is the
    ``(rows,)`` count of bits at columns ``< cols[r]`` — one masked
    popcount (bits below the column are exactly the complement of the
    :func:`start_masks` row).  For one shared column vector across all
    rows use :func:`prefix_counts_multi`.
    """
    below = start_masks(np.asarray(cols, dtype=np.int64), base_col, words.shape[-1])
    np.invert(below, out=below)
    below &= words
    return row_counts(below)


def prefix_counts_multi(words: np.ndarray, base_col: int, cols: np.ndarray) -> np.ndarray:
    """Set bits strictly before each shared column: ``(rows, len(cols))``."""
    num_rows, num_words = words.shape
    rel = np.asarray(cols, dtype=np.int64) - base_col
    word = rel >> 6
    cum = _cumulative_counts(words)
    low = _LOW_MASKS[rel & 63]
    if int(word.max(initial=0)) < num_words:
        # Every column lands inside the word range (the common case).
        partial = popcount(words[:, word] & low[None, :])
        return cum[:, word] + partial
    full = cum[:, np.minimum(word, num_words)]
    inside = word < num_words
    partial_words = words[:, np.minimum(word, num_words - 1)]
    partial = popcount(partial_words & low[None, :])
    return full + np.where(inside[None, :], partial, 0)


def bit_at(words: np.ndarray, base_col: int, cols) -> np.ndarray:
    """Bit value per row at the given absolute column(s).

    Scalar ``cols`` yields ``(rows,)``; a ``(k,)`` vector yields
    ``(rows, k)``.
    """
    rel = np.asarray(cols, dtype=np.int64) - base_col
    word = rel >> 6
    shift = (rel & 63).astype(np.uint64)
    if rel.ndim == 0:
        return ((words[:, int(word)] >> shift) & _ONE).astype(bool)
    return ((words[:, word] >> shift[None, :]) & _ONE).astype(bool)


def first_set(words: np.ndarray, base_col: int):
    """First set bit per row: ``(has, absolute_column)``.

    Rows without a set bit report ``has=False`` and an undefined column.
    The in-word position comes from the classic isolate-lowest-bit trick:
    ``popcount((w & -w) - 1)`` counts the zeros below the lowest set bit.
    """
    word_index = (words != 0).argmax(axis=1)
    word = words[_iota(words.shape[0]), word_index]
    has = word != 0
    lowest = word & np.negative(word)
    lowest -= _ONE
    trailing = popcount(lowest)
    col = word_index << 6
    col += trailing
    col += base_col
    return has, col


# _SELECT_IN_BYTE[b, r - 1] is the position of the r-th set bit of byte
# ``b`` (1-based rank; unused slots are 0).  256 x 8 is small enough to
# precompute eagerly and turns in-byte rank selection into one table read.
_SELECT_IN_BYTE = np.zeros((256, 8), dtype=np.int64)
for _byte in range(256):
    _where = [bit for bit in range(8) if _byte >> bit & 1]
    _SELECT_IN_BYTE[_byte, : len(_where)] = _where
del _byte, _where

_BYTE_SHIFTS = (np.arange(8, dtype=np.uint64) * np.uint64(8))


def kth_set(words: np.ndarray, base_col: int, k: np.ndarray) -> np.ndarray:
    """Absolute column of the ``k``-th set bit per row (1-based).

    Callers guarantee ``1 <= k[r] <= row_counts(words)[r]``.  Small
    batches on little-endian hosts view the row as raw bytes (byte ``j``
    of word ``w`` holds columns ``64w + 8j ..``): a per-byte table
    popcount and a running sum find the target byte, and the in-byte rank
    reads a precomputed 256 x 8 select table.  Larger batches (and
    big-endian hosts) walk words first — a word-level running popcount,
    then the target word's 8 bytes by explicit shifts — which touches an
    eighth of the columns per row.  Same results either way.  Rank-1
    selections — the overwhelmingly common case in the scan's join hooks
    — short-circuit to :func:`first_set`.
    """
    num_rows = words.shape[0]
    k = np.asarray(k, dtype=np.int64)
    if int(k.max(initial=1)) == 1:
        return first_set(words, base_col)[1]
    ones = k == 1
    if ones.any():
        # Mixed batch: peel the rank-1 rows off to the lowest-set-bit
        # shortcut and rank-select only the (typically few) deeper rows.
        col = np.empty(num_rows, dtype=np.int64)
        oidx = ones.nonzero()[0]
        col[oidx] = first_set(words[oidx], base_col)[1]
        didx = (~ones).nonzero()[0]
        col[didx] = kth_set(words[didx], base_col, k[didx])
        return col
    rows = _iota(num_rows)
    if _LITTLE_ENDIAN and num_rows <= 48:
        # The byte walk runs over 8x the columns of the word walk, so its
        # flat-per-row savings only pay below a few dozen rows.
        row_bytes = np.ascontiguousarray(words).view(np.uint8)
        cum = _BYTE_COUNTS[row_bytes].cumsum(axis=1, dtype=np.int64)
        byte_index = (cum >= k[:, None]).argmax(axis=1)
        byte = row_bytes[rows, byte_index]
        # Rank within the byte: bits before it are the running count minus
        # the byte's own contribution.
        rank = k - cum[rows, byte_index]
        rank += _BYTE_COUNTS[byte]
        col = byte_index << 3
        col += _SELECT_IN_BYTE[byte, rank - 1]
        col += base_col
        return col
    cum = _cumulative_counts(words)
    word_index = (cum[:, 1:] >= k[:, None]).argmax(axis=1)
    rank = k - cum[rows, word_index]
    word = words[rows, word_index]
    word_bytes = (word[:, None] >> _BYTE_SHIFTS) & np.uint64(0xFF)
    byte_cum = popcount(word_bytes).cumsum(axis=1, dtype=np.int64)
    byte_index = (byte_cum >= rank[:, None]).argmax(axis=1)
    rank -= np.where(byte_index > 0, byte_cum[rows, byte_index - 1], 0)
    byte = word_bytes[rows, byte_index].astype(np.int64)
    bit = 8 * byte_index + _SELECT_IN_BYTE[byte, rank - 1]
    return base_col + WORD_BITS * word_index.astype(np.int64) + bit


@dataclass
class PackedWindow:
    """One scan window's packed reception bits, handed to protocol hooks.

    Attributes
    ----------
    words:
        Receiver-major packed reception matrix (rows are the active
        receivers of the call), already masked to each receiver's
        unconsumed columns and to the window's column range.
    base_col:
        Absolute column of bit 0 of ``words[:, 0]`` (a multiple of 64).
    col_lo / col_hi:
        The (segment) column range the view represents: ``[col_lo,
        col_hi)`` in absolute chunk columns.  Bits outside it are zero.
    num_obs_cols:
        Number of *observable* columns in the range (layer at most the
        window's top subscription) — an upper bound on any row's
        receptions, used by join hooks to prune candidates.
    last_obs_col:
        Largest observable column in the window (``-1`` when none); the
        Coordinated protocol's sync-point anchor.
    """

    words: np.ndarray
    base_col: int
    col_lo: int
    col_hi: int
    num_obs_cols: int
    last_obs_col: int

    def bit_at(self, cols, rows=None) -> np.ndarray:
        """Reception bit per (selected) row at absolute column(s)."""
        words = self.words if rows is None else self.words[rows]
        return bit_at(words, self.base_col, cols)

    def prefix_counts_multi(self, cols: np.ndarray) -> np.ndarray:
        """Receptions strictly before each shared absolute column."""
        return prefix_counts_multi(self.words, self.base_col, cols)

    def kth_set(self, rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Absolute column of each selected row's ``k``-th reception."""
        return kth_set(self.words[rows], self.base_col, k)

    def prefix_counts(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Receptions strictly before each selected row's absolute column."""
        return prefix_counts(self.words[rows], self.base_col, cols)
