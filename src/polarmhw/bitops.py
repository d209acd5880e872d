"""Bit-vector algebra for polar codes in natural (non-bit-reversed) order.

Conventions used across the package:

* Code length N = 2**n.  Row/column/leaf indices are 1-based on the public
  surface; the binary expansion of an index i works on i - 1.
* Binary expansions are least-significant-digit first: digit j (1-based) of
  x is (x >> (j - 1)) & 1.
* The generator matrix G_N is the n-fold Kronecker power of the 2x2
  lower-triangular kernel [[1, 0], [1, 1]].  Entry (r, c) of G_N (1-based) is
  1 exactly when the binary expansion of c - 1 is bitwise covered by the
  expansion of r - 1.  Row weights are therefore 2**popcount(r - 1).

Rows are computed on demand; no N x N matrix is ever materialized, so the
counting path stays cheap even for N in the 2**16 range.  min_distance hands
back the (d_m, rows) pair that a CodeSpec computes once from its mask.

The polar transform has one implementation here, on rows packed 64 bits to a
little-endian uint64 word (_pack, _unpack, _transform, _weights), which are
also the package's one row format for sets of vectors: encode, encode_rows,
the enumerators' weight filter, mhw.MhwResult and the enumeration file's
writer and reader all run on it.  mhw.exhaustive_mhw packs generator rows
its own way on purpose, so that the oracle shares no transform with the
enumerators.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "positions_of",
    "generator_row",
    "encode",
    "encode_rows",
    "min_distance",
]


# ---- index sets ----


def positions_of(symbol: int, x) -> tuple[int, ...]:
    """Ascending 1-based positions where the bit vector x equals symbol."""
    return tuple(p for p, v in enumerate(x, start=1) if v == symbol)


# ---- generator rows and encoding ----


def _check_int(name: str, value, lo=None, hi=None) -> int:
    """The package's one integer rule: value as a Python int if it is a
    Python or numpy integer within [lo, hi] (None: unbounded), else one
    ValueError naming it.  A float is refused even when integer-valued, and
    so is a bool, so a count, index or seed is never truncated or a flag."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}={value!r} must be an integer")
    value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name}={value} must be {bounds}")
    return value


def _check_length(N) -> tuple[int, int]:
    """Validate a code length: (N, log2(N)) as Python ints."""
    N = _check_int("N", N)
    n = N.bit_length() - 1
    if N < 2 or (1 << n) != N:
        raise ValueError(f"code length N={N} is not a power of two >= 2")
    return N, n


def _check_bits(u, what: str):
    """u's entries, each equal to 0 or 1 as 1.0, True and np.uint8(1) are: a
    numpy array as it is, checked in one pass, anything else as a list of ints."""
    if array := isinstance(u, np.ndarray):
        ok = ((u == 0) | (u == 1)).all()
    else:
        u = list(u)
        ok = all(b in (0, 1) for b in u)
    if not ok:
        raise ValueError(f"{what} must be a 0/1 vector")
    return u if array else [int(b) for b in u]


def generator_row(i: int, N: int) -> list[int]:
    """Row i of G_N: column c is 1 iff (c-1) is bitwise covered by (i-1)."""
    N, _ = _check_length(N)
    mask = _check_int("i", i, 1, N) - 1
    return [1 if (c & ~mask) == 0 else 0 for c in range(N)]


def encode(u) -> list[int]:
    """Polar transform c = u G_N over GF(2) of one 0/1 vector (see encode_rows).

    The transform is an involution: encode(encode(u)) == u.
    """
    return encode_rows(np.array([_check_bits(u, "u")], dtype=np.uint8))[0].tolist()


def encode_rows(u):
    """Polar transform of every row of a (rows, N) 0/1 integer array, run on
    the rows' packed words.  Returns a new array of the same shape and dtype."""
    u = _check_bits(np.asarray(u), "u")
    _check_length(u.shape[1])
    return _unpack(_transform(_pack(u), u.shape[1]), u.shape[1]).astype(u.dtype)


# Per stage with half = 2**k < 64, the bits whose partner sits half places
# higher in the same word, those whose index has bit k clear: 0x5555...,
# 0x3333..., 0x0F0F..., 0x00FF..., 0x0000FFFF... and 0x00000000FFFFFFFF.
_STAGE_MASKS = [np.uint64(sum(1 << b for b in range(64) if not b >> k & 1)) for k in range(6)]


def _pack(rows) -> np.ndarray:
    """A (rows, N) 0/1 array as (rows, ceil(N / 64)) little-endian uint64
    words: position p (1-based) is bit (p - 1) % 64 of word (p - 1) // 64,
    and the bits past N are zero."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    if packed.shape[1] % 8:
        # a zeroed buffer, not np.pad, whose fixed cost dominates short rows
        words = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
        words[:, : packed.shape[1]] = packed
        packed = words
    return packed.view("<u8")


def _first_ones(words) -> np.ndarray:
    """The 1-based position of the first 1 of each nonzero packed row: the
    lowest set bit of its first nonzero word."""
    column = (words != 0).argmax(axis=1)
    low = words[np.arange(len(words)), column]
    return 64 * column + np.bitwise_count(low ^ (low - 1))


def _unpack(words: np.ndarray, N: int) -> np.ndarray:
    """C-contiguous packed rows of length N as a new read-only uint8 array."""
    rows = np.unpackbits(words.view(np.uint8), axis=1, count=N, bitorder="little")
    rows.flags.writeable = False
    return rows


def _transform(words: np.ndarray, N: int) -> np.ndarray:
    """Polar transform of packed rows of length N, in place: the stages
    inside a word shift and mask, the stages across words XOR whole words
    by the reshape butterfly.  Returns words."""
    for k, mask in enumerate(_STAGE_MASKS):
        if 1 << k >= N:
            break
        words ^= (words >> (1 << k)) & mask
    rows, W = words.shape
    half = 1
    while half < W:
        pairs = words.reshape(rows, W // (2 * half), 2, half)
        pairs[:, :, 0, :] ^= pairs[:, :, 1, :]
        half *= 2
    return words


def _weights(words: np.ndarray) -> np.ndarray:
    """Hamming weight of every packed row."""
    return np.bitwise_count(words).sum(axis=1)


# ---- minimum distance ----


def min_distance(spec) -> tuple[int, tuple[int, ...]]:
    """Minimum distance d_m of a CodeSpec and the rows of A attaining it.

    For any information set over G_N the minimum distance equals the minimum
    generator-row weight: the span of the chosen rows sits inside the
    Reed-Muller code of the largest chosen row degree, whose minimum distance
    is exactly the smallest chosen row weight, and a single row attains it.
    The spec computes the pair once and keeps it.
    """
    return spec._min_distance_pair
