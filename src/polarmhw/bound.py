"""Tail decomposition, zero-capacity position sets, and the codeword-count bound.

After a first nonzero decision at position i, the remaining positions
[i+1, N] split into complete subtrees, one per zero digit of the binary
expansion of i - 1.  Within each subtree, the positions whose decoding LLR
is forced to exactly zero on a noiseless all-ones input form the
zero-capacity set of i; free choices there are the only way to extend the
trajectory without leaving the minimum-weight set.  Counting them gives the
upper bound

    count <= sum over minimum-weight rows i of 2**|zero_capacity_set(i) & A|

computed here without touching full generator rows, so the whole bound costs
polylog work per trigger row rather than anything proportional to N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from polarmhw.bitops import _check_length, encode, min_distance

__all__ = [
    "Part",
    "Decomposition",
    "TriggerTerm",
    "BoundReport",
    "decompose",
    "zero_capacity_set",
    "bound_count",
    "per_subset_bound",
    "subtree_input_llr",
]

@dataclass(frozen=True)
class Part:
    """One complete subtree of the tail: positions [start, end], rooted at
    node `node` of stage `lam` (so end - start + 1 == 2**lam)."""

    k: int
    start: int
    end: int
    lam: int
    node: int


@dataclass(frozen=True)
class Decomposition:
    i: int
    n: int
    parts: tuple[Part, ...]


@dataclass(frozen=True)
class TriggerTerm:
    i: int
    overlap: int
    term: int
    members: tuple[int, ...] | None


@dataclass(frozen=True)
class BoundReport:
    N: int
    d_m: int
    triggers: tuple[TriggerTerm, ...]
    total: int

    @property
    def a_m(self) -> tuple[int, ...]:
        return tuple(t.i for t in self.triggers)


# ---- tail decomposition and zero-capacity sets ----


def _tail(i: int, n: int):
    """(start, lam) of each part of the tail of i, in ascending order: walking
    the digits of i - 1 from the least significant, a zero digit at stage lam
    adds a part of 2**lam positions right after the previous one."""
    r = i - 1
    start = i + 1
    for lam in range(n):
        if not (r >> lam) & 1:
            yield start, lam
            start += 1 << lam


def decompose(i: int, n: int) -> Decomposition:
    """Split [i+1, 2**n] into complete subtrees, one per zero digit of i - 1,
    tiling the tail in ascending order.  i = 2**n has no zero digit below n,
    hence an empty tail and an empty decomposition.
    """
    if n < 1 or not 1 <= i <= (1 << n):
        raise ValueError(f"index i={i} must lie in [1, 2^{n}]")
    parts = []
    for start, lam in _tail(i, n):
        end = start + (1 << lam) - 1
        parts.append(Part(len(parts) + 1, start, end, lam, end >> lam))
    return Decomposition(i, n, tuple(parts))


@lru_cache(maxsize=4096)
def _subset_values(mask: int) -> np.ndarray:
    """All submasks of `mask` as an ascending int64 array."""
    arr = np.zeros(1, dtype=np.int64)
    m = mask
    while m:
        b = m & -m
        arr = np.concatenate([arr, arr | b])
        m ^= b
    return arr


def _zero_capacity(i: int, n: int) -> np.ndarray:
    """Ascending 0-based indices of the zero-capacity positions of i.

    Within each part, these are the offsets covered by the low lam digits of
    i - 1, where the length-2**lam prefix of generator row i is 1
    (equivalently: the e > i whose e - 1 has exactly one digit that i - 1
    lacks).  The parts are read off the digit walk directly: building Part
    objects would cost more than the rest of the bound.
    """
    r = i - 1
    chunks = [start - 1 + _subset_values(r & ((1 << lam) - 1)) for start, lam in _tail(i, n)]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def zero_capacity_set(i: int, N: int) -> frozenset[int]:
    """Positions after i whose decoding LLR is pinned to zero once a
    trajectory puts its first 1 at i (noiseless all-ones input)."""
    n = _check_length(N)
    if not 1 <= i <= N:
        raise ValueError(f"index i={i} out of range [1, {N}]")
    return frozenset((_zero_capacity(i, n) + 1).tolist())


def _overlap(i: int, n: int, info_mask: np.ndarray, want_members: bool):
    """|zero_capacity_set(i) & A|, and on request its ascending members."""
    zc = _zero_capacity(i, n)
    hits = zc[info_mask[zc]]
    return len(hits), tuple((hits + 1).tolist()) if want_members else None


def bound_count(spec, materialize_sets: bool = False) -> BoundReport:
    """Upper bound on the number of minimum-weight codewords.

    One term per minimum-weight information row i: 2 to the number of
    zero-capacity positions of i that are information positions.  The report
    carries those position sets when materialize_sets is true.
    """
    d_m, a_m = min_distance(spec)
    N = spec.N
    n = N.bit_length() - 1
    info_mask = spec.info_mask
    triggers = []
    total = 0
    for i in a_m:
        overlap, members = _overlap(i, n, info_mask, materialize_sets)
        term = 1 << overlap
        triggers.append(TriggerTerm(i, overlap, term, members))
        total += term
    return BoundReport(N, d_m, tuple(triggers), total)


def per_subset_bound(i: int, spec) -> int:
    """Bound term 2**|zero_capacity_set(i) & A| for one minimum-weight row."""
    d_m, a_m = min_distance(spec)
    if i not in a_m:
        raise ValueError(f"position {i} is not a minimum-weight information row")
    n = spec.N.bit_length() - 1
    overlap, _ = _overlap(i, n, spec.info_mask, False)
    return 1 << overlap


# ---- subtree root LLRs in closed form ----


def subtree_input_llr(i: int, k: int, prefix_decisions, n: int) -> list:
    """LLR vector entering the root of part k of the tail of i, for an
    all-ones channel input and the given earlier decisions.

    Stage-0 parts are single zero-capacity leaves: scalar [0].  Otherwise
    the vector is 2x(1 - beta) elementwise, where beta encodes the decisions
    under the part root's left sibling and x doubles once per set digit of
    i - 1 above the part's stage.
    """
    parts = decompose(i, n).parts
    if not 1 <= k <= len(parts):
        raise ValueError(f"part index k={k} out of range [1, {len(parts)}]")
    part = parts[k - 1]
    if part.lam == 0:
        return [0]
    size = 1 << part.lam
    sib_start = (part.node - 2) * size  # 0-based slice start of the left sibling
    if len(prefix_decisions) < sib_start + size:
        raise ValueError(
            f"prefix covers {len(prefix_decisions)} positions; part {k} of i={i} "
            f"needs decisions through position {sib_start + size}"
        )
    seg = list(prefix_decisions[sib_start : sib_start + size])
    if any(b not in (0, 1) for b in seg):
        raise ValueError("prefix decisions must be a 0/1 vector")
    x = 1 << ((i - 1) >> (part.lam + 1)).bit_count()
    return [2 * x * (1 - c) for c in encode(seg)]
