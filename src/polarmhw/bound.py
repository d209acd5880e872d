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

from polarmhw.bitops import (
    _check_length,
    binary_expansion,
    encode,
    min_distance,
    positions_of,
    row_prefix,
    zero_digit_prefix_sum,
)

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

# reports materialize the per-trigger member sets only for codes up to this
# length unless the caller overrides; the counts themselves are always exact
_MATERIALIZE_LIMIT = 4096


@dataclass(frozen=True)
class Part:
    """One complete subtree of the tail: positions [start, end], rooted at
    node `node` of stage `lam` (so end - start + 1 == 2**lam)."""

    k: int
    start: int
    end: int
    lam: int
    node: int

    def positions(self) -> range:
        return range(self.start, self.end + 1)


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


# ---- tail decomposition ----


def decompose(i: int, n: int) -> Decomposition:
    """Split [i+1, 2**n] into complete subtrees, one per zero digit of i - 1.

    The k-th zero digit (1-based position p_k in the LSB-first expansion)
    contributes a subtree of stage lam = p_k - 1; subtree spans are the
    partial sums of 2**lam, so the parts tile the tail in ascending order.
    i = 2**n has an empty tail and an empty decomposition.
    """
    if n < 1 or not 1 <= i <= (1 << n):
        raise ValueError(f"index i={i} must lie in [1, 2^{n}]")
    if i == (1 << n):
        return Decomposition(i, n, ())
    zeros = positions_of(0, binary_expansion(i - 1, n))
    parts = []
    prev = 0
    for k, p in enumerate(zeros, start=1):
        lam = p - 1
        gamma = zero_digit_prefix_sum(i, n, k)
        start, end = i + 1 + prev, i + gamma
        parts.append(Part(k, start, end, lam, end >> lam))
        prev = gamma
    return Decomposition(i, n, tuple(parts))


def zero_capacity_set(i: int, N: int) -> frozenset[int]:
    """Positions after i whose decoding LLR is pinned to zero once a
    trajectory puts its first 1 at i (noiseless all-ones input).

    Within each part, these sit at the offsets where the length-2**lam
    prefix of generator row i is 1.
    """
    n = _check_length(N)
    if not 1 <= i <= N:
        raise ValueError(f"index i={i} out of range [1, {N}]")
    out = []
    for part in decompose(i, n).parts:
        prefix = row_prefix(i, part.lam, N)
        base = part.start - 1
        out.extend(base + h for h in positions_of(1, prefix))
    return frozenset(out)


# ---- fast membership counting ----


@lru_cache(maxsize=4096)
def _subset_values(mask: int) -> np.ndarray:
    """All submasks of `mask` as an int64 array (unordered)."""
    arr = np.zeros(1, dtype=np.int64)
    m = mask
    while m:
        b = m & -m
        arr = np.concatenate([arr, arr | b])
        m ^= b
    return arr


def _overlap(i: int, n: int, info_mask: np.ndarray, want_members: bool):
    """|zero_capacity_set(i) & A| via the one-extra-bit form: the members are
    exactly the e with e-1 = (high bits of i-1 above t) | 2**t | s for some
    unset bit t of i-1 and submask s of its bits below t."""
    r = i - 1
    count = 0
    chunks = [] if want_members else None
    for t in range(n):
        if (r >> t) & 1:
            continue
        base = (r & ~((1 << t) - 1)) | (1 << t)
        cand = base | _subset_values(r & ((1 << t) - 1))
        hits = info_mask[cand]
        count += int(hits.sum())
        if want_members:
            chunks.append(cand[hits] + 1)
    if want_members:
        members = np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.int64)
        return count, tuple(int(e) for e in members)
    return count, None


def bound_count(spec, materialize_sets: bool | None = None) -> BoundReport:
    """Upper bound on the number of minimum-weight codewords.

    One term per minimum-weight information row i: 2 to the number of
    zero-capacity positions of i that are information positions.  The report
    carries those position sets when materialize_sets is true (default: only
    for N up to 4096).
    """
    d_m, a_m = min_distance(spec)
    N = spec.N
    n = N.bit_length() - 1
    if materialize_sets is None:
        materialize_sets = N <= _MATERIALIZE_LIMIT
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
