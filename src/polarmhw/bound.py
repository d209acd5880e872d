"""Tail decomposition, zero-capacity position sets, and the codeword-count bound.

After a first nonzero decision at position i, the remaining positions
[i+1, N] split into complete subtrees, one per zero digit of the binary
expansion of i - 1.  Within each subtree, the positions whose decoding LLR
is forced to exactly zero on a noiseless all-ones input form the
zero-capacity set of i; free choices there are the only way to extend the
trajectory without leaving the minimum-weight set.  Counting them gives the
upper bound

    count <= sum over minimum-weight rows i of 2**|zero_capacity_set(i) & A|

computed here without touching full generator rows.  One kernel
enumerates the zero-capacity positions of all trigger rows of a code at
once, in numpy blocks grouped by how many such positions a tail part holds,
so the bound costs the total size of those sets, at most
(trigger rows) * log N * d_m positions, plus about log2(d_m) + 1 groups of
numpy calls per code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from polarmhw.bitops import _check_length, encode, min_distance

__all__ = [
    "Part",
    "TriggerTerm",
    "BoundReport",
    "decompose",
    "zero_capacity_set",
    "bound_count",
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
class TriggerTerm:
    i: int
    overlap: int
    term: int
    members: tuple[int, ...] | None


@dataclass(frozen=True)
class BoundReport:
    """The bound of one code: its minimum-weight rows a_m, each row's
    overlap (how many of its zero-capacity positions are information
    positions), each row's marked positions when they were asked for, and
    total, the exact sum of 2**overlap.  The TriggerTerm tuple is built the
    first time something reads triggers."""

    N: int
    d_m: int
    a_m: tuple[int, ...]
    overlaps: tuple[int, ...]
    members: tuple[tuple[int, ...], ...] | None
    total: int

    @cached_property
    def triggers(self) -> tuple[TriggerTerm, ...]:
        members = (None,) * len(self.a_m) if self.members is None else self.members
        return tuple(
            TriggerTerm(i, overlap, 1 << overlap, m)
            for i, overlap, m in zip(self.a_m, self.overlaps, members)
        )


# ---- tail decomposition and zero-capacity sets ----


def decompose(i: int, n: int) -> tuple[Part, ...]:
    """Split [i+1, 2**n] into complete subtrees, one per zero digit of i - 1,
    in ascending order: with r = i - 1, the part at a zero digit t of r
    starts at the 0-based position (r >> t << t) | 1 << t, the closed form
    _zero_capacity uses.  i = 2**n has no zero digit below n, hence an
    empty tail and no parts.
    """
    if n < 1 or not 1 <= i <= (1 << n):
        raise ValueError(f"index i={i} must lie in [1, 2^{n}]")
    r = i - 1
    bases = [(t, r >> t << t | 1 << t) for t in range(n) if not r >> t & 1]
    return tuple(Part(k, b + 1, b + (1 << t), t, (b >> t) + 1) for k, (t, b) in enumerate(bases, 1))


_DIGITS = 1 << np.arange(63, dtype=np.int64)


def _zero_capacity(a, n: int, info_mask: np.ndarray, keep: bool = False):
    """The zero-capacity positions of every row i of the sequence a at once:
    per row, how many of them info_mask marks, and on request those marked
    positions, 0-based and ordered by (row, position).

    With r = i - 1, the part of the tail at a zero digit t of r starts at
    base = (r >> t << t) | 1 << t, and its zero-capacity positions are base
    plus each submask of r mod 2**t (equivalently: the e > i whose e - 1 has
    exactly one digit that r lacks).  The (row, t) pairs are grouped by
    q = popcount(r mod 2**t), so each group's (pairs, 2**q) block of
    positions takes q doublings, one per digit of r below t, lowest first.
    The work is the total size of the sets plus one group of numpy calls per
    value of q.
    """
    # array methods, not np.nonzero/np.argsort/np.cumsum: their dispatch is
    # a large share of the fixed cost of a code with few triggers
    r = np.asarray(a, dtype=np.int64) - 1
    rows, t = (~r[:, None] & _DIGITS[:n]).nonzero()
    r_t, bit = r[rows], _DIGITS[t]
    low = r_t & (bit - 1)
    q = np.bitwise_count(low)
    # pairs in ascending q, rows still ascending within each group
    order = q.argsort(kind="stable")
    rows, low, base = rows[order], low[order], ((r_t - low) | bit)[order]
    hits = np.empty(len(rows), dtype=np.int64)
    kept_rows, kept = [rows[:0]], [r[:0]]  # empty seeds: a row may have no pair
    end = 0
    for size, pairs in enumerate(np.bincount(q).tolist()):
        if not pairs:
            continue
        start, end = end, end + pairs
        block, m = base[start:end, None], low[start:end]
        for _ in range(size):
            b = m & -m
            m = m ^ b
            block = np.concatenate([block, block | b[:, None]], axis=1)
        marked = info_mask[block]
        hits[start:end] = marked.sum(axis=1)
        if keep:
            kept_rows.append(np.repeat(rows[start:end], hits[start:end]))
            kept.append(block[marked])
    counts = np.zeros(len(r), dtype=np.int64)
    np.add.at(counts, rows, hits)
    if not keep:
        return counts, None
    kept_rows, kept = np.concatenate(kept_rows), np.concatenate(kept)
    return counts, kept[np.lexsort((kept, kept_rows))]


def zero_capacity_set(i: int, N: int) -> frozenset[int]:
    """Positions after i whose decoding LLR is pinned to zero once a
    trajectory puts its first 1 at i (noiseless all-ones input)."""
    n = _check_length(N)
    if not 1 <= i <= N:
        raise ValueError(f"index i={i} out of range [1, {N}]")
    _, zc = _zero_capacity([i], n, np.ones(N, dtype=bool), keep=True)
    return frozenset((zc + 1).tolist())


def bound_count(spec, materialize_sets: bool = False) -> BoundReport:
    """Upper bound on the number of minimum-weight codewords.

    One term per minimum-weight information row i: 2 to the number of
    zero-capacity positions of i that are information positions.  The report
    carries those position sets when materialize_sets is true.
    """
    d_m, a_m = min_distance(spec)
    counts, hits = _zero_capacity(a_m, spec.n, spec.info_mask, materialize_sets)
    members = None
    if materialize_sets:
        members = tuple(tuple(h.tolist()) for h in np.split(hits + 1, counts.cumsum()[:-1]))
    # rows sharing an overlap share a term: one shift per distinct overlap
    total = sum(rows << overlap for overlap, rows in enumerate(np.bincount(counts).tolist()))
    return BoundReport(spec.N, d_m, a_m, tuple(counts.tolist()), members, total)


# ---- subtree root LLRs in closed form ----


def subtree_input_llr(i: int, k: int, prefix_decisions, n: int) -> list:
    """LLR vector entering the root of part k of the tail of i, for an
    all-ones channel input and the given earlier decisions.

    Stage-0 parts are single zero-capacity leaves: scalar [0].  Otherwise
    the vector is 2x(1 - beta) elementwise, where beta encodes the decisions
    under the part root's left sibling and x doubles once per set digit of
    i - 1 above the part's stage.
    """
    parts = decompose(i, n)
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
    x = 1 << ((i - 1) >> (part.lam + 1)).bit_count()
    return [2 * x * (1 - c) for c in encode(prefix_decisions[sib_start : sib_start + size])]
