"""Tail decomposition, zero-capacity position sets, and the codeword-count bound.

After a first nonzero decision at position i, the remaining positions
[i+1, N] split into complete subtrees, one per zero digit of the binary
expansion of i - 1.  Within each subtree, the positions whose decoding LLR
is forced to exactly zero on a noiseless all-ones input form the
zero-capacity set of i; free choices there are the only way to extend the
trajectory without leaving the minimum-weight set.  Counting them gives the
upper bound

    count <= sum over minimum-weight rows i of 2**|zero_capacity_set(i) & A|

computed here without touching full generator rows.  One generator
enumerates the zero-capacity positions of all trigger rows of a code at
once, in numpy blocks grouped by how many such positions a tail part holds,
so the bound costs the total size of those sets, at most
(trigger rows) * log N * d_m positions, plus about log2(d_m) + 1 groups of
numpy calls per code.  The bound reads the blocks through the code's
information mask; _prefix_bounds reads them through the ranks of one
reliability order, for every code that is a prefix of it at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from polarmhw.bitops import _check_int, _check_length, encode, min_distance

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
    first time something reads triggers; _terms gives its (i, overlap, term)
    rows without it."""

    N: int
    d_m: int
    a_m: tuple[int, ...]
    overlaps: tuple[int, ...]
    members: tuple[tuple[int, ...], ...] | None
    total: int

    def _terms(self):
        return ((i, overlap, 1 << overlap) for i, overlap in zip(self.a_m, self.overlaps))

    @cached_property
    def triggers(self) -> tuple[TriggerTerm, ...]:
        members = (None,) * len(self.a_m) if self.members is None else self.members
        return tuple(TriggerTerm(*row, m) for row, m in zip(self._terms(), members))


# ---- tail decomposition and zero-capacity sets ----


def decompose(i: int, n: int) -> tuple[Part, ...]:
    """Split [i+1, 2**n] into complete subtrees, one per zero digit of i - 1,
    in ascending order: with r = i - 1, the part at a zero digit t of r
    starts at the 0-based position (r >> t << t) | 1 << t, the closed form
    _zero_capacity_blocks uses.  i = 2**n has no zero digit below n, hence
    an empty tail and no parts.
    """
    n = _check_int("n", n, 1)
    r = _check_int("i", i, 1, 1 << n) - 1
    bases = [(t, r >> t << t | 1 << t) for t in range(n) if not r >> t & 1]
    return tuple(Part(k, b + 1, b + (1 << t), t, (b >> t) + 1) for k, (t, b) in enumerate(bases, 1))


_DIGITS = 1 << np.arange(63, dtype=np.int64)
# positions in one block of _zero_capacity_blocks (more only when one part
# is larger), and the (trigger, index) cells and positions _prefix_bounds
# holds at a time
_BLOCK_ENTRIES = 1 << 16


def _zero_capacity_blocks(r, n: int):
    """The zero-capacity positions of every 0-based row of the int64 array r,
    as (pair rows, block) chunks of at most _BLOCK_ENTRIES positions: row k
    of block holds the 0-based positions of one tail part of row
    r[pair_rows[k]].

    With r the row, the part of the tail at a zero digit t of r starts at
    base = (r >> t << t) | 1 << t, and its zero-capacity positions are base
    plus each submask of r mod 2**t (equivalently: the e > i whose e - 1 has
    exactly one digit that r lacks).  The (row, t) pairs are grouped by
    q = popcount(r mod 2**t), so each group's (pairs, 2**q) block of
    positions takes q doublings, one per digit of r below t, lowest first.
    The work is the total size of the sets plus one group of numpy calls per
    value of q and chunk.
    """
    # array methods, not np.nonzero/np.argsort: their dispatch is a large
    # share of the fixed cost of a code with few triggers
    rows, t = (~r[:, None] & _DIGITS[:n]).nonzero()
    r_t, bit = r[rows], _DIGITS[t]
    low = r_t & (bit - 1)
    q = np.bitwise_count(low)
    # pairs in ascending q, rows still ascending within each group
    order = q.argsort(kind="stable")
    rows, low, base = rows[order], low[order], ((r_t - low) | bit)[order]
    end = 0
    for size, pairs in enumerate(np.bincount(q).tolist()):
        start, end = end, end + pairs
        step = max(1, _BLOCK_ENTRIES >> size)
        for lo in range(start, end, step):
            hi = min(lo + step, end)
            block, m = np.empty((1 << size, hi - lo), dtype=np.int64), low[lo:hi]
            block[0] = base[lo:hi]
            for k in range(size):
                b = m & -m
                m = m ^ b
                np.bitwise_or(block[: 1 << k], b, out=block[1 << k : 2 << k])
            yield rows[lo:hi], block.T


def _prefix_bounds(ranking: np.ndarray, Ks) -> tuple[list[int], list[int]]:
    """d_m and bound total of every code made of the first K rows of one
    order, for each K of Ks (in any order, repeats allowed), off one pass over
    the order: ranking holds the 0-based rows, most reliable first.

    d_m is 2 to the prefix minimum of popcount over the order, so it changes
    at most n + 1 times.  Within one d_m (an epoch of the sorted distinct
    Ks), the triggers are the rows of that popcount ranked below the epoch's
    last K, and their zero-capacity blocks are enumerated once.  Each
    position is labelled with the first grid index whose K exceeds its rank,
    so a trigger's overlap at each index of the epoch is a cumulative count
    of its labels over a chunk of (trigger, index) cells.  Totals are int64
    while no epoch total can pass 2**62, Python ints past that.
    """
    ranking = np.asarray(ranking, dtype=np.int64)
    N, n = len(ranking), len(ranking).bit_length() - 1
    grid = np.unique(np.asarray(Ks, dtype=np.int64))
    label = np.empty(N, dtype=np.int32)
    label[ranking] = grid.searchsorted(np.arange(N), side="right")
    weight = np.minimum.accumulate(np.bitwise_count(ranking))[grid - 1].astype(np.int64)
    popcount = np.bitwise_count(np.arange(N))
    small, big = np.zeros(len(grid), dtype=np.int64), [0] * len(grid)
    epochs = np.flatnonzero(np.diff(weight, prepend=-1, append=-1)).tolist()
    for j0, j1 in zip(epochs, epochs[1:]):
        span = j1 - j0
        triggers = np.flatnonzero((popcount == weight[j0]) & (label < j1))
        joins = label[triggers] - j0
        # each position's first index in the epoch: 0 if the epoch's first
        # code holds it, span if its last does not
        at = np.clip(label, j0, j1)
        at -= j0
        headroom = 62 - len(triggers).bit_length()
        # chunks of about _BLOCK_ENTRIES (trigger, index) cells, their
        # positions' labels counted in batches of about as many
        step = max(1, _BLOCK_ENTRIES // (span + 1))
        for lo in range(0, len(triggers), step):
            r = triggers[lo : lo + step]
            counts, keys, held = np.zeros(len(r) * (span + 1), dtype=np.int64), [r[:0]], 0
            for rows, block in _zero_capacity_blocks(r, n):
                keys.append(np.ravel(rows[:, None] * (span + 1) + at[block], order="K"))
                held += block.size
                if held >= _BLOCK_ENTRIES:
                    counts += np.bincount(np.concatenate(keys), minlength=len(counts))
                    keys, held = [r[:0]], 0
            counts += np.bincount(np.concatenate(keys), minlength=len(counts))
            overlap = counts.reshape(len(r), span + 1)[:, :span].cumsum(axis=1)
            present = np.arange(span) >= joins[lo : lo + step, None]
            fits = overlap <= headroom
            terms = np.left_shift(1, overlap, where=present & fits, out=np.zeros_like(overlap))
            small[j0:j1] += terms.sum(axis=0)
            for row, j in zip(*np.nonzero(present & ~fits)):
                big[j0 + j] += 1 << int(overlap[row, j])
    totals = [s + b for s, b in zip(small.tolist(), big)]
    index = grid.searchsorted(np.asarray(Ks, dtype=np.int64)).tolist()
    return [1 << int(weight[k]) for k in index], [totals[k] for k in index]


def zero_capacity_set(i: int, N: int) -> frozenset[int]:
    """Positions after i whose decoding LLR is pinned to zero once a
    trajectory puts its first 1 at i (noiseless all-ones input)."""
    N, n = _check_length(N)
    r = _check_int("i", i, 1, N) - 1
    blocks = _zero_capacity_blocks(np.array([r], dtype=np.int64), n)
    return frozenset(e + 1 for _, block in blocks for e in block.ravel().tolist())


def bound_count(spec, materialize_sets: bool = False) -> BoundReport:
    """Upper bound on the number of minimum-weight codewords.

    One term per minimum-weight information row i: 2 to the number of
    zero-capacity positions of i that are information positions.  The report
    carries those position sets when materialize_sets is true.
    """
    d_m, a_m = min_distance(spec)
    r = np.asarray(a_m, dtype=np.int64) - 1
    pair_rows, hits, kept = [r[:0]], [r[:0]], [r[:0]]  # a row may have no pair
    for rows, block in _zero_capacity_blocks(r, spec.n):
        marked = spec.info_mask[block]
        pair_rows.append(rows)
        hits.append(marked.sum(axis=1))
        if materialize_sets:
            kept.append(block[marked])
    pair_rows, hits = np.concatenate(pair_rows), np.concatenate(hits)
    counts = np.zeros(len(r), dtype=np.int64)
    np.add.at(counts, pair_rows, hits)
    members = None
    if materialize_sets:
        # marked positions ordered by (row, position)
        kept = np.concatenate(kept)
        kept = kept[np.lexsort((kept, np.repeat(pair_rows, hits)))] + 1
        members = tuple(tuple(h.tolist()) for h in np.split(kept, counts.cumsum()[:-1]))
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
    part = parts[_check_int("k", k, 1, len(parts)) - 1]
    if part.lam == 0:
        return [0]
    size = 1 << part.lam
    sib_start = (part.node - 2) * size  # 0-based slice start of the left sibling
    if len(prefix_decisions) < sib_start + size:
        raise ValueError(
            f"prefix covers {len(prefix_decisions)} positions; part {k} of i={i} "
            f"needs decisions through position {sib_start + size}"
        )
    x = 1 << ((int(i) - 1) >> (part.lam + 1)).bit_count()
    return [2 * x * (1 - c) for c in encode(prefix_decisions[sib_start : sib_start + size])]
