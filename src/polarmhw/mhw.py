"""Enumeration of minimum-weight information vectors, four independent ways.

* exhaustive_mhw: encode every message (capped at K <= 22), XORing
  generator rows it packs into uint64 words itself, so that this oracle
  shares no transform with the other three.  It sweeps in blocks of at most
  _SWEEP_BYTES, so it holds that budget, the rows and the hits, whatever
  2**K is.
* enumerate_subset_scl: per minimum-weight row i and per zero-capacity
  information position j after i, a constrained list search pinned to the
  prefix 1-at-i, 1-at-j recovers the subset U(i, j); list sizes shrink
  geometrically along j, and all the searches run as one ragged list
  engine call, each at its own size on its own lanes.
* enumerate_zero_split: the words of weight d_m whose u has its first 1 at
  trigger i lie in RM(n - popcount(i - 1), n), and so in the lower-
  triangular affine orbit of row i (Bardet, Dragoi, Otmani & Tillich, ISIT
  2016; Rowshan, Dau & Viterbo, IEEE Trans. IT 2023).  zero_split_triggers,
  its one producer, routes any set of triggers.  A trigger whose orbit
  holds at most 8 times its bound term takes the orbit's rows in A (packed,
  they take no more than the walk's dense rows of that term; a trigger whose
  every upper row is in A always qualifies).  The others take one lockstep
  walk on the list decoder's stage engine, that follows hard decisions,
  forks at exactly-zero information LLRs, and abandons a branch when a frozen
  position sees a negative LLR; one batched polar transform then keeps the
  leaves of weight d_m.  No metrics.  The walk starts at the first trigger
  from the all-zero path's LLRs in closed form and takes each rate-0,
  rate-1 and repetition node in one step, by node rules that give the
  leaf-by-leaf walk's forks and kills exactly.
* scl_global_search: one wide unconstrained list search on the all-ones
  input; the minimum-weight survivors are the answer when the list is wider
  than the counting bound.

All four agree on every tested code; the test suite enforces that.

Sets of vectors travel as bitops' packed words: the orbit blocks and the
weight filter of the last three (_min_weight) give them, MhwResult keeps them
sorted, and _records, the one formatter of an enumeration file's records,
prints them.  Rows are unpacked only where they are read.

read_enumeration's contract: the magic line, then printable comments and the
header's field lines before the first record, each field line exactly as
_field_lines writes it for the values it holds, in its order, and no blank
line; d_m is the code's minimum distance; every line from the first record on
is exactly the record the writer writes for its u, newline and lowercase hex
without leading zeros included, in sorted order.  Every error is an
EnumFormatError naming the path.
"""

from __future__ import annotations

import itertools
import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from polarmhw.bitops import _check_int, _pack, _transform, _unpack, _weights
from polarmhw.bitops import encode_rows, generator_row, min_distance
from polarmhw.bound import bound_count
from polarmhw.construction import RATE0, RATE1, REP, CodeSpec, _commented, _node_steps
from polarmhw.listdec import _RUN_BYTES, _Stages, _search

__all__ = [
    "MhwResult",
    "ExhaustiveCapError",
    "EnumFormatError",
    "EXHAUSTIVE_CAP",
    "exhaustive_mhw",
    "enumerate_subset_scl",
    "zero_split_subset",
    "zero_split_triggers",
    "enumerate_zero_split",
    "scl_global_search",
    "write_enumeration",
    "read_enumeration",
]

EXHAUSTIVE_CAP = 22

_METHODS = ("EXHAUSTIVE", "SUBSET_SCL", "ZERO_SPLIT", "SCL_GLOBAL")


class ExhaustiveCapError(ValueError):
    """Message space too large to sweep; use the global list search oracle."""


class EnumFormatError(ValueError):
    """Malformed enumeration file."""


@dataclass(frozen=True, eq=False)
class MhwResult:
    """A set of minimum-weight information vectors of length N.

    words is a read-only (count, ceil(N / 64)) array of distinct bitops._pack
    rows in lexicographic order, position 1 first; the constructor sorts them
    and rejects a repeat, a bit past N or a wrong column count; d_m and N are
    integers >= 1 and max_list_used >= 0, kept as Python ints.  vectors, their
    (count, N) uint8 unpack, is built when first read.  == compares all fields.
    """

    d_m: int
    N: int
    words: np.ndarray
    method: str
    max_list_used: int
    warning: str | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for name, least in (("d_m", 1), ("N", 1), ("max_list_used", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), least))
        object.__setattr__(self, "words", _sorted_words(self.words, self.N))

    @property
    def count(self) -> int:
        return len(self.words)

    @cached_property
    def vectors(self) -> np.ndarray:
        return _unpack(self.words, self.N)

    def __eq__(self, other):
        if not isinstance(other, MhwResult):
            return NotImplemented
        same = [(r.N, r.d_m, r.method, r.max_list_used, r.warning) for r in (self, other)]
        return same[0] == same[1] and np.array_equal(self.words, other.words)


# each byte bit-reversed: a packed row's bytes mapped through it sort as its vector
_BIT_REVERSE = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _sorted_words(words, N):
    """Packed rows of length N as a sorted read-only copy; a repeated row
    breaks the partition law of every enumerator and aborts."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    shaped = words.ndim == 2 and words.shape[1] == -(-N // 64)
    if not shaped or (words[:, -1] >> (N - 1) % 64 >> 1).any():
        raise ValueError(f"words must be a (count, ceil(N / 64)) array of rows of N={N} bits")
    keys = _BIT_REVERSE[words.view(np.uint8)]
    order = np.argsort(keys.view(np.dtype((np.void, keys.shape[1]))).ravel(), kind="stable")
    words = words[order]
    if (words[1:] == words[:-1]).all(axis=1).any():
        raise ValueError("a vector is listed twice")
    words.flags.writeable = False
    return words


def _min_weight(rows, d_m):
    """The packed rows of a (count, N) 0/1 array whose codeword weighs d_m."""
    words = _pack(rows)
    return words[_weights(_transform(words.copy(), rows.shape[1])) == d_m]


# ---- exhaustive oracle ----


# The exhaustive sweep's table of low-message codewords holds at most this
# many bytes (or one codeword, if that is larger).
_SWEEP_BYTES = 1 << 18


def exhaustive_mhw(spec) -> MhwResult:
    """Sweep all 2**K messages with packed-word codewords, in blocks.

    Message m is (h << b) | l.  One table holds the codewords of the 2**b low
    parts l, b the largest that keeps it within _SWEEP_BYTES; the high part's
    codeword h G follows the Gray code of h, one row XOR per step, and each
    block is that table XOR h G in one reused buffer.  So the sweep holds
    the table, one block, the K generator rows and the hits, however large
    2**K is.
    The minimum nonzero weight is taken from the sweep itself, not from any
    row-weight shortcut, so this is a genuinely independent oracle.
    """
    K, N = spec.K, spec.N
    if K > EXHAUSTIVE_CAP:
        raise ExhaustiveCapError(
            f"K={K} exceeds the exhaustive cap of {EXHAUSTIVE_CAP}; "
            "use the global list search with L past the counting bound instead"
        )
    words = (N + 63) // 64
    rows = np.zeros((K, words), dtype=np.uint64)
    for k, a in enumerate(spec.A):
        for p, v in enumerate(generator_row(a, N)):
            if v:
                rows[k, p // 64] |= np.uint64(1 << (p % 64))
    b = min(K, max(0, (_SWEEP_BYTES // (8 * words)).bit_length() - 1))
    # row l of low is the codeword of message l < 2**b
    low = np.zeros((1 << b, words), dtype=np.uint64)
    for k in range(b):
        np.bitwise_xor(low[: 1 << k], rows[k], out=low[1 << k : 2 << k])
    block, counts = np.empty_like(low), np.empty(low.shape, dtype=np.uint8)
    weights = np.empty(1 << b, dtype=np.uint32)
    high = np.zeros(words, dtype=np.uint64)
    d_m, hits = N + 1, []
    for step in range(1 << (K - b)):
        if step:
            # Gray code step: h flips the bit of step's lowest set bit
            high ^= rows[b + (step & -step).bit_length() - 1]
        np.bitwise_xor(low, high, out=block)
        np.add.reduce(np.bitwise_count(block, out=counts), axis=1, dtype=np.uint32, out=weights)
        if not step:
            weights[0] = N + 1  # message 0
        least = int(weights.min())
        if least <= d_m:
            if least < d_m:
                d_m, hits = least, []
            h = step ^ step >> 1
            hits.append(np.flatnonzero(weights == least) | h << b)
    # message m puts bit k of m at information position A[k]
    hits = np.concatenate(hits)
    u = np.zeros((len(hits), words), dtype=np.uint64)
    for k, a in enumerate(spec.A):
        u[:, (a - 1) // 64] |= (hits >> k & 1).astype(np.uint64) << np.uint64((a - 1) % 64)
    return MhwResult(d_m, N, u, "EXHAUSTIVE", 0)


# ---- constrained list searches ----


def _subset_pairs(report):
    """The (i, j) pairs of the subset searches of a materialized bound
    report, in trigger order, and their list widths 2**(overlap - cnt), j
    being the cnt-th member of trigger i."""
    pairs, widths = [], []
    for t in report.triggers:
        for cnt, j in enumerate(t.members, start=1):
            pairs.append((t.i, j))
            widths.append(1 << (t.overlap - cnt))
    return pairs, widths


def _shares(weights, n):
    """range(len(weights)) cut into min(n, len(weights)) contiguous nonempty
    runs of about equal summed weight."""
    n = min(n, len(weights))
    total = np.cumsum(weights)
    cuts = [0]
    for k in range(1, n):
        # just past the first index whose running sum reaches k/n of the
        # total, leaving a pair for each run after it
        cut = int(np.searchsorted(total, total[-1] * k / n)) + 1
        cuts.append(min(max(cut, cuts[-1] + 1), len(weights) - n + k))
    cuts.append(len(weights))
    return [range(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def _subset_searches(spec, pairs, widths, d_m, threads=1):
    """The constrained searches of the (i, j) pairs, pair k at list width
    widths[k], in ragged engine runs of contiguous pairs and balanced summed
    width: one run, or one per thread, or as many as keep each run within
    _RUN_BYTES.  Per pair: (the packed words of its vectors of weight d_m,
    note).  A discarded candidate that still carried the bare trigger metric
    may have been on a valid trajectory; the pairs that discarded one rerun
    together, each at its trigger's full bound term, and a note says
    what the schedule truly lost.  That metric is d_m: before trigger i the
    SC path is all-zero, so reversing i costs the leaf LLR
    2**popcount(i - 1) = d_m."""
    ones = [1] * spec.N

    def run(jobs):
        prefixes = [[int(p in (i, j)) for p in range(1, j + 1)] for (i, j), _ in jobs]
        out = _search(ones, spec, [width for _, width in jobs], prefixes)
        return [(_min_weight(rows, d_m), diag) for rows, _, _, diag in out]

    def search(jobs):
        weights = [width for _, width in jobs]
        runs = max(threads, -(-sum(weights) * spec.N // _RUN_BYTES))
        shares = [jobs[r.start : r.stop] for r in _shares(weights, runs)]
        workers = min(threads, len(shares))
        with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
            return [pair for out in (pool.map if pool else map)(run, shares) for pair in out]

    found = search(list(zip(pairs, widths)))
    lossy = [
        k
        for k, (_, diag) in enumerate(found)
        if diag.min_discarded_pm is not None and diag.min_discarded_pm <= d_m
    ]
    terms = {t.i: t.term for t in bound_count(spec).triggers} if lossy else {}
    full = [terms[pairs[k][0]] for k in lossy]
    out = [(rows, None) for rows, _ in found]
    refound = search([(pairs[k], w) for k, w in zip(lossy, full)])
    for k, width, (rows, _) in zip(lossy, full, refound):
        old, new = set(map(bytes, out[k][0])), set(map(bytes, rows))
        if new != old:
            i, j = pairs[k]
            out[k] = rows, (
                f"list size {widths[k]} for trigger {i}, split {j} lost "
                f"{len(new - old)} vectors; recovered at width {width}"
            )
    return out


def enumerate_subset_scl(spec, threads: int = 1) -> MhwResult:
    """Every minimum-weight vector: per trigger i the bare row message plus,
    per zero-capacity information position j after i (the cnt-th of them),
    the subset U(i, j) from a constrained search at list width
    2**(overlap - cnt).  All searches run as one ragged engine call, each on
    its own lanes, or in contiguous shares of one call each: one per worker
    of `threads`, or more where one call would exceed _RUN_BYTES.  A vector
    found under two triggers breaks the partition law and aborts."""
    threads = _check_int("threads", threads, 1)
    report = bound_count(spec, materialize_sets=True)
    d_m, a_m = report.d_m, report.a_m
    pairs, widths = _subset_pairs(report)
    singles = _pack(np.arange(1, spec.N + 1) == np.array(a_m)[:, None])
    found = _subset_searches(spec, pairs, widths, d_m, threads)
    words = np.concatenate([singles] + [rows for rows, _ in found])
    notes = [note for _, note in found if note]
    warning = "; ".join(notes) if notes else None
    return MhwResult(d_m, spec.N, words, "SUBSET_SCL", max(widths, default=0), warning)


# ---- zero-split walker ----


def _rate1_node(alpha):
    """The (lanes, 2**s) bits and partial sums that hard decisions give a
    rate-1 node of 2**s >= 2 leaves with (lanes, 2**s) input LLRs alpha, when
    no entry of alpha is 0 and so no leaf LLR is (see _zero_split_walk); None
    when some entry is 0."""
    if not alpha.all():
        return None
    beta = (alpha < 0).view(np.uint8)
    return encode_rows(beta), beta


def _rep_node(alpha):
    """(dead, llr) for a REP node of 2**s leaves with (lanes, 2**s) input LLRs
    alpha: per lane whether some frozen leaf sees a negative LLR, and the
    last leaf's LLR, the sum of alpha (see _zero_split_walk)."""
    x, dead = alpha, np.zeros(len(alpha), dtype=bool)
    while x.shape[1] > 1:
        half = x.shape[1] >> 1
        a, b = x[:, :half], x[:, half:]
        dead |= (np.sign(a) * np.sign(b) < 0).any(axis=1)
        x = a + b
    return dead, x[:, 0]


def _zero_split_walk(spec, triggers):
    """Walk the SC tree of the all-ones input from every trigger at once.

    One lane per live branch on the list engine's stage buffers, all
    branches advancing in lockstep over the leaves.  Until a trigger i, the
    all-zero path (owner -1) serves every trigger still to come; at i it
    forks off a lane with bit 1 owned by i.  Past its trigger a lane forks at
    an information bit whose LLR is exactly 0 (the copy takes bit 1) and dies
    at a frozen bit whose LLR is negative; elsewhere it follows the hard
    decision.  The all-zero path reads only positive LLRs, so it never forks
    or dies; it is dropped after the last trigger.

    The walk starts at the first trigger p, in closed form: f(c, c) = c and
    g(c, c) = 2c under all-zero partial sums, so the all-zero path's node at
    stage t that holds leaf p reads 2**popcount(p >> t) in every entry.  From
    there it takes the rate-0, rate-1 and REP nodes of _node_steps (the last
    two holding no trigger), each in one step from its input LLRs alpha (the
    fast simplified SC node rules: Alamdar-Yazdi & Kschischang, IEEE Comm.
    Letters 2011; Sarkis et al., IEEE JSAC 2014):

    * rate-0: a lane dies iff some entry of alpha is negative.  With every
      bit 0 the halves a, b of a node's input pass on f(a, b) and a + b:
      both are nonnegative where a and b are, and where a_j or b_j is
      negative, so is f(a_j, b_j) or a_j + b_j; by induction some leaf LLR
      is negative iff some alpha_j is.  The node's bits are all 0.
    * rate-1: if no entry of alpha is 0, no leaf LLR is either: f of two
      nonzero values is nonzero, and after the hard decision on it g gives
      sign(b) (|a| + |b|).  So no lane forks, the partial sums are the hard
      decisions beta = [alpha < 0] and the bits are beta G (G is its own
      inverse over GF(2)).  If some alpha_j is 0, so is f(a, b) where a or b
      is, down to the first leaf, which forks: that leaf runs alone, then the
      right halves on its path to the node, as rate-1 nodes or leaves.
    * REP: with x^0 = alpha and x^(l+1) = a + b, a and b the halves of x^l,
      the left half at level l is a rate-0 node with input f(a, b), so a lane
      dies iff at some level some a_j and b_j are nonzero of opposite signs.
      Otherwise the last leaf's LLR is sum(alpha): bit 1 if negative, a fork
      if 0 (the copy takes bit 1 and goes after the live lanes, as at a
      leaf), and the node's partial sums are that bit in every position.

    Returns (decisions, branch_positions, kills): a (rows, N) uint8 decision
    matrix of the surviving branches, and per trigger the set of fork
    positions and the number of killed branches.  A trigger that is not an
    information position raises ValueError.
    """
    N = spec.N
    for i in triggers:
        if not spec.is_info(i):
            raise ValueError(f"trigger {i} is not an information position")
    branch_positions = [set() for _ in triggers]
    kills = [0] * len(triggers)
    if not triggers:
        return np.zeros((0, N), dtype=np.uint8), branch_positions, kills
    starts = {i - 1: k for k, i in enumerate(triggers)}
    last = max(starts)
    # LLR magnitudes at stage t are at most 2**(n - t) <= N, so the smallest
    # signed type that holds -2N is exact
    dtype = np.min_scalar_type(-2 * N)
    stages = _Stages(np.ones((1, N), dtype=dtype))
    # the all-zero path's stages at the first trigger, in closed form
    first = min(starts)
    for t in range(stages.n):
        if t:
            stages.alpha[t] = np.full((1, 1, 1 << t), 1 << (first >> t).bit_count(), dtype=dtype)
        if first >> t & 1:
            stages.beta_left[t] = np.zeros((1, 1, 1 << t), dtype=np.uint8)
    owner = np.array([-1], dtype=np.intp)
    no_fork = np.zeros(0, dtype=np.intp)

    def decide(phi, s, alpha, kind):
        # one rate-0 or REP node: kills, forks and the trigger's lane, if any
        nonlocal owner
        if kind == RATE0:
            dead, bit, fork = (alpha < 0).any(axis=1), None, no_fork
        else:
            dead, llr = _rep_node(alpha)
            bit = llr < 0
            fork = ((llr == 0) & ~dead).nonzero()[0]
        k = starts.get(phi) if kind == REP else None
        if k is not None or len(fork) or dead.any():
            for o in owner[dead].tolist():
                kills[o] += 1
            for o in set(owner[fork].tolist()):
                branch_positions[o].add(phi + (1 << s))
            if phi == last:
                dead = dead | (owner < 0)
            # lanes after this node: the live ones, bit-1 copies of the
            # forked ones, then the bit-1 copy of the all-zero path for a
            # trigger here
            live = (~dead).nonzero()[0]
            start = [] if k is None else [(owner < 0).nonzero()[0]]
            lanes = np.concatenate([live, fork] + start)
            owner = owner[lanes]
            if k is not None:
                owner[-1] = k
            if bit is not None:
                bit = np.concatenate([bit[live], np.ones(len(lanes) - len(live), dtype=bool)])
            stages.select(phi, lanes[None], s)
        if bit is None or not bit.any():
            stages.commit(phi, None, s)
        elif s == 0:
            stages.commit(phi, bit.view(np.uint8)[None])
        else:
            beta = np.repeat(bit.view(np.uint8)[None, :, None], 1 << s, axis=2)
            bits = np.zeros_like(beta)
            bits[..., -1] = beta[..., -1]
            stages.commit(phi, bits, s, beta)

    pending = _node_steps(spec.info_mask, first, triggers, (RATE0, REP, RATE1))[::-1]
    while pending and len(owner):
        phi, s, kind = pending.pop()
        alpha = stages.node(phi, s)[0]
        if kind == RATE1:
            node = _rate1_node(alpha)
            if node is not None:
                stages.commit(phi, node[0][None], s, node[1][None])
                continue
            # the first leaf forks: it now, then the right halves above it
            pending += [(phi + (1 << t), t, RATE1 if t else REP) for t in reversed(range(s))]
            alpha, s, kind = stages.node(phi, 0, s)[0], 0, REP
        decide(phi, s, alpha, kind)
    return stages.trace(np.arange(len(owner))[None])[0][0], branch_positions, kills


def zero_split_subset(spec, i: int):
    """Enumeration of U(i) by following hard decisions from trigger i.

    Returns (leaves, branch_positions, kills): the surviving decision
    vectors as a sorted read-only uint8 array, the positions where an exactly
    zero information LLR forked the walk, and how many branches died at a
    negative frozen LLR.
    """
    decisions, branch_positions, kills = _zero_split_walk(spec, (_check_int("i", i),))
    return _unpack(_sorted_words(_pack(decisions), spec.N), spec.N), branch_positions[0], kills[0]


_ORBIT_SLACK = 3  # orbits of at most 2**_ORBIT_SLACK bound terms are built


def _orbit_block(i, N):
    """The 2**E_i packed u rows of the lower-triangular affine orbit of row i:
    codewords that AND, over the zero bits t of r = i - 1, the packed truth
    tables of y_t + b_t + sum of a_{t,d} y_d over the set bits d < t of r,
    y_j(x) = 1 + x_j.  A codeword of weight other than 2**popcount(r) raises
    ValueError."""
    r, n = i - 1, N.bit_length() - 1
    y = _pack((np.arange(N) >> np.arange(n)[:, None] & 1) == 0)
    words = ones = _pack(np.ones((1, N), dtype=bool))
    for t in [t for t in range(n) if not r >> t & 1]:
        factor = np.stack([y[t], y[t] ^ ones[0]])
        for d in [d for d in range(t) if r >> d & 1]:
            factor = np.concatenate([factor, factor ^ y[d]])
        words = (words[:, None] & factor).reshape(-1, words.shape[1])
    if (_weights(words) != 1 << r.bit_count()).any():
        raise ValueError(f"an orbit codeword of trigger {i} misses weight {1 << r.bit_count()}")
    return _transform(words, N)


def zero_split_triggers(spec, triggers) -> MhwResult:
    """The minimum-weight vectors whose first one sits at one of `triggers`:
    the rows in A of the 2**E_i-row orbit of each trigger i with E_i at most
    overlap_i + _ORBIT_SLACK, and the weight-d_m leaves of one walk over the
    others.  A trigger that is not a minimum-weight row, or is listed twice,
    raises ValueError."""
    report = bound_count(spec)
    overlaps = dict(zip(report.a_m, report.overlaps))
    orbit, walk, seen = [], [], set()
    for i in (_check_int("trigger", i) for i in triggers):
        if i not in overlaps:
            raise ValueError(f"trigger {i} is not a minimum-weight row of the code")
        if i in seen:
            raise ValueError(f"trigger {i} is listed twice")
        seen.add(i)
        r = i - 1
        bits = sum(1 + (r % (1 << t)).bit_count() for t in range(spec.n) if not r >> t & 1)
        (orbit if bits - overlaps[i] <= _ORBIT_SLACK else walk).append(i)
    frozen = _pack(~spec.info_mask[None])[0]
    blocks = (_orbit_block(i, spec.N) for i in orbit)
    words = [block[~(block & frozen).any(axis=1)] for block in blocks]
    if walk or not orbit:  # the walk over no trigger gives the empty set
        words.append(_min_weight(_zero_split_walk(spec, walk)[0], report.d_m))
    return MhwResult(report.d_m, spec.N, np.concatenate(words), "ZERO_SPLIT", 0)


def enumerate_zero_split(spec, threads: int = 1) -> MhwResult:
    """zero_split_triggers over every trigger.  `threads` is accepted for the
    common enumerator interface, and checked; the result never depends on it."""
    _check_int("threads", threads, 1)
    return zero_split_triggers(spec, min_distance(spec)[1])


def _exact_count(spec) -> int:
    """The exact number of minimum-weight codewords of spec: the one count
    that the FER estimates and sweep's exact column read."""
    return enumerate_zero_split(spec).count


# ---- global list search ----


def scl_global_search(spec, L: int) -> MhwResult:
    L = _check_int("list size L", L, 1)
    d_m, _ = min_distance(spec)
    warning = None
    needed = bound_count(spec, materialize_sets=False).total + 1
    if L < needed:
        warning = (
            f"possible omission: list size {L} is below the counting bound "
            f"plus one ({needed})"
        )
    # d_m >= 1, so the all-zero path never passes the weight filter
    words = _min_weight(_search([1] * spec.N, spec, L)[0][0], d_m)
    return MhwResult(d_m, spec.N, words, "SCL_GLOBAL", L, warning)


# ---- enumeration files ----

_ENUM_MAGIC = "polarmhw-enum 1"
_FIELDS = ("N", "K", "A", "d_m", "method", "count", "maxListUsed")
# Vectors encoded per batch by _records, for the writer and the reader.
# However many vectors the file holds, a batch's arrays are its rows and
# message bits (_BATCH_ROWS * (N + K) bytes) and a copy of its words with the
# transform's two temporaries (3 * _BATCH_ROWS * 8 * ceil(N / 64) bytes).
_BATCH_ROWS = 128


def _field_lines(spec, d_m, method, count, max_list_used):
    """The header's field lines, without newlines, as the writer writes them
    and the reader requires them."""
    values = (spec.N, spec.K, " ".join(map(str, spec.A)), d_m, method, count, max_list_used)
    return [f"{key}={value}" for key, value in zip(_FIELDS, values, strict=True)]


def _records(spec, words):
    """The file's line for each packed row of words, in order: its message
    bits in A order and its u, hex-packed with position 1 in the lowest bit,
    and its codeword weight."""
    for start in range(0, len(words), _BATCH_ROWS):
        batch = words[start : start + _BATCH_ROWS]
        bits = _unpack(batch, spec.N).compress(spec.info_mask, axis=1)
        msgs = np.packbits(bits, axis=1, bitorder="little")
        us = [int.from_bytes(word.tobytes(), "little") for word in batch]
        weights = _weights(_transform(batch.copy(), spec.N)).tolist()
        yield from (
            f"msg={int.from_bytes(msg.tobytes(), 'little'):x} u={u:x} w={w}\n"
            for msg, u, w in zip(msgs, us, weights)
        )


def write_enumeration(path, spec, result: MhwResult, header_lines=()) -> None:
    """Stable text dump: header fields then _records' line for each vector,
    in the result's order.  header_lines are embedded as comments right after
    the magic line.  A result of another length, or that sets a frozen
    position of spec, or a header line that is not printable (a line break
    is not) raises ValueError before the file is opened."""
    frozen = _pack(~spec.info_mask[None])[0]
    if result.N != spec.N or (np.bitwise_or.reduce(result.words, axis=0) & frozen).any():
        raise ValueError(f"the result's N={result.N} vectors are not information vectors of spec")
    lines = [_ENUM_MAGIC, *_commented(header_lines)]
    lines += _field_lines(spec, result.d_m, result.method, result.count, result.max_list_used)
    if result.warning:
        lines.append(f"# warning: {result.warning}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)
        fh.writelines(_records(spec, result.words))


def read_enumeration(path):
    """Parse an enumeration file back into (CodeSpec, MhwResult) under the
    module docstring's contract, _BATCH_ROWS records at a time: each record's
    u alone is parsed, and its line must be _records' line for it.  A
    '# warning: ' comment after the fields restores the result's warning."""
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            return _read_enumeration(fh)
    except ValueError as exc:  # ours, int()'s, CodeSpec's, MhwResult's or a bad UTF-8 byte
        raise EnumFormatError(f"{path}: {exc}") from exc


def _read_enumeration(fh):
    if fh.readline() != _ENUM_MAGIC + "\n":
        raise EnumFormatError(f"line 1 is not '{_ENUM_MAGIC}'")
    fields, texts, warning, lineno = {}, [], None, 1
    while (line := fh.readline()) and not line.startswith("msg="):
        lineno += 1
        text = line.rstrip("\n")
        if not text.isprintable():
            raise EnumFormatError(f"line {lineno}: {text!r} is not one printable line")
        if text.startswith("# warning: ") and "maxListUsed" in fields:
            warning = text[len("# warning: ") :]
        if text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        if not sep or key not in _FIELDS or key in fields:
            raise EnumFormatError(f"line {lineno}: not a new header field: {text!r}")
        fields[key] = value
        texts.append((lineno, text))
    for need in _FIELDS:
        if need not in fields:
            raise EnumFormatError(f"missing field {need!r} before the first record")
    # K is checked against A by its field line
    N, _, d_m, count, max_list = (int(fields[k]) for k in _FIELDS if k not in ("A", "method"))
    spec = CodeSpec(N, tuple(int(tok) for tok in fields["A"].split()))
    if d_m != min_distance(spec)[0]:
        raise EnumFormatError(f"d_m={d_m} but the code has d_m={min_distance(spec)[0]}")
    # every field is there once, so each line meets the writer's line for it
    want = _field_lines(spec, d_m, fields["method"], count, max_list)
    for (k, text), need in zip(texts, want, strict=True):
        if text != need:
            raise EnumFormatError(f"line {k}: {text!r} is not the writer's field line {need!r}")
    record = re.compile(f"msg=[0-9a-f]+ u=([0-9a-f]+) w={d_m}\n")
    frozen, width = _pack(~spec.info_mask[None])[0], -(-N // 64)
    records, data = itertools.chain([line] if line else [], fh), bytearray()
    while batch := list(itertools.islice(records, _BATCH_ROWS)):
        us = []
        for k, line in enumerate(batch, lineno + 1):
            match = record.fullmatch(line)
            if not match:
                raise EnumFormatError(f"line {k}: not a record 'msg=<hex> u=<hex> w={d_m}'")
            us.append(int(match[1], 16))
            if us[-1] >> N:
                raise EnumFormatError(f"line {k}: u={us[-1]:x} sets a bit past N={N}")
        # position 1 is u's lowest bit, so its little-endian bytes are its packed words
        chunk = b"".join(u.to_bytes(8 * width, "little") for u in us)
        words = np.frombuffer(chunk, dtype="<u8").reshape(len(us), width)
        if (np.bitwise_or.reduce(words, axis=0) & frozen).any():
            raise EnumFormatError(f"nonzero frozen position in lines {lineno + 1}-{k}")
        for k, (line, want) in enumerate(zip(batch, _records(spec, words)), lineno + 1):
            if line != want:
                raise EnumFormatError(f"line {k}: not the record the writer writes for its u")
        data += chunk
        lineno += len(batch)
    words = np.frombuffer(data, dtype="<u8").reshape(-1, width)
    if count != len(words):
        raise EnumFormatError(f"header count {count} != {len(words)} records")
    result = MhwResult(d_m, N, words, fields["method"], max_list, warning)
    if not np.array_equal(result.words, words):
        raise EnumFormatError("records out of order")
    return spec, result
