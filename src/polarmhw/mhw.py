"""Enumeration of minimum-weight information vectors, four independent ways.

* exhaustive_mhw: encode every message (capped at K <= 22), XORing
  generator rows it packs into uint64 words itself, so that this oracle
  shares no transform with the other three.
* enumerate_subset_scl: per minimum-weight row i and per zero-capacity
  information position j after i, a constrained list search pinned to the
  prefix 1-at-i, 1-at-j recovers the subset U(i, j); list sizes shrink
  geometrically along j, and the searches of one list size run together.
* enumerate_zero_split: one lockstep walk over all rows i at once, on the
  list decoder's stage engine, that follows hard decisions, forks at
  exactly-zero information LLRs, and abandons a branch when a frozen
  position sees a negative LLR; one batched polar transform then keeps the
  leaves of weight d_m.  No metrics.  The walk starts at the first trigger
  from the all-zero path's LLRs in closed form and takes each rate-0,
  rate-1 and repetition node in one step, by node rules that give the
  leaf-by-leaf walk's forks and kills exactly.
* scl_global_search: one wide unconstrained list search on the all-ones
  input; the minimum-weight survivors are the answer when the list is wider
  than the counting bound.

All four agree on every tested code; the test suite enforces that.

The weight filter of the last three (_min_weight) and the w= fields that
write_enumeration prints and read_enumeration checks come from bitops' one
polar transform, which runs on rows packed into little-endian uint64 words;
the enumeration file's u= hex is those words read as one integer.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from polarmhw.bitops import _pack, _transform, _weights, encode_rows, generator_row, min_distance
from polarmhw.bound import bound_count, per_subset_bound
from polarmhw.construction import RATE0, RATE1, REP, CodeSpec, _node_steps
from polarmhw.listdec import _Stages, _search

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
    """A set of minimum-weight information vectors.

    vectors is a read-only C-contiguous (count, N) uint8 array of distinct
    0/1 rows in lexicographic order; the constructor sorts the rows it is
    given and rejects a repeated one.  Equality compares every field and the
    array contents.
    """

    d_m: int
    vectors: np.ndarray
    method: str
    max_list_used: int
    warning: str | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "vectors", _sorted_rows(self.vectors))

    @property
    def count(self) -> int:
        return len(self.vectors)

    def __eq__(self, other):
        if not isinstance(other, MhwResult):
            return NotImplemented
        same = [(r.d_m, r.method, r.max_list_used, r.warning) for r in (self, other)]
        return same[0] == same[1] and np.array_equal(self.vectors, other.vectors)


def _sorted_rows(rows):
    """The rows of a (count, N) 0/1 array as a sorted read-only uint8 copy;
    a repeated row breaks the partition law of every enumerator and aborts."""
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2 or (rows.size and rows.max() > 1):
        raise ValueError("vectors must be a (count, N) array of 0/1 rows")
    # packbits puts column 0 in the top bit, so the packed bytes compare in
    # the same order as the rows
    packed = np.packbits(rows, axis=1)
    order = np.argsort(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(), kind="stable")
    packed = packed[order]
    if (packed[1:] == packed[:-1]).all(axis=1).any():
        raise ValueError("a vector is listed twice")
    rows = rows[order]
    rows.flags.writeable = False
    return rows


def _min_weight(rows, d_m):
    """The rows of a (count, N) 0/1 array whose codeword has weight d_m."""
    return rows[_weights(_transform(_pack(rows), rows.shape[1])) == d_m]


# ---- exhaustive oracle ----


def exhaustive_mhw(spec, cap: int = EXHAUSTIVE_CAP) -> MhwResult:
    """Sweep all 2**K messages with packed-word codewords.

    The minimum nonzero weight is taken from the sweep itself, not from any
    row-weight shortcut, so this is a genuinely independent oracle.
    """
    K, N = spec.K, spec.N
    if K > cap:
        raise ExhaustiveCapError(
            f"K={K} exceeds the exhaustive cap of {cap}; "
            "use the global list search with L past the counting bound instead"
        )
    words = (N + 63) // 64
    rows = np.zeros((K, words), dtype=np.uint64)
    for k, a in enumerate(spec.A):
        for p, v in enumerate(generator_row(a, N)):
            if v:
                rows[k, p // 64] |= np.uint64(1 << (p % 64))
    table = np.zeros((1, words), dtype=np.uint64)
    for k in range(K):
        table = np.vstack([table, table ^ rows[k]])
    weights = np.bitwise_count(table).sum(axis=1)
    d_m = int(weights[1:].min())
    # message m puts bit k of m at information position A[k]
    hits = np.flatnonzero(weights == d_m)
    vectors = np.zeros((len(hits), N), dtype=np.uint8)
    vectors[:, spec.info_mask] = (hits[:, None] >> np.arange(K)) & 1
    return MhwResult(d_m, vectors, "EXHAUSTIVE", 0)


# ---- constrained list searches ----


def _pair_prefix(i, j):
    prefix = [0] * j
    prefix[i - 1] = prefix[j - 1] = 1
    return prefix


def _search_group(spec, pairs, L, d_m):
    """The constrained searches of the (i, j) pairs at list width L, in one
    engine run: per pair, (vectors, note).  A discarded candidate that still
    carried the bare trigger metric may have been on a valid trajectory; in
    that case rerun the pair at full width and report whether the schedule
    truly lost anything.  That metric is d_m: before trigger i the SC path is
    all-zero, so reversing i costs the leaf LLR 2**popcount(i - 1) = d_m."""
    ones = [1] * spec.N
    searches = _search(ones, spec, L, [_pair_prefix(i, j) for i, j in pairs])
    out = []
    for (i, j), (paths, _, _, diag) in zip(pairs, searches):
        found = _min_weight(paths, d_m)
        note = None
        if diag.min_discarded_pm is not None and diag.min_discarded_pm <= d_m:
            width = per_subset_bound(i, spec)
            refound = _search(ones, spec, width, [_pair_prefix(i, j)])[0][0]
            refound = _min_weight(refound, d_m)
            old, new = set(map(bytes, found)), set(map(bytes, refound))
            if new != old:
                note = (
                    f"list size {L} for trigger {i}, split {j} lost "
                    f"{len(new - old)} vectors; recovered at width {width}"
                )
                found = refound
        out.append((found, note))
    return out


def enumerate_subset_scl(spec, threads: int = 1) -> MhwResult:
    """Every minimum-weight vector: per trigger i the bare row message plus,
    per zero-capacity information position j after i (the cnt-th of them),
    the subset U(i, j) from a constrained search at list width
    2**(overlap - cnt).  The searches of one width run as one engine call;
    `threads` workers share those calls.  A vector found under two triggers
    breaks the partition law and aborts."""
    report = bound_count(spec, materialize_sets=True)
    d_m, a_m = report.d_m, report.a_m
    pairs, groups = [], {}
    for t in report.triggers:
        for cnt, j in enumerate(t.members, start=1):
            pairs.append((t.i, j))
            groups.setdefault(1 << (t.overlap - cnt), []).append((t.i, j))
    singles = np.zeros((len(a_m), spec.N), dtype=np.uint8)
    singles[np.arange(len(a_m)), np.array(a_m) - 1] = 1
    # every pair's vectors, held bit-packed until all are found, so that only
    # the final array and its sorted copy are ever held unpacked
    found = {}
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        outs = (pool.map if pool else map)(
            lambda L: _search_group(spec, groups[L], L, d_m), groups
        )
        for group, out in zip(groups.values(), outs):
            for pair, (rows, note) in zip(group, out):
                found[pair] = np.packbits(rows, axis=1), note
    packed = np.concatenate([np.packbits(singles, axis=1)] + [found[p][0] for p in pairs])
    notes = [found[p][1] for p in pairs if found[p][1]]
    warning = "; ".join(notes) if notes else None
    vectors = np.unpackbits(packed, axis=1, count=spec.N)
    return MhwResult(d_m, vectors, "SUBSET_SCL", max(groups, default=0), warning)


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
    decisions, branch_positions, kills = _zero_split_walk(spec, (i,))
    return _sorted_rows(decisions), branch_positions[0], kills[0]


def zero_split_triggers(spec, triggers) -> MhwResult:
    """The minimum-weight vectors whose first one sits at one of `triggers`
    (minimum-weight rows of spec), by one lockstep walk over those triggers
    and one batched weight filter of its leaves."""
    d_m, _ = min_distance(spec)
    # the walk's decision matrix is freed before the kept rows are sorted
    return MhwResult(d_m, _min_weight(_zero_split_walk(spec, triggers)[0], d_m), "ZERO_SPLIT", 0)


def enumerate_zero_split(spec, threads: int = 1) -> MhwResult:
    """All minimum-weight vectors: zero_split_triggers over every trigger.
    `threads` is accepted for the common enumerator interface; the result
    never depended on it."""
    return zero_split_triggers(spec, min_distance(spec)[1])


# ---- global list search ----


def scl_global_search(spec, L: int) -> MhwResult:
    d_m, _ = min_distance(spec)
    warning = None
    needed = bound_count(spec, materialize_sets=False).total + 1
    if L < needed:
        warning = (
            f"possible omission: list size {L} is below the counting bound "
            f"plus one ({needed})"
        )
    # d_m >= 1, so the all-zero path never passes the weight filter
    vectors = _min_weight(_search([1] * spec.N, spec, L)[0][0], d_m)
    return MhwResult(d_m, vectors, "SCL_GLOBAL", L, warning)


# ---- enumeration files ----

_ENUM_MAGIC = "polarmhw-enum 1"
_RECORD = re.compile("msg=([0-9a-f]+) u=([0-9a-f]+) w=([0-9]+)")
# Vectors encoded per batch by write_enumeration.  However many vectors the
# file holds, a batch's arrays are its message bits (_WRITE_ROWS * K bytes,
# then packed to an eighth of that) and its packed words with the
# transform's two temporaries (3 * _WRITE_ROWS * 8 * ceil(N / 64) bytes).
_WRITE_ROWS = 128


def write_enumeration(path, spec, result: MhwResult, header_lines=()) -> None:
    """Stable text dump: header fields then one lexicographically sorted
    record per vector (message bits in A order and the full u, hex-packed),
    written batch by batch.  header_lines are embedded as comments right
    after the magic line."""
    lines = [_ENUM_MAGIC]
    for extra in header_lines:
        lines.append(extra if extra.startswith("#") else f"# {extra}")
    lines += [
        f"N={spec.N}",
        f"K={spec.K}",
        "A=" + " ".join(str(a) for a in spec.A),
        f"d_m={result.d_m}",
        f"method={result.method}",
        f"count={result.count}",
        f"maxListUsed={result.max_list_used}",
    ]
    if result.warning:
        lines.append(f"# warning: {result.warning}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
        for start in range(0, result.count, _WRITE_ROWS):
            u = result.vectors[start : start + _WRITE_ROWS]
            msgs = np.packbits(u.compress(spec.info_mask, axis=1), axis=1, bitorder="little")
            words = _pack(u)
            # u= is read off the words before the transform overwrites them
            us = [int.from_bytes(word.tobytes(), "little") for word in words]
            weights = _weights(_transform(words, spec.N)).tolist()
            fh.writelines(
                f"msg={int.from_bytes(msg.tobytes(), 'little'):x} u={word:x} w={w}\n"
                for msg, word, w in zip(msgs, us, weights)
            )


def read_enumeration(path):
    """Parse an enumeration file back into (CodeSpec, MhwResult).

    Every record must be well formed, set no bit past N or at a frozen
    position, agree with its message and its weight, and appear once."""
    with open(path, encoding="utf-8") as fh:
        raw = [line.rstrip("\n") for line in fh]
    if not raw or raw[0] != _ENUM_MAGIC:
        raise EnumFormatError(f"{path}: missing '{_ENUM_MAGIC}' header")
    fields = {}
    records = []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line or line.startswith("#"):
            continue
        if line.startswith("msg="):
            match = _RECORD.fullmatch(line)
            if not match:
                raise EnumFormatError(f"{path}:{lineno}: bad record {line!r}")
            records.append((int(match[1], 16), int(match[2], 16), int(match[3])))
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise EnumFormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key in fields:
            raise EnumFormatError(f"{path}:{lineno}: duplicate field {key!r}")
        fields[key] = value
    for need in ("N", "K", "A", "d_m", "method", "count", "maxListUsed"):
        if need not in fields:
            raise EnumFormatError(f"{path}: missing field {need!r}")
    try:
        N = int(fields["N"])
        K = int(fields["K"])
        A = tuple(int(tok) for tok in fields["A"].split())
        d_m = int(fields["d_m"])
        count = int(fields["count"])
        max_list = int(fields["maxListUsed"])
    except ValueError as exc:
        raise EnumFormatError(f"{path}: {exc}") from exc
    if len(A) != K:
        raise EnumFormatError(f"{path}: K={K} but A lists {len(A)} positions")
    if count != len(records):
        raise EnumFormatError(f"{path}: header count {count} != {len(records)} records")
    spec = CodeSpec(N, A)
    for _, word, _ in records:
        if word >> N:
            raise EnumFormatError(f"{path}: u={word:x} sets a bit past N={N}")
    # u= is hex with position 1 in the lowest bit, so its little-endian bytes
    # are the row's packed words
    width = -(-N // 64)
    data = bytearray(b"".join(word.to_bytes(8 * width, "little") for _, word, _ in records))
    words = np.frombuffer(data, dtype="<u8").reshape(-1, width)
    u = np.unpackbits(words.view(np.uint8), axis=1, count=N, bitorder="little")
    msgs = np.packbits(u.compress(spec.info_mask, axis=1), axis=1, bitorder="little")
    for (msg, word, _), want in zip(records, msgs):
        if int.from_bytes(want.tobytes(), "little") != msg:
            raise EnumFormatError(f"{path}: message/u mismatch for u={word:x}")
    frozen = (words & _pack(~spec.info_mask[None])).any(axis=1)
    if frozen.any():
        word = records[int(np.argmax(frozen))][1]
        raise EnumFormatError(f"{path}: nonzero frozen position in u={word:x}")
    weights = _weights(_transform(words, N)).tolist()
    for (_, word, w), weight in zip(records, weights):
        if w != weight:
            raise EnumFormatError(f"{path}: w={w} but u={word:x} has weight {weight}")
    try:
        result = MhwResult(d_m, u, fields["method"], max_list)
    except ValueError as exc:
        raise EnumFormatError(f"{path}: {exc}") from exc
    return spec, result
