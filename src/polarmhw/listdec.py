"""Successive-cancellation list decoding with path metrics and reverse sets.

One lockstep numpy engine decodes B LLR vectors at once, each with a list
of up to L paths (lanes); the lane axis grows to min(L, 2 * width) at each
information bit.  It runs on _Stages, the package's one numpy SC stage
engine, which mhw's zero-split walk shares.  Path state is copied lazily
(Tal & Vardy, "List decoding of polar codes"): each stage buffer is read
through a lane -> row map that a change of lanes composes with their
parents, and a parent stage's rows are gathered only when a child stage is
recomputed.  Each change of lanes stores every lane's parent, each leaf its
nonzero bits; decisions, and on request the decoding LLR of every leaf,
are traced back at the end.

Integer runs that record no leaf LLR (the subset and global searches)
take each maximal all-frozen (rate-0) node of 2**s >= 2 leaves in one step,
in the schedule CodeSpec._sc_steps (construction._node_steps, the one node
schedule builder, with rate-0 nodes only): its input alpha is computed at
stage s and no lower, its partial sums are all 0, and under
min-sum its frozen 0 bits cost sum_j |alpha_j| [alpha_j < 0] in all, so some
leaf LLR in it is negative iff some alpha_j is (the SSC rate-0 node rule:
Alamdar-Yazdi & Kschischang, IEEE Comm. Letters 2011; Hashemi, Condo &
Gross, IEEE TSP 2017).  scl_decode records every leaf's LLR, and a float
sum over a node would round differently from the per-leaf one, so its runs
and scl_decode_batch keep the leaf schedule.  mhw's zero-split walk, which
keeps no metric, runs rate-0, rate-1 and repetition nodes on the same
stages, in the schedule the same builder gives for all three kinds from the
walk's first trigger.

A path pinned at every position needs no list and no leaf order: each
node's partial sums are its leaves' decisions times G (Arikan, IEEE T-IT
2009), so _replay runs such paths stage by stage, n passes of the engine's
own f and g over every node of a stage and every path at once, each on one
of a few input vectors, and charges the leaves in leaf order as the engine
does.  It replays every SC path verify reads: members and bare rows e_i on
all ones, all-zero rows on 1 - g_i, and the subtree-root probes.  Two
min-sum facts make those SC's own paths:
- on a nonnegative input no f or g output is negative, so SC decides all 0;
- on all ones, every message whose first 1 is at i has weight >= w(g_i), so
  along e_i no leaf after i is negative.

Each decode may pin its own decision prefix and take its own list width.
Decodes of one prefix length and one width run in a (B, width) lane layout.
Decodes that differ in
either run ragged, from one shared LLR row: each decode's lanes sit
contiguously on one lane axis, and at a split leaf its candidates rank
among themselves only, so it keeps min(L_b, 2 * its lanes) of them and no
lane is ever dead.  So mhw's constrained subset searches run as one call,
each on its own lanes (a few calls at paper scale, to bound memory).

Two tie orders share one stable argsort of the candidate metrics.
scl_decode_batch (the AWGN simulation) lays the candidates out as [bit 0 of
every lane, bit 1 of every lane], so ties rank by (bit, lane).  scl_decode
(the noiseless searches, where many paths tie) keeps the lanes in decision
prefix order and lays the candidates out as [lane 0 bit 0, lane 0 bit 1,
lane 1 bit 0, ...], so ties rank by prefix, smallest first; the sorted kept
indices are the new lanes, again in prefix order.  On exact ties (integer
LLRs, say) the orders may keep different survivors.  Integer metrics that
all fit in int16 are sorted as int16 when rows hold 256 candidates or more;
numpy ranks them stably by radix, in the same order.

scl_decode computes in the type of its input: Python floats in float64;
Python ints in the smallest integer type holding 2 * max|LLR| * N, with
int64 path metrics, while max|LLR| * N**2 fits in int64; anything else
(mixed ints and floats, larger ints) in object arrays of Python numbers.
Each step is the scalar arithmetic of sctree, so pm and rds equal an SC
replay's, and pm is the Python number that arithmetic gives: int 0 for a
path never charged.

The path metric follows the exact form: each decision made against the sign
of a nonzero decoding LLR adds |LLR| and joins the reverse decision set; a
decision at an exactly zero LLR costs nothing and joins nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from polarmhw.bitops import _check_int, encode_rows
from polarmhw.sctree import _check_forced, _check_llrs

__all__ = ["DecodePath", "SearchDiagnostics", "scl_decode", "scl_decode_batch"]


@dataclass(frozen=True)
class DecodePath:
    decisions: tuple[int, ...]
    pm: object
    rds: tuple[int, ...]


@dataclass(frozen=True)
class SearchDiagnostics:
    """Prune bookkeeping: the cheapest candidate ever discarded, if any."""

    discarded: int = 0
    min_discarded_pm: object = None


def _f(a, b, out=None):
    """The check-node update sign(a) sign(b) min(|a|, |b|) of two node
    halves, into out if given (which a and b broadcast to)."""
    if a.dtype.kind == "f":
        # copysign(min(|a|, |b|), a b) equals sign(a) sign(b) min(|a|, |b|)
        # but for the sign of a zero, which nothing reads; a b may overflow to
        # an infinity of the right sign
        m, tmp = np.abs(a, out=out), np.abs(b)
        np.minimum(m, tmp, out=m)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(a, b, out=tmp)
        return np.copysign(m, tmp, out=m)
    return np.multiply(np.sign(a) * np.sign(b), np.minimum(np.abs(a), np.abs(b)), out=out)


def _g(a, b, beta, out=None):
    """The variable-node update b + (1 - 2 beta) a of two node halves after
    the left half's uint8 partial sums beta, into out if given: multiplying
    by +-1 is exact and b - a is b + (-a), so every dtype gets the bits
    b -+ a gives."""
    out = np.multiply(1 - 2 * beta.view(np.int8), a, out=out)
    out += b
    return out


class _Stages:
    """The SC stage buffers of B decodes of `width` lanes each, run leaf by
    leaf (node(phi), then commit) for every lane at once, or a node of 2**s
    leaves in one step (node(phi, s), then commit(phi, bits, s, beta) with
    the node's bits and partial sums, or commit(phi, None, s) for a node
    decided all 0); select() between the two replaces the lanes by copies of
    given parents.  Every decode starts with `width` lanes, all reading the
    (B, 1, N) channel LLRs.

    Lane j of decode b reads row map[b * w + j] of alpha[s] (map amap[s]) or
    beta_left[s] (bmap[s]) viewed as (B * w, size), w being the lane count
    the buffer was written at; None is the identity.  A (B, 1, size) buffer,
    such as the channel LLRs in alpha[n] and every stage computed from them
    alone, is shared by all lanes.
    """

    def __init__(self, llrs, width=1):
        B, N = llrs.shape
        self.B, self.N, self.n = B, N, N.bit_length() - 1
        self.width = width
        self.frame = np.arange(B)[:, None]
        self.alpha = [None] * self.n + [llrs[:, None, :]]
        self.amap = [None] * (self.n + 1)
        self.beta_left, self.bmap = [None] * self.n, [None] * self.n
        self.parents, self.bits = {}, {}

    def _rows(self, buf, rowmap):
        if rowmap is None or buf.shape[1] == 1:
            return buf
        return buf.reshape(-1, buf.shape[2]).take(rowmap, axis=0).reshape(self.B, -1, buf.shape[2])

    def node(self, phi, s=0, top=None):
        """The (B, width, 2**s) input LLRs of the node of 2**s leaves whose
        first leaf is phi, a multiple of 2**s, or (B, 1, 2**s) while shared;
        no stage below s is computed, and none above top, a stage whose node
        at phi node(phi, top) returned last."""
        alpha, amap = self.alpha, self.amap
        if top is not None:
            t = top
        elif phi == 0:
            t = self.n
        else:
            t = (phi & -phi).bit_length() - 1
            parent = self._rows(alpha[t + 1], amap[t + 1])
            # no later leaf reads alpha[t + 1], and alpha[:t] are rebuilt
            # before they are read: free them before the new stages exist
            alpha[: t + 2] = [None] * (t + 2)
            half = 1 << t
            beta = self._rows(self.beta_left[t], self.bmap[t])
            alpha[t], amap[t] = _g(parent[..., :half], parent[..., half:], beta), None
        while t > s:
            parent = alpha[t]
            half = 1 << (t - 1)
            alpha[t - 1], amap[t - 1] = _f(parent[..., :half], parent[..., half:]), None
            t -= 1
        return alpha[s]

    def select(self, phi, lane, s=0):
        """Make the (B, m) array of parent lanes the new lanes at leaf phi, or
        at the node of 2**s leaves whose first leaf is phi."""
        self.parents[phi] = lane.astype(np.min_scalar_type(self.width - 1))
        src = (lane + self.frame * self.width).ravel()
        self.width = lane.shape[1]
        # only stages still to be read need their maps moved: alpha[t] feeds
        # a pending g iff the path is in the left half at stage t, beta_left[t]
        # awaits its right sibling iff bit t of phi is set.  Past a node, the
        # alpha[t] of t <= s are rebuilt before they are read, and their maps
        # may be for another lane count
        for t in range(s + 1, self.n):
            if (phi >> (t - 1)) & 1 == 0:
                self.amap[t] = src if self.amap[t] is None else self.amap[t][src]
        for t in range(self.n):
            if (phi >> t) & 1:
                self.bmap[t] = src if self.bmap[t] is None else self.bmap[t][src]

    def commit(self, phi, bit, s=0, beta=None):
        """Decide the (B, width) uint8 bits at leaf phi, or the (B, width,
        2**s) bits of the node of 2**s leaves whose first leaf is phi, whose
        partial sums (the node's bits times G) are beta; bit None decides 0
        at every leaf of the node.  trace reads back each leaf's nonzero bits,
        kept as one contiguous (B, width) array per leaf."""
        if bit is None:
            cur = np.zeros((self.B, self.width, 1 << s), dtype=np.uint8)
        elif s == 0:
            if np.count_nonzero(bit):
                self.bits[phi] = bit
            cur = bit[:, :, None]
        else:
            leaves = bit.transpose(2, 0, 1).copy()
            for j in leaves.any(axis=(1, 2)).nonzero()[0].tolist():
                self.bits[phi + j] = leaves[j]
            cur = beta
        if phi + (1 << s) == self.N:
            return  # the last leaf completes only the root, which nothing reads
        while (phi >> s) & 1:
            cur = np.concatenate([self._rows(self.beta_left[s], self.bmap[s]) ^ cur, cur], axis=2)
            s += 1
        self.beta_left[s], self.bmap[s] = cur, None

    def trace(self, lanes, recorded=None):
        """The (B, m, N) decisions of the (B, m) final lanes picked, read back
        through every select's parent lanes and every nonzero committed bit
        array, and, given recorded, every leaf's (B, width) LLRs in leaf
        order, their leaf LLRs (else None)."""
        frame = self.frame
        decisions = np.zeros(lanes.shape + (self.N,), dtype=np.uint8)
        llr = None if recorded is None else np.empty(decisions.shape, dtype=recorded[0].dtype)
        # without leaf LLRs to read, only the leaves that stored something
        leaves = range(self.N) if llr is not None else sorted(self.bits.keys() | self.parents.keys())
        for phi in reversed(leaves):
            if phi in self.bits:
                decisions[..., phi] = self.bits[phi][frame, lanes]
            if phi in self.parents:
                lanes = self.parents[phi][frame, lanes]
            if llr is not None:
                llr[..., phi] = recorded[phi][frame, lanes]
        return decisions, llr


def _rank(key, integer):
    """The stable argsort of the candidate metrics along the last axis.
    Integer metrics are sums of |LLR|, never negative; numpy sorts 16-bit
    ints stably by radix, in the same order, which costs a fixed pass per row
    and pays on rows of 256 candidates or more, so those are sorted as int16
    when every metric fits."""
    if integer and key.shape[-1] >= 256 and key.max() <= np.iinfo(np.int16).max:
        key = key.astype(np.int16)
    return np.argsort(key, axis=-1, kind="stable")


def _charged(bits, llrs):
    """Where a bit goes against the sign of a nonzero leaf LLR, costing |LLR|
    and joining the reverse decision set (sctree._sc's rule, on arrays)."""
    return np.where(bits == 1, llrs > 0, llrs < 0)


def _engine(llrs, spec, L, prefix_order, prefix=None, ends=None, leaves=False):
    """List-decode the rows of a (B, N) LLR array, or the B rows of prefix
    from one shared (1, N) LLR row, the first ends[b] decisions of row b
    pinned to prefix[b], a (B, P) 0/1 array that is 0 past each row's end
    (None: nothing pinned), at list width L, one int or one per row.

    Rows of one end and one width run in a (B, width) lane layout.  Rows of
    different ends or widths run ragged, which needs one shared LLR row and
    the prefix order: row b's lanes sit contiguously, in row order, on the
    one lane axis of a single frame, and at a split leaf row b ranks only its
    own candidates and keeps min(L[b], 2 * its lanes) of them.

    Returns (pm, counts, trace, discarded, low): the final path metrics,
    (B, width), or (1, W) ragged, and counts[b], the lanes of row b;
    trace(lanes), the (F, m, N) decisions of the
    (F, m) lanes picked, F being B or, ragged, 1, and, with leaves, the
    decoding LLRs of their leaves (else None); how many candidates each row
    discarded and the metric of the cheapest one (where that count is
    nonzero), each a (B,) array or one value for every row.
    """
    L = np.asarray(L)
    B, N = llrs.shape
    if prefix is None:
        prefix, ends = np.zeros((B, 0), dtype=np.uint8), np.zeros(B, dtype=np.intp)
    rows, P = prefix.shape
    ragged = ends.min() != ends.max() or L.min() != L.max()
    if ragged:
        L = np.broadcast_to(L, rows)
    else:
        L, llrs = int(L.max()), np.broadcast_to(llrs, (rows, N))
    B = len(llrs)
    # the information bits past the shortest prefix, where paths may split
    split = spec.info_mask & (np.arange(N) >= ends.min())
    frame = np.arange(B)[:, None]
    # the prefix row of each lane, (1, W) ragged, else (B, 1)
    owner = np.arange(rows)[None] if ragged else frame
    # candidates in sort layout, (B, 2, width) in the batch order and
    # (B, width, 2) in the prefix order, flattened
    axis, grow = (2, np.s_[:, :, None]) if prefix_order else (1, np.s_[:, None])

    def layout(pair):
        return np.concatenate([x[grow] for x in pair], axis).reshape(B, -1)

    stages = _Stages(llrs, rows if ragged else 1)
    integer = llrs.dtype.kind == "i"
    pm = np.zeros(owner.shape, dtype=np.int64 if integer else llrs.dtype)
    recorded = [] if leaves else None  # per position, each lane's leaf LLR
    if ragged:
        discarded, low = np.zeros(rows, dtype=np.int64), np.zeros(rows, dtype=pm.dtype)
    else:
        discarded, low = 0, None
    # integer metrics with no leaf recorded take each rate-0 node in one step
    steps = spec._sc_steps if integer and not leaves else ((phi, 0) for phi in range(N))

    for phi, s in steps:
        if s:
            # under min-sum the 0 bits of a rate-0 node cost, summed over its
            # leaves, sum_j |alpha_j| [alpha_j < 0] over its input alpha
            pm = pm - np.minimum(stages.node(phi, s), 0).sum(axis=2, dtype=np.int64)
            stages.commit(phi, None, s)
            continue
        leaf = stages.node(phi)[..., 0]  # (B, width), or (B, 1) while still shared
        width = pm.shape[1]
        if leaves:
            recorded.append(np.broadcast_to(leaf, (B, width)))
        # as in sctree._sc, a bit against the sign of a nonzero leaf costs
        # |leaf|, any other bit int 0
        mag = np.abs(leaf)

        if not split[phi]:
            # a pinned bit, or a frozen 0 (prefixes are 0 past their ends)
            if phi < P:
                value = prefix[owner, phi]
                charged = _charged(value, leaf)
            else:
                value, charged = 0, leaf < 0
            pm = pm + np.where(charged, mag, 0)
            bit = np.full((B, width), value, dtype=np.uint8)
            stages.commit(phi, bit)
            continue

        charge = (leaf < 0, leaf > 0)
        cand = layout([pm + np.where(c, mag, 0) for c in charge])
        if ragged:
            # a row still pinned here allows its prefix bit, a split row both
            want = np.where(phi < ends, prefix[:, phi] if phi < P else 0, 2)
            ok = layout([want[owner] != 1, want[owner] != 0])[0]
            counts = np.bincount(owner[0], minlength=rows)
            # the split rows with more candidates than their width rank them
            # by metric, stably in prefix order, and drop those past L[b];
            # adjacent rows of one lane count and width rank together
            over = ((want == 2) & (2 * counts > L)).nonzero()[0]
            if len(over):
                lanes = 2 * (np.cumsum(counts) - counts)  # each row's first candidate
                size, keep = 2 * counts[over], L[over]
                step = (np.diff(over) != 1) | (np.diff(size) != 0) | (np.diff(keep) != 0)
                cuts = [0] + (step.nonzero()[0] + 1).tolist() + [len(over)]
                first = np.empty(len(over), dtype=cand.dtype)  # each row's cheapest drop
                for a, b in zip(cuts, cuts[1:]):
                    m, k, lo = int(size[a]), int(keep[a]), int(lanes[over[a]])
                    part = cand[0, lo : lo + (b - a) * m].reshape(b - a, m)
                    rank = _rank(part, integer)
                    first[a:b] = part[np.arange(b - a), rank[:, k]]
                    drop = ok[lo : lo + (b - a) * m].reshape(b - a, m)
                    drop[np.arange(b - a)[:, None], rank[:, k:]] = False
                old = low[over]
                low[over] = np.where((discarded[over] == 0) | (first < old), first, old)
                discarded[over] += size - keep
            order = ok.nonzero()[0][None]
        else:
            keep = min(L, 2 * width)
            order = _rank(cand, integer)
            if keep < 2 * width:
                first = cand[frame[:, 0], order[:, keep]]
                discarded += 2 * width - keep
                low = first if low is None else np.where(first < low, first, low)
            order = order[:, :keep]
            if prefix_order:
                order = np.sort(order, axis=1)
        lane, bit = np.divmod(order, 2) if prefix_order else np.divmod(order, width)[::-1]
        pm = cand[frame, order]
        stages.select(phi, lane)
        if ragged:
            owner = owner[frame, lane]
        stages.commit(phi, bit.astype(np.uint8))

    counts = np.bincount(owner[0], minlength=rows) if ragged else np.full(rows, pm.shape[1])
    # the trace reads only the parent lanes and the committed bits
    stages.alpha = stages.beta_left = stages.amap = stages.bmap = None
    return pm, counts, lambda lanes: stages.trace(lanes, recorded), discarded, low


def _exact_input(input_llrs, N):
    """One LLR vector as a (1, N) engine input of the dtype its values need
    (see the module docstring)."""
    kinds = set(map(type, input_llrs))
    if kinds == {float}:
        return np.array([input_llrs], dtype=np.float64)
    if kinds == {int}:
        top = max(1, max(map(abs, input_llrs)))
        # stage LLRs stay within top * N, path metrics within top * N * N
        if top * N * N <= np.iinfo(np.int64).max:
            return np.array([input_llrs], dtype=np.min_scalar_type(-2 * top * N))
    return np.array([list(input_llrs)], dtype=object)


def _python_pm(pm):
    """An engine metric as the scalar arithmetic types it: a path never
    charged holds int 0."""
    return (pm.item() if isinstance(pm, np.generic) else pm) or 0


# The bytes of scratch one run may hold: the decisions of the searches of one
# mhw engine run in all (or one search's), whose stage buffers and trace are
# (lanes, at most N) arrays, and one chunk of rows of a fully pinned replay.
_RUN_BYTES = 1 << 24


def _replay(input_llrs, spec, u, nodes=(), which=None):
    """SC replays of one LLR vector, or of input_llrs[which[b]] in row b, in
    the dtype numpy promotes their _exact_input types to, along the (B, N)
    uint8 fully pinned paths u, stage by stage: every node's partial sums are
    its leaves' decisions times G, so stage s of every row follows from stage
    s + 1 in one _f and one _g pass over all nodes, the leaf engine's
    arithmetic on whole stages.  Rows run in chunks of at most _RUN_BYTES of
    scratch.

    Returns (pm, llr, got): the (B,) path metrics, typed as the leaf
    engine's, the (B, N) leaf LLRs, and the LLR vector of each (row, stage,
    node) of nodes, node 1-based as sctree keys them.
    """
    N, n = spec.N, spec.n
    vectors = [input_llrs] if which is None else input_llrs
    llrs = np.concatenate([_exact_input(x, N) for x in vectors])
    B, integer = len(u), llrs.dtype.kind == "i"
    llr = np.empty((B, N), dtype=llrs.dtype)
    pm = np.empty(B, dtype=np.int64 if integer else llrs.dtype)
    wanted, got = {}, {}
    for row, s, node in nodes:
        wanted.setdefault(s, []).append((row, node))

    def keep(s, stage, lo):
        # the wanted nodes of stage s in the rows from lo on
        for row, node in wanted.get(s, ()):
            if 0 <= row - lo < len(stage):
                got[row, s, node] = stage[row - lo, (node - 1) << s : node << s].copy()

    # per row: its input (gathered from several), two stage buffers, the
    # partial sums and the f, g and metric temporaries
    step = max(1, _RUN_BYTES // (N * (5 * llrs.itemsize + 6)))
    for lo in range(0, B, step):
        hi = min(B, lo + step)
        rows = hi - lo
        # the codeword is the root's partial sums; the transform's butterfly
        # levels commute and each is its own inverse, so undoing level s
        # leaves those of every node of 2**s leaves
        beta = encode_rows(u[lo:hi])
        stages = np.empty((2, rows, N), dtype=llrs.dtype)
        parent = llrs if which is None else llrs[which[lo:hi]]
        keep(n, np.broadcast_to(parent, (rows, N)), lo)
        for s in reversed(range(n)):
            level = beta.reshape(rows, -1, 2, 1 << s)
            level[:, :, 0] ^= level[:, :, 1]
            child = stages[s % 2] if s else llr[lo:hi]
            halves = parent.reshape(len(parent), -1, 2, 1 << s)
            kids = child.reshape(rows, -1, 2, 1 << s)
            _f(halves[:, :, 0], halves[:, :, 1], out=kids[:, :, 0])
            _g(halves[:, :, 0], halves[:, :, 1], level[:, :, 0], out=kids[:, :, 1])
            keep(s, child, lo)
            parent = child
        costs = np.where(_charged(u[lo:hi], parent), np.abs(parent), 0)
        # an integer metric is exact in any order; a float or object one is
        # summed leaf by leaf, as the leaf engine charges it
        pm[lo:hi] = costs.sum(axis=1, dtype=np.int64) if integer else costs.cumsum(axis=1)[:, -1]
    return pm, llr, got


def _search(input_llrs, spec, L, prefixes=((),), leaves=False):
    """scl_decode's search from one LLR vector, unchecked, for each forced
    prefix in one engine run, at list width L, one int or one per prefix.
    Per prefix: the (paths, N) uint8 decisions of every surviving path in
    ascending order, their engine metrics, their leaf LLRs (with leaves,
    else None) and the SearchDiagnostics."""
    B, N = len(prefixes), spec.N
    widths = np.broadcast_to(L, B)
    ends = np.array([len(p) for p in prefixes], dtype=np.intp)
    # the rows run in order of width and end, so that the rows that rank
    # together at a leaf (one width, as many lanes) sit side by side
    perm = np.lexsort((ends, widths))
    prefix = np.zeros((B, ends.max()), dtype=np.uint8)
    for row, b in zip(prefix, perm.tolist()):
        row[: ends[b]] = prefixes[b]
    llrs = _exact_input(input_llrs, N)
    pm, counts, trace, discarded, low = _engine(
        llrs, spec, widths[perm], True, prefix, ends[perm], leaves
    )
    # every final lane, rows after one another on one lane axis
    decisions, llr = trace(np.broadcast_to(np.arange(pm.shape[1]), pm.shape))
    decisions = decisions.reshape(-1, N)
    llr = None if llr is None else llr.reshape(-1, N)
    pm, discarded = pm.reshape(-1), np.broadcast_to(discarded, B)
    stops = np.cumsum(counts)
    out = [None] * B
    for k, b in enumerate(perm.tolist()):
        lanes = slice(stops[k] - counts[k], stops[k])
        diagnostics = SearchDiagnostics(
            int(discarded[k]), _python_pm(low[k]) if discarded[k] else None
        )
        out[b] = decisions[lanes], pm[lanes], None if llr is None else llr[lanes], diagnostics
    return out


def scl_decode(input_llrs, spec, L: int, forced_prefix=(), with_diagnostics=False):
    """Ranked list of at most L paths, ascending (pm, decisions).

    forced_prefix pins the first decisions (it must put 0 on every frozen
    position it covers); splitting starts after it.
    """
    N = spec.N
    _check_llrs(input_llrs, N)
    prefix = _check_forced(forced_prefix, spec, "forced prefix")
    L = _check_int("list size L", L, 1)

    decisions, pm, llr, diagnostics = _search(input_llrs, spec, L, [prefix], leaves=True)[0]
    charged = _charged(decisions, llr)
    # the lanes are in decision order, so a stable sort by pm ranks by
    # (pm, decisions)
    positions = np.arange(1, N + 1)
    ranked = [
        DecodePath(
            tuple(decisions[k].tolist()), _python_pm(pm[k]), tuple(positions[charged[k]].tolist())
        )
        for k in np.argsort(pm, kind="stable")
    ]
    if with_diagnostics:
        return ranked, diagnostics
    return ranked


def scl_decode_batch(llr_matrix, spec, L: int):
    """Best-path decisions for a batch of REAL-mode decodes.

    llr_matrix: finite float array (B, N), B >= 0.  Returns a uint8 array
    (B, N) holding the lowest-metric path of each decode.
    """
    llr_matrix = np.asarray(llr_matrix, dtype=np.float64)
    if llr_matrix.ndim != 2:
        raise ValueError(f"expected a (B, N) LLR matrix, got shape {llr_matrix.shape}")
    N = llr_matrix.shape[1]
    if N != spec.N:
        raise ValueError(f"LLR row length {N} does not match N={spec.N}")
    if not np.isfinite(llr_matrix).all():
        raise ValueError("LLR matrix holds NaN or infinite entries")
    L = _check_int("list size L", L, 1)
    if not len(llr_matrix):
        return np.zeros((0, N), dtype=np.uint8)
    pm, _, trace, _, _ = _engine(llr_matrix, spec, L, False)
    return trace(np.argmin(pm, axis=1)[:, None])[0][:, 0]
