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
Gross, IEEE TSP 2017).  scl_decode and verify's replays record every leaf's
LLR, and a float sum over a node would round differently from the per-leaf
one, so those runs and scl_decode_batch keep the leaf schedule.  mhw's
zero-split walk, which keeps no metric, runs rate-0, rate-1 and repetition
nodes on the same stages, in the schedule the same builder gives for all
three kinds from the walk's first trigger.

Each decode may pin its own decision prefix.  While all prefixes have one
length no lane is dead.  Otherwise decodes that start splitting at
different leaves share the lane axis under a live-lane mask: the candidates
of dead lanes, and the forbidden bit at a pinned leaf, rank after every
other candidate and never count as discarded, and the lane axis grows only
as far as some decode has valid candidates.  So the constrained searches of
one list width run as one call, and so do SC replays (L = 1, the whole path
pinned).

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

from polarmhw.sctree import _check_llrs

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


class _Stages:
    """The SC stage buffers of B decodes of `width` lanes each, run leaf by
    leaf like sctree._TreeState (leaf, then commit) for every lane at once,
    or a node of 2**s leaves in one step (node(phi, s), then commit(phi,
    bits, s, beta) with the node's bits and partial sums, or commit(phi,
    None, s) for a node decided all 0); select() between the two replaces
    the lanes by copies of given parents.

    Lane j of decode b reads row map[b * w + j] of alpha[s] (map amap[s]) or
    beta_left[s] (bmap[s]) viewed as (B * w, size), w being the lane count
    the buffer was written at; None is the identity.  A (B, 1, size) buffer,
    such as the channel LLRs in alpha[n] and every stage computed from them
    alone, is shared by all lanes.
    """

    def __init__(self, llrs):
        B, N = llrs.shape
        self.B, self.N, self.n = B, N, N.bit_length() - 1
        self.width = 1
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
            half = 1 << t
            a, b = parent[..., :half], parent[..., half:]
            alpha[t] = np.where(self._rows(self.beta_left[t], self.bmap[t]) == 1, b - a, b + a)
            amap[t] = None
        while t > s:
            parent = alpha[t]
            half = 1 << (t - 1)
            a, b = parent[..., :half], parent[..., half:]
            alpha[t - 1] = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
            amap[t - 1] = None
            t -= 1
        return alpha[s]

    def leaf(self, phi):
        """The (B, width) decoding LLRs of leaf phi, or (B, 1) while shared."""
        return self.node(phi)[..., 0]

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
        array, and, given every leaf's LLRs as leaf() returned them, their
        leaf LLRs (else None)."""
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


def _engine(llrs, spec, L, prefix_order, prefix=None, ends=None, leaves=False):
    """List-decode the rows of a (B, N) LLR array, the first ends[b]
    decisions of row b pinned to prefix[b], a (B, P) 0/1 array that is 0
    past each row's end (None: nothing pinned).  Rows with different ends
    need the prefix order.

    Returns (pm, live, trace, discarded, low): the (B, width) final path
    metrics; the (B, width) live-lane mask, or None when every lane is live;
    trace(lanes), the (B, m, N) decisions of the (B, m) lanes picked and,
    with leaves, the decoding LLRs of their leaves (else None); how many
    candidates each row discarded and the metric of the cheapest one (where
    that count is nonzero), each a (B,) array or one value for every row.
    """
    if L < 1:
        raise ValueError(f"list size L={L} must be >= 1")
    B, N = llrs.shape
    if prefix is None:
        prefix, ends = np.zeros((B, 0), dtype=np.uint8), np.zeros(B, dtype=np.intp)
    P = prefix.shape[1]
    # the information bits past the shortest prefix, where paths may split
    split = spec.info_mask & (np.arange(N) >= ends.min())
    live = None if ends.min() == ends.max() else np.ones((B, 1), dtype=bool)
    frame = np.arange(B)[:, None]
    # candidates in sort layout, (B, 2, width) in the batch order and
    # (B, width, 2) in the prefix order, flattened
    axis, grow = (2, np.s_[:, :, None]) if prefix_order else (1, np.s_[:, None])

    def layout(pair):
        return np.concatenate([x[grow] for x in pair], axis).reshape(B, -1)

    stages = _Stages(llrs)
    integer = llrs.dtype.kind == "i"
    pm = np.zeros((B, 1), dtype=np.int64 if integer else llrs.dtype)
    recorded = [] if leaves else None  # per position, each lane's leaf LLR
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
        leaf = stages.leaf(phi)  # (B, width), or (B, 1) while still shared
        width = pm.shape[1]
        if leaves:
            recorded.append(np.broadcast_to(leaf, (B, width)))
        # sctree._penalty: a bit against the sign of a nonzero leaf costs
        # |leaf|, any other bit int 0
        mag = np.abs(leaf)

        if not split[phi]:
            # a pinned bit, or a frozen 0 (prefixes are 0 past their ends)
            if phi < P:
                value = prefix[:, phi, None]
                charged = np.where(value == 1, leaf > 0, leaf < 0)
            else:
                value, charged = 0, leaf < 0
            pm = pm + np.where(charged, mag, 0)
            bit = np.full((B, width), value, dtype=np.uint8)
        else:
            charge = (leaf < 0, leaf > 0)
            cand = layout([pm + np.where(c, mag, 0) for c in charge])
            keep = min(L, 2 * width)
            if live is not None:
                # a row still pinned here allows one bit, a dead lane none
                want = np.where(phi < ends, prefix[:, min(phi, P - 1)], 2)[:, None]
                ok = layout([live & (want != 1), live & (want != 0)])
                keep = min(L, int(ok.sum(axis=1).max()))
            if prefix_order and keep == 2 * width:
                order = np.broadcast_to(np.arange(keep), (B, keep))
            else:
                key = cand
                if integer and 2 * width >= 256 and cand.max() <= np.iinfo(np.int16).max:
                    # metrics are sums of |LLR|, never negative; numpy sorts
                    # 16-bit ints stably by radix, in the same order, which
                    # costs a fixed pass per row and pays on rows this long
                    key = cand.astype(np.int16)
                if live is None:
                    order = np.argsort(key, axis=1, kind="stable")
                else:
                    order = np.lexsort((key, ~ok))  # valid first, then stable by metric
                if keep < 2 * width:
                    cut = order[:, keep]
                    first = cand[frame[:, 0], cut]
                    if live is None:
                        discarded += 2 * width - keep
                        low = first if low is None else np.where(first < low, first, low)
                    else:
                        # a row that discards keeps L live lanes from then
                        # on, so its first candidate past the cut is valid
                        # and its cheapest loss; before that, its low is unused
                        low = first if low is None else low
                        low = np.where((discarded == 0) | (first < low), first, low)
                        discarded = discarded + np.maximum(ok.sum(axis=1) - keep, 0)
                order = order[:, :keep]
                if prefix_order:
                    order = np.sort(order, axis=1)
            if live is not None:
                live = ok[frame, order]
            lane, bit = np.divmod(order, 2) if prefix_order else np.divmod(order, width)[::-1]
            pm = cand[frame, order]
            bit = bit.astype(np.uint8)
            stages.select(phi, lane)
        stages.commit(phi, bit)

    return pm, live, lambda lanes: stages.trace(lanes, recorded), discarded, low


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


def _search(input_llrs, spec, L, prefixes=((),), leaves=False):
    """scl_decode's search from one LLR vector, unchecked, for each forced
    prefix in one engine run.  Per prefix: the (paths, N) uint8 decisions of
    every surviving path in ascending order, their engine metrics, their leaf
    LLRs (with leaves, else None) and the SearchDiagnostics."""
    B, N = len(prefixes), spec.N
    ends = np.array([len(p) for p in prefixes], dtype=np.intp)
    prefix = np.zeros((B, ends.max()), dtype=np.uint8)
    for row, p in zip(prefix, prefixes):
        row[: len(p)] = p
    llrs = np.broadcast_to(_exact_input(input_llrs, N), (B, N))
    pm, live, trace, discarded, low = _engine(llrs, spec, L, True, prefix, ends, leaves)
    decisions, llr = trace(np.broadcast_to(np.arange(pm.shape[1]), pm.shape))
    discarded = np.broadcast_to(discarded, B)
    out = []
    for b in range(B):
        kept = slice(None) if live is None else live[b]
        diagnostics = SearchDiagnostics(
            int(discarded[b]), _python_pm(low[b]) if discarded[b] else None
        )
        leaf_llrs = None if llr is None else llr[b, kept]
        out.append((decisions[b, kept], pm[b, kept], leaf_llrs, diagnostics))
    return out


def scl_decode(input_llrs, spec, L: int, forced_prefix=(), with_diagnostics=False):
    """Ranked list of at most L paths, ascending (pm, decisions).

    forced_prefix pins the first decisions (it must put 0 on every frozen
    position it covers); splitting starts after it.
    """
    N = spec.N
    _check_llrs(input_llrs, N)
    prefix = [int(b) for b in forced_prefix]
    if len(prefix) > N:
        raise ValueError(f"forced prefix longer than N={N}")
    for pos, bit in enumerate(prefix, start=1):
        if bit not in (0, 1):
            raise ValueError("forced prefix must be a 0/1 vector")
        if bit and not spec.is_info(pos):
            raise ValueError(f"forced prefix sets 1 at frozen position {pos}")

    decisions, pm, llr, diagnostics = _search(input_llrs, spec, L, [prefix], leaves=True)[0]
    charged = np.where(decisions == 1, llr > 0, llr < 0)
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

    llr_matrix: finite float array (B, N).  Returns a uint8 array (B, N)
    holding the lowest-metric path of each decode.
    """
    llr_matrix = np.asarray(llr_matrix, dtype=np.float64)
    if llr_matrix.ndim != 2:
        raise ValueError(f"expected a (B, N) LLR matrix, got shape {llr_matrix.shape}")
    N = llr_matrix.shape[1]
    if N != spec.N:
        raise ValueError(f"LLR row length {N} does not match N={spec.N}")
    if not np.isfinite(llr_matrix).all():
        raise ValueError("LLR matrix holds NaN or infinite entries")
    pm, _, trace, _, _ = _engine(llr_matrix, spec, L, False)
    return trace(np.argmin(pm, axis=1)[:, None])[0][:, 0]
