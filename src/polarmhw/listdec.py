"""Successive-cancellation list decoding with path metrics and reverse sets.

Two engines share the same path metric:

* A scalar engine (`scl_decode`, `constrained_scl`) over Python numbers, one
  sctree tree state per path, cloned on splits.  In EXACT integer mode it
  powers the noiseless codeword searches, where large groups of paths tie at
  the same integer path metric and the tie-break must be total: candidates
  are ranked by (pm, decision prefix), lexicographically smallest prefix
  first.  Results are therefore bit-for-bit reproducible.
* A batched numpy engine (`scl_decode_batch`) over float64 LLR matrices, used
  by the AWGN frame-error simulation.  It keeps B independent decodes times L
  lanes in flight; pruning uses a stable argsort over the candidates [bit 0
  of every lane, bit 1 of every lane], so tied candidates rank by (bit,
  lane), not by decision prefix.  The engines agree on channel floats, where
  an exact tie is a measure-zero event, but on exact ties (integer LLRs, say)
  they may keep different survivors.

  Path state is copied lazily (Tal & Vardy, "List decoding of polar codes").
  Each stage buffer is read through a (B, L) lane -> row map; a prune only
  composes the maps with the surviving lanes' parents, O(B*L*n) work
  instead of O(B*L*N).  A parent stage's rows are gathered through its map
  only when a child stage is recomputed from it, and a freshly written stage
  gets the identity map.  The channel LLRs are one (B, N) row per decode,
  shared by all lanes, as is every stage computed from them alone.
  Decisions are not copied either: each information bit stores the kept
  candidate of every lane (its bit and parent lane), and the best lane's
  decisions are traced back once at the end.

The path metric follows the exact form: each decision made against the sign
of a nonzero decoding LLR adds |LLR| and joins the reverse decision set; a
decision at an exactly zero LLR costs nothing and joins nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from polarmhw.bitops import encode
from polarmhw.sctree import _check_llrs, _penalty, _TreeState

__all__ = [
    "DecodePath",
    "SearchDiagnostics",
    "scl_decode",
    "constrained_scl",
    "scl_decode_batch",
]


@dataclass(frozen=True)
class DecodePath:
    decisions: tuple[int, ...]
    pm: object
    rds: tuple[int, ...]

    def codeword(self) -> list[int]:
        return encode(list(self.decisions))


@dataclass(frozen=True)
class SearchDiagnostics:
    """Prune bookkeeping: the cheapest candidate ever discarded, if any."""

    discarded: int = 0
    min_discarded_pm: object = None


# ---- per-path state ----


class _Path:
    __slots__ = ("tree", "decisions", "pm", "rds")

    def __init__(self, tree, decisions, pm, rds):
        self.tree = tree
        self.decisions = decisions
        self.pm = pm
        self.rds = rds


def _apply(path, pos, llr, bit):
    pen = _penalty(llr, bit)
    if pen:
        path.pm = path.pm + pen
        path.rds.append(pos)
    path.decisions.append(bit)
    path.tree.commit(pos - 1, bit)


# ---- scalar list decode ----


def scl_decode(input_llrs, spec, L: int, forced_prefix=(), with_diagnostics=False):
    """Ranked list of at most L paths, ascending (pm, decisions).

    forced_prefix pins the first decisions (it must put 0 on every frozen
    position it covers); splitting starts after it.
    """
    if L < 1:
        raise ValueError(f"list size L={L} must be >= 1")
    N, n = spec.N, spec.N.bit_length() - 1
    _check_llrs(input_llrs, N)
    prefix = [int(b) for b in forced_prefix]
    if len(prefix) > N:
        raise ValueError(f"forced prefix longer than N={N}")
    for pos, bit in enumerate(prefix, start=1):
        if bit not in (0, 1):
            raise ValueError("forced prefix must be a 0/1 vector")
        if bit and not spec.is_info(pos):
            raise ValueError(f"forced prefix sets 1 at frozen position {pos}")

    paths = [_Path(_TreeState(input_llrs, n), [], 0, [])]
    discarded = 0
    min_discarded_pm = None

    for pos in range(1, N + 1):
        llrs = [p.tree.leaf_llr(pos - 1) for p in paths]
        if pos <= len(prefix) or not spec.is_info(pos):
            bit = prefix[pos - 1] if pos <= len(prefix) else 0
            for p, llr in zip(paths, llrs):
                _apply(p, pos, llr, bit)
            continue
        # split every path, keep the L best by (pm, decision prefix)
        candidates = []
        for p, llr in zip(paths, llrs):
            for bit in (0, 1):
                candidates.append((p.pm + _penalty(llr, bit), p.decisions + [bit], p, llr, bit))
        candidates.sort(key=lambda c: (c[0], c[1]))
        kept, dropped = candidates[:L], candidates[L:]
        if dropped:
            discarded += len(dropped)
            best_dropped = dropped[0][0]
            if min_discarded_pm is None or best_dropped < min_discarded_pm:
                min_discarded_pm = best_dropped
        uses = {}
        for _, _, parent, _, _ in kept:
            uses[id(parent)] = uses.get(id(parent), 0) + 1
        nxt = []
        for _, _, parent, llr, bit in kept:
            if uses[id(parent)] > 1:
                # clone while the parent is still pristine; the parent object
                # itself is consumed in place by its final kept child
                uses[id(parent)] -= 1
                p = _Path(
                    parent.tree.clone(), list(parent.decisions), parent.pm, list(parent.rds)
                )
            else:
                p = parent
            _apply(p, pos, llr, bit)
            nxt.append(p)
        paths = nxt

    paths.sort(key=lambda p: (p.pm, p.decisions))
    ranked = [DecodePath(tuple(p.decisions), p.pm, tuple(p.rds)) for p in paths]
    if with_diagnostics:
        return ranked, SearchDiagnostics(discarded, min_discarded_pm)
    return ranked


def constrained_scl(input_llrs, spec, L: int, forced_prefix, with_diagnostics=False):
    """scl_decode under a pinned decision prefix (see scl_decode)."""
    return scl_decode(
        input_llrs, spec, L, forced_prefix=forced_prefix, with_diagnostics=with_diagnostics
    )


# ---- batched channel decode ----


def scl_decode_batch(llr_matrix, spec, L: int):
    """Best-path decisions for a batch of REAL-mode decodes.

    llr_matrix: finite float array (B, N).  Returns a uint8 array (B, N)
    holding the lowest-metric path of each decode.
    """
    if L < 1:
        raise ValueError(f"list size L={L} must be >= 1")
    llr_matrix = np.asarray(llr_matrix, dtype=np.float64)
    if llr_matrix.ndim != 2:
        raise ValueError(f"expected a (B, N) LLR matrix, got shape {llr_matrix.shape}")
    B, N = llr_matrix.shape
    n = N.bit_length() - 1
    if N != spec.N:
        raise ValueError(f"LLR row length {N} does not match N={spec.N}")
    if not np.isfinite(llr_matrix).all():
        raise ValueError("LLR matrix holds NaN or infinite entries")
    info = np.zeros(N, dtype=bool)
    info[[a - 1 for a in spec.A]] = True

    # alpha[s] / beta_left[s] rows are read through amap[s] / bmap[s]: lane
    # j of decode b lives in row map[b * L + j] of the buffer viewed as
    # (B * L, width); None is the identity.  A buffer of shape (B, 1, width)
    # is shared by every lane and ignores its map: alpha[n] holds the
    # channel LLRs, and stages computed from it alone stay shared.
    alpha = [None] * n + [llr_matrix[:, None, :]]
    amap = [None] * (n + 1)
    beta_left = [None] * n
    bmap = [None] * n
    pm = np.full((B, L), np.inf)
    pm[:, 0] = 0.0
    row0 = np.arange(0, B * L, L)[:, None]
    # per information bit, the kept candidate of each lane: bit = c >= L,
    # parent lane = c % L
    kept = np.zeros((len(spec.A), B, L), dtype=np.min_scalar_type(2 * L - 1))
    k = 0

    def rows(buf, rowmap):
        if rowmap is None or buf.shape[1] == 1:
            return buf
        return buf.reshape(B * L, -1).take(rowmap, axis=0).reshape(buf.shape)

    for phi in range(N):
        if phi == 0:
            s = n
        else:
            s = (phi & -phi).bit_length() - 1
            parent = rows(alpha[s + 1], amap[s + 1])
            half = 1 << s
            a, b = parent[..., :half], parent[..., half:]
            alpha[s] = np.where(rows(beta_left[s], bmap[s]) == 1, b - a, b + a)
            amap[s] = None
        while s > 0:
            parent = alpha[s]
            half = 1 << (s - 1)
            a, b = parent[..., :half], parent[..., half:]
            alpha[s - 1] = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
            amap[s - 1] = None
            s -= 1
        leaf = alpha[0][..., 0]  # (B, L), or (B, 1) while still shared

        if not info[phi]:
            pm = pm + np.maximum(-leaf, 0.0)
            bit = np.zeros((B, L), dtype=np.uint8)
        else:
            cand = np.concatenate([pm + np.maximum(-leaf, 0.0), pm + np.maximum(leaf, 0.0)], axis=1)
            order = np.argsort(cand, axis=1, kind="stable")[:, :L]
            src = (order % L + row0).ravel()
            bit = (order >= L).astype(np.uint8)
            pm = np.take_along_axis(cand, order, axis=1)
            kept[k] = order
            k += 1
            # only stages still to be read need their maps moved: alpha[t]
            # feeds a pending g iff the path is in the left half at stage t,
            # beta_left[t] awaits its right sibling iff bit t of phi is set
            for t in range(1, n):
                if (phi >> (t - 1)) & 1 == 0:
                    amap[t] = src if amap[t] is None else amap[t][src]
            for t in range(n):
                if (phi >> t) & 1:
                    bmap[t] = src if bmap[t] is None else bmap[t][src]

        cur = bit[:, :, None]
        node = phi
        s = 0
        while node & 1:
            cur = np.concatenate([rows(beta_left[s], bmap[s]) ^ cur, cur], axis=2)
            node >>= 1
            s += 1
        if s < n:
            beta_left[s] = cur
            bmap[s] = None

    out = np.zeros((B, N), dtype=np.uint8)
    frame = np.arange(B)
    lane = np.argmin(pm, axis=1)
    for k, phi in reversed(list(enumerate(np.flatnonzero(info)))):
        c = kept[k, frame, lane]
        out[:, phi] = c >= L
        lane = c % L
    return out
