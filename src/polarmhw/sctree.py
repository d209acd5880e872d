"""Successive-cancellation decoding on the code tree, with full recording.

The decoder works in two scalar modes, selected by the input LLR types:

* EXACT mode: every input LLR is a Python int (or an exactly representable
  dyadic float such as 3.5).  The min-sum check update keeps such values
  closed under both combines, so a zero-valued decoding LLR is detected
  exactly, with no epsilon.  Noiseless searches feed a constant positive
  vector and live entirely in this mode.
* REAL mode: channel floats.  zero_positions is still recorded (it is a bare
  equality scan) but carries no meaning there: a zero LLR under AWGN is a
  measure-zero event and nothing downstream reads it.

The check-node update f is the min-sum form sign(a) sign(b) min(|a|, |b|),
not the tanh rule: every zero-propagation argument of the search machinery
relies on min(|a|, |b|) being exactly zero when either operand is.  The
variable-node update g is b + a after a left partial sum of 0, b - a after
a 1.  A hard decision is 0 at a frozen position or a nonnegative LLR, so an
exactly zero LLR at an information position resolves to 0: plain SC stays
deterministic and the enumeration layer splits such positions explicitly.

One tree state (per-stage LLR buffers and pending left partial sums) runs
the schedule leaf by leaf; SC decoding, retrace and replay differ only in the
decision they commit at each leaf.  The numpy stage engine of listdec, which
its list decoder and mhw's zero-split walk share, runs the same f and g
arithmetic on every lane at once; the tests check it against this one, the
public scalar decoder and their reference, which the CLI never calls.
This engine records the decoding LLR of every leaf and, on request, the LLR
and partial-sum vectors of every node, keyed by (stage, node index): stage
lambda means node size 2**lambda, node index is 1-based left to right, so
the root is (n, 1) and leaf p is (0, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from polarmhw.bitops import _check_bits, _check_int, encode, positions_of

__all__ = ["ScOutcome", "sc_decode", "sc_retrace", "sc_replay"]


# ---- outcome record ----


@dataclass(frozen=True)
class ScOutcome:
    decisions: tuple[int, ...]
    llrs: tuple
    pm: object
    rds: tuple[int, ...]
    zero_positions: tuple[int, ...] | None
    node_llrs: dict | None = None
    node_betas: dict | None = None

    def codeword(self) -> list[int]:
        return encode(list(self.decisions))


# ---- engine ----


def _check_llrs(input_llrs, N):
    """Reject a wrong length and NaN or infinite entries, once per decode.

    Python ints are exact and always finite, and math.isfinite would raise
    OverflowError on one past the float range, so they are not checked.
    """
    if len(input_llrs) != N:
        raise ValueError(f"expected {N} input LLRs, got {len(input_llrs)}")
    if not all(isinstance(x, int) or math.isfinite(x) for x in input_llrs):
        raise ValueError("input LLRs hold NaN or infinite entries")


def _check_forced(bits, spec, what):
    """Decisions pinned from position 1 on: at most N 0/1 ints, none a 1 at a frozen position."""
    bits = _check_bits(list(bits), what)  # a list: an array's bits come back as ints
    if len(bits) > spec.N:
        raise ValueError(f"{what} longer than N={spec.N}")
    if frozen := [pos for pos, bit in enumerate(bits, start=1) if bit and not spec.is_info(pos)]:
        raise ValueError(f"{what}: 1 at frozen position {frozen[0]}")
    return bits


class _TreeState:
    """Stage buffers of one SC path: alpha[s] is the LLR node of stage s on
    the current root-to-leaf path, beta_left[s] the partial sums of a left
    sibling waiting for its right half.  Leaf phi (0-based) recomputes only
    the stages below the lowest set bit of phi.  A node of one entry (stage
    0) is computed as a scalar, in f and g and in commit's first level;
    half of all f and g updates are of such nodes.

    With record_nodes, every LLR vector is captured where it is written and
    every partial-sum vector where it is completed, keyed by (stage, node),
    in the order a recursive walk of the tree visits them.
    """

    __slots__ = ("n", "alpha", "beta_left", "node_llrs", "node_betas")

    def __init__(self, input_llrs, n, record_nodes=False):
        self.n = n
        self.alpha = [None] * (n + 1)
        self.alpha[n] = list(input_llrs)
        self.beta_left = [None] * n
        self.node_llrs = {(n, 1): tuple(self.alpha[n])} if record_nodes else None
        self.node_betas = {} if record_nodes else None

    def leaf_llr(self, phi):
        alpha, record = self.alpha, self.node_llrs
        if phi == 0:
            s = self.n
        else:
            s = (phi & -phi).bit_length() - 1
            parent, left = alpha[s + 1], self.beta_left[s]
            if s:
                alpha[s] = [
                    b - a if u else b + a for a, b, u in zip(parent, parent[1 << s :], left)
                ]
            else:
                a, b = parent
                alpha[0] = [b - a if left[0] else b + a]
            if record is not None:
                record[(s, (phi >> s) + 1)] = tuple(alpha[s])
        # f's magnitude is min(|a|, |b|) written out, twice as fast as the
        # call; like min it takes |a| on a tie, which fixes the type of a
        # tie between an int and a float
        while s > 0:
            parent = alpha[s]
            s -= 1
            if s:
                alpha[s] = [
                    (abs(b) if abs(b) < abs(a) else abs(a))
                    if (a < 0) == (b < 0)
                    else -(abs(b) if abs(b) < abs(a) else abs(a))
                    for a, b in zip(parent, parent[1 << s :])
                ]
            else:
                a, b = parent
                m = abs(b) if abs(b) < abs(a) else abs(a)
                alpha[0] = [m if (a < 0) == (b < 0) else -m]
            if record is not None:
                record[(s, (phi >> s) + 1)] = tuple(alpha[s])
        return alpha[0][0]

    def commit(self, phi, bit):
        record = self.node_betas
        if record is not None:
            record[(0, phi + 1)] = (bit,)
        if not phi & 1:
            # a left leaf waits for its sibling
            self.beta_left[0] = [bit]
            return
        # a right leaf completes its parent's partial sums, as scalars
        cur = [self.beta_left[0][0] ^ bit, bit]
        s, node = 1, phi >> 1
        if record is not None:
            record[(1, node + 1)] = tuple(cur)
        while node & 1:
            # the left sibling's partial sums xor this node's, then this node's
            cur = [l ^ r for l, r in zip(self.beta_left[s], cur)] + cur
            node >>= 1
            s += 1
            if record is not None:
                record[(s, node + 1)] = tuple(cur)
        if s < self.n:
            self.beta_left[s] = cur


def _sc(input_llrs, spec, decide, record_nodes):
    """One SC pass in which decide(position, llr) picks every bit.  As in the
    list decoders, a bit against the sign of a nonzero LLR adds |llr| to the
    path metric and its position to the reverse-decision set; an exactly zero
    LLR never penalizes."""
    N = spec.N
    _check_llrs(input_llrs, N)
    tree = _TreeState(input_llrs, N.bit_length() - 1, record_nodes)
    decisions, llrs, rds = [], [], []
    pm = 0
    for phi in range(N):
        llr = tree.leaf_llr(phi)
        bit = decide(phi + 1, llr)
        if (llr > 0 and bit == 1) or (llr < 0 and bit == 0):
            pm = pm + abs(llr)
            rds.append(phi + 1)
        tree.commit(phi, bit)
        decisions.append(bit)
        llrs.append(llr)
    return ScOutcome(
        decisions=tuple(decisions),
        llrs=tuple(llrs),
        pm=pm,
        rds=tuple(rds),
        zero_positions=positions_of(0, llrs),
        node_llrs=tree.node_llrs,
        node_betas=tree.node_betas,
    )


def sc_decode(input_llrs, spec, record_nodes: bool = False) -> ScOutcome:
    """Plain SC: follow hard decisions everywhere."""
    return _sc(
        input_llrs, spec, lambda pos, llr: 1 if llr < 0 and spec.is_info(pos) else 0, record_nodes
    )


def sc_retrace(input_llrs, spec, rds, record_nodes: bool = False) -> ScOutcome:
    """SC with the hard decision flipped at the info positions listed in rds.

    The reported path metric is the sum of |LLR| over the given rds, the
    usual cost of a path that reverses exactly those decisions.
    """
    rds = frozenset(_check_int("rds", p, 1, spec.N) for p in rds)

    def decide(pos, llr):
        return (1 if llr < 0 else 0) ^ (pos in rds) if spec.is_info(pos) else 0

    out = _sc(input_llrs, spec, decide, record_nodes)
    pm = sum(abs(out.llrs[p - 1]) for p in rds)
    return replace(out, pm=pm, rds=tuple(sorted(rds)))


def sc_replay(input_llrs, spec, decisions, record_nodes: bool = False) -> ScOutcome:
    """Run the SC schedule along a fixed decision vector, recording LLRs.

    The reverse-decision set is derived from the outcome: positions where the
    forced decision contradicts a nonzero decoding LLR.
    """
    if len(decisions) != spec.N:
        raise ValueError(f"expected {spec.N} decisions, got {len(decisions)}")
    forced = _check_forced(decisions, spec, "decisions")
    return _sc(input_llrs, spec, lambda pos, llr: forced[pos - 1], record_nodes)
