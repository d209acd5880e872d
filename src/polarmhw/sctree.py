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

The decoder is SC's definition on G_N = [[G, 0], [G, G]] (Arikan, IEEE
T-IT 2009), a recursion on the code tree: a node passes f of its LLR halves
to its left child, g of them after the left child's partial sums to its
right child, and returns left xor right, then right, as its partial sums.
SC decoding, retrace and replay differ only in the decision at each leaf.
listdec's numpy stage engine runs the same f and g on every lane at once;
the tests check it against this recursion, the public scalar decoder and
their reference, which the CLI never calls.  The decoder records every
leaf's decoding LLR and, on request, every node's LLR and partial-sum
vectors, keyed by (stage, node index) in the order the recursion enters and
leaves the nodes: stage lambda means node size 2**lambda, node index is
1-based left to right, so the root is (n, 1) and leaf p is (0, p).
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


def _f(a, b):
    """The min-sum f of two LLRs.  Its magnitude is min(|a|, |b|) written
    out, faster than calling min; like min it takes |a| on a tie, which
    fixes the type of a tie between an int and a float."""
    m = abs(b) if abs(b) < abs(a) else abs(a)
    return m if (a < 0) == (b < 0) else -m


def _sc(input_llrs, spec, decide, record_nodes):
    """One SC pass in which decide(position, llr) picks every bit.  As in the
    list decoders, a bit against the sign of a nonzero LLR adds |llr| to the
    path metric and its position to the reverse-decision set; an exactly zero
    LLR never penalizes."""
    N = spec.N
    _check_llrs(input_llrs, N)
    decisions, llrs = [], []
    node_llrs, node_betas = ({}, {}) if record_nodes else (None, None)

    def node(alpha, s, k):
        """Decode node (s, k) from its input LLRs; return its partial sums."""
        if node_llrs is not None:
            node_llrs[(s, k)] = tuple(alpha)
        if s == 0:
            llrs.append(alpha[0])
            decisions.append(decide(k, alpha[0]))
            beta = decisions[-1:]
        elif s == 1:  # two leaves in scalars, half of all f and g updates
            a, b = alpha
            (x,) = node([_f(a, b)], 0, 2 * k - 1)
            (y,) = node([b - a if x else b + a], 0, 2 * k)
            beta = [x ^ y, y]
        else:
            a, b = alpha[: 1 << (s - 1)], alpha[1 << (s - 1) :]
            left = node(list(map(_f, a, b)), s - 1, 2 * k - 1)
            right = node([y - x if u else y + x for x, y, u in zip(a, b, left)], s - 1, 2 * k)
            beta = [l ^ r for l, r in zip(left, right)] + right
        if node_betas is not None:
            node_betas[(s, k)] = tuple(beta)
        return beta

    node(list(input_llrs), N.bit_length() - 1, 1)
    pm, rds = 0, []
    for pos, (llr, bit) in enumerate(zip(llrs, decisions), start=1):
        if (llr > 0 and bit == 1) or (llr < 0 and bit == 0):
            pm = pm + abs(llr)
            rds.append(pos)
    return ScOutcome(
        decisions=tuple(decisions),
        llrs=tuple(llrs),
        pm=pm,
        rds=tuple(rds),
        zero_positions=positions_of(0, llrs),
        node_llrs=node_llrs,
        node_betas=node_betas,
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
