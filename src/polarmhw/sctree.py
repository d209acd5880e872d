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

The engine records the decoding LLR of every leaf and, on request, the LLR
and partial-sum vectors of every internal node, keyed by (stage, node index):
stage lambda means node size 2**lambda, node index is 1-based left to right,
so the root is (n, 1) and leaf p is (0, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from polarmhw.bitops import encode, positions_of

__all__ = [
    "ScOutcome",
    "f_combine",
    "g_combine",
    "beta_combine",
    "hard_decision",
    "sc_decode",
    "sc_retrace",
    "sc_replay",
]


# ---- node combines ----


def f_combine(a, b):
    """Check-node update: sign(a) sign(b) min(|a|, |b|) (min-sum form).

    The min-sum form, not the tanh rule: all zero-propagation arguments used
    by the search machinery rely on min(|a|, |b|) being exactly zero when
    either operand is.
    """
    mag = min(abs(a), abs(b))
    if (a < 0) != (b < 0):
        return -mag
    return mag


def g_combine(a, b, bit):
    """Variable-node update: b + a if bit = 0 else b - a."""
    if bit not in (0, 1):
        raise ValueError(f"decision bit must be 0 or 1, got {bit!r}")
    return b - a if bit else b + a


def beta_combine(left, right):
    """Merge child partial sums: (left xor right) followed by right."""
    if len(left) != len(right):
        raise ValueError(f"partial-sum length mismatch: {len(left)} vs {len(right)}")
    return [l ^ r for l, r in zip(left, right)] + list(right)


def hard_decision(llr, position, spec):
    """0 at frozen positions and nonnegative LLRs, 1 at negative info LLRs.

    An exactly zero LLR at an info position resolves to 0; plain SC stays
    deterministic and the enumeration layer splits such positions explicitly.
    """
    if not spec.is_info(position):
        return 0
    return 1 if llr < 0 else 0


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


def _run(input_llrs, spec, decide, record_nodes):
    N = spec.N
    _check_llrs(input_llrs, N)
    llrs = [None] * N
    decisions = [None] * N
    node_llrs = {} if record_nodes else None
    node_betas = {} if record_nodes else None

    def walk(alpha, offset):
        size = len(alpha)
        if record_nodes:
            node_llrs[(size.bit_length() - 1, offset // size + 1)] = tuple(alpha)
        if size == 1:
            llr = alpha[0]
            llrs[offset] = llr
            bit = decide(offset + 1, llr)
            decisions[offset] = bit
            if record_nodes:
                node_betas[(0, offset + 1)] = (bit,)
            return [bit]
        half = size // 2
        left_beta = walk([f_combine(alpha[k], alpha[k + half]) for k in range(half)], offset)
        right_alpha = [g_combine(alpha[k], alpha[k + half], left_beta[k]) for k in range(half)]
        right_beta = walk(right_alpha, offset + half)
        beta = beta_combine(left_beta, right_beta)
        if record_nodes:
            node_betas[(size.bit_length() - 1, offset // size + 1)] = tuple(beta)
        return beta

    walk(list(input_llrs), 0)
    return decisions, llrs, node_llrs, node_betas


def _derived_rds(decisions, llrs):
    """Positions whose decision contradicts a nonzero decoding LLR."""
    out = []
    for pos, (bit, llr) in enumerate(zip(decisions, llrs), start=1):
        if (llr > 0 and bit == 1) or (llr < 0 and bit == 0):
            out.append(pos)
    return tuple(out)


def _finish(decisions, llrs, node_llrs, node_betas, pm, rds):
    return ScOutcome(
        decisions=tuple(decisions),
        llrs=tuple(llrs),
        pm=pm,
        rds=rds,
        zero_positions=positions_of(0, llrs),
        node_llrs=node_llrs,
        node_betas=node_betas,
    )


def sc_decode(input_llrs, spec, record_nodes: bool = False) -> ScOutcome:
    """Plain SC: follow hard decisions everywhere."""
    decisions, llrs, nl, nb = _run(
        input_llrs, spec, lambda pos, llr: hard_decision(llr, pos, spec), record_nodes
    )
    rds = _derived_rds(decisions, llrs)
    pm = sum(abs(llrs[p - 1]) for p in rds)
    return _finish(decisions, llrs, nl, nb, pm, rds)


def sc_retrace(input_llrs, spec, rds, record_nodes: bool = False) -> ScOutcome:
    """SC with the hard decision flipped at the info positions listed in rds.

    The reported path metric is the sum of |LLR| over the given rds, the
    usual cost of a path that reverses exactly those decisions.
    """
    rds = frozenset(rds)
    if any(not 1 <= p <= spec.N for p in rds):
        raise ValueError(f"rds positions must lie in [1, {spec.N}]")

    def decide(pos, llr):
        bit = hard_decision(llr, pos, spec)
        if pos in rds and spec.is_info(pos):
            bit = 1 - bit
        return bit

    decisions, llrs, nl, nb = _run(input_llrs, spec, decide, record_nodes)
    pm = sum(abs(llrs[p - 1]) for p in rds)
    return _finish(decisions, llrs, nl, nb, pm, tuple(sorted(rds)))


def sc_replay(input_llrs, spec, decisions, record_nodes: bool = False) -> ScOutcome:
    """Run the SC schedule along a fixed decision vector, recording LLRs.

    The reverse-decision set is derived from the outcome: positions where the
    forced decision contradicts a nonzero decoding LLR.
    """
    if len(decisions) != spec.N:
        raise ValueError(f"expected {spec.N} decisions, got {len(decisions)}")
    forced = [int(b) for b in decisions]
    for pos, bit in enumerate(forced, start=1):
        if bit not in (0, 1):
            raise ValueError("decisions must be a 0/1 vector")
        if bit and not spec.is_info(pos):
            raise ValueError(f"decision 1 at frozen position {pos}")
    got, llrs, nl, nb = _run(input_llrs, spec, lambda pos, llr: forced[pos - 1], record_nodes)
    rds = _derived_rds(got, llrs)
    pm = sum(abs(llrs[p - 1]) for p in rds)
    return _finish(got, llrs, nl, nb, pm, rds)
