import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RawSpec, brute_force_minimum_weight, first_one
from polarmhw.bitops import encode, generator_row, positions_of
from polarmhw.construction import CodeSpec, construct_ga, construct_pw
from polarmhw.sctree import ScOutcome, sc_decode, sc_replay, sc_retrace

SPEC8 = CodeSpec(8, (4, 6, 7, 8))


def test_zero_llr_decision_is_flagged():
    out = sc_retrace([1] * 8, SPEC8, {4})
    assert out.decisions[5] == 0  # position 6 sits on a zero LLR, resolves to 0
    assert 6 in out.zero_positions


def test_all_frozen_all_ones_input():
    spec = RawSpec(8, ())
    out = sc_decode([1] * 8, spec)
    assert out.decisions == (0,) * 8
    assert all(l > 0 for l in out.llrs)
    assert out.rds == () and out.pm == 0


def test_exact_mode_integer_closure():
    rng = random.Random(31)
    for _ in range(50):
        llrs = [rng.randint(-8, 8) for _ in range(8)]
        out = sc_decode(llrs, SPEC8, record_nodes=True)
        assert all(isinstance(l, int) for l in out.llrs)
        for vec in out.node_llrs.values():
            assert all(isinstance(v, int) for v in vec)


def test_residual_input_zero_locations():
    # decode a * (1 - c) for c = row 4: zeros land exactly on the row support
    u = [0, 0, 0, 1, 0, 0, 0, 0]
    c = encode(u)
    for a in (1, 3.5):
        out = sc_decode([a * (1 - bit) for bit in c], SPEC8)
        assert out.zero_positions == (1, 2, 3, 4)
        assert out.zero_positions == positions_of(1, generator_row(4, 8))


def test_residual_zero_locations_whole_small_code():
    dm, vectors = brute_force_minimum_weight(SPEC8)
    assert dm == 4
    for u in vectors:
        i = first_one(u)
        expected = positions_of(1, generator_row(i, 8))
        c = encode(list(u))
        for a in (1, 3.5):
            out = sc_decode([a * (1 - bit) for bit in c], SPEC8)
            assert out.zero_positions == expected


def test_retrace_empty_rds_is_plain_sc():
    rng = random.Random(37)
    for _ in range(20):
        llrs = [rng.randint(-5, 5) for _ in range(8)]
        plain = sc_decode(llrs, SPEC8)
        traced = sc_retrace(llrs, SPEC8, ())
        assert traced.decisions == plain.decisions
        assert traced.llrs == plain.llrs
        assert traced.pm == 0


def test_retrace_trigger_example():
    out = sc_retrace([1] * 8, SPEC8, {4})
    assert out.decisions == (0, 0, 0, 1, 0, 0, 0, 0)
    assert out.pm == 4
    assert out.zero_positions == (5, 6, 7, 8)


def test_retrace_rejects_out_of_range():
    with pytest.raises(ValueError):
        sc_retrace([1] * 8, SPEC8, {9})


def test_retrace_refuses_a_fractional_row():
    # a fractional row once died in a tuple index
    with pytest.raises(ValueError, match=r"^rds=2\.5 must be an integer$"):
        sc_retrace([1] * 8, SPEC8, {2.5})


def test_replay_validates_decisions():
    with pytest.raises(ValueError):
        sc_replay([1] * 8, SPEC8, [0, 0, 1, 0, 0, 0, 0, 0])  # frozen violation
    with pytest.raises(ValueError):
        sc_replay([1] * 8, SPEC8, [0, 0, 0, 1])


NON_FINITE = (float("nan"), float("inf"), -float("inf"))


def test_sc_decode_rejects_non_finite_llrs():
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="NaN or infinite"):
            sc_decode([1.0] * 7 + [bad], SPEC8)
    assert sc_decode([10**400] * 8, SPEC8).decisions == (0,) * 8


def test_sc_retrace_rejects_non_finite_llrs():
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="NaN or infinite"):
            sc_retrace([bad] + [1.0] * 7, SPEC8, {4})


def test_sc_replay_rejects_non_finite_llrs():
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="NaN or infinite"):
            sc_replay([1.0] * 3 + [bad] + [1.0] * 4, SPEC8, [0] * 8)


def test_replay_reports_derived_reverse_decisions():
    out = sc_replay([1] * 8, SPEC8, [0, 0, 0, 1, 0, 1, 0, 0])
    assert out.rds == (4,)
    assert out.pm == 4
    assert sum(out.codeword()) == 4


def test_partial_sums_match_segment_encodings():
    rng = random.Random(41)
    for spec in (SPEC8, CodeSpec(16, (8, 12, 14, 15, 16))):
        for _ in range(10):
            llrs = [rng.randint(-6, 6) for _ in range(spec.N)]
            out = sc_decode(llrs, spec, record_nodes=True)
            for (lam, j), beta in out.node_betas.items():
                lo = (j - 1) * (1 << lam)
                seg = list(out.decisions[lo : lo + (1 << lam)])
                if lam == 0:
                    assert list(beta) == seg
                else:
                    assert list(beta) == encode(seg)


def test_positive_llrs_before_first_reverse_decision():
    # under constant-positive input, every node computed before the trigger
    # decision carries a constant positive vector
    for i in (4, 6, 7):
        out = sc_retrace([1] * 8, SPEC8, {i}, record_nodes=True)
        for (lam, j), vec in out.node_llrs.items():
            lo = (j - 1) * (1 << lam) + 1
            if lo <= i:
                first = vec[0]
                assert first > 0
                assert all(v == first for v in vec)


# ---- golden outcomes of the scalar engine ----
#
# One digest over the repr of every sc_decode / sc_retrace / sc_replay
# outcome on a seeded corpus, recorded when the corpus was added.  repr pins
# int-versus-float types of LLRs and metrics and the insertion order of the
# node dicts, so any rewrite of the engine must reproduce all of them.

GOLDEN_SC = "1f93b470f86dbbdd2eeb5e4aec51b87f632115a1e573a76199f4b18a7490aca2"


def golden_sc_corpus():
    rng = random.Random(2019)
    draws = {
        "int": lambda: rng.randint(-4, 6),
        "dyadic": lambda: rng.randint(-12, 20) / 4,
        "gauss": lambda: rng.gauss(0.5, 2.0),
    }
    for N in (2, 4, 8, 16, 32, 64):
        for kind, draw in draws.items():
            for _ in range(8):
                A = rng.sample(range(1, N + 1), rng.randint(1, N))
                spec = CodeSpec(N, tuple(A))
                llrs = [draw() for _ in range(N)]
                rds = rng.sample(range(1, N + 1), rng.randint(0, min(N, 4)))
                u = [rng.randint(0, 1) if spec.is_info(p) else 0 for p in range(1, N + 1)]
                yield spec, llrs, rds, u


def test_scalar_engine_golden_corpus():
    digest = hashlib.sha256()
    for spec, llrs, rds, u in golden_sc_corpus():
        for record in (False, True):
            for out in (
                sc_decode(llrs, spec, record_nodes=record),
                sc_retrace(llrs, spec, rds, record_nodes=record),
                sc_replay(llrs, spec, u, record_nodes=record),
            ):
                digest.update(repr(out).encode())
    assert digest.hexdigest() == GOLDEN_SC


# ---- a recursive reference for ties and signed zeros ----


def recursive_sc(llrs, spec, decide, record_nodes):
    """SC by recursion over the code tree, min-sum f written from its
    definition: the ScOutcome the engine must give, types and node order
    included (LLRs where a node is entered, partial sums where it is done)."""
    node_llrs, node_betas, leaves = {}, {}, []

    def f(a, b):
        x, y = abs(a), abs(b)
        m = y if y < x else x  # min(x, y) takes x on a tie
        return -m if (a < 0) != (b < 0) else m

    def walk(alpha, stage, index):
        node_llrs[stage, index] = tuple(alpha)
        if stage == 0:
            leaves.append((alpha[0], decide(index, alpha[0])))
            beta = [leaves[-1][1]]
        else:
            h = len(alpha) // 2
            a, b = alpha[:h], alpha[h:]
            left = walk([f(x, y) for x, y in zip(a, b)], stage - 1, 2 * index - 1)
            right = [y - x if u else y + x for x, y, u in zip(a, b, left)]
            right = walk(right, stage - 1, 2 * index)
            beta = [l ^ r for l, r in zip(left, right)] + right
        node_betas[stage, index] = tuple(beta)
        return beta

    walk(list(llrs), spec.N.bit_length() - 1, 1)
    pm, rds = 0, []
    for pos, (llr, bit) in enumerate(leaves, start=1):
        if (llr > 0 and bit == 1) or (llr < 0 and bit == 0):
            pm, rds = pm + abs(llr), rds + [pos]
    return ScOutcome(
        decisions=tuple(bit for _, bit in leaves),
        llrs=tuple(llr for llr, _ in leaves),
        pm=pm,
        rds=tuple(rds),
        zero_positions=tuple(p for p, (llr, _) in enumerate(leaves, start=1) if llr == 0),
        node_llrs=node_llrs if record_nodes else None,
        node_betas=node_betas if record_nodes else None,
    )


# ties of an int and a float of opposite signs, and zeros of both signs; every
# sum of these is exact, so a path metric does not depend on summation order
TIE_VALUES = (2, -2.0, -2, 2.0, 0, 0.0, -0.0, 1, -1.5, 3.5)


def tie_corpus():
    rng = random.Random(26)
    yield SPEC8, [2, -2.0, 0.0, -0.0, -2, 2.0, -0.0, 0]
    yield CodeSpec(8, tuple(range(1, 9))), [-0.0, 0.0, 2.0, -2, -2.0, 2, 0, -0.0]
    for N in (2, 4, 8, 16, 32):
        for _ in range(20):
            spec = CodeSpec(N, tuple(rng.sample(range(1, N + 1), rng.randint(1, N))))
            yield spec, [rng.choice(TIE_VALUES) for _ in range(N)]


def test_scalar_engine_matches_a_recursive_reference_on_ties_and_signed_zeros():
    rng = random.Random(27)
    for spec, llrs in tie_corpus():
        rds = frozenset(rng.sample(spec.A, rng.randint(0, min(spec.K, 3))))
        u = [rng.randint(0, 1) if spec.is_info(p) else 0 for p in range(1, spec.N + 1)]
        for record in (False, True):
            want = recursive_sc(llrs, spec, lambda p, x: int(spec.is_info(p) and x < 0), record)
            assert repr(sc_decode(llrs, spec, record_nodes=record)) == repr(want)

            def flipped(p, x):
                return (int(x < 0) ^ (p in rds)) if spec.is_info(p) else 0

            want = recursive_sc(llrs, spec, flipped, record)
            pm = sum(abs(want.llrs[p - 1]) for p in rds)
            want = replace(want, pm=pm, rds=tuple(sorted(rds)))
            assert repr(sc_retrace(llrs, spec, rds, record_nodes=record)) == repr(want)

            want = recursive_sc(llrs, spec, lambda p, x: u[p - 1], record)
            assert repr(sc_replay(llrs, spec, u, record_nodes=record)) == repr(want)


# ---- two min-sum facts that let verify read SC's paths off one replay ----


def assert_bare_row_and_residual_facts(spec):
    """On the all-ones input, SC's retrace flipped at an information
    position i decides the bare row e_i: no later leaf LLR is negative, since
    every message whose first 1 is at i has weight at least w(g_i), so the
    path's one charge is its leaf LLR at i, 2**popcount(i - 1).  On a
    nonnegative input no f or g output is negative, so SC decides 0
    everywhere, and on s (1 - g_i) the zero LLRs sit on the support of g_i."""
    N = spec.N
    for i in spec.A:
        out = sc_retrace([1] * N, spec, {i})
        assert out.decisions == tuple(int(p == i) for p in range(1, N + 1))
        assert min(out.llrs) >= 0
        assert out.pm == 2 ** (i - 1).bit_count() and out.rds == (i,)
    for i in range(1, N + 1):
        row = generator_row(i, N)
        for s in (1, 3.5):
            out = sc_decode([s * (1 - bit) for bit in row], spec)
            assert out.decisions == (0,) * N and out.rds == ()
            assert out.zero_positions == positions_of(1, row)


@st.composite
def small_codes(draw):
    N = 1 << draw(st.integers(1, 6))
    return CodeSpec(N, draw(st.lists(st.integers(1, N), min_size=1, max_size=N, unique=True)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(small_codes())
def test_bare_row_retrace_and_residual_decode_on_any_small_code(spec):
    assert_bare_row_and_residual_facts(spec)


@pytest.mark.parametrize(
    "spec", [construct_pw(256, 128), construct_ga(256, 128, 2.0)], ids=["pw256", "ga256"]
)
def test_bare_row_retrace_and_residual_decode_at_256(spec):
    assert_bare_row_and_residual_facts(spec)
