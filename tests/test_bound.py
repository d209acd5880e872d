import hashlib
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_minimum_weight,
    first_one,
    group_by_trigger,
    random_specs,
)

from polarmhw.bitops import generator_row, min_distance
from polarmhw.bound import (
    _prefix_bounds,
    bound_count,
    decompose,
    subtree_input_llr,
    zero_capacity_set,
)
from polarmhw.construction import CodeSpec, _codes, construct_ga, construct_pw
from polarmhw.sctree import sc_replay, sc_retrace

SPEC8 = CodeSpec(8, (4, 6, 7, 8))


def one_extra_bit_members(i, N):
    """Reference membership test: e follows i with exactly one extra digit."""
    r = i - 1
    return {
        e for e in range(i + 1, N + 1) if (e - 1) > r and ((e - 1) & ~r).bit_count() == 1
    }


# ---- decomposition examples ----


def test_decompose_examples():
    d = decompose(2, 3)
    assert [(p.start, p.end, p.lam, p.node) for p in d] == [
        (3, 4, 1, 2),
        (5, 8, 2, 2),
    ]
    d = decompose(1, 3)
    assert [(p.start, p.end, p.lam) for p in d] == [(2, 2, 0), (3, 4, 1), (5, 8, 2)]
    d = decompose(7, 3)
    assert [(p.start, p.end, p.lam, p.node) for p in d] == [(8, 8, 0, 8)]
    assert decompose(8, 3) == ()


def test_decompose_validates_range():
    with pytest.raises(ValueError):
        decompose(0, 3)
    with pytest.raises(ValueError):
        decompose(9, 3)


def test_fractional_index_is_refused_not_truncated():
    # np.asarray(2.5, int64) is 2 and 2.0 >> t is a TypeError; one check
    # refuses both, as a fractional list size is refused
    for i, call in (
        (2.5, lambda: zero_capacity_set(2.5, 8)),
        (2.0, lambda: zero_capacity_set(2.0, 8)),
        (2.0, lambda: decompose(2.0, 3)),
        (2.5, lambda: decompose(2.5, 3)),
        (2.5, lambda: generator_row(2.5, 8)),
    ):
        with pytest.raises(ValueError, match=re.escape(f"i={i} must be an integer")):
            call()
    assert zero_capacity_set(np.int64(2), 8) == zero_capacity_set(2, 8) == {3, 4, 5, 6}
    assert decompose(np.int32(2), 3) == decompose(2, 3)
    with pytest.raises(ValueError, match=re.escape("i=9 must be in [1, 8]")):
        decompose(9, 3)


def test_decomposition_partitions_the_tail_exhaustively():
    # spans tile [i+1, N] in order with power-of-two sizes, and every root
    # node index is even, for every i of every length up to 2**12
    for n in range(1, 13):
        N = 1 << n
        for i in range(1, N):
            parts = decompose(i, n)
            assert parts, f"nonempty tail for i={i} < N={N}"
            expect_start = i + 1
            for p in parts:
                assert p.start == expect_start
                assert p.end - p.start + 1 == 1 << p.lam
                assert p.node % 2 == 0
                assert p.start == (p.node - 1) * (1 << p.lam) + 1
                expect_start = p.end + 1
            assert expect_start == N + 1


# ---- zero-capacity sets ----


def test_zero_capacity_set_examples():
    assert zero_capacity_set(2, 8) == {3, 4, 5, 6}
    assert zero_capacity_set(4, 8) == {5, 6, 7, 8}
    for N in (2, 4, 8, 16, 1 << 16):
        assert zero_capacity_set(N, N) == frozenset()
    # i - 1 = 0: every digit is zero and each part holds one position
    assert zero_capacity_set(1, 1 << 16) == {(1 << t) + 1 for t in range(16)}


def test_zero_capacity_set_matches_one_extra_bit_characterization():
    for N in (4, 8, 16, 64, 256, 1024):
        for i in range(1, N + 1):
            assert zero_capacity_set(i, N) == one_extra_bit_members(i, N)


def test_zero_capacity_set_cardinality_closed_form():
    for N in (8, 32, 128):
        n = N.bit_length() - 1
        for i in range(1, N + 1):
            expect = sum(
                1 << ((i - 1) & ((1 << p.lam) - 1)).bit_count()
                for p in decompose(i, n)
            )
            assert len(zero_capacity_set(i, N)) == expect


def test_zero_capacity_set_lies_in_the_tail():
    rng = random.Random(21)
    for _ in range(200):
        N = 1 << rng.randint(1, 10)
        i = rng.randint(1, N)
        s = zero_capacity_set(i, N)
        assert all(i < e <= N for e in s)


# ---- the counting bound ----


def test_bound_examples_length_eight():
    report = bound_count(SPEC8)
    assert report.d_m == 4
    assert report.a_m == (4, 6, 7)
    assert [(t.i, t.term) for t in report.triggers] == [(4, 8), (6, 4), (7, 2)]
    assert report.total == 14
    assert brute_force_minimum_weight(SPEC8)[0] == 4
    assert len(brute_force_minimum_weight(SPEC8)[1]) == 14


def test_bound_example_full_rate_length_four():
    report = bound_count(CodeSpec(4, (1, 2, 3, 4)), materialize_sets=True)
    assert report.d_m == 1
    assert report.a_m == (1,)
    assert report.triggers[0].members == (2, 3)
    assert report.total == 4
    count = len(brute_force_minimum_weight(CodeSpec(4, (1, 2, 3, 4)))[1])
    assert count == 4


def test_bound_example_single_information_position():
    for N in (2, 8, 32):
        report = bound_count(CodeSpec(N, (N,)))
        assert report.total == 1
        assert report.triggers[0].overlap == 0


def test_bound_is_sound_on_random_information_sets():
    for spec in random_specs(60, (8, 16, 32), seed=22, max_K=10):
        exact = len(brute_force_minimum_weight(spec)[1])
        report = bound_count(spec)
        assert report.total >= exact
        assert report.total >= len(report.a_m)


def test_bound_terms_dominate_per_trigger_counts():
    for spec in random_specs(30, (8, 16), seed=23, max_K=10):
        groups = group_by_trigger(brute_force_minimum_weight(spec)[1])
        report = bound_count(spec)
        terms = {t.i: t.term for t in report.triggers}
        for i, members in groups.items():
            assert i in terms
            assert terms[i] >= len(members)


def test_bound_report_members_match_set_intersection():
    for spec in random_specs(30, (8, 16, 32, 64), seed=24):
        report = bound_count(spec, materialize_sets=True)
        info = set(spec.A)
        for t in report.triggers:
            expect = tuple(sorted(zero_capacity_set(t.i, spec.N) & info))
            assert t.members == expect
            assert t.overlap == len(expect)
            assert t.term == 1 << t.overlap


def test_bound_matches_one_extra_bit_rule_at_length_65536():
    # GA codes whose triggers' zero-capacity sets fill large blocks, checked
    # against the information positions p > i - 1 with exactly one digit
    # that i - 1 lacks
    for K, d_m, n_triggers in ((1024, 4096, 399), (9216, 1024, 3277)):
        spec = construct_ga(1 << 16, K, 2.0)
        report = bound_count(spec, materialize_sets=K == 1024)
        assert (report.d_m, len(report.triggers)) == (d_m, n_triggers)
        info = np.array(spec.A, dtype=np.int64) - 1
        r = np.array(report.a_m, dtype=np.int64) - 1
        for lo in range(0, len(r), 256):
            rr = r[lo : lo + 256, None]
            hit = (info > rr) & (np.bitwise_count(info & ~rr) == 1)
            for t, row in zip(report.triggers[lo : lo + 256], hit):
                assert t.overlap == np.count_nonzero(row)
                if t.members is not None:
                    assert t.members == tuple((info[row] + 1).tolist())


def test_bound_skips_member_sets_when_asked():
    report = bound_count(SPEC8, materialize_sets=False)
    assert all(t.members is None for t in report.triggers)
    assert report.total == 14


def test_bound_report_builds_trigger_terms_on_first_read():
    spec = construct_ga(4096, 1024, 2.0)
    for materialize in (False, True):
        report = bound_count(spec, materialize_sets=materialize)
        assert (report.d_m, report.a_m) == min_distance(spec)
        assert report.total == sum(1 << o for o in report.overlaps)
        assert "triggers" not in vars(report)
        assert report.total == sum(t.term for t in report.triggers)
        assert tuple(t.i for t in report.triggers) == report.a_m
        assert tuple(t.overlap for t in report.triggers) == report.overlaps
        assert all(type(t.term) is int for t in report.triggers)
        assert report == bound_count(spec, materialize_sets=materialize)
    assert bound_count(spec, materialize_sets=False) != report


def test_bound_time_with_many_triggers():
    # acceptance criterion 8 times codes with 3 and 24 triggers, where the
    # per-call cost dominates; these GA(65536, 2 dB) codes have 399 and 3,277
    # (about 1 ms and 12 ms each on a 2-core host)
    for K, triggers, budget in ((1024, 399, 0.010), (9216, 3277, 0.050)):
        spec = construct_ga(1 << 16, K, 2.0)
        assert len(min_distance(spec)[1]) == triggers
        times = []
        for _ in range(5):
            start = time.perf_counter()
            bound_count(spec)
            times.append(time.perf_counter() - start)
        assert min(times) <= budget, (K, times)


def test_bound_count_memory_with_many_triggers():
    # the zero-capacity blocks come in chunks of bounded size; built whole,
    # one per q-group, they peaked at 6.31 MiB under tracemalloc
    spec = construct_ga(1 << 16, 9216, 2.0)
    bound_count(spec)
    tracemalloc.start()
    try:
        bound_count(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.3 * 2**20, peak


# ---- every K of one order in one pass ----


def _order_rows(N, ebn0):
    return _codes(N, ebn0).rows


def _per_code_bounds(N, ebn0, Ks):
    codes = _codes(N, ebn0)
    return [(r.d_m, r.total) for r in (bound_count(codes(K)) for K in Ks)]


CONSTRUCTIONS = {"pw": None, "ga0": 0.0, "ga2": 2.0}


@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
def test_prefix_bounds_equal_bound_count_at_every_K(construction):
    ebn0 = CONSTRUCTIONS[construction]
    for N in (1 << n for n in range(1, 11)):
        Ks = range(1, N + 1)
        assert list(zip(*_prefix_bounds(_order_rows(N, ebn0), Ks))) == _per_code_bounds(N, ebn0, Ks)


@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
def test_prefix_bounds_equal_bound_count_at_paper_scale(construction):
    # every 7th K at N = 4,096 and the design workload's grid at N = 65,536
    ebn0 = CONSTRUCTIONS[construction]
    for N, Ks in ((4096, range(1, 4097, 7)), (65536, range(1024, 64513, 1024))):
        got = list(zip(*_prefix_bounds(_order_rows(N, ebn0), Ks)))
        assert got == _per_code_bounds(N, ebn0, Ks)


@st.composite
def orders_and_grids(draw):
    N = 1 << draw(st.integers(1, 8))
    rows = draw(st.permutations(range(N)))
    Ks = draw(st.lists(st.integers(1, N), min_size=1, max_size=12))
    return np.array(rows), Ks + draw(st.sampled_from([[], [N], Ks[:1]]))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(orders_and_grids())
def test_prefix_bounds_equal_bound_count_on_any_order(order_grid):
    # any permutation, an unsorted grid, repeated K and K = N
    rows, Ks = order_grid
    N = len(rows)
    want = [bound_count(CodeSpec(N, tuple(sorted(rows[:K] + 1)))) for K in Ks]
    d_m, totals = _prefix_bounds(rows, Ks)
    assert (d_m, totals) == ([r.d_m for r in want], [r.total for r in want])
    assert all(type(t) is int for t in d_m + totals)


def test_prefix_bounds_memory_on_the_design_grid():
    # chunks of bounded size, never a (trigger, K) table of the whole epoch
    rows = _order_rows(1 << 16, 2.0)
    Ks = range(1024, 64513, 1024)
    tracemalloc.start()
    try:
        _prefix_bounds(rows, Ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak


def test_prefix_bounds_keep_totals_past_int64_exact():
    # the Reed-Muller order (weight first) at N = 65,536: with every row of
    # weight >= 2**8 in the code, 12,870 triggers hold overlaps up to 72 and
    # the total passes 2**73
    N = 1 << 16
    rows = np.array(sorted(range(N), key=lambda r: (-r.bit_count(), r)))
    Ks = [39203, 39202, 20000, 39204, N]
    want = [bound_count(CodeSpec(N, tuple(sorted((rows[:K] + 1).tolist())))) for K in Ks]
    assert max(want[0].overlaps) == 72 and want[0].total.bit_length() == 74
    assert _prefix_bounds(rows, Ks) == ([r.d_m for r in want], [r.total for r in want])


# ---- zero LLR locations along minimum-weight trajectories ----


def test_replay_along_minimum_weight_vectors_zeroes_exactly_the_set():
    specs = [SPEC8] + random_specs(20, (8, 16, 32), seed=25, max_K=8)
    for spec in specs:
        groups = group_by_trigger(brute_force_minimum_weight(spec)[1])
        for i, members in groups.items():
            expect = tuple(sorted(zero_capacity_set(i, spec.N)))
            for u in members:
                out = sc_replay([1] * spec.N, spec, list(u))
                assert out.zero_positions == expect


# ---- subtree root LLRs ----


def test_subtree_input_llr_examples():
    assert subtree_input_llr(7, 1, [0, 0, 0, 0, 0, 0, 1], 3) == [0]
    assert subtree_input_llr(4, 1, [0, 0, 0, 1], 3) == [0, 0, 0, 0]
    assert subtree_input_llr(2, 1, [0, 1], 3) == [0, 0]
    assert subtree_input_llr(2, 2, [0, 1, 0, 0], 3) == [0, 0, 2, 2]


def test_subtree_input_llr_validates_arguments():
    with pytest.raises(ValueError):
        subtree_input_llr(2, 3, [0, 1, 0, 0], 3)
    with pytest.raises(ValueError):
        subtree_input_llr(2, 2, [0, 1], 3)
    with pytest.raises(ValueError):
        subtree_input_llr(2, 1, [0, 2], 3)


def test_subtree_input_llr_matches_recorded_node_values():
    # closed form against the full tree: replay each minimum-weight vector
    # and compare at every part root of its trigger's tail
    specs = [SPEC8] + random_specs(10, (8, 16, 32), seed=26, max_K=6)
    for spec in specs:
        n = spec.N.bit_length() - 1
        groups = group_by_trigger(brute_force_minimum_weight(spec)[1])
        for i, members in groups.items():
            parts = decompose(i, n)
            for u in members:
                out = sc_replay([1] * spec.N, spec, list(u), record_nodes=True)
                for part in parts:
                    got = out.node_llrs[(part.lam, part.node)]
                    want = subtree_input_llr(i, part.k, u[: part.start - 1], n)
                    assert list(got) == want


def test_subtree_input_llr_matches_retrace_of_the_bare_trigger():
    for spec in [SPEC8, CodeSpec(16, (8, 12, 14, 15, 16))]:
        n = spec.N.bit_length() - 1
        for i in min_distance(spec)[1]:
            out = sc_retrace([1] * spec.N, spec, {i}, record_nodes=True)
            for part in decompose(i, n):
                got = out.node_llrs[(part.lam, part.node)]
                want = subtree_input_llr(i, part.k, out.decisions[: part.start - 1], n)
                assert list(got) == want


# ---- golden bound corpus ----
#
# Digests of every trigger's (i, overlap, term, members) from
# bound_count(spec, materialize_sets=True), and of decompose and
# zero_capacity_set for every i, recorded with the decomposition that summed
# the zero digits of i - 1 part by part and read each part's zero-capacity
# offsets off a generator-row prefix.


def bound_digest(specs):
    h = hashlib.sha256()
    for spec in specs:
        report = bound_count(spec, materialize_sets=True)
        h.update(f"{spec.N} {spec.A} d_m={report.d_m} total={report.total}\n".encode())
        for t in report.triggers:
            h.update(f"{t.i} {t.overlap} {t.term} {t.members}\n".encode())
    return h.hexdigest()[:16]


def bound_family(label):
    kind, N = label.split("-")
    N = int(N)
    step = max(1, N // 16)
    if kind == "pw":
        return [construct_pw(N, K) for K in range(step, N + 1, step)]
    return [construct_ga(N, K, 2.0) for K in range(step, N + 1, step)]


GOLDEN_BOUNDS = {
    "pw-4": "2b29b841c35e7d22",
    "pw-8": "905db9d7b4d65155",
    "pw-16": "ed55334d8ede250c",
    "pw-32": "38ed62d25855e328",
    "pw-64": "4d34098e6ee17db6",
    "pw-128": "e54b6cd13c7a7faa",
    "pw-256": "e32577905a88310e",
    "pw-512": "c0e8c873ebebe1a1",
    "pw-1024": "40bab0bcab4127d7",
    "pw-2048": "62cd47e033557008",
    "pw-4096": "1892dca1488135e8",
    "ga-4": "2b29b841c35e7d22",
    "ga-8": "905db9d7b4d65155",
    "ga-16": "ed55334d8ede250c",
    "ga-32": "a776df69a417e332",
    "ga-64": "08165a714c9200db",
    "ga-128": "0cd00861a1e83a29",
    "ga-256": "6564fe7d1cd4079d",
    "ga-512": "5702b3479d7a95a0",
    "ga-1024": "af0c230fcef1df0e",
    "ga-2048": "6c1b1d10b929f807",
    "ga-4096": "5ddcc52c2165e3f6",
}


@pytest.mark.parametrize("label", sorted(GOLDEN_BOUNDS))
def test_bound_golden_corpus(label):
    assert bound_digest(bound_family(label)) == GOLDEN_BOUNDS[label]


def test_bound_golden_random_sets():
    rng = random.Random(91)
    specs = []
    for _ in range(200):
        N = 1 << rng.randint(1, 10)
        specs.append(CodeSpec(N, tuple(rng.sample(range(1, N + 1), rng.randint(1, N)))))
    assert bound_digest(specs) == "d5f2a7a95b5f65b3"


GOLDEN_TAILS = {
    2: "0772207bcf2c7aab",
    4: "239f4e79b9666a6d",
    8: "f7a9bf86993af856",
    16: "a9df46f303e41f9c",
    32: "61b6251776aa571a",
    64: "56f9d4d12c8ae60b",
    128: "73f542e9a8e01beb",
    256: "7de13112baf7abbc",
    512: "a3fac7022e1b5993",
    1024: "8f46381dc600de2e",
}


@pytest.mark.parametrize("N", sorted(GOLDEN_TAILS))
def test_tail_golden_every_trigger(N):
    n = N.bit_length() - 1
    h = hashlib.sha256()
    for i in range(1, N + 1):
        parts = [(p.k, p.start, p.end, p.lam, p.node) for p in decompose(i, n)]
        h.update(f"{i} {parts} {sorted(zero_capacity_set(i, N))}\n".encode())
    assert h.hexdigest()[:16] == GOLDEN_TAILS[N]
