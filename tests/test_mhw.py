import hashlib
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_minimum_weight,
    edit_text,
    first_one,
    group_by_trigger,
    random_specs,
    vector_set,
)

from polarmhw import bitops, cli, listdec, mhw
from polarmhw.bitops import encode, generator_row, min_distance
from polarmhw.bound import bound_count, zero_capacity_set
from polarmhw.construction import RATE0, CodeSpec, construct_ga, construct_pw
from polarmhw.mhw import (
    EnumFormatError,
    ExhaustiveCapError,
    MhwResult,
    enumerate_subset_scl,
    enumerate_zero_split,
    exhaustive_mhw,
    read_enumeration,
    scl_global_search,
    write_enumeration,
    zero_split_subset,
)
from polarmhw.mhw import _subset_pairs, _subset_searches, _zero_split_walk
from polarmhw.sctree import sc_replay, sc_retrace

SPEC8 = CodeSpec(8, (4, 6, 7, 8))


def weight(u):
    return sum(encode(list(u)))


# ---- exhaustive oracle ----


def test_exhaustive_examples():
    out = exhaustive_mhw(SPEC8)
    assert (out.d_m, out.count) == (4, 14)
    assert out.method == "EXHAUSTIVE"
    assert out.max_list_used == 0

    single = exhaustive_mhw(CodeSpec(4, (4,)))
    assert (single.d_m, single.count) == (4, 1)
    assert single.vectors.tolist() == [[0, 0, 0, 1]]

    full = exhaustive_mhw(CodeSpec(4, (1, 2, 3, 4)))
    assert (full.d_m, full.count) == (1, 4)


def test_exhaustive_matches_scalar_reference():
    for spec in random_specs(25, (8, 16, 32), seed=31, max_K=10):
        d_ref, vec_ref = brute_force_minimum_weight(spec)
        out = exhaustive_mhw(spec)
        assert out.d_m == d_ref == min_distance(spec)[0]
        assert vector_set(out.vectors) == vec_ref


def test_blocked_exhaustive_sweep_matches_scalar_reference(monkeypatch):
    # a budget of 512 bytes holds 2**6 codewords at N <= 64, 2**5 at 128 and
    # 2**4 at 256, so K = 3..12 spans from one block to 256 of them
    monkeypatch.setattr(mhw, "_SWEEP_BYTES", 512)
    rng = random.Random(47)
    for N in (4, 8, 16, 32, 64, 128, 256):
        for K in sorted({min(N, K) for K in (3, 7, 12)}):
            spec = CodeSpec(N, tuple(rng.sample(range(1, N + 1), K)))
            d_ref, vec_ref = brute_force_minimum_weight(spec)
            out = exhaustive_mhw(spec)
            assert out.d_m == d_ref
            assert vector_set(out.vectors) == vec_ref


def test_exhaustive_sweep_memory_does_not_grow_with_the_message_space():
    spec = construct_pw(1024, 22)
    tracemalloc.start()
    try:
        out = exhaustive_mhw(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.d_m, out.count) == (128, 8)
    assert peak < 4 << 20


def test_exhaustive_cap_refuses_large_codes(monkeypatch):
    monkeypatch.setattr(mhw, "EXHAUSTIVE_CAP", 10)
    with pytest.raises(ExhaustiveCapError):
        exhaustive_mhw(CodeSpec(16, tuple(range(1, 12))))
    assert exhaustive_mhw(CodeSpec(16, tuple(range(1, 11)))).count >= 1


# ---- constrained subset searches ----


def test_grouped_subset_search_examples():
    # the searches run together, each pinned to its own prefix 1-at-i,
    # 1-at-j at its own list width; every pair gets the vectors whose first
    # two ones sit at i and j
    pairs = [(4, 6), (4, 8), (7, 8)]

    def unpacked(words):
        return bitops._unpack(words, SPEC8.N)

    (four, note), (one, _), (last, _) = _subset_searches(SPEC8, pairs, [4, 1, 2], 4)
    expected = {u for u in brute_force_minimum_weight(SPEC8)[1] if u[3] and u[5]}
    assert vector_set(unpacked(four)) == expected
    assert note is None
    assert unpacked(one).tolist() == [[0, 0, 0, 1, 0, 0, 0, 1]]
    assert weight(unpacked(one)[0]) == 4
    assert unpacked(last).tolist() == [[0, 0, 0, 0, 0, 0, 1, 1]]
    # width 1 discards a candidate at the trigger metric, so (4, 6) reruns at
    # full width, returns the same rows and says what the schedule lost
    narrow = _subset_searches(SPEC8, pairs, [1, 4, 1], 4)
    assert vector_set(unpacked(narrow[0][0])) == expected
    assert narrow[0][1] == "list size 1 for trigger 4, split 6 lost 3 vectors; recovered at width 8"
    assert [unpacked(out[0]).tolist() for out in narrow[1:]] == [
        unpacked(one).tolist(),
        unpacked(last).tolist(),
    ]
    assert [out[1] for out in narrow[1:]] == [None, None]


def subset_pairs(spec):
    """The (i, j) pairs of spec's subset searches, their widths and d_m."""
    report = bound_count(spec, materialize_sets=True)
    return *_subset_pairs(report), report.d_m


def count_engine_calls(monkeypatch):
    """The number of rows of each listdec._engine call from now on."""
    calls = []
    engine = listdec._engine

    def counted(llrs, spec, L, prefix_order, prefix=None, *args, **kwargs):
        calls.append(len(llrs) if prefix is None else len(prefix))
        return engine(llrs, spec, L, prefix_order, prefix, *args, **kwargs)

    monkeypatch.setattr(listdec, "_engine", counted)
    return calls


def test_subset_scl_runs_every_search_in_one_engine_call(monkeypatch):
    calls = count_engine_calls(monkeypatch)
    for spec in (construct_pw(256, 136), perturbed_pw(128, 64, 0)):
        pairs, widths, _ = subset_pairs(spec)
        assert len(set(widths)) > 1
        calls.clear()
        out = enumerate_subset_scl(spec, threads=1)
        assert out.warning is None
        assert calls == [len(pairs)]


def test_subset_scl_thread_count_invariance(monkeypatch):
    # threads share the searches out in contiguous runs, one engine call
    # each and one worker per run; the result never depends on the count
    calls = count_engine_calls(monkeypatch)
    workers = []
    pool = mhw.ThreadPoolExecutor

    def counted_pool(n):
        workers.append(n)
        return pool(n)

    monkeypatch.setattr(mhw, "ThreadPoolExecutor", counted_pool)
    specs = [construct_pw(256, 136), perturbed_pw(128, 64, 0), SPEC8, CodeSpec(4, (4,))]
    for spec in specs + random_specs(6, (16, 32, 64), seed=41, max_K=20):
        searches = len(subset_pairs(spec)[0])
        results = []
        for threads in (1, 2, 3, 64):
            calls.clear()
            workers.clear()
            results.append(enumerate_subset_scl(spec, threads=threads))
            assert len(calls) == min(threads, searches) <= searches
            assert sum(calls) == searches
            assert workers == ([len(calls)] if len(calls) > 1 else [])
        assert all(out == results[0] for out in results[1:])


def test_subset_scl_splits_runs_past_the_decision_budget(monkeypatch):
    # searches whose decisions would exceed _RUN_BYTES in one engine run
    # split into as many contiguous runs as keep each within it
    spec = construct_pw(256, 136)
    want = enumerate_subset_scl(spec)
    pairs, widths, _ = subset_pairs(spec)
    calls = count_engine_calls(monkeypatch)
    budget = sum(widths) * spec.N // 5
    monkeypatch.setattr(mhw, "_RUN_BYTES", budget)
    assert enumerate_subset_scl(spec) == want
    assert len(calls) == -(-sum(widths) * spec.N // budget) > 5
    assert sum(calls) == len(pairs)


def test_ragged_subset_searches_match_one_at_a_time(monkeypatch):
    # list width 1 on every other pair makes most of them discard at the
    # trigger metric: those rerun together at full width, on every thread
    # count, and each pair's vectors and note equal its search alone
    calls = count_engine_calls(monkeypatch)
    notes = 0
    for spec in (construct_pw(32, 16), construct_pw(64, 32), perturbed_pw(64, 32, 0)):
        pairs, widths, d_m = subset_pairs(spec)
        widths = [1 if k % 2 else w for k, w in enumerate(widths)]
        calls.clear()
        alone = [_subset_searches(spec, [p], [w], d_m)[0] for p, w in zip(pairs, widths)]
        alone = [(rows.tobytes(), note) for rows, note in alone]
        notes += sum(note is not None for _, note in alone)
        reruns = len(calls) - len(pairs)
        for threads in (1, 2, 3, 64):
            calls.clear()
            together = _subset_searches(spec, pairs, widths, d_m, threads)
            assert [(rows.tobytes(), note) for rows, note in together] == alone
            assert len(calls) <= 2 * min(threads, len(pairs))
            assert sum(calls) == len(pairs) + reruns
    assert notes > 20


def test_trigger_metric_is_the_minimum_distance():
    # _subset_searches compares discards against d_m: reversing trigger i on the
    # all-ones input costs d_m, as the scalar retrace computes it
    specs = [
        construct_pw(N, K)
        for N in (8, 16, 32, 64, 128, 256)
        for K in range(max(1, N // 16), N + 1, max(1, N // 16))
    ]
    specs += [
        construct_ga(N, K, 2.0) for N in (64, 128, 256) for K in range(N // 16, N + 1, N // 16)
    ]
    specs += random_specs(300, (8, 16, 32, 64), seed=8, max_K=64)
    triggers = 0
    for spec in specs:
        d_m, a_m = min_distance(spec)
        for i in a_m:
            assert sc_retrace([1] * spec.N, spec, {i}).pm == d_m, (spec.A, i)
            triggers += 1
    assert triggers > 1000


def test_subset_scl_enumeration_length_eight():
    out = enumerate_subset_scl(SPEC8)
    assert (out.d_m, out.count) == (4, 14)
    assert out.method == "SUBSET_SCL"
    assert out.max_list_used == 4
    assert out.warning is None
    assert vector_set(out.vectors) == brute_force_minimum_weight(SPEC8)[1]


def test_subset_scl_trivial_single_bit():
    out = enumerate_subset_scl(CodeSpec(4, (4,)))
    assert (out.count, out.max_list_used) == (1, 0)
    assert out.vectors.tolist() == [[0, 0, 0, 1]]


def test_subset_scl_matches_oracle_on_random_sets():
    for spec in random_specs(20, (8, 16, 32), seed=32, max_K=8):
        out = enumerate_subset_scl(spec)
        assert vector_set(out.vectors) == brute_force_minimum_weight(spec)[1]
        assert out.warning is None


# ---- zero-split walker ----


def test_zero_split_subset_examples():
    leaves, branches, kills = zero_split_subset(SPEC8, 4)
    assert len(leaves) == 8
    assert branches == {6, 7, 8}
    assert branches == zero_capacity_set(4, 8) & set(SPEC8.A)
    assert kills == 0

    leaves, branches, _ = zero_split_subset(SPEC8, 7)
    assert len(leaves) == 2
    assert branches == {8}


def test_zero_split_triggers_refuses_what_is_not_a_minimum_weight_row():
    # a frozen position, an information row of weight 8 > d_m = 4, a
    # position past N, each alone and after a good trigger
    for bad in (2, 8, 9):
        for triggers in ([bad], [4, bad]):
            with pytest.raises(ValueError, match=rf"trigger {bad} is not"):
                mhw.zero_split_triggers(SPEC8, triggers)
    assert mhw.zero_split_triggers(SPEC8, [7]).vectors.tolist() == [
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 1, 1],
    ]


def test_zero_split_triggers_refuses_a_repeated_trigger(monkeypatch):
    # refused up front, by name, before any orbit is built or walk run
    def built(*args):
        raise AssertionError("built")

    monkeypatch.setattr(mhw, "_orbit_block", built)
    monkeypatch.setattr(mhw, "_zero_split_walk", built)
    for triggers, twice in (([4, 4], 4), ([4, 6, 7, 6], 6), ([7, 7], 7)):
        with pytest.raises(ValueError, match=f"^trigger {twice} is listed twice$"):
            mhw.zero_split_triggers(SPEC8, triggers)


def test_zero_split_triggers_of_no_trigger_is_empty():
    # the walk over no trigger gives the empty set, at the code's d_m
    for spec in (SPEC8, construct_pw(128, 64), construct_ga(256, 100, 1.0)):
        out = mhw.zero_split_triggers(spec, ())
        assert (out.method, out.d_m, out.count) == ("ZERO_SPLIT", min_distance(spec)[0], 0)
        assert out.words.shape == (0, -(-spec.N // 64))


def test_zero_split_enumeration_matches_oracle():
    out = enumerate_zero_split(SPEC8)
    assert (out.d_m, out.count) == (4, 14)
    for spec in random_specs(20, (8, 16, 32), seed=33, max_K=8):
        got = enumerate_zero_split(spec)
        assert vector_set(got.vectors) == brute_force_minimum_weight(spec)[1]


def test_zero_split_leaves_always_reach_minimum_weight():
    # every surviving branch must land exactly on the minimum weight; the
    # slack of the counting bound is entirely in the killed branches
    for spec in random_specs(20, (8, 16, 32), seed=34, max_K=8):
        d_m, a_m = min_distance(spec)
        terms = {t.i: t.term for t in bound_count(spec).triggers}
        for i in a_m:
            leaves, branches, kills = zero_split_subset(spec, i)
            for u in leaves:
                assert weight(u) == d_m
            assert len(leaves) <= terms[i]
            # the walk is a binary tree with at most one fork per branch
            # position; kills prune subtrees early, so terminals can only
            # fall short of the full 2**branches
            assert len(leaves) + kills <= 2 ** len(branches)


def test_branch_positions_are_zero_capacity_information_positions():
    for spec in random_specs(15, (8, 16), seed=35, max_K=8):
        info = set(spec.A)
        for i in min_distance(spec)[1]:
            _, branches, _ = zero_split_subset(spec, i)
            assert branches <= zero_capacity_set(i, spec.N) & info


def test_zero_split_walk_node_steps_match_the_leaf_schedule(monkeypatch):
    # the walk takes rate-0, rate-1 and REP nodes in one step each; its
    # decisions, fork positions and kills must equal those of the walk over
    # every leaf alone (no node kind) and over rate-0 nodes only, on random
    # sets (whose walks kill) and codes
    specs = random_specs(60, (16, 32, 64, 128, 256), seed=36, max_K=256)
    specs += [construct_pw(N, N // 2) for N in (64, 128, 256)]
    specs += [construct_ga(256, 64, 2.0), perturbed_pw(128, 64, 0), perturbed_pw(256, 136, 1)]
    walks = [_zero_split_walk(spec, min_distance(spec)[1]) for spec in specs]
    node_steps, calls = mhw._node_steps, []

    def schedule(kinds):
        def steps(info_mask, first, triggers, _):
            calls.append(kinds)
            return node_steps(info_mask, first, triggers, kinds)

        return steps

    for kinds in ((), (RATE0,)):
        monkeypatch.setattr(mhw, "_node_steps", schedule(kinds))
        for spec, want in zip(specs, walks):
            got = _zero_split_walk(spec, min_distance(spec)[1])
            assert got[0].tolist() == want[0].tolist()
            assert got[1:] == want[1:]
    assert len(calls) == 2 * len(specs)
    assert sum(sum(walk[2]) for walk in walks) > 100


# ---- trigger orbits ----


def orbit_bits(i, N):
    """E_i counted from its definition: per zero bit t of i - 1, one b_t and
    one a_{t,d} per set bit d below t."""
    r = i - 1
    zeros = [t for t in range(N.bit_length() - 1) if not r >> t & 1]
    return sum(1 + sum(r >> d & 1 for d in range(t)) for t in zeros)


def test_orbit_blocks_hold_every_weight_d_m_row_of_their_trigger():
    # the block of trigger i at N <= 32 is 2**E_i distinct u rows, each with
    # its first one at i and a codeword of weight 2**popcount(i - 1); at
    # N <= 16 it is exactly the set of such rows supported on the positions
    # of weight >= 2**popcount(i - 1), from the exhaustive oracle
    for N in (2, 4, 8, 16, 32):
        for i in range(1, N + 1):
            w = (i - 1).bit_count()
            block = mhw._orbit_block(i, N).view(np.uint8)
            u = np.unpackbits(block, axis=1, count=N, bitorder="little")
            assert len(vector_set(u)) == len(u) == 2 ** orbit_bits(i, N)
            assert (u.argmax(axis=1) == i - 1).all() and u[:, i - 1].all()
            assert (bitops.encode_rows(u).sum(axis=1) == 1 << w).all()
            if N <= 16:
                rm = CodeSpec(N, tuple(p for p in range(1, N + 1) if (p - 1).bit_count() >= w))
                assert vector_set(u) == group_by_trigger(exhaustive_mhw(rm).vectors)[i]


def routed_corpus():
    """Random sets at N <= 64, PW and GA codes at N <= 512 and perturbed PW
    sets, leaving out the codes of more than 20,000 vectors, whose walks take
    up to half a second each."""
    specs = random_specs(40, (8, 16, 32, 64), seed=40, max_K=20)
    for N in (64, 128, 256, 512):
        for K in (N // 4, N // 2, 3 * N // 4):
            specs += [construct_pw(N, K), construct_ga(N, K, 0.0), construct_ga(N, K, 2.0)]
    specs += [perturbed_pw(N, K, seed) for N, K in ((128, 64), (256, 136)) for seed in (0, 1, 2)]
    return [spec for spec in specs if bound_count(spec).total <= 20000]


def test_routed_enumeration_equals_the_walk_and_the_oracle(monkeypatch):
    # no orbits (the reference: one walk over every trigger); the default
    # routing; orbits for every trigger with E_i <= 16 (every trigger up to
    # N = 128), where N <= 256 keeps each orbit within 2**18 rows
    specs = routed_corpus()
    assert len(specs) > 60 and max(spec.N for spec in specs) == 512
    for spec in specs:
        monkeypatch.setattr(mhw, "_ORBIT_SLACK", -np.inf)
        walked = mhw.zero_split_triggers(spec, min_distance(spec)[1])
        if spec.K <= mhw.EXHAUSTIVE_CAP:
            assert np.array_equal(walked.vectors, exhaustive_mhw(spec).vectors)
        for slack in (3, 16):
            if slack < 16 or spec.N <= 256:
                monkeypatch.setattr(mhw, "_ORBIT_SLACK", slack)
                assert enumerate_zero_split(spec) == walked


def walked_reference(monkeypatch, spec):
    """The code's minimum-weight vectors from one walk over every trigger."""
    with monkeypatch.context() as m:
        m.setattr(mhw, "_ORBIT_SLACK", -np.inf)
        return mhw.zero_split_triggers(spec, min_distance(spec)[1])


def test_routing_walks_exactly_the_triggers_past_the_slack(monkeypatch):
    # for the enumerator and for verify, which takes every trigger under
    # --exact-limit and the first --max-triggers otherwise
    walked, walk = [], mhw._zero_split_walk

    def recorded(spec, triggers):
        walked.append(list(triggers))
        return walk(spec, triggers)

    monkeypatch.setattr(mhw, "_zero_split_walk", recorded)
    for seed in (0, 1, 2):
        spec = perturbed_pw(1024, 192, seed)
        report = bound_count(spec)
        want = [i for i, o in zip(report.a_m, report.overlaps) if orbit_bits(i, spec.N) - o > 3]
        ref = walked_reference(monkeypatch, spec)
        walked.clear()
        assert enumerate_zero_split(spec) == ref
        assert walked == [want]
        assert want and len(want) < len(report.a_m)
        for exact_limit, sampled in ((report.total, report.a_m), (0, report.a_m[:8])):
            walked.clear()
            checks = cli._run_verify(spec, False, 8, 48, exact_limit)
            assert all(status != "FAIL" for _, status, _ in checks)
            past = [i for i in want if i in sampled]
            assert walked == ([past] if past else [])

    def refused(spec, triggers):
        raise AssertionError("walked")

    spec = construct_pw(1024, 192)
    ref = walked_reference(monkeypatch, spec)
    monkeypatch.setattr(mhw, "_zero_split_walk", refused)
    assert enumerate_zero_split(spec) == ref
    assert ref.count == bound_count(spec).total
    assert all(status != "FAIL" for _, status, _ in cli._run_verify(spec, False, 8, 48, 10**6))


# ---- global list search ----


def test_global_search_examples():
    out = scl_global_search(SPEC8, L=16)
    assert (out.d_m, out.count) == (4, 14)
    assert out.warning is None
    assert out.max_list_used == 16

    out = scl_global_search(SPEC8, L=15)
    assert out.count == 14
    assert out.warning is None

    out = scl_global_search(SPEC8, L=14)
    assert out.warning is not None and "possible omission" in out.warning

    tiny = scl_global_search(CodeSpec(8, (8,)), L=2)
    assert tiny.count == 1
    assert tiny.vectors.tolist() == [[0, 0, 0, 0, 0, 0, 0, 1]]


def test_global_search_list_size_is_an_integer_checked_first(monkeypatch):
    # a fractional L is refused before the bound is built: it must never
    # reach a result's max_list_used, which the reader would refuse
    want = scl_global_search(SPEC8, 16)
    assert scl_global_search(SPEC8, np.int64(16)) == scl_global_search(SPEC8, np.uint8(16)) == want
    monkeypatch.setattr(mhw, "bound_count", lambda *a, **k: pytest.fail("bound built"))
    for L in (2.5, 3.9):
        with pytest.raises(ValueError, match=f"^list size L={L} must be an integer$"):
            scl_global_search(SPEC8, L)
    with pytest.raises(ValueError, match="^list size L=0 must be >= 1$"):
        scl_global_search(SPEC8, 0)


def test_subset_scl_list_is_under_half_the_global_list():
    # the paper's claim: the subset searches need less than half the list
    # size of one global search wider than the counting bound
    for N, K, widest in ((256, 136, 64), (512, 256, 32)):
        spec = construct_pw(N, K)
        bound = bound_count(spec, materialize_sets=False).total
        subset = enumerate_subset_scl(spec)
        assert subset.max_list_used == widest
        assert subset.max_list_used * 2 < bound + 1
        assert subset.warning is None
        assert np.array_equal(subset.vectors, enumerate_zero_split(spec).vectors)
        assert np.array_equal(subset.vectors, scl_global_search(spec, bound + 1).vectors)


# ---- cross-method agreement and structural laws ----


def test_four_methods_agree():
    specs = [
        SPEC8,
        construct_pw(16, 8),
        construct_pw(32, 8),
        construct_ga(16, 8, 0.0),
        construct_ga(32, 10, 2.0),
    ] + random_specs(10, (8, 16), seed=36, max_K=8)
    for spec in specs:
        oracle = exhaustive_mhw(spec)
        wide = scl_global_search(spec, L=bound_count(spec).total + 1)
        subset = enumerate_subset_scl(spec)
        split = enumerate_zero_split(spec)
        assert vector_set(subset.vectors) == vector_set(oracle.vectors)
        assert vector_set(split.vectors) == vector_set(oracle.vectors)
        assert vector_set(wide.vectors) == vector_set(oracle.vectors)
        assert wide.warning is None


@st.composite
def random_codes(draw):
    """A random information set of K <= 22 positions at N = 8 ... 64."""
    N = draw(st.sampled_from((8, 16, 32, 64)))
    K = draw(st.integers(1, min(N, mhw.EXHAUSTIVE_CAP)))
    return CodeSpec(N, tuple(draw(st.permutations(range(1, N + 1)))[:K]))


def test_four_enumerators_agree_on_random_sets(monkeypatch):
    # the same d_m and words from all four methods, no warning, and a count
    # within the bound; across the sample zero-split takes triggers both
    # from orbits and from the walk
    routes, orbit_block, walk = set(), mhw._orbit_block, mhw._zero_split_walk

    def orbit(i, N):
        routes.add("orbit")
        return orbit_block(i, N)

    def walked(spec, triggers):
        if len(triggers):
            routes.add("walk")
        return walk(spec, triggers)

    monkeypatch.setattr(mhw, "_orbit_block", orbit)
    monkeypatch.setattr(mhw, "_zero_split_walk", walked)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(random_codes())
    def agree(spec):
        bound = bound_count(spec).total
        oracle, *others = (
            exhaustive_mhw(spec),
            enumerate_subset_scl(spec),
            enumerate_zero_split(spec),
            scl_global_search(spec, bound + 1),
        )
        assert oracle.count <= bound
        for out in others:
            assert (out.d_m, out.warning) == (oracle.d_m, None)
            assert np.array_equal(out.words, oracle.words)

    agree()
    assert routes == {"orbit", "walk"}


def test_enumerated_vectors_partition_by_trigger_and_split():
    for spec in random_specs(15, (8, 16, 32), seed=37, max_K=8):
        out = enumerate_zero_split(spec)
        info = set(spec.A)
        groups = group_by_trigger(out.vectors)
        d_m, a_m = min_distance(spec)
        assert set(groups) <= set(a_m)
        terms = {t.i: t.term for t in bound_count(spec).triggers}
        for i, members in groups.items():
            assert len(members) <= terms[i]
            allowed = zero_capacity_set(i, spec.N) & info
            for u in members:
                later = [p for p in range(i + 1, spec.N + 1) if u[p - 1]]
                if later:
                    assert later[0] in allowed


def test_replaying_enumerated_vectors_flips_only_the_trigger():
    for spec in random_specs(12, (8, 16), seed=38, max_K=8):
        d_m, _ = min_distance(spec)
        for u in enumerate_zero_split(spec).vectors:
            i = first_one(u)
            out = sc_replay([1] * spec.N, spec, list(u))
            assert out.rds == (i,)
            assert weight(u) == sum(generator_row(i, spec.N)) == d_m


def test_thread_count_does_not_change_results():
    spec = construct_pw(32, 12)
    a = enumerate_subset_scl(spec, threads=1)
    b = enumerate_subset_scl(spec, threads=4)
    assert a == b
    c = enumerate_zero_split(spec, threads=1)
    d = enumerate_zero_split(spec, threads=4)
    assert c == d


def test_thread_count_is_an_integer_checked_first(monkeypatch):
    spec = construct_pw(32, 12)
    for run in (enumerate_subset_scl, enumerate_zero_split):
        assert run(spec, threads=np.int64(2)) == run(spec, threads=2)
    # refused before the bound of either enumerator is built
    monkeypatch.setattr(mhw, "bound_count", lambda *a, **k: pytest.fail("bound built"))
    for threads, why in ((0, "threads=0 must be >= 1"), (-1, "threads=-1 must be >= 1"),
                         (1.5, "threads=1.5 must be an integer")):
        for run in (enumerate_subset_scl, enumerate_zero_split):
            with pytest.raises(ValueError, match=f"^{why}$"):
                run(spec, threads=threads)


def test_max_list_used_is_a_nonnegative_integer():
    words = enumerate_zero_split(SPEC8).words
    for bad, why in ((2.5, "2.5 must be an integer"), (-1, "-1 must be >= 0"),
                     ("4", "'4' must be an integer"), (None, "None must be an integer")):
        with pytest.raises(ValueError, match=f"^max_list_used={why}$"):
            MhwResult(4, 8, words, "SCL_GLOBAL", bad)
    for good in (0, 16, np.int64(16), 2**70):
        assert MhwResult(4, 8, words, "SCL_GLOBAL", good).max_list_used == good


def test_result_vectors_are_a_sorted_read_only_array():
    rows = [[0, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    words = bitops._pack(np.array(rows, dtype=np.uint8))
    result = MhwResult(2, 4, words, "EXHAUSTIVE", 0)
    assert result.words.dtype == np.uint64 and result.words.shape == (3, 1)
    assert result.words[:, 0].tolist() == [0b1000, 0b1100, 0b1010]
    assert result.vectors.dtype == np.uint8 and result.vectors.flags.c_contiguous
    assert result.vectors.tolist() == sorted(rows)
    assert result.vectors is result.vectors
    assert result.count == 3
    for array in (result.words, result.vectors):
        with pytest.raises(ValueError):
            array[0, 0] = 1
    assert result == MhwResult(2, 4, words[::-1], "EXHAUSTIVE", 0)
    assert result != MhwResult(2, 4, words[:2], "EXHAUSTIVE", 0)
    assert result != MhwResult(2, 4, words, "ZERO_SPLIT", 0)
    assert result != MhwResult(2, 8, words, "EXHAUSTIVE", 0)
    assert result != MhwResult(2, 4, words, "EXHAUSTIVE", 0, "a warning")
    with pytest.raises(ValueError, match="listed twice"):
        MhwResult(2, 4, np.concatenate([words, words[:1]]), "EXHAUSTIVE", 0)
    with pytest.raises(ValueError, match="N=4 bits"):
        MhwResult(2, 4, [[0b10001]], "EXHAUSTIVE", 0)
    with pytest.raises(ValueError, match="N=4 bits"):
        MhwResult(2, 4, np.zeros((1, 2), dtype=np.uint64), "EXHAUSTIVE", 0)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_sorted_words_order_is_the_vectors_lexicographic_order(data):
    N = data.draw(st.sampled_from([2, 3, 7, 8, 63, 64, 65, 128, 200]) | st.integers(2, 200))
    # row x holds position p in bit p - 1; the tails share all but the last
    # eight positions, so that those decide their order
    base = data.draw(st.integers(0, 2**N - 1))
    tails = st.integers(0, 2 ** min(N, 8) - 1).map(lambda t: base ^ t << max(N - 8, 0))
    ints = data.draw(st.lists(st.integers(0, 2**N - 1) | tails, unique=True, max_size=20))
    rows = [tuple(x >> p & 1 for p in range(N)) for x in ints]
    words = bitops._pack(np.array(rows, dtype=np.uint8).reshape(-1, N))
    got = mhw._sorted_words(words, N)
    assert not got.flags.writeable
    assert list(map(tuple, bitops._unpack(got, N).tolist())) == sorted(rows)
    W = -(-N // 64)
    if rows:
        with pytest.raises(ValueError, match="listed twice"):
            mhw._sorted_words(np.concatenate([words, words[-1:]]), N)
    if N % 64:
        past = np.zeros((1, W), dtype=np.uint64)
        past[0, -1] = np.uint64(1) << np.uint64(data.draw(st.integers(N % 64, 63)))
        with pytest.raises(ValueError):
            mhw._sorted_words(np.concatenate([words, past]), N)
    for columns in (W - 1, W + 1):
        with pytest.raises(ValueError):
            mhw._sorted_words(np.zeros((len(rows), columns), dtype=np.uint64), N)


def test_count_only_enumeration_never_holds_the_dense_rows():
    spec = construct_pw(1024, 512)
    tracemalloc.start()
    try:
        count = enumerate_zero_split(spec).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 54464
    assert peak < count * spec.N


def test_verify_never_holds_the_dense_rows():
    spec = construct_pw(1024, 512)
    tracemalloc.start()
    try:
        checks = cli._run_verify(spec, False, 8, 48, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ("bound-tightness", "PASS", "tight at 54464") in checks
    assert peak < 54464 * spec.N


# ---- enumeration files ----


def test_enumeration_file_round_trip(tmp_path):
    out = enumerate_zero_split(SPEC8)
    path = tmp_path / "mhw.txt"
    write_enumeration(path, SPEC8, out)
    spec_back, result_back = read_enumeration(path)
    assert spec_back.N == 8 and spec_back.A == (4, 6, 7, 8)
    assert result_back == out

    text = path.read_text()
    assert text.startswith("polarmhw-enum 1\n")
    assert "count=14" in text


def test_enumeration_file_keeps_the_warning(tmp_path):
    out = scl_global_search(SPEC8, 4)
    assert out.warning.startswith("possible omission")
    path = tmp_path / "mhw.txt"
    # a header comment that looks like a warning is not the result's
    write_enumeration(path, SPEC8, out, header_lines=["# warning: from a header line"])
    assert read_enumeration(path)[1] == out
    write_enumeration(path, SPEC8, enumerate_zero_split(SPEC8), header_lines=["# warning: x"])
    assert read_enumeration(path)[1].warning is None


def test_writer_refuses_a_result_of_another_code(tmp_path):
    path = tmp_path / "mhw.txt"
    with pytest.raises(ValueError, match="N=16"):
        write_enumeration(path, SPEC8, enumerate_zero_split(construct_pw(16, 8)))
    # SPEC8's vectors set position 6, which this code freezes
    with pytest.raises(ValueError, match="N=8"):
        write_enumeration(path, CodeSpec(8, (4, 7, 8)), enumerate_zero_split(SPEC8))
    assert not path.exists()


def test_writer_refuses_a_header_line_break_before_opening(tmp_path):
    path = tmp_path / "mhw.txt"
    for header in (["command: polarmhw enumerate --A 4,6\n7,8"], ["# a\rb"], ["a\u2028b"]):
        with pytest.raises(ValueError, match="is not one printable line"):
            write_enumeration(path, SPEC8, enumerate_zero_split(SPEC8), header_lines=header)
    assert not path.exists()


def test_enumeration_file_is_byte_stable(tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_enumeration(p1, SPEC8, enumerate_zero_split(SPEC8))
    write_enumeration(p2, SPEC8, enumerate_zero_split(SPEC8))
    assert p1.read_bytes() == p2.read_bytes()


def test_enumeration_file_rejects_corruption(tmp_path):
    path = tmp_path / "mhw.txt"
    write_enumeration(path, SPEC8, enumerate_zero_split(SPEC8))
    good = path.read_text().splitlines()

    bad = tmp_path / "bad.txt"
    bad.write_text("not an enumeration\n")
    with pytest.raises(EnumFormatError):
        read_enumeration(bad)

    bad.write_text("\n".join(good[:-1]) + "\n")  # drop one record
    with pytest.raises(EnumFormatError):
        read_enumeration(bad)

    swapped = list(good)
    swapped[8] = swapped[8].replace("msg=", "msg=f", 1)
    bad.write_text("\n".join(swapped) + "\n")
    with pytest.raises(EnumFormatError):
        read_enumeration(bad)

    msg, u, w = good[8].split()
    frozen = list(good)
    frozen[8] = f"{msg} u={int(u[2:], 16) | 1:x} {w}"  # position 1 is frozen
    bad.write_text("\n".join(frozen) + "\n")
    with pytest.raises(EnumFormatError, match="nonzero frozen position"):
        read_enumeration(bad)

    corrupt = [
        f"{msg} {u} w=99",  # weight of the encoded u is 4
        f"{msg} u={int(u[2:], 16) | 1 << 8:x} {w}",  # position 9 of N = 8
        f"msg=zz {u} {w}",
        f"{msg} u=zz {w}",
        f"{msg} {u} w=4x",
    ]
    for record in corrupt:
        edited = list(good)
        edited[8] = record
        bad.write_text("\n".join(edited) + "\n")
        with pytest.raises(EnumFormatError):
            read_enumeration(bad)

    repeated = [line.replace("count=14", "count=15") for line in good] + [good[8]]
    bad.write_text("\n".join(repeated) + "\n")
    with pytest.raises(EnumFormatError):
        read_enumeration(bad)


def test_enumeration_reader_reports_first_bit_past_n(tmp_path):
    # bits past N inside the top word or in a u= wider than the packed
    # words: the earlier of two such records is reported, whatever its bits
    path = tmp_path / "mhw.txt"
    write_enumeration(path, SPEC8, enumerate_zero_split(SPEC8))
    good = path.read_text().splitlines()
    bad = tmp_path / "bad.txt"
    for first, second in ((1 << 8, 1 << 9), (1 << 8, 1 << 64), (1 << 64, 1 << 8)):
        edited = list(good)
        for k, extra in ((8, first), (9, second)):
            msg, u, w = edited[k].split()
            edited[k] = f"{msg} u={int(u[2:], 16) | extra:x} {w}"
        bad.write_text("\n".join(edited) + "\n")
        want = edited[8].split()[1]
        with pytest.raises(EnumFormatError, match=f"{want} sets a bit past N=8"):
            read_enumeration(bad)


def swap_last_records(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:-2] + lines[:-3:-1])


# SPEC8 files edited into what the writer never writes
NEVER_WRITTEN = {
    "d_m of another code": lambda text: text.replace("d_m=4\n", "d_m=2\n"),
    "negative maxListUsed": lambda text: text.replace("maxListUsed=0\n", "maxListUsed=-5\n"),
    "N not a power of two": lambda text: text.replace("N=8\n", "N=6\n"),
    "A past N": lambda text: text.replace("A=4 6 7 8\n", "A=9 6 7 8\n"),
    "A with a repeat": lambda text: text.replace("A=4 6 7 8\n", "A=4 4 7 8\n"),
    "N with a leading zero": lambda text: text.replace("N=8\n", "N=08\n"),
    "d_m with a plus sign": lambda text: text.replace("d_m=4\n", "d_m=+4\n"),
    "A with a double space": lambda text: text.replace("A=4 6 7 8\n", "A=4  6 7 8\n"),
    "an unknown field": lambda text: text.replace("N=8\n", "N=8\nfoo=bar\n"),
    "fields out of order": lambda text: text.replace("N=8\nK=4\n", "K=4\nN=8\n"),
    "a blank line before the records": lambda text: text.replace("\nmsg=", "\n\nmsg=", 1),
    "hex with a leading zero": lambda text: text.replace(" u=", " u=0", 1),
    "no final newline": lambda text: text[:-1],
    "a comment after a record": lambda text: text + "# note\n",
    "a field after a record": lambda text: text + "extra=1\n",
    "records out of order": swap_last_records,
    "a comment with a carriage return": lambda text: text.replace("\n", "\n# a\rb\n", 1),
}


@pytest.mark.parametrize("edit", sorted(NEVER_WRITTEN))
def test_enumeration_reader_refuses_what_the_writer_never_writes(tmp_path, edit):
    path = tmp_path / "mhw.txt"
    write_enumeration(path, SPEC8, enumerate_zero_split(SPEC8))
    text = path.read_text()
    path.write_text(NEVER_WRITTEN[edit](text))
    assert path.read_text() != text
    with pytest.raises(EnumFormatError, match=re.escape(str(path))):
        read_enumeration(path)


@pytest.fixture(scope="module")
def valid_enumeration_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("enum")
    texts = []
    for spec in (SPEC8, construct_pw(16, 8)):
        write_enumeration(root / "valid.txt", spec, enumerate_zero_split(spec))
        texts.append((root / "valid.txt").read_text())
    return root, texts


EDIT_CHARS = st.sampled_from("0123456789abcdef =-#\n\r") | st.characters(codec="utf-8")


def from_first_record(text):
    start = text.find("\nmsg=")
    return text[start + 1 :] if start >= 0 else ""


def header_fields(text):
    """The lines before the first record that are not comments."""
    start = text.find("\nmsg=")
    head = text[: start + 1] if start >= 0 else text
    return [line for line in head.splitlines(keepends=True) if not line.startswith("#")]


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.data())
def test_enumeration_reader_refuses_or_round_trips_an_edited_file(valid_enumeration_files, data):
    root, texts = valid_enumeration_files
    text = edit_text(data, data.draw(st.sampled_from(texts)), EDIT_CHARS)
    path = root / "edited.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        spec, result = read_enumeration(path)
    except EnumFormatError:
        return
    write_enumeration(root / "again.txt", spec, result)
    again = (root / "again.txt").read_text()
    assert from_first_record(again) == from_first_record(text)
    assert header_fields(again) == header_fields(text)


def test_reading_an_enumeration_file_never_holds_the_dense_rows(tmp_path):
    spec = construct_pw(1024, 512)
    path = tmp_path / "pw.txt"
    write_enumeration(path, spec, enumerate_zero_split(spec))
    tracemalloc.start()
    try:
        count = read_enumeration(path)[1].count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 54464
    assert peak < count * spec.N


def test_enumeration_path_makes_no_per_vector_encode_calls(monkeypatch, tmp_path):
    # every module-level name bound to bitops.encode, in any polarmhw module
    # (mhw.encode included where it exists), counts its calls
    calls = []
    original = bitops.encode

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patched = []
    for name, module in list(sys.modules.items()):
        if name == "polarmhw" or name.startswith("polarmhw."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
                    patched.append(f"{name}.{attr}")
    assert "polarmhw.bitops.encode" in patched
    spec = construct_pw(256, 136)
    result = enumerate_zero_split(spec)
    write_enumeration(tmp_path / "pw.txt", spec, result)
    assert read_enumeration(tmp_path / "pw.txt")[1] == result
    assert result.count > 0
    assert len(calls) == 0


# ---- golden walk and file corpus ----
#
# Digests recorded with the depth-first walk that preceded the lockstep one;
# any change to the leaves, fork positions or kill counts of any trigger, or
# to a single byte of an enumeration file, shows up here.


def perturbed_pw(N, K, seed):
    """PW(N, K) with 8 information rows swapped for frozen rows of weight
    >= d_m, keeping d_m; such sets are not closed under the partial order, so
    their walks kill branches."""
    base = construct_pw(N, K)
    d_m = min_distance(base)[0]
    rng = random.Random(seed)
    info = sorted(base.A)
    frozen = [
        p for p in range(1, N + 1) if not base.is_info(p) and 1 << (p - 1).bit_count() >= d_m
    ]
    while True:
        keep = set(info) - set(rng.sample(info, 8))
        spec = CodeSpec(N, tuple(sorted(keep | set(rng.sample(frozen, 8)))))
        if min_distance(spec)[0] == d_m:
            return spec


def random_walk_corpus():
    rng = random.Random(20261018)
    specs = []
    for _ in range(100):
        N = rng.choice((8, 16, 32, 64))
        specs.append(CodeSpec(N, tuple(rng.sample(range(1, N + 1), rng.randint(1, N)))))
    return specs


def corpus_spec(label):
    kind, *args = label.split("-")
    if kind == "pw":
        return construct_pw(int(args[0]), int(args[1]))
    if kind == "ga":
        return construct_ga(int(args[0]), int(args[1]), 2.0)
    return perturbed_pw(1024, 192, int(args[0]))


def walk_digest(specs):
    """sha256 over every trigger's (sorted leaves, sorted forks, kills)."""
    h = hashlib.sha256()
    for spec in specs:
        for i in min_distance(spec)[1]:
            leaves, branches, kills = zero_split_subset(spec, i)
            h.update(f"{spec.N};{spec.A};{i};{sorted(branches)};{kills};".encode())
            for u in leaves:
                h.update(bytes(u))
    return h.hexdigest()[:16]


# GA codes (2 dB design) that coincide with the PW code of the same size
# are left out.
GOLDEN_WALKS = {
    "pw-8-2": "b5903a436826b956",
    "pw-8-4": "32a79b6d2ee0621a",
    "pw-8-6": "1882483898471d6f",
    "pw-16-4": "cffcceb19f8c976e",
    "pw-16-8": "d95f340d12138f19",
    "pw-16-12": "1940c12ff9d39289",
    "pw-32-8": "7fd864398eddb859",
    "pw-32-16": "535eac3cd7a3a132",
    "pw-32-24": "ccdeb16246b55026",
    "pw-64-16": "cf535b646cad90c8",
    "pw-64-32": "f2b6b878feb23c58",
    "pw-64-48": "fbdcc3789dd65929",
    "pw-128-32": "1c771fabc07fa1ac",
    "pw-128-64": "e6945f1b1d75749c",
    "pw-128-96": "b14357baa78f4691",
    "pw-256-64": "19ebc5a856aa26d9",
    "pw-256-128": "e0c1174062754aea",
    "pw-256-192": "72ea238c1ca3fd24",
    "ga-64-16": "dff4b183ca93c33e",
    "ga-128-32": "0a24897e972267aa",
    "ga-128-64": "05c809da2bfd2cc5",
    "ga-256-64": "7f00de8c35567d7c",
    "ga-256-128": "285d1b9b93258744",
    "ga-256-192": "6fea4b63f97fe4b6",
    "perturbed-2": "974cf8a7dab66db4",
    "perturbed-4": "2c83dfdd7bedb13b",
}


@pytest.mark.parametrize("label", sorted(GOLDEN_WALKS))
def test_zero_split_walk_golden_corpus(label):
    assert walk_digest([corpus_spec(label)]) == GOLDEN_WALKS[label]


def test_zero_split_walk_golden_random_sets():
    assert walk_digest(random_walk_corpus()) == "244c11017e688b00"


GOLDEN_FILES = {
    "pw-8-4": "335d40d68fe5f9eb",
    "pw-64-32": "b29b6e99e4f1f8f6",
    "ga-128-64": "8994f973235d9236",
    "perturbed-2": "04d697a7543246fd",
}


@pytest.mark.parametrize("label", sorted(GOLDEN_FILES))
def test_enumeration_file_golden_bytes(label, tmp_path):
    spec = corpus_spec(label)
    result = enumerate_zero_split(spec)
    path = tmp_path / f"{label}.txt"
    write_enumeration(path, spec, result, header_lines=(f"golden {label}",))
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == GOLDEN_FILES[label]
    spec_back, result_back = read_enumeration(path)
    assert spec_back.A == spec.A
    assert result_back == result


def test_enumeration_file_paper_scale_bytes(tmp_path):
    # PW(1024,512) takes every trigger from its orbit; the perturbed set takes
    # five from orbits and walks six.  Digests recorded while the writer
    # still read dense rows.
    cases = (
        (construct_pw(1024, 512), "857ad9743a355f4fb58fe758db5cb2ba67230b406236a2adbb65fb1621883e66"),
        (perturbed_pw(1024, 192, 0), "6e75f9bc870fe6ef8965d629255166646dfd5743d2646c48524bcce370f61d29"),
    )
    for spec, digest in cases:
        path = tmp_path / "mhw.txt"
        write_enumeration(path, spec, enumerate_zero_split(spec))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# ---- golden subset-SCL corpus ----
#
# One digest over every enumerate_subset_scl result (vectors, max_list_used,
# warning) at one and two threads: PW codes at N = 16..256 and three rates,
# seeded 8-swap perturbations of PW codes at N = 64..256, and random sets at
# N <= 64.  Recorded with the per-pair searches that preceded the grouped ones.

GOLDEN_SUBSET_SCL = "99ec81686b156196e19007f845db977f1f2ac4fe0d9ba7dbccad1c3d2d1124f2"


def subset_scl_corpus():
    Ns = (16, 32, 64, 128, 256)
    specs = [construct_pw(N, K) for N in Ns for K in (N // 4, N // 2, 3 * N // 4)]
    # smaller codes have fewer than 8 frozen rows of weight >= d_m to swap in
    perturbed = (
        (64, 32), (64, 48), (128, 32), (128, 64), (128, 96), (256, 64), (256, 128), (256, 192)
    )
    for N, K in perturbed:
        specs += [perturbed_pw(N, K, seed) for seed in (0, 1)]
    return specs + random_specs(40, (16, 32, 64), seed=39, max_K=20)


def test_subset_scl_golden_corpus():
    digest = hashlib.sha256()
    for spec in subset_scl_corpus():
        for threads in (1, 2):
            out = enumerate_subset_scl(spec, threads=threads)
            digest.update(f"{spec.A};{threads};{out.max_list_used};{out.warning};".encode())
            digest.update(out.vectors.tobytes())
    assert digest.hexdigest() == GOLDEN_SUBSET_SCL
