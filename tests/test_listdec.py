import hashlib
import random

import numpy as np
import pytest

from conftest import brute_force_minimum_weight, first_one, random_specs

from polarmhw.bitops import encode, generator_row_weight, min_distance
from polarmhw.construction import CodeSpec, construct_pw, design_sigma
from polarmhw.listdec import constrained_scl, scl_decode, scl_decode_batch
from polarmhw.sctree import sc_decode, sc_replay, sc_retrace

SPEC8 = CodeSpec(8, (4, 6, 7, 8))


def weight(u):
    return sum(encode(list(u)))


# ---- list size one reduces to plain SC ----


def test_list_of_one_matches_sc_integer_inputs():
    rng = random.Random(7)
    for spec in random_specs(40, (2, 4, 8, 16), seed=71):
        llrs = [rng.randint(-6, 6) for _ in range(spec.N)]
        top = scl_decode(llrs, spec, L=1)
        assert len(top) == 1
        ref = sc_decode(llrs, spec)
        assert top[0].decisions == ref.decisions
        assert top[0].pm == ref.pm
        assert top[0].rds == ref.rds


def test_list_of_one_matches_sc_float_inputs():
    rng = random.Random(8)
    for spec in random_specs(40, (4, 8, 16, 32), seed=72):
        llrs = [rng.gauss(0.5, 2.0) for _ in range(spec.N)]
        top = scl_decode(llrs, spec, L=1)[0]
        ref = sc_decode(llrs, spec)
        assert top.decisions == ref.decisions
        assert top.pm == pytest.approx(ref.pm, rel=1e-12, abs=0.0)
        assert top.rds == ref.rds


# ---- noiseless all-ones searches on the length-8 rate-1/2 code ----


def test_all_ones_list_sixteen_contains_the_fourteen_minimum_weight_paths():
    d_m, _ = min_distance(SPEC8)
    assert d_m == 4
    expected = brute_force_minimum_weight(SPEC8)[1]
    survivors = scl_decode([1] * 8, SPEC8, L=16)
    assert len(survivors) == 16
    minimum = [p for p in survivors if weight(p.decisions) == d_m]
    assert {p.decisions for p in minimum} == expected
    assert len(minimum) == 14
    pms = {p.pm for p in minimum}
    assert len(pms) == 1


def test_all_ones_survivors_include_the_all_zero_path_at_metric_zero():
    survivors = scl_decode([1] * 8, SPEC8, L=16)
    best = survivors[0]
    assert best.decisions == (0,) * 8
    assert best.pm == 0
    assert best.rds == ()


def test_constrained_two_path_search_after_forcing_positions_four_and_six():
    prefix = [0, 0, 0, 1, 0, 1]
    paths = constrained_scl([1] * 8, SPEC8, L=2, forced_prefix=prefix)
    assert [p.decisions for p in paths] == [
        (0, 0, 0, 1, 0, 1, 0, 0),
        (0, 0, 0, 1, 0, 1, 0, 1),
    ]
    subset = {
        u for u in brute_force_minimum_weight(SPEC8)[1] if u[3] == 1 and u[5] == 1
    }
    assert len(subset) == 4
    for p in paths:
        assert p.decisions in subset
        assert p.pm == 4
        assert p.rds == (4,)


def test_constrained_full_search_after_forcing_position_four():
    paths = constrained_scl([1] * 8, SPEC8, L=8, forced_prefix=[0, 0, 0, 1])
    assert len(paths) == 8
    expected = {u for u in brute_force_minimum_weight(SPEC8)[1] if first_one(u) == 4}
    assert {p.decisions for p in paths} == expected
    for p in paths:
        assert weight(p.decisions) == 4
        assert p.pm == 4
        assert p.rds == (4,)


# ---- structural invariants on noiseless all-ones searches ----


def test_minimum_weight_survivors_have_singleton_reverse_sets():
    # under the all-ones input, every minimum-weight survivor flips exactly
    # once: at its first nonzero decision, which must be a minimum-weight row
    for spec in random_specs(25, (8, 16, 32), seed=73, max_K=6):
        d_m, a_m = min_distance(spec)
        survivors = scl_decode([1] * spec.N, spec, L=1 << spec.K)
        for p in survivors:
            if not any(p.decisions):
                continue
            if weight(p.decisions) != d_m:
                continue
            i = first_one(p.decisions)
            assert i in a_m
            assert generator_row_weight(i, spec.N) == d_m
            assert p.rds == (i,)
            assert p.pm == sc_retrace([1] * spec.N, spec, rds={i}).pm


def test_full_list_search_recovers_every_minimum_weight_vector():
    for spec in random_specs(15, (8, 16), seed=74, max_K=8):
        d_m, _ = min_distance(spec)
        expected = brute_force_minimum_weight(spec)[1]
        survivors = scl_decode([1] * spec.N, spec, L=1 << spec.K)
        found = {p.decisions for p in survivors if weight(p.decisions) == d_m}
        assert found == expected


# ---- path metrics replay exactly ----


def test_path_metrics_match_replay_exact_mode():
    rng = random.Random(9)
    for spec in random_specs(20, (8, 16), seed=75, max_K=8):
        llrs = [rng.randint(-4, 4) for _ in range(spec.N)]
        for p in scl_decode(llrs, spec, L=4):
            replay = sc_replay(llrs, spec, list(p.decisions))
            assert replay.pm == p.pm
            assert replay.rds == p.rds


def test_path_metrics_match_replay_float_mode():
    rng = random.Random(10)
    for spec in random_specs(20, (8, 16, 32), seed=76):
        llrs = [rng.gauss(0.0, 2.0) for _ in range(spec.N)]
        for p in scl_decode(llrs, spec, L=4):
            replay = sc_replay(llrs, spec, list(p.decisions))
            assert replay.pm == pytest.approx(p.pm, rel=1e-9, abs=1e-12)
            assert replay.rds == p.rds


# ---- ranking and diagnostics ----


def test_paths_return_sorted_by_metric_then_decisions():
    rng = random.Random(11)
    for spec in random_specs(20, (8, 16), seed=77):
        llrs = [rng.gauss(0.0, 2.0) for _ in range(spec.N)]
        paths = scl_decode(llrs, spec, L=8)
        keys = [(p.pm, p.decisions) for p in paths]
        assert keys == sorted(keys)


def test_diagnostics_report_no_discards_when_list_is_wide_enough():
    paths, diag = scl_decode([1] * 8, SPEC8, L=16, with_diagnostics=True)
    assert len(paths) == 16
    assert diag.discarded == 0
    assert diag.min_discarded_pm is None


def test_diagnostics_report_discards_when_list_saturates():
    paths, diag = scl_decode([1] * 8, SPEC8, L=4, with_diagnostics=True)
    assert len(paths) == 4
    assert diag.discarded > 0
    assert diag.min_discarded_pm is not None


# ---- argument validation ----


def test_forced_prefix_must_respect_frozen_positions():
    with pytest.raises(ValueError):
        constrained_scl([1] * 8, SPEC8, L=2, forced_prefix=[0, 0, 1])


def test_forced_prefix_must_fit_and_be_binary():
    with pytest.raises(ValueError):
        constrained_scl([1] * 8, SPEC8, L=2, forced_prefix=[0] * 9)
    with pytest.raises(ValueError):
        constrained_scl([1] * 8, SPEC8, L=2, forced_prefix=[0, 0, 0, 2])


def test_list_size_and_input_length_are_validated():
    with pytest.raises(ValueError):
        scl_decode([1] * 8, SPEC8, L=0)
    with pytest.raises(ValueError):
        scl_decode([1] * 4, SPEC8, L=2)


# ---- batched float engine agrees with the scalar engine ----


def test_batch_decoder_matches_scalar_best_path():
    rng = np.random.default_rng(78)
    for N in (8, 16):
        for L in (1, 2, 4):
            specs = random_specs(3, (N,), seed=79 + N + L)
            for spec in specs:
                llrs = rng.normal(1.0, 1.4, size=(24, N))
                out = scl_decode_batch(llrs, spec, L=L)
                for row, decoded in zip(llrs, out):
                    ref = scl_decode(list(row), spec, L=L)[0]
                    assert tuple(int(b) for b in decoded) == ref.decisions


def test_batch_decoder_recovers_clean_codewords():
    spec = CodeSpec(16, (8, 11, 12, 13, 14, 15, 16))
    rng = np.random.default_rng(80)
    msgs = rng.integers(0, 2, size=(50, spec.K))
    u = np.zeros((50, 16), dtype=np.uint8)
    u[:, [a - 1 for a in spec.A]] = msgs
    c = u.copy()
    half = 1
    while half < 16:
        for start in range(16):
            if start & half == 0:
                c[:, start] ^= c[:, start + half]
        half *= 2
    llrs = 4.0 * (1.0 - 2.0 * c.astype(np.float64))
    out = scl_decode_batch(llrs, spec, L=2)
    assert np.array_equal(out, u)


def test_batch_decoder_validates_arguments():
    with pytest.raises(ValueError):
        scl_decode_batch(np.zeros((3, 4)), SPEC8, L=2)
    with pytest.raises(ValueError):
        scl_decode_batch(np.zeros((3, 8)), SPEC8, L=0)


def test_batch_decoder_rejects_a_nan_row():
    llrs = np.ones((3, 8))
    llrs[1] = np.nan
    with pytest.raises(ValueError, match="NaN or infinite"):
        scl_decode_batch(llrs, SPEC8, L=2)


def test_batch_decoder_rejects_infinite_llrs():
    llrs = np.ones((3, 8))
    llrs[0, 2] = np.inf
    llrs[2, 5] = -np.inf
    with pytest.raises(ValueError, match="NaN or infinite"):
        scl_decode_batch(llrs, SPEC8, L=2)


def test_batch_decoder_rejects_a_one_dimensional_input():
    with pytest.raises(ValueError, match=r"\(B, N\)"):
        scl_decode_batch(np.ones(8), SPEC8, L=2)


# ---- golden decisions of the batched engine ----
#
# Digests of the decision arrays the batched engine returned when they were
# recorded.  Any rewrite of the engine must reproduce them byte for byte,
# including the ties of the integer corpus and lanes that keep an infinite
# metric because L exceeds 2^K.

GOLDEN_AWGN = {
    2.0: "7aec3f1fb55fcfa0228de0a06327e8d81ad7e4ed5d0bbc517158367909eba0a4",
    3.0: "c35020473aed1b4642cd726cad727b63fff2824ad68cedd7ffb73c7cbd890479",
}
GOLDEN_TIES = "e10d10e77275cddb75aa3fa6c3fe39a5398a4bfd709cf11c7c3f9240224d441d"


@pytest.mark.parametrize("ebn0_db", sorted(GOLDEN_AWGN))
def test_batch_decoder_golden_awgn_decisions(ebn0_db):
    spec = construct_pw(512, 256)
    sigma = design_sigma(ebn0_db, spec.K / spec.N)
    rng = np.random.default_rng(20191218)
    y = 1.0 + sigma * rng.normal(size=(64, spec.N))
    out = scl_decode_batch(2.0 * y / (sigma * sigma), spec, L=8)
    assert out.dtype == np.uint8 and out.shape == (64, 512)
    assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN_AWGN[ebn0_db]


def test_batch_decoder_golden_tie_decisions():
    rng = np.random.default_rng(1912)
    digest = hashlib.sha256()
    for N in (8, 16, 32, 64):
        for L in (1, 2, 4, 8):
            for K in (1, 2, int(rng.integers(3, N + 1))):
                A = rng.choice(np.arange(1, N + 1), size=K, replace=False)
                spec = CodeSpec(N, tuple(int(a) for a in A))
                llrs = rng.integers(-2, 4, size=(16, N)).astype(np.float64)
                out = scl_decode_batch(llrs, spec, L=L)
                assert out.dtype == np.uint8 and out.shape == (16, N)
                digest.update(out.tobytes())
    assert digest.hexdigest() == GOLDEN_TIES
