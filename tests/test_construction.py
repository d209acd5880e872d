import hashlib
import math
import random
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from polarmhw.bitops import min_distance
from polarmhw.bound import bound_count
from polarmhw.construction import (
    CodeSpec,
    SpecFormatError,
    _codes,
    construct_ga,
    construct_pw,
    design_sigma,
    gaussian_approx_order,
    load_spec,
    polarization_weight_order,
    save_spec,
)


# ---- independent GA reference: scalar per-channel walk, bisection inverse ----


def _lnphi_scalar(x):
    if x < 10.0:
        return -0.4527 * x ** 0.86 + 0.0218
    return 0.5 * math.log(math.pi / x) - x / 4.0 + math.log1p(-10.0 / (7.0 * x))


def _check_scalar(m):
    phi = math.exp(_lnphi_scalar(m)) if _lnphi_scalar(m) > -700 else 0.0
    target = _lnphi_scalar(m) + math.log(2.0 - phi)
    hi = max(40.0, -8.0 * target)
    return brentq(lambda x: _lnphi_scalar(x) - target, 1e-15, hi, xtol=1e-13, rtol=1e-14)


def ga_means_reference(N, sigma):
    n = N.bit_length() - 1
    means = []
    for i in range(1, N + 1):
        m = 2.0 / (sigma * sigma)
        for t in reversed(range(n)):  # digits of i - 1, MSB first
            m = 2.0 * m if (i - 1) >> t & 1 else _check_scalar(m)
        means.append(m)
    return means


# ---- CodeSpec ----


def test_codespec_normalizes_and_validates():
    spec = CodeSpec(8, (7, 4, 8, 6))
    assert spec.A == (4, 6, 7, 8)
    assert (spec.n, spec.K, spec.R) == (3, 4, 0.5)
    assert spec.is_info(4) and not spec.is_info(5)


def test_codespec_elements_are_python_ints():
    # a numpy scalar would change the repr of A, which golden digests hash
    specs = (CodeSpec(8, (np.int64(7), 4, 8, 6)), construct_pw(256, 77), construct_ga(256, 77, 2.0))
    for spec in specs:
        assert all(type(a) is int for a in spec.A)
        d_m, rows = min_distance(spec)
        assert type(d_m) is int and all(type(r) is int for r in rows)


def test_codespec_is_info_agrees_with_A():
    rng = random.Random(23)
    for _ in range(200):
        N = 1 << rng.randint(1, 6)
        spec = CodeSpec(N, tuple(rng.sample(range(1, N + 1), rng.randint(1, N))))
        assert [spec.is_info(p) for p in range(N + 2)] == [p in spec.A for p in range(N + 2)]


def test_information_set_arrays_are_read_only():
    spec = construct_pw(16, 8)
    orders = (polarization_weight_order(16), gaussian_approx_order(16, 0.8))
    arrays = [spec.info_mask] + [getattr(o, f) for o in orders for f in ("ranking", "scores")]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = arr[1]


@pytest.mark.parametrize(
    "N,A",
    [(6, (1,)), (8, ()), (8, (0, 1)), (8, (9,)), (8, (3, 3))],
)
def test_codespec_rejects_bad_input(N, A):
    with pytest.raises(ValueError):
        CodeSpec(N, A)


@pytest.mark.parametrize(
    "N,A,text",
    [
        (8, (), "information set is empty"),
        (8, (0, 1), "information set not within [1, 8]"),
        (8, (9,), "information set not within [1, 8]"),
        (8, (3, 3), "information set has duplicate positions"),
        (6, (1,), "code length N=6 is not a power of two >= 2"),
        (8, (2 ** 63, 1), "information set not within [1, 8]"),
        (8, (np.uint64(2 ** 64 - 1),), "information set not within [1, 8]"),
        (4, (1.5, 2), "information set positions must be integers"),
        (4, (1.0, 2), "information set positions must be integers"),
        (4, ("1", 2), "information set positions must be integers"),
        (4, np.array([1.0, 2.0]), "information set positions must be integers"),
    ],
)
def test_codespec_error_texts(N, A, text):
    with pytest.raises(ValueError, match=re.escape(text)):
        CodeSpec(N, A)


def test_codespec_accepts_numpy_integers():
    want = CodeSpec(8, (4, 6, 7, 8))
    for A in (np.array([7, 4, 8, 6]), np.array([7, 4, 8, 6], dtype=np.uint8), (np.int32(8), 4, 6, 7)):
        spec = CodeSpec(8, A)
        assert spec == want and spec.A == (4, 6, 7, 8)
        assert all(type(a) is int for a in spec.A)


def test_codespec_is_immutable():
    spec = CodeSpec(8, (4, 6, 7, 8))
    for name in ("N", "A", "construction", "info_mask"):
        with pytest.raises(AttributeError):
            setattr(spec, name, None)
    assert spec == CodeSpec(8, (4, 6, 7, 8))


def test_codespec_equality_reads_n_set_and_label():
    spec = CodeSpec(8, (4, 6, 7, 8), "PW")
    assert spec == CodeSpec(8, (8, 7, 6, 4), "PW")
    assert spec != CodeSpec(8, (4, 6, 7, 8))
    assert spec != CodeSpec(8, (4, 6, 7), "PW")
    assert spec != CodeSpec(16, (4, 6, 7, 8), "PW")
    assert spec != (8, (4, 6, 7, 8), "PW")
    assert len({spec, CodeSpec(8, (8, 7, 6, 4), "PW"), CodeSpec(8, (4, 6, 7, 8))}) == 2


def _ranked_codes():
    for N in (1 << n for n in range(1, 17)):
        yield N, "PW", None, polarization_weight_order(N).ranking
        for ebn0 in (0.0, 2.0):
            ranking = gaussian_approx_order(N, design_sigma(ebn0, 0.5)).ranking
            yield N, f"GA({ebn0:g}dB)", ebn0, ranking


def test_mask_built_specs_equal_public_ones():
    for N, label, ebn0, ranking in _ranked_codes():
        codes = _codes(N, ebn0)
        for K in sorted({1, 2, N // 2, N - 1, N} - {0}):
            got = codes(K)
            want = CodeSpec(N, tuple(sorted(ranking[:K])), label)
            assert got.info_mask.dtype == bool and not got.info_mask.flags.writeable
            assert np.array_equal(got.info_mask, want.info_mask)
            assert (got.N, got.K, got.R, got.construction) == (want.N, want.K, want.R, label)
            assert type(got.K) is int and got.K == K
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            assert min_distance(got) == min_distance(want)
            assert got._sc_steps == want._sc_steps
            probes = {0, 1, N, N + 1, int(ranking[K - 1]), int(ranking[K % N])}
            assert [got.is_info(p) for p in probes] == [want.is_info(p) for p in probes]
            assert got.A == want.A and all(type(a) is int for a in got.A)
        with pytest.raises(ValueError, match=re.escape(f"K=0 out of range [1, {N}]")):
            codes(0)
        with pytest.raises(ValueError, match=re.escape(f"K={N + 1} out of range [1, {N}]")):
            codes(N + 1)


def test_bound_leaves_A_unbuilt():
    # the bound reads only the mask: building A (K Python ints) per code is
    # the cost the mask-built specs remove from sweep and bound
    spec = construct_ga(65536, 32768, 2.0)
    bound_count(spec)
    min_distance(spec)
    assert spec.K == 32768 and "A" not in vars(spec)
    repr(spec)
    assert "A" in vars(spec)


# ---- polarization weight ----


def test_pw_hand_ranked_example():
    assert construct_pw(8, 4).A == (4, 6, 7, 8)
    assert construct_pw(8, 1).A == (8,)
    assert construct_pw(8, 8).A == tuple(range(1, 9))


def test_pw_nested_and_tagged():
    prev = set()
    for K in range(1, 65):
        spec = construct_pw(64, K)
        assert spec.construction == "PW"
        assert prev < set(spec.A)
        prev = set(spec.A)


def test_pw_strictly_monotone_under_cover():
    order = polarization_weight_order(128)
    scores = order.scores
    rng = random.Random(17)
    checked = 0
    while checked < 300:
        i = rng.randrange(1, 129)
        j = rng.randrange(1, 129)
        if i != j and (j - 1) & ~(i - 1) == 0:  # i covers j digitwise
            assert scores[i - 1] > scores[j - 1]
            checked += 1


# ---- gaussian approximation ----


def test_ga_trivial_sets():
    assert construct_ga(16, 16, 1.5).A == tuple(range(1, 17))
    for db in (-2.0, 0.0, 2.0, 4.0):
        assert construct_ga(16, 1, db).A == (16,)
        assert construct_ga(64, 1, db).A == (64,)


def test_ga_scores_finite_positive_allones_first():
    for N in (8, 64, 256):
        for db in (-2.0, 0.0, 2.0, 4.0):
            order = gaussian_approx_order(N, design_sigma(db, 0.5))
            assert order.ranking[0] == N
            assert all(math.isfinite(s) and s > 0 for s in order.scores)


def test_ga_nested():
    prev = set()
    for K in range(1, 65):
        spec = construct_ga(64, K, 0.0)
        assert prev < set(spec.A)
        prev = set(spec.A)
    assert construct_ga(64, 32, 0.0).construction == "GA(0dB)"


def test_ga_matches_independent_reference_256_128_0db():
    sigma = design_sigma(0.0, 0.5)
    got = gaussian_approx_order(256, sigma)
    ref = ga_means_reference(256, sigma)
    for a, b in zip(got.scores, ref):
        assert abs(a - b) <= 1e-6 * max(1.0, abs(b))
    top = sorted(range(1, 257), key=lambda i: (-ref[i - 1], i))[:128]
    assert construct_ga(256, 128, 0.0).A == tuple(sorted(top))


def test_ga_matches_independent_reference_other_points():
    for N, db in ((64, 2.0), (128, 0.0)):
        sigma = design_sigma(db, 0.5)
        got = gaussian_approx_order(N, sigma)
        ref = ga_means_reference(N, sigma)
        for a, b in zip(got.scores, ref):
            assert abs(a - b) <= 1e-6 * max(1.0, abs(b))


def test_construct_range_errors():
    for builder in (lambda K: construct_pw(8, K), lambda K: construct_ga(8, K, 0.0)):
        with pytest.raises(ValueError):
            builder(0)
        with pytest.raises(ValueError):
            builder(9)


# ---- golden constructions ----
#
# Per N: the PW ranking, then construct_pw and construct_ga at 0 and 2 dB for
# every K up to N = 64 and K stepped by N/16 beyond; recorded with the
# construction that ranked by a two-key lexsort into Python tuples.


def construction_digest(N):
    h = hashlib.sha256()
    h.update(f"{[int(r) for r in polarization_weight_order(N).ranking]}\n".encode())
    step = 1 if N <= 64 else N // 16
    for K in range(step, N + 1, step):
        h.update(f"pw {K} {construct_pw(N, K).A}\n".encode())
        for db in (0.0, 2.0):
            h.update(f"ga{db:g} {K} {construct_ga(N, K, db).A}\n".encode())
    return h.hexdigest()[:16]


GOLDEN_CONSTRUCTIONS = {
    2: "3d301a551d4a116e",
    4: "f2f1b9dbafeb2328",
    8: "54fa2c9e46c27ee5",
    16: "6539d4c82f7c542f",
    32: "b36ba14539cfe562",
    64: "ab078cb00e1259d9",
    128: "08b42da2b242b603",
    256: "454ff2d36f12d757",
    512: "99fe27c8313a17c5",
    1024: "5bb6764167c5e01e",
    2048: "45fcead21d1f3c25",
    4096: "59791dc568a476b9",
    8192: "e54386b46dada836",
    16384: "6aa51233439ba017",
    32768: "f7519ef519d14d00",
    65536: "a2c3b3825f0aa38e",
}


@pytest.mark.parametrize("N", sorted(GOLDEN_CONSTRUCTIONS))
def test_construction_golden(N):
    assert construction_digest(N) == GOLDEN_CONSTRUCTIONS[N]


# ---- spec files ----


def test_spec_roundtrip(tmp_path):
    path = tmp_path / "code.spec"
    for spec in (CodeSpec(8, (4, 6, 7, 8), "PW"), construct_ga(64, 32, 2.0)):
        save_spec(spec, path)
        assert load_spec(path) == spec


def test_spec_load_normalizes_unsorted(tmp_path):
    path = tmp_path / "code.spec"
    path.write_text("polarmhw-spec 1\nN = 8\nA = 7 4 8 6\n")
    assert load_spec(path).A == (4, 6, 7, 8)


@pytest.mark.parametrize(
    "body",
    [
        "N = 8\nA = 4 6 7 8\n",  # missing magic
        "polarmhw-spec 1\nA = 4\n",  # missing N
        "polarmhw-spec 1\nN = 8\n",  # missing A
        "polarmhw-spec 1\nN = 8\nA = 4 9\n",  # A outside [1, N]
        "polarmhw-spec 1\nN = 8\nA = zero\n",
        "polarmhw-spec 1\nN = 12\nA = 4\n",
        "polarmhw-spec 1\nN = 8\nA = 4\nN = 8\n",  # duplicate field
        "polarmhw-spec 1\nnonsense line\nN = 8\nA = 4\n",
    ],
)
def test_spec_load_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.spec"
    path.write_text(body)
    with pytest.raises(SpecFormatError):
        load_spec(path)
