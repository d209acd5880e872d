import hashlib
import math
import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import edit_text

from polarmhw.bitops import min_distance
from polarmhw.bound import bound_count
from polarmhw.construction import (
    RATE0,
    RATE1,
    REP,
    CodeSpec,
    SpecFormatError,
    _codes,
    _node_steps,
    _top,
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


# ---- one code by selection ----


def _fresh_mask(ranking, K):
    mask = np.zeros(len(ranking), dtype=bool)
    mask[ranking[:K] - 1] = True
    return mask


def test_selected_codes_are_the_first_K_of_the_order():
    # construct_pw and construct_ga select their K positions without sorting;
    # every K agrees with the first K entries of the sorted order
    for N, label, ebn0, ranking in _ranked_codes():
        Ks = range(1, N + 1) if N <= 1 << 10 else sorted({*range(1, N + 1, 4093), N - 1, N})
        for K in Ks:
            got = construct_pw(N, K) if ebn0 is None else construct_ga(N, K, ebn0)
            assert got.construction == label and not got.info_mask.flags.writeable
            assert np.array_equal(got.info_mask, _fresh_mask(ranking, K)), (N, label, K)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("ebn0", [-3000.0, 3060.0, 3079.0])
def test_selection_breaks_ties_like_the_sort(ebn0):
    # far-out design points give runs of equal, infinite and NaN means; the
    # sort puts ties in index order and NaN last, and so must the selection
    N = 1024
    order = gaussian_approx_order(N, design_sigma(ebn0, 0.5))
    assert len(np.unique(order.scores)) < N
    for K in range(1, N + 1):
        assert np.array_equal(_top(order.scores, K), _fresh_mask(order.ranking, K)), K


def test_signed_zero_design_points_keep_their_labels():
    minus, plus = construct_ga(64, 32, -0.0), construct_ga(64, 32, 0.0)
    assert (minus.construction, plus.construction) == ("GA(-0dB)", "GA(0dB)")
    assert np.array_equal(minus.info_mask, plus.info_mask)


@pytest.mark.parametrize("N", [1 << 60, 1 << 100])
def test_a_length_too_large_to_address_is_a_memory_error(N):
    # refused at the one full-length allocation, before any stage runs
    builds = (
        polarization_weight_order,
        lambda N: gaussian_approx_order(N, 0.8),
        lambda N: CodeSpec(N, (1, 2)),
    )
    for build in builds:
        with pytest.raises(MemoryError):
            build(N)


# ---- SC node schedule ----


def node_mask(rng, size):
    """A random mask of `size` leaves: with probability 1/3, and always for
    one leaf, a node of a random kind or random bits; else two halves."""
    if size == 1 or rng.random() < 1 / 3:
        kind = rng.integers(4)
        if kind == 3:
            return rng.random(size) < 0.5
        mask = np.full(size, kind == RATE1)
        mask[-1] = kind != RATE0
        return mask
    return np.concatenate([node_mask(rng, size // 2), node_mask(rng, size // 2)])


@st.composite
def schedule_inputs(draw):
    """(mask, first leaf, triggers): a random mask of N = 2..256 leaves in
    which every node kind occurs at every size, leaf 0 or a random first
    leaf, and a random subset of the information positions as triggers."""
    N = 1 << draw(st.sampled_from(range(1, 9)))
    mask = node_mask(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), N)
    info = (np.flatnonzero(mask) + 1).tolist()
    triggers = sorted(draw(st.sets(st.sampled_from(info)))) if info else []
    return mask, draw(st.just(0) | st.integers(0, N - 1)), triggers


def node_kind(mask, triggers, phi, s):
    """The kind of the node of 2**s >= 2 leaves at phi, by brute force, or
    None when it is none of them."""
    leaves = mask[phi : phi + (1 << s)]
    if not leaves.any():
        return RATE0
    if any(phi < i <= phi + (1 << s) for i in triggers):
        return None
    if leaves.all():
        return RATE1
    return REP if leaves[-1] and not leaves[:-1].any() else None


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(schedule_inputs())
def test_node_steps_take_the_largest_allowed_node(inputs):
    mask, first, triggers = inputs
    N = len(mask)
    for kinds in (kinds for r in range(4) for kinds in combinations((RATE0, REP, RATE1), r)):
        steps = _node_steps(mask, first, triggers, kinds)
        # the steps tile [first, N) in order, each node aligned
        ends = [phi + (1 << s) for phi, s, _ in steps]
        assert [phi for phi, _, _ in steps] == [first] + ends[:-1]
        assert ends[-1] == N
        for phi, s, kind in steps:
            assert phi % (1 << s) == 0
            if s:
                # a node of an allowed kind; no trigger inside a rate-1 or REP node
                assert kind in kinds and node_kind(mask, triggers, phi, s) == kind
            else:
                assert kind == (REP if mask[phi] else RATE0)
            # no larger aligned node at phi has an allowed kind
            top = (phi & -phi).bit_length() - 1 if phi else N.bit_length() - 1
            for t in range(s + 1, top + 1):
                assert node_kind(mask, triggers, phi, t) not in kinds
    if mask.any():
        spec = CodeSpec(N, tuple(np.flatnonzero(mask) + 1))
        assert spec._sc_steps == tuple((phi, s) for phi, s, _ in _node_steps(mask, 0, (), (RATE0,)))


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
        for header in ((), ("polarmhw 0.1.0", "# command: polarmhw construct")):
            save_spec(spec, path, header)
            assert load_spec(path) == spec


SAVED = "polarmhw-spec 1\nN = 8\nconstruction = PW\nA = 4 6 7 8\n"


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
        "polarmhw-spec 1\nN = 8\nA = 7 4 8 6\n",  # unsorted, no construction line
        # what the writer never writes: each of these once read as some code
        SAVED.replace("N = 8\n", "N = 8\nK = 3\n"),
        SAVED.replace("construction = PW", "constuction = GA"),
        SAVED + "foo = bar\n",
        SAVED.replace("4 6 7 8", "8 7 6 4"),
        SAVED.replace("4 6 7 8", "4,6,7,8"),
        SAVED.replace("N = 8", "N = 08"),
        SAVED.replace("A = 4", "A = +4"),
        SAVED.replace("N = 8\n", "N = 8\n\n"),  # a blank line
        SAVED.replace("\n", "\r\n"),
        SAVED.replace("construction = PW\n", ""),
        SAVED[:-1],  # no final newline
        SAVED + "# note",  # trailing text
        SAVED + "# note\n",  # a comment after the fields
        SAVED.replace("polarmhw-spec 1\n", "polarmhw-spec 1\n# a\rb\n"),
    ],
)
def test_spec_load_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.spec"
    path.write_bytes(body.encode())
    with pytest.raises(SpecFormatError, match=f"^{re.escape(str(path))}: line [1-9]: "):
        load_spec(path)


def test_spec_load_names_the_line(tmp_path):
    path = tmp_path / "bad.spec"
    for body, line, why in (
        (SAVED.replace("4 6 7 8", "8 7 6 4"), 4, "where the writer writes 'A = 4 6 7 8\\n'"),
        (SAVED.replace("constr", "constuction = GA\nconstr"), 3, "a line starting 'construction = '"),
        (SAVED.replace("N = 8", "N = 12"), 2, "N=12 is not a power of two"),
        (SAVED.encode().replace(b"1\n", b"1\n# \xff\n", 1), 2, "is not one printable line"),
    ):
        path.write_bytes(body if isinstance(body, bytes) else body.encode())
        with pytest.raises(SpecFormatError, match=f"^{re.escape(str(path))}: line {line}: .*{re.escape(why)}"):
            load_spec(path)


@pytest.mark.parametrize(
    "spec,header",
    [
        (CodeSpec(8, (4, 6, 7, 8), "P\nW"), ()),
        (CodeSpec(8, (4, 6, 7, 8), "P\u2028W"), ()),
        (CodeSpec(8, (4, 6, 7, 8), "PW"), ("command: polarmhw construct --A 4,6\n7,8",)),
        (CodeSpec(8, (4, 6, 7, 8), "PW"), ("# a\rb",)),
    ],
)
def test_spec_save_refuses_a_line_break_before_opening(tmp_path, spec, header):
    path = tmp_path / "code.spec"
    with pytest.raises(ValueError, match="is not one printable line"):
        save_spec(spec, path, header)
    assert not path.exists()


@pytest.fixture(scope="module")
def saved_spec_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("spec")
    texts = []
    for spec, header in (
        (CodeSpec(8, (4, 6, 7, 8), "PW"), ()),
        (construct_ga(16, 8, 2.0), ("polarmhw 0.1.0", "# command: polarmhw construct")),
    ):
        save_spec(spec, root / "valid.spec", header)
        texts.append((root / "valid.spec").read_text())
    return root, texts


EDIT_CHARS = st.sampled_from("0123456789 =,+-#\n\rNAc") | st.characters(codec="utf-8")


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(st.data())
def test_spec_reader_refuses_or_round_trips_an_edited_file(saved_spec_files, data):
    # the reader refuses the edited file, or returns a spec that save_spec,
    # given the file's comments, writes back as the same bytes
    root, texts = saved_spec_files
    text = edit_text(data, data.draw(st.sampled_from(texts)), EDIT_CHARS)
    path = root / "edited.spec"
    path.write_bytes(text.encode("utf-8"))
    try:
        spec = load_spec(path)
    except SpecFormatError:
        return
    comments = [line for line in text.split("\n")[1:] if line.startswith("#")]
    save_spec(spec, root / "again.spec", comments)
    assert (root / "again.spec").read_bytes() == path.read_bytes()
