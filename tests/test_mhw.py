import hashlib
import random
import sys

import numpy as np
import pytest

from conftest import (
    brute_force_minimum_weight,
    first_one,
    group_by_trigger,
    random_specs,
    vector_set,
)

from polarmhw import bitops, mhw
from polarmhw.bitops import encode, generator_row, min_distance
from polarmhw.bound import bound_count, per_subset_bound, zero_capacity_set
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
from polarmhw.mhw import _search_group, _zero_split_walk
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


def test_exhaustive_cap_refuses_large_codes():
    spec = CodeSpec(16, tuple(range(1, 12)))
    with pytest.raises(ExhaustiveCapError):
        exhaustive_mhw(spec, cap=10)
    assert exhaustive_mhw(spec, cap=11).count >= 1


# ---- constrained subset searches ----


def test_grouped_subset_search_examples():
    # the searches of one list width run together, each pinned to its own
    # prefix 1-at-i, 1-at-j; every pair gets the vectors whose first two
    # ones sit at i and j
    pairs = [(4, 6), (4, 8), (7, 8)]
    (four, note), (one, _), (last, _) = _search_group(SPEC8, pairs, 4, 4)
    expected = {u for u in brute_force_minimum_weight(SPEC8)[1] if u[3] and u[5]}
    assert vector_set(four) == expected
    assert note is None
    assert one.tolist() == [[0, 0, 0, 1, 0, 0, 0, 1]]
    assert weight(one[0]) == 4
    assert last.tolist() == [[0, 0, 0, 0, 0, 0, 1, 1]]
    # width 1 discards a candidate at the trigger metric, so (4, 6) reruns at
    # full width, returns the same rows and says what the schedule lost
    narrow = _search_group(SPEC8, pairs, 1, 4)
    assert vector_set(narrow[0][0]) == expected
    assert narrow[0][1] == "list size 1 for trigger 4, split 6 lost 3 vectors; recovered at width 8"
    assert [out[0].tolist() for out in narrow[1:]] == [one.tolist(), last.tolist()]


def test_trigger_metric_is_the_minimum_distance():
    # _search_group compares discards against d_m: reversing trigger i on the
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
        for i in a_m:
            leaves, branches, kills = zero_split_subset(spec, i)
            for u in leaves:
                assert weight(u) == d_m
            assert len(leaves) <= per_subset_bound(i, spec)
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


def test_enumerated_vectors_partition_by_trigger_and_split():
    for spec in random_specs(15, (8, 16, 32), seed=37, max_K=8):
        out = enumerate_zero_split(spec)
        info = set(spec.A)
        groups = group_by_trigger(out.vectors)
        d_m, a_m = min_distance(spec)
        assert set(groups) <= set(a_m)
        for i, members in groups.items():
            assert len(members) <= per_subset_bound(i, spec)
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


def test_result_vectors_are_a_sorted_read_only_array():
    rows = [[0, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    result = MhwResult(2, rows, "EXHAUSTIVE", 0)
    assert result.vectors.dtype == np.uint8 and result.vectors.flags.c_contiguous
    assert result.vectors.tolist() == sorted(rows)
    assert result.count == 3
    with pytest.raises(ValueError):
        result.vectors[0, 0] = 1
    assert result == MhwResult(2, rows[::-1], "EXHAUSTIVE", 0)
    assert result != MhwResult(2, rows[:2], "EXHAUSTIVE", 0)
    assert result != MhwResult(2, rows, "ZERO_SPLIT", 0)
    with pytest.raises(ValueError, match="listed twice"):
        MhwResult(2, rows + rows[:1], "EXHAUSTIVE", 0)
    with pytest.raises(ValueError):
        MhwResult(2, [[0, 2, 0, 1]], "EXHAUSTIVE", 0)


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
