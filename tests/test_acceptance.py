"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to watch the verdict
lines stream; they bypass capture either way).
"""

import math
import time

import numpy as np
import pytest

from conftest import first_one, group_by_trigger, random_specs

from polarmhw import (
    CodeSpec,
    bound_count,
    construct_ga,
    construct_pw,
    encode,
    enumerate_subset_scl,
    enumerate_zero_split,
    exhaustive_mhw,
    fer_estimate,
    generator_row,
    min_distance,
    positions_of,
    sc_decode,
    sc_replay,
    simulate_fer,
    write_enumeration,
    zero_capacity_set,
    zero_split_subset,
)
from polarmhw.cli import main

SPEC8 = CodeSpec(8, (4, 6, 7, 8))


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def weight(u):
    return sum(encode(list(u)))


@pytest.fixture(scope="module")
def pw_corpus():
    """(spec, exhaustive result) for PW at N in {16,32,64}, every K <= 22."""
    t0 = time.perf_counter()
    entries = []
    for N in (16, 32, 64):
        for K in range(1, min(N, 22) + 1):
            spec = construct_pw(N, K)
            entries.append((spec, exhaustive_mhw(spec)))
    return entries, time.perf_counter() - t0


def test_small_code_counts_and_list_cap(capsys):
    t0 = time.perf_counter()
    d_m, a_m = min_distance(SPEC8)
    brute = exhaustive_mhw(SPEC8)
    report8 = bound_count(SPEC8, materialize_sets=False)
    subset = enumerate_subset_scl(SPEC8)
    zsplit = enumerate_zero_split(SPEC8)
    elapsed = time.perf_counter() - t0
    ok = (
        d_m == 4
        and brute.count == 14
        and report8.total == 14
        and tuple(t.term for t in report8.triggers) == (8, 4, 2)
        and np.array_equal(subset.vectors, brute.vectors)
        and np.array_equal(zsplit.vectors, brute.vectors)
        and subset.max_list_used == 4
        and 4 == 1 << (report8.triggers[0].overlap - 1)
        and elapsed < 1.0
    )
    report(
        capsys, 1, ok,
        f"d_m={d_m} count={brute.count} terms="
        f"{tuple(t.term for t in report8.triggers)} maxListUsed="
        f"{subset.max_list_used} ({elapsed:.2f} s)",
    )
    assert ok


def test_zero_capacity_example_set(capsys):
    got = sorted(zero_capacity_set(2, 8))
    ok = got == [3, 4, 5, 6]
    report(capsys, 2, ok, f"zero-capacity set of position 2 at N=8 is {got}")
    assert ok


def test_bound_tight_across_pw_rates(capsys, pw_corpus):
    entries, build_time = pw_corpus
    t0 = time.perf_counter()
    mismatches = [
        (spec.N, spec.K, bound_count(spec, materialize_sets=False).total, res.count)
        for spec, res in entries
        if bound_count(spec, materialize_sets=False).total != res.count
    ]
    elapsed = build_time + (time.perf_counter() - t0)
    ok = not mismatches and elapsed < 600
    report(
        capsys, 3, ok,
        f"{len(entries)} PW specs, {len(mismatches)} bound/exact mismatches "
        f"({elapsed:.1f} s)",
    )
    assert ok, mismatches


def test_bound_sound_on_random_and_ga_sets(capsys):
    t0 = time.perf_counter()
    violations = []
    n_random = 0
    for N in (8, 16, 32):
        for spec in random_specs(200, (N,), seed=N):
            n_random += 1
            total = bound_count(spec, materialize_sets=False).total
            exact = exhaustive_mhw(spec).count
            if total < exact:
                violations.append((spec.N, spec.A, total, exact))
    loose_rows = []
    for db in (0.0, 2.0):
        for N in (16, 32, 64):
            for K in range(1, min(N, 22) + 1):
                spec = construct_ga(N, K, db)
                total = bound_count(spec, materialize_sets=False).total
                exact = exhaustive_mhw(spec).count
                if total < exact:
                    violations.append((spec.N, spec.A, total, exact))
                elif total > exact:
                    loose_rows.append((db, N, K, total, exact))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 900
    report(
        capsys, 4, ok,
        f"{n_random} random sets and 2 GA sweeps: {len(violations)} soundness "
        f"violations, {len(loose_rows)} loose GA rows ({elapsed:.1f} s)",
    )
    assert ok, violations


def test_zero_location_and_residual_replay(capsys, pw_corpus):
    entries, _ = pw_corpus
    t0 = time.perf_counter()
    replays = 0
    failures = 0
    for spec, res in entries:
        ones = [1] * spec.N
        predicted = {}
        for u in res.vectors:
            i = first_one(u)
            if i not in predicted:
                predicted[i] = tuple(sorted(zero_capacity_set(i, spec.N)))
            rep = sc_replay(ones, spec, list(u))
            replays += 1
            if rep.zero_positions != predicted[i]:
                failures += 1
            row_support = positions_of(1, generator_row(i, spec.N))
            c = encode(list(u))
            for scale in (1, 3.5):
                out = sc_decode([scale * (1 - bit) for bit in c], spec)
                replays += 1
                if out.zero_positions != row_support:
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 600
    report(
        capsys, 5, ok,
        f"{replays} exact replays, {failures} zero-location failures "
        f"({elapsed:.1f} s)",
    )
    assert ok


def test_rds_weight_and_equal_pm(capsys, pw_corpus):
    entries, _ = pw_corpus
    failures = 0
    vectors = 0
    for spec, res in entries:
        ones = [1] * spec.N
        for i, members in group_by_trigger(res.vectors).items():
            pms = set()
            for u in members:
                rep = sc_replay(ones, spec, list(u))
                vectors += 1
                if rep.rds != (i,):
                    failures += 1
                if weight(u) != 1 << (i - 1).bit_count():
                    failures += 1
                if not isinstance(rep.pm, int):
                    failures += 1
                pms.add(rep.pm)
            if len(pms) != 1:
                failures += 1
    ok = failures == 0
    report(
        capsys, 6, ok,
        f"{vectors} paths: single-flip RDS, row weight, equal integer PM; "
        f"{failures} failures",
    )
    assert ok


def test_reduced_list_cap_never_prunes(capsys, pw_corpus):
    entries, _ = pw_corpus
    failures = 0
    checked_triggers = 0
    for spec, res in entries:
        d_m, _ = min_distance(spec)
        rep = bound_count(spec, materialize_sets=False)
        subset = enumerate_subset_scl(spec)
        cap = max(
            (1 << (t.overlap - 1) for t in rep.triggers if t.overlap >= 1),
            default=1,
        )
        if subset.max_list_used > cap:
            failures += 1
        if not np.array_equal(subset.vectors, res.vectors) or subset.warning is not None:
            failures += 1
        for t in rep.triggers:
            if t.overlap < 1:
                continue
            checked_triggers += 1
            leaves, _, _ = zero_split_subset(spec, t.i)
            subset_size = sum(1 for u in leaves if weight(u) == d_m)
            if not (1 << (t.overlap - 1)) < subset_size:
                failures += 1
    ok = failures == 0
    report(
        capsys, 7, ok,
        f"{checked_triggers} triggers: half-bound list cap below subset size, "
        f"no pruning; {failures} failures",
    )
    assert ok


def test_bound_runtime_sublinear(capsys):
    t0 = time.perf_counter()
    code = main(["bound", "--N", "65536", "--K", "32768"])
    cli_wall = time.perf_counter() - t0
    capsys.readouterr()

    s16 = construct_pw(1 << 16, 1 << 15)
    s10 = construct_pw(1 << 10, 1 << 9)

    def best_of(spec, reps=15):
        times = []
        for _ in range(reps):
            t = time.perf_counter()
            bound_count(spec, materialize_sets=False)
            times.append(time.perf_counter() - t)
        return min(times)

    bound_count(s16, materialize_sets=False)
    bound_count(s10, materialize_sets=False)
    t16 = best_of(s16)
    t10 = best_of(s10)
    _, am16 = min_distance(s16)
    _, am10 = min_distance(s10)
    model = (len(am16) * 16) / (len(am10) * 10)
    ratio = t16 / t10
    ok = code == 0 and cli_wall < 1.0 and ratio <= 3 * model
    report(
        capsys, 8, ok,
        f"command wall {cli_wall:.2f} s at N=2^16; kernel "
        f"{t16 * 1e6:.0f} us vs {t10 * 1e6:.0f} us, ratio {ratio:.2f} "
        f"<= 3 x model {model:.2f}",
    )
    assert ok


def test_fer_estimate_matches_simulation(capsys):
    t0 = time.perf_counter()
    spec = construct_pw(128, 64)
    estimate = fer_estimate(spec, 4.5, "EXACT")
    point = simulate_fer(
        spec, 4.5, L=8, trials=800_000, seed=1, threads=4, error_limit=120
    )
    elapsed = time.perf_counter() - t0
    log_gap = abs(math.log10(estimate.value / point.fer))
    ok = (
        point.frame_errors >= 100
        and 1e-4 <= point.fer <= 1e-3
        and log_gap <= 0.5
        and elapsed < 1800
    )
    report(
        capsys, 9, ok,
        f"N=128 R=0.5 L=8 at 4.5 dB: measured {point.fer:.2e} "
        f"({point.frame_errors} errors / {point.trials} frames), estimate "
        f"{estimate.value:.2e}, |log10 gap| {log_gap:.3f} ({elapsed:.0f} s)",
    )
    assert ok


def test_outputs_deterministic(capsys, tmp_path):
    spec_path = tmp_path / "c.spec"
    runs = [
        ["construct", "--N", "32", "--K", "16", "--out", str(spec_path)],
        ["bound", "--N", "32", "--K", "16", "--csv", str(tmp_path / "b.csv")],
        ["enumerate", "--N", "32", "--K", "16", "--out", str(tmp_path / "e.txt")],
        ["simulate", "--N", "16", "--K", "8", "--ebn0", "2.0", "--trials",
         "200", "--seed", "3", "--out", str(tmp_path / "f.csv")],
    ]
    paths = [spec_path, tmp_path / "b.csv", tmp_path / "e.txt", tmp_path / "f.csv"]
    failures = 0
    for argv, path in zip(runs, paths):
        assert main(argv) == 0
        first = path.read_bytes()
        assert main(argv) == 0
        if path.read_bytes() != first:
            failures += 1
    capsys.readouterr()

    spec = construct_pw(64, 32)
    for runner in (enumerate_subset_scl, enumerate_zero_split):
        files = []
        for threads in (1, 8):
            out = tmp_path / f"thr{threads}.txt"
            write_enumeration(out, spec, runner(spec, threads=threads))
            files.append(out.read_bytes())
        if files[0] != files[1]:
            failures += 1
    ok = failures == 0
    report(
        capsys, 10, ok,
        f"4 commands byte-stable on rerun; enumeration files identical "
        f"at thread counts 1 and 8; {failures} failures",
    )
    assert ok
