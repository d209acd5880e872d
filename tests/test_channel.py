import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_specs
from csvio import write_fer_csv

from polarmhw import channel
from polarmhw.channel import (
    FerEstimate,
    fer_estimate,
    q_function,
    simulate_fer,
    sweep_fer,
    wilson_interval,
)
from polarmhw.construction import CodeSpec, construct_pw, design_sigma
from polarmhw.mhw import exhaustive_mhw

SPEC8 = CodeSpec(8, (4, 6, 7, 8))


def q_reference(x):
    """Independent tail probability by numeric integration of the density."""
    val, _ = quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi), x, math.inf)
    return val


# ---- tail probability ----


def test_q_function_examples():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
    assert q_function(2.0) == pytest.approx(0.02275, abs=1e-5)


def test_q_function_matches_numeric_integration():
    # the integrator's absolute-error floor limits how tightly the deep tail
    # can be compared; 1e-6 relative is far below any tolerance used on it
    for x in (-2.0, -0.5, 0.0, 0.3, 1.0, 2.0, 3.5, 5.0):
        assert q_function(x) == pytest.approx(q_reference(x), rel=1e-6, abs=1e-300)


def test_q_function_decreases_to_zero():
    grid = [q_function(x) for x in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    assert grid[-1] < 1e-15


# ---- confidence intervals ----


def test_wilson_interval_brackets_the_rate():
    for errors, trials in ((0, 50), (1, 50), (7, 100), (100, 100), (13, 999)):
        lo, hi = wilson_interval(errors, trials)
        assert 0.0 <= lo <= errors / trials <= hi <= 1.0
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_wilson_interval_refuses_counts_outside_its_domain():
    # errors past trials or below 0 once died in math.sqrt, and fractional
    # counts gave an interval
    for errors, trials, message in (
        (11, 10, "errors=11, trials=10: need 0 <= errors <= trials >= 1"),
        (-1, 10, "errors=-1, trials=10: need 0 <= errors <= trials >= 1"),
        (0, 0, "errors=0, trials=0: need 0 <= errors <= trials >= 1"),
        (2.5, 10, "errors=2.5 must be an integer"),
        (0, 2.5, "trials=2.5 must be an integer"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            wilson_interval(errors, trials)
    assert wilson_interval(np.int64(7), np.uint16(100)) == wilson_interval(7, 100)


def test_wilson_interval_tightens_with_trials():
    lo1, hi1 = wilson_interval(10, 100)
    lo2, hi2 = wilson_interval(100, 1000)
    assert hi2 - lo2 < hi1 - lo1


# ---- closed-form estimate ----


def test_fer_estimate_example_at_unit_sigma():
    # R = 1/2 at 0 dB gives sigma = 1 exactly
    assert design_sigma(0.0, 0.5) == pytest.approx(1.0, rel=1e-12)
    est = fer_estimate(SPEC8, 0.0, "EXACT")
    assert est.d_m == 4
    assert est.a_dm == 14
    assert est.value == pytest.approx(14 * q_reference(2.0), rel=1e-9)
    assert est.value == pytest.approx(0.3185, abs=5e-4)
    with pytest.raises(ValueError, match="source must be EXACT or BOUND, got 'GUESS'"):
        fer_estimate(SPEC8, 0.0, "GUESS")


def test_fer_estimate_vanishes_at_high_snr():
    est = fer_estimate(SPEC8, 40.0, "EXACT")
    assert 0.0 <= est.value < 1e-12


def test_fer_estimate_bound_source_never_below_exact():
    for spec in random_specs(15, (8, 16, 32), seed=41, max_K=10):
        exact = fer_estimate(spec, 1.0, "EXACT")
        bound = fer_estimate(spec, 1.0, "BOUND")
        assert bound.value >= exact.value
        assert exact.a_dm == exhaustive_mhw(spec).count
        assert exact.value <= exact.a_dm / 2


# ---- simulation ----


def test_simulation_is_reproducible():
    spec = construct_pw(32, 16)
    a = simulate_fer(spec, 2.0, L=2, trials=3000, seed=5)
    b = simulate_fer(spec, 2.0, L=2, trials=3000, seed=5)
    assert a == b
    c = simulate_fer(spec, 2.0, L=2, trials=3000, seed=6)
    assert c != a


def test_simulation_thread_count_invariance(monkeypatch):
    monkeypatch.setattr(channel, "_CHUNK_FRAMES", 512)
    spec = construct_pw(32, 16)
    lone = simulate_fer(spec, 1.5, L=2, trials=6000, seed=7, threads=1, error_limit=40)
    many = simulate_fer(spec, 1.5, L=2, trials=6000, seed=7, threads=4, error_limit=40)
    assert lone == many
    assert lone.stopped_early


def test_sweep_equals_its_points_run_one_at_a_time(monkeypatch):
    # a sweep decodes the chunks of all its points together, a wave of
    # `threads` chunks per running point packed whole into engine calls of at
    # most 1,024 frames; each point must still equal simulate_fer on its own
    # stream, at every thread count, with and without an early stop
    spec = construct_pw(32, 16)
    calls = []
    decode = channel.scl_decode_batch

    def counted(llrs, *args):
        calls.append(len(llrs))
        return decode(llrs, *args)

    monkeypatch.setattr(channel, "scl_decode_batch", counted)
    cases = [((0.0, 3.0, 5.0), 2500, 40), ((0.0, 2.0, 4.0), 2500, None), ((1.0, 2.0, 3.0), 500, 60)]
    for grid, trials, limit in cases:
        alone = [
            simulate_fer(spec, db, L=2, trials=trials, seed=5 + 7919 * idx, error_limit=limit)
            for idx, db in enumerate(grid)
        ]
        for threads in (1, 2, 3):
            calls.clear()
            swept = sweep_fer(spec, grid, L=2, trials=trials, seed=5, threads=threads, error_limit=limit)
            assert swept == alone
            assert max(calls) <= 1024
            if trials == 500:
                assert sorted(calls) == [500, 1000]  # two points share one call
        if limit == 40:
            # the first point stops at its first chunk, the second runs on and
            # stops at its second, the third runs all 2,500 trials
            stops = [(p.trials, p.stopped_early) for p in alone]
            assert stops == [(1024, True), (2048, True), (2500, False)]


def test_simulation_sees_no_errors_without_noise():
    spec = construct_pw(16, 8)
    pt = simulate_fer(spec, 25.0, L=1, trials=500, seed=8)
    assert pt.frame_errors == 0
    assert pt.fer == 0.0
    assert not pt.stopped_early


def test_simulation_refuses_overflowing_llrs_before_drawing_noise(monkeypatch):
    def drawn(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(channel, "_chunk_llrs", drawn)
    cases = [(db, "the decoder's LLR sums overflow") for db in (3070.0, 3080.0)]
    cases += [(db, "no positive finite noise std") for db in (1e308, -1e308, math.inf, math.nan)]
    for db, why in cases:
        with pytest.raises(ValueError, match=re.escape(f"Eb/N0 {db:g} dB out of range: {why}")):
            simulate_fer(SPEC8, db, L=2, trials=8)
    # a sweep checks every point before it draws the noise of any
    with pytest.raises(ValueError, match="Eb/N0 3070 dB out of range"):
        sweep_fer(SPEC8, [2.0, 3070.0], L=2, trials=8)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"threads": -1}, "threads=-1 must be >= 1"),
        ({"threads": 0}, "threads=0 must be >= 1"),
        ({"threads": 1.5}, "threads=1.5 must be an integer"),
        ({"trials": 0}, "trials=0 must be >= 1"),
        ({"seed": -1}, "seed=-1 must be >= 0"),
        ({"L": 0}, "list size L=0 must be >= 1"),
        ({"L": 2.5}, "list size L=2.5 must be an integer"),
        ({"L": 3.9}, "list size L=3.9 must be an integer"),
        ({"error_limit": 0}, "error_limit=0 must be >= 1"),
        ({"error_limit": -1}, "error_limit=-1 must be >= 1"),
        # once run as range(10.5), or truncated: seed=1.5 drew seed 1's noise
        ({"trials": 10.5}, "trials=10.5 must be an integer"),
        ({"seed": 1.5}, "seed=1.5 must be an integer"),
        ({"error_limit": 2.5}, "error_limit=2.5 must be an integer"),
    ],
    ids=[
        "threads=-1", "threads=0", "threads=1.5", "trials=0", "seed=-1", "L=0", "L=2.5", "L=3.9",
        "error_limit=0", "error_limit=-1", "trials=10.5", "seed=1.5", "error_limit=2.5",
    ],
)
def test_simulation_refuses_bad_counts_before_drawing_noise(monkeypatch, kwargs, message):
    def drawn(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(channel, "_chunk_llrs", drawn)
    args = {"L": 2, "trials": 10, **kwargs}
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate_fer(construct_pw(8, 4), 1.0, **args)
    with pytest.raises(ValueError, match=f"^{message}$"):
        sweep_fer(construct_pw(8, 4), [1.0, 2.0], **args)


def test_simulation_takes_numpy_integer_counts():
    spec = construct_pw(32, 16)
    want = simulate_fer(spec, 2.0, L=2, trials=600, seed=3, threads=2)
    for L, threads in ((np.int64(2), np.int32(2)), (np.uint8(2), np.int64(2))):
        assert simulate_fer(spec, 2.0, L=L, trials=600, seed=3, threads=threads) == want


def test_simulation_refuses_seeds_past_64_bits_before_drawing_noise(monkeypatch):
    # point idx draws from seed + 7919 * idx, one 64-bit word of the Philox key
    top = (1 << 64) - 1
    with monkeypatch.context() as m:
        m.setattr(channel, "_chunk_llrs", lambda *args: pytest.fail("noise drawn"))
        for seed, grid in ((top + 1, [2.0]), (top, [2.0, 3.0]), (top - 7918, [2.0, 3.0])):
            with pytest.raises(ValueError, match=f"^seed {seed} too large: "):
                sweep_fer(SPEC8, grid, L=2, trials=8, seed=seed)
    # the largest seeds that fit draw without a warning (pytest turns one into an error)
    for seed, grid in ((top, [2.0]), (top - 7919, [2.0, 3.0])):
        assert [p.trials for p in sweep_fer(SPEC8, grid, L=2, trials=8, seed=seed)] == [8] * len(grid)


def test_sweep_does_its_seed_arithmetic_on_python_ints(monkeypatch):
    # a numpy seed once did seed + 7919 * idx in its own width: uint8 raised
    # OverflowError, and the largest uint64 wrapped past the too-large check
    spec = construct_pw(8, 4)
    want = sweep_fer(spec, [1.0, 2.0], 2, 8, seed=3)
    assert sweep_fer(spec, [1.0, 2.0], 2, 8, seed=np.uint8(3)) == want
    monkeypatch.setattr(channel, "_chunk_llrs", lambda *args: pytest.fail("noise drawn"))
    with pytest.raises(ValueError, match=f"^seed {2**64 - 1} too large: "):
        sweep_fer(spec, [1.0, 2.0], 2, 8, seed=np.uint64(2**64 - 1))


def test_sweep_plans_its_chunks_in_memory_independent_of_trials(monkeypatch):
    # every frame an error, so one chunk stops each point; a plan that lists
    # every chunk would hold about 8 MB at 10**9 trials
    monkeypatch.setattr(channel, "_batch_errors", lambda *args: [c[3] for c in args[-1]])
    tracemalloc.start()
    try:
        points = sweep_fer(SPEC8, [1.0, 2.0], L=1, trials=10**9, error_limit=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(p.trials, p.frame_errors, p.stopped_early) for p in points] == [(1024, 1024, True)] * 2
    assert peak < 1 << 20


def test_early_stop_counts_whole_chunks(monkeypatch):
    monkeypatch.setattr(channel, "_CHUNK_FRAMES", 256)
    spec = construct_pw(32, 16)
    pt = simulate_fer(spec, 0.0, L=1, trials=10000, seed=9, error_limit=20)
    assert pt.stopped_early
    assert pt.trials % 256 == 0
    assert pt.frame_errors >= 20
    assert pt.ci_lo <= pt.fer <= pt.ci_hi


def test_larger_lists_do_not_hurt():
    spec = construct_pw(32, 16)
    wide = simulate_fer(spec, 2.0, L=8, trials=4000, seed=10, error_limit=None)
    narrow = simulate_fer(spec, 2.0, L=1, trials=4000, seed=10, error_limit=None)
    assert wide.fer <= narrow.fer


def test_fer_decreases_with_snr():
    spec = construct_pw(32, 16)
    points = sweep_fer(spec, (0.0, 2.0, 4.0), L=2, trials=4000, seed=11,
                       error_limit=None)
    for prev, nxt in zip(points, points[1:]):
        assert nxt.fer <= prev.ci_hi


def test_all_zero_and_random_message_runs_agree_statistically():
    spec = construct_pw(32, 16)
    zero = simulate_fer(spec, 1.0, L=2, trials=6000, seed=12, error_limit=None)
    rand = simulate_fer(spec, 1.0, L=2, trials=6000, seed=13, error_limit=None,
                        random_messages=True)
    p = (zero.frame_errors + rand.frame_errors) / (zero.trials + rand.trials)
    se = math.sqrt(p * (1 - p) * (1 / zero.trials + 1 / rand.trials))
    z = (zero.fer - rand.fer) / se
    assert abs(z) < 3.5


# ---- CSV interface ----


def test_fer_csv_output(tmp_path):
    spec = construct_pw(16, 8)
    points = sweep_fer(spec, (1.0, 3.0), L=2, trials=800, seed=14)
    path = tmp_path / "fer.csv"
    write_fer_csv(path, spec, points)
    lines = path.read_text().splitlines()
    assert lines[0] == "ebn0_db,trials,errors,fer,ci_lo,ci_hi,estimate_exact,estimate_bound"
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == 8

    again = tmp_path / "fer2.csv"
    write_fer_csv(again, spec, points)
    assert path.read_bytes() == again.read_bytes()
