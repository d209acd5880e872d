import math
import re

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


def test_fer_estimate_accepts_explicit_count():
    est = fer_estimate(SPEC8, 0.0, "BOUND", a_dm=99)
    assert est.a_dm == 99
    with pytest.raises(ValueError):
        fer_estimate(SPEC8, 0.0, "GUESS")


# ---- simulation ----


def test_simulation_is_reproducible():
    spec = construct_pw(32, 16)
    a = simulate_fer(spec, 2.0, L=2, trials=3000, seed=5)
    b = simulate_fer(spec, 2.0, L=2, trials=3000, seed=5)
    assert a == b
    c = simulate_fer(spec, 2.0, L=2, trials=3000, seed=6)
    assert c != a


def test_simulation_thread_count_invariance():
    spec = construct_pw(32, 16)
    lone = simulate_fer(spec, 1.5, L=2, trials=6000, seed=7, threads=1,
                        error_limit=40, chunk_frames=512)
    many = simulate_fer(spec, 1.5, L=2, trials=6000, seed=7, threads=4,
                        error_limit=40, chunk_frames=512)
    assert lone == many
    assert lone.stopped_early


def test_simulation_sees_no_errors_without_noise():
    spec = construct_pw(16, 8)
    pt = simulate_fer(spec, 25.0, L=1, trials=500, seed=8)
    assert pt.frame_errors == 0
    assert pt.fer == 0.0
    assert not pt.stopped_early


def test_simulation_refuses_overflowing_llrs_before_drawing_noise(monkeypatch):
    def drawn(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(channel, "_chunk_errors", drawn)
    cases = [(db, "the decoder's LLR sums overflow") for db in (3070.0, 3080.0)]
    cases += [(db, "no positive finite noise std") for db in (1e308, -1e308, math.inf, math.nan)]
    for db, why in cases:
        with pytest.raises(ValueError, match=re.escape(f"Eb/N0 {db:g} dB out of range: {why}")):
            simulate_fer(SPEC8, db, L=2, trials=8)


def test_early_stop_counts_whole_chunks():
    spec = construct_pw(32, 16)
    pt = simulate_fer(spec, 0.0, L=1, trials=10000, seed=9,
                      error_limit=20, chunk_frames=256)
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
