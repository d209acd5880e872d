"""AWGN frame-error simulation and the minimum-weight FER estimate.

The estimate multiplies the number of minimum-weight codewords by the
pairwise error probability of one such codeword against the transmitted one,
Q(sqrt(d_m)/sigma).  At high SNR this union-bound term dominates and tracks
the measured SCL performance closely.

Simulation transmits the all-zero codeword by default (the code is linear
and the channel symmetric; a random-message mode exists to spot-check that
claim), decodes with the batched float SCL engine, and counts a frame error
whenever the best path disagrees with the transmitted message on any
information position.  Noise is drawn from counter-based Philox streams
keyed by (seed, chunk index), so results are reproducible bit for bit under
any worker count: the early-stop rule is evaluated on cumulative counts in
chunk-index order, never in completion order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from polarmhw.bitops import encode_rows, min_distance
from polarmhw.bound import bound_count
from polarmhw.construction import design_sigma
from polarmhw.listdec import scl_decode_batch
from polarmhw.mhw import enumerate_zero_split

__all__ = [
    "FerPoint",
    "FerEstimate",
    "q_function",
    "wilson_interval",
    "fer_estimate",
    "simulate_fer",
    "sweep_fer",
    "render_fer_csv",
]

_CHUNK_FRAMES = 1024


@dataclass(frozen=True)
class FerPoint:
    ebn0_db: float
    trials: int
    frame_errors: int
    fer: float
    ci_lo: float
    ci_hi: float
    stopped_early: bool


@dataclass(frozen=True)
class FerEstimate:
    d_m: int
    a_dm: int
    value: float
    source: str


def q_function(x: float) -> float:
    """Standard normal tail probability P(Z > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def wilson_interval(errors: int, trials: int):
    """95% Wilson score interval for a binomial proportion; brackets errors/trials."""
    z = 1.959963984540054  # two-sided 95% normal quantile
    if trials < 1:
        raise ValueError("need at least one trial")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def fer_estimate(spec, ebn0_db: float, source: str = "EXACT", a_dm: int | None = None) -> FerEstimate:
    """Minimum-weight term of the union bound at the given operating point.

    source EXACT counts codewords with the zero-split enumerator; BOUND uses
    the zero-capacity counting bound (never smaller, so never optimistic).
    An explicit a_dm skips the counting work entirely.
    """
    if source not in ("EXACT", "BOUND"):
        raise ValueError(f"source must be EXACT or BOUND, got {source!r}")
    d_m = min_distance(spec)[0]
    if a_dm is None:
        if source == "EXACT":
            a_dm = enumerate_zero_split(spec).count
        else:
            a_dm = bound_count(spec, materialize_sets=False).total
    sigma = design_sigma(ebn0_db, spec.K / spec.N)
    value = a_dm * q_function(math.sqrt(d_m) / sigma)
    return FerEstimate(d_m, a_dm, value, source)


# ---- Monte-Carlo simulation ----


def _chunk_errors(spec, sigma, L, seed, chunk, frames, random_messages):
    """Frame errors in one chunk, from its own counter-based stream."""
    rng = np.random.Generator(np.random.Philox(key=[seed, chunk]))
    N = spec.N
    info = spec.info_mask
    if random_messages:
        u = np.zeros((frames, N), dtype=np.uint8)
        u[:, info] = rng.integers(0, 2, size=(frames, spec.K), dtype=np.uint8)
        c = encode_rows(u)
    else:
        u = np.zeros((frames, N), dtype=np.uint8)
        c = u
    symbols = 1.0 - 2.0 * c.astype(np.float64)
    y = symbols + sigma * rng.normal(size=(frames, N))
    llrs = 2.0 * y / (sigma * sigma)
    decided = scl_decode_batch(llrs, spec, L)
    wrong = decided[:, info] != u[:, info]
    return int(np.count_nonzero(wrong.any(axis=1)))


def simulate_fer(
    spec,
    ebn0_db: float,
    L: int,
    trials: int,
    seed: int = 0,
    threads: int = 1,
    error_limit: int | None = 100,
    random_messages: bool = False,
    chunk_frames: int = _CHUNK_FRAMES,
) -> FerPoint:
    """Monte-Carlo frame error rate at one operating point.

    Stops at the first chunk boundary where cumulative errors reach
    error_limit, or after `trials` frames, whichever comes first.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if chunk_frames < 1:
        raise ValueError("chunk_frames must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    sigma = design_sigma(ebn0_db, spec.K / spec.N)
    # a path metric sums at most N leaf LLRs, each a sum of at most N channel
    # LLRs of magnitude about 2/sigma^2: refuse the point before any overflows
    if 4.0 * spec.N * spec.N / (sigma * sigma) == math.inf:
        raise ValueError(f"Eb/N0 {ebn0_db:g} dB out of range: the decoder's LLR sums overflow")
    sizes = []
    done = 0
    while done < trials:
        take = min(chunk_frames, trials - done)
        sizes.append(take)
        done += take

    def run(chunk):
        return _chunk_errors(spec, sigma, L, seed, chunk, sizes[chunk], random_messages)

    errors = 0
    frames = 0
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        # waves of `threads` chunks, each submitted only once the cumulative
        # counts of the waves before it are below the limit
        waves = (range(s, min(s + threads, len(sizes))) for s in range(0, len(sizes), threads))
        counts = (c for wave in waves for c in zip(wave, (pool.map if pool else map)(run, wave)))
        for chunk, n_err in counts:
            errors += n_err
            frames += sizes[chunk]
            if error_limit is not None and errors >= error_limit:
                break
    lo, hi = wilson_interval(errors, frames)
    return FerPoint(ebn0_db, frames, errors, errors / frames, lo, hi, frames < trials)


def sweep_fer(spec, ebn0_grid, L, trials, seed=0, threads=1, error_limit=100,
              random_messages=False):
    """simulate_fer across a grid, one decorrelated stream per point."""
    points = []
    for idx, db in enumerate(ebn0_grid):
        points.append(
            simulate_fer(
                spec,
                db,
                L,
                trials,
                seed=seed + 7919 * idx,
                threads=threads,
                error_limit=error_limit,
                random_messages=random_messages,
            )
        )
    return points


def render_fer_csv(spec, points, header_lines=()) -> str:
    """CSV text: optional comment lines, a header row, then one row per
    measured point with both closed-form estimates appended; the exact count
    and the bound behind them are derived once, at the first point."""
    rows = [line if line.startswith("#") else f"# {line}" for line in header_lines]
    rows.append("ebn0_db,trials,errors,fer,ci_lo,ci_hi,estimate_exact,estimate_bound")
    exact_count = None
    bound_total = None
    for pt in points:
        if exact_count is None:
            exact_count = enumerate_zero_split(spec).count
            bound_total = bound_count(spec, materialize_sets=False).total
        est_exact = fer_estimate(spec, pt.ebn0_db, "EXACT", a_dm=exact_count).value
        est_bound = fer_estimate(spec, pt.ebn0_db, "BOUND", a_dm=bound_total).value
        rows.append(
            f"{pt.ebn0_db:g},{pt.trials},{pt.frame_errors},{pt.fer:.6e},"
            f"{pt.ci_lo:.6e},{pt.ci_hi:.6e},{est_exact:.6e},{est_bound:.6e}"
        )
    return "\n".join(rows) + "\n"
