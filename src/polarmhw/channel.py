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
from functools import partial

import numpy as np

from polarmhw.bitops import _check_int, encode_rows, min_distance
from polarmhw.bound import bound_count
from polarmhw.construction import _commented, design_sigma
from polarmhw.listdec import scl_decode_batch
from polarmhw.mhw import _exact_count

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
    errors, trials = _check_int("errors", errors), _check_int("trials", trials)
    if not 0 <= errors <= trials >= 1:
        raise ValueError(f"errors={errors}, trials={trials}: need 0 <= errors <= trials >= 1")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _pairwise(spec, ebn0_db):
    """Q(sqrt(d_m) / sigma): the error probability of one minimum-weight
    codeword against the transmitted one."""
    return q_function(math.sqrt(min_distance(spec)[0]) / design_sigma(ebn0_db, spec.R))


def fer_estimate(spec, ebn0_db: float, source: str = "EXACT") -> FerEstimate:
    """Minimum-weight term of the union bound at the given operating point.

    source EXACT counts codewords with the zero-split enumerator; BOUND uses
    the zero-capacity counting bound (never smaller, so never optimistic).
    """
    if source not in ("EXACT", "BOUND"):
        raise ValueError(f"source must be EXACT or BOUND, got {source!r}")
    if source == "EXACT":
        a_dm = _exact_count(spec)
    else:
        a_dm = bound_count(spec, materialize_sets=False).total
    return FerEstimate(min_distance(spec)[0], a_dm, a_dm * _pairwise(spec, ebn0_db), source)


# ---- Monte-Carlo simulation ----


def _chunk_llrs(spec, sigma, seed, chunk, frames, random_messages):
    """The (frames, N) messages and channel LLRs of one chunk, from its own
    counter-based stream."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
    N = spec.N
    u = c = np.zeros((frames, N), dtype=np.uint8)
    if random_messages:
        u[:, spec.info_mask] = rng.integers(0, 2, size=(frames, spec.K), dtype=np.uint8)
        c = encode_rows(u)
    symbols = 1.0 - 2.0 * c.astype(np.float64)
    y = symbols + sigma * rng.normal(size=(frames, N))
    llrs = 2.0 * y / (sigma * sigma)
    return u, llrs


def _batch_errors(spec, L, random_messages, chunks):
    """Frame errors of each chunk of chunks, (sigma, seed, chunk, frames)
    each, decoded in one engine call: the float engine decodes every row on
    its own, so a frame's decision does not depend on the rows beside it."""
    drawn = [_chunk_llrs(spec, *c, random_messages) for c in chunks]
    u, llrs = (np.concatenate(parts) for parts in zip(*drawn))
    del drawn
    info = spec.info_mask
    wrong = (scl_decode_batch(llrs, spec, L)[:, info] != u[:, info]).any(axis=1)
    ends = np.cumsum([c[3] for c in chunks])[:-1]
    return [int(np.count_nonzero(w)) for w in np.split(wrong, ends)]


def simulate_fer(
    spec,
    ebn0_db: float,
    L: int,
    trials: int,
    seed: int = 0,
    threads: int = 1,
    error_limit: int | None = 100,
    random_messages: bool = False,
) -> FerPoint:
    """Monte-Carlo frame error rate at one operating point.

    Stops at the first chunk boundary where cumulative errors reach
    error_limit (None: never), or after `trials` frames, whichever comes first.
    """
    return sweep_fer(spec, [ebn0_db], L, trials, seed, threads, error_limit, random_messages)[0]


def sweep_fer(spec, ebn0_grid, L, trials, seed=0, threads=1, error_limit=100,
              random_messages=False):
    """simulate_fer across a grid: the FerPoint of each Eb/N0, point idx on
    the streams of seed seed + 7919 * idx, a 64-bit Philox key word.  Every
    point is checked before any noise is drawn.

    Wave r takes chunks r * threads ... r * threads + threads - 1 of every
    point still running; its chunks, in grid and then chunk order, are
    packed whole into engine calls of at most _CHUNK_FRAMES frames, which
    share the pool.  Each point then adds its chunks in chunk order and stops
    at the first where its errors reach error_limit, so neither the thread
    count nor the other points move its result.
    """
    # as Python ints: a numpy seed would do the key arithmetic in its own width
    trials, seed = _check_int("trials", trials, 1), _check_int("seed", seed, 0)
    threads, L = _check_int("threads", threads, 1), _check_int("list size L", L, 1)
    if error_limit is not None:
        error_limit = _check_int("error_limit", error_limit, 1)
    grid = list(ebn0_grid)
    if seed + 7919 * (len(grid) - 1) >= 1 << 64:
        raise ValueError(f"seed {seed} too large: seed + 7919 * {len(grid) - 1} passes 2**64 - 1")
    sigmas = []
    for db in grid:
        sigma = design_sigma(db, spec.R)
        # a path metric sums at most N leaf LLRs, each a sum of at most N
        # channel LLRs of magnitude about 2/sigma^2: refuse the point before
        # any noise is drawn
        if 4.0 * spec.N * spec.N / (sigma * sigma) == math.inf:
            raise ValueError(f"Eb/N0 {db:g} dB out of range: the decoder's LLR sums overflow")
        sigmas.append(sigma)
    chunks = -(-trials // _CHUNK_FRAMES)
    errors, frames = [0] * len(grid), [0] * len(grid)
    running = list(range(len(grid)))
    run = partial(_batch_errors, spec, L, random_messages)
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        for first in range(0, chunks, threads):
            wave = range(first, min(first + threads, chunks))
            sizes = [min(_CHUNK_FRAMES, trials - chunk * _CHUNK_FRAMES) for chunk in wave]
            batches, room = [], 0
            for idx in running:
                for chunk, size in zip(wave, sizes):
                    if size > room:
                        batches.append([])
                        room = _CHUNK_FRAMES
                    batches[-1].append((sigmas[idx], seed + 7919 * idx, chunk, size))
                    room -= size
            found = [n for counts in (pool.map if pool else map)(run, batches) for n in counts]
            still = []
            for k, idx in enumerate(running):
                for size, n_err in zip(sizes, found[k * len(wave) :]):
                    errors[idx] += n_err
                    frames[idx] += size
                    if error_limit is not None and errors[idx] >= error_limit:
                        break
                else:
                    still.append(idx)
            running = still
            if not running:
                break
    return [
        FerPoint(float(db), n, e, e / n, *wilson_interval(e, n), n < trials)
        for db, e, n in zip(grid, errors, frames)
    ]


def render_fer_csv(spec, points, header_lines=()) -> str:
    """CSV text: _commented header lines, a header row, then one row per
    measured point with both closed-form estimates appended; the exact count
    and the bound behind them are derived once, when there are points."""
    header = "ebn0_db,trials,errors,fer,ci_lo,ci_hi,estimate_exact,estimate_bound"
    rows = _commented(header_lines, header)
    if points:
        exact_count = _exact_count(spec)
        bound_total = bound_count(spec, materialize_sets=False).total
    for pt in points:
        pair = _pairwise(spec, pt.ebn0_db)
        est_exact, est_bound = exact_count * pair, bound_total * pair
        rows.append(
            f"{pt.ebn0_db:g},{pt.trials},{pt.frame_errors},{pt.fer:.6e},"
            f"{pt.ci_lo:.6e},{pt.ci_hi:.6e},{est_exact:.6e},{est_bound:.6e}"
        )
    return "\n".join(rows) + "\n"
