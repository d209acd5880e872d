"""Code specifications and reliability-based information-set construction.

Two constructions are provided:

* Polarization weight (PW): channel i scores sum(digit_j(i-1) * beta**(j-1))
  with beta = 2**(1/4), digits LSB-first.  Purely combinatorial, SNR-free.
* Gaussian approximation (GA): density evolution collapsed to a single mean
  per channel.  The decoder-side LLR of every channel is modeled as Gaussian
  with variance twice its mean; propagating means through the polar transform
  needs one function phi(m) (the expected value of tanh(L/2) shortfall) and
  its inverse.  The standard two-segment fit is used:

      ln phi(m) = -0.4527 m^0.86 + 0.0218                      for m < 10
      ln phi(m) = ln sqrt(pi/m) - m/4 + ln(1 - 10/(7m))        for m >= 10

  A check combine maps phi -> phi*(2 - phi); working on ln phi keeps the
  arithmetic stable far into the saturated regime (phi underflows to zero,
  ln phi stays finite).  A variable combine doubles the mean.  Channels with
  larger mean are more reliable.

Design-noise convention: construct_ga maps its design Eb/N0 through a fixed
design rate of 1/2, sigma^2 = 1/(2 * rate * 10^(EbN0/10)).  Keeping
sigma independent of K makes the ranking a single permutation per (N, design
point), so information sets are nested in K.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from polarmhw.bitops import _check_int, _check_length

__all__ = [
    "CodeSpec",
    "ReliabilityOrder",
    "SpecFormatError",
    "polarization_weight_order",
    "gaussian_approx_order",
    "construct_pw",
    "construct_ga",
    "design_sigma",
    "load_spec",
    "save_spec",
]

PW_BETA = 2.0 ** 0.25

# boundary value of ln phi at m = 10, where the two fit segments meet
_LN_PHI_SPLIT = -0.4527 * 10.0 ** 0.86 + 0.0218


def _zeros(N: int, dtype=float) -> np.ndarray:
    """np.zeros(N, dtype), the one full-length allocation of a spec's mask or
    a code's scores.  An N numpy cannot address is a MemoryError, as one the
    host cannot hold is, so the CLI refuses both alike."""
    try:
        return np.zeros(N, dtype)
    except ValueError as exc:  # "array is too big", "Maximum allowed dimension exceeded"
        raise MemoryError(f"cannot allocate {N} entries: {exc}") from None


# ---- code specification ----


class CodeSpec:
    """A polar code: length N = 2^n, information set A, construction label.

    The information set is stored once, as info_mask: a read-only boolean
    array over the 0-based positions.  A, the ascending tuple of 1-based
    Python ints, is derived from the mask the first time something reads it
    and kept; the bound, the sweep and min_distance read only the mask.  A
    spec is immutable, and two specs are equal iff N, the information set
    and the label are.
    """

    def __init__(self, N: int, A, construction: str = "EXPLICIT"):
        N, _ = _check_length(N)
        if not len(A):
            raise ValueError("information set is empty")
        try:
            A = [_check_int("A", a) for a in A]
        except ValueError:  # the integer rule, in the spec's own words
            raise ValueError("information set positions must be integers") from None
        try:
            rows = np.fromiter(A, np.int64, len(A))
            inside = rows.min() >= 1 and rows.max() <= N
        except OverflowError:  # outside int64, so outside [1, N] too
            inside = False
        # checked before the write: a row of 0 would wrap to the last position
        if not inside:
            raise ValueError(f"information set not within [1, {N}]")
        mask = _zeros(N, bool)
        mask[rows - 1] = True
        if np.count_nonzero(mask) != len(A):
            raise ValueError("information set has duplicate positions")
        self._set(N, mask, construction)

    @classmethod
    def _from_mask(cls, N: int, mask: np.ndarray, construction: str) -> CodeSpec:
        """The spec of a boolean mask already known to be a nonempty
        information set of length N, which the spec takes over unchecked."""
        spec = cls.__new__(cls)
        spec._set(N, mask, construction)
        return spec

    def _set(self, N, mask, construction):
        mask.flags.writeable = False
        vars(self).update(N=N, info_mask=mask, construction=construction)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable CodeSpec")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.N, self.construction) == (other.N, other.construction) and np.array_equal(
            self.info_mask, other.info_mask
        )

    def __hash__(self):
        return hash((self.N, self.A, self.construction))

    def __repr__(self):
        return f"CodeSpec(N={self.N!r}, A={self.A!r}, construction={self.construction!r})"

    @cached_property
    def A(self) -> tuple[int, ...]:
        return tuple((np.flatnonzero(self.info_mask) + 1).tolist())

    @property
    def n(self) -> int:
        return self.N.bit_length() - 1

    @cached_property
    def K(self) -> int:
        return int(np.count_nonzero(self.info_mask))

    @property
    def R(self) -> float:
        return self.K / self.N

    def is_info(self, position: int) -> bool:
        return 1 <= position <= self.N and bool(self.info_mask[position - 1])

    @cached_property
    def _min_distance_pair(self) -> tuple[int, tuple[int, ...]]:
        """min_distance(self), computed once per spec: a row's weight is
        2**popcount(row - 1)."""
        rows = np.flatnonzero(self.info_mask)
        weights = np.bitwise_count(rows)
        best = int(weights.min())
        return 1 << best, tuple((rows[weights == best] + 1).tolist())

    @cached_property
    def _sc_steps(self) -> tuple[tuple[int, int], ...]:
        """The list engine's SC schedule, computed once per spec: the (first
        leaf, s) pairs of _node_steps from leaf 0 with rate-0 nodes only."""
        return tuple((phi, s) for phi, s, _ in _node_steps(self.info_mask, 0, (), (RATE0,)))


# kinds of SC tree node: every leaf frozen; every leaf frozen but the last,
# which is information (a repetition node); every leaf information
RATE0, REP, RATE1 = range(3)


def _node_steps(info_mask, first, triggers, kinds):
    """The SC schedule from leaf `first` on, in leaf order: (first leaf, s,
    kind) per node of 2**s leaves, the largest aligned node at its first
    leaf whose kind is in `kinds`, RATE0, REP or RATE1, the last two holding
    none of the 1-based positions `triggers`.  Any other step is a single
    leaf: REP if it is an information leaf, RATE0 if not."""
    N = len(info_mask)
    # info[q] sums the weights before leaf q: 1 per information leaf and
    # N + 1 per trigger, so a node holding a trigger is none of the kinds
    weight = info_mask.astype(np.intp)
    weight[[i - 1 for i in triggers]] = N + 1
    info = np.concatenate([[0], np.cumsum(weight)]).tolist()
    steps, phi = [], first
    while phi < N:
        s = (phi & -phi).bit_length() - 1 if phi else N.bit_length() - 1
        while s:
            end = phi + (1 << s)
            ones = info[end] - info[phi]
            last = ones == 1 == info[end] - info[end - 1]
            kind = RATE0 if not ones else RATE1 if ones == 1 << s else REP if last else None
            if kind in kinds:
                break
            s -= 1
        else:
            kind = REP if info[phi + 1] > info[phi] else RATE0
        steps.append((phi, s, kind))
        phi += 1 << s
    return steps


@dataclass(frozen=True, eq=False)
class ReliabilityOrder:
    """Permutation of [1, N], most reliable channel first, plus raw scores:
    read-only arrays, the ranking 1-based int64 and the scores float64."""

    ranking: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.ranking.flags.writeable = False
        self.scores.flags.writeable = False


def _rank(scores: np.ndarray) -> ReliabilityOrder:
    # descending score, ascending index on ties
    return ReliabilityOrder(np.argsort(-scores, kind="stable") + 1, scores)


# ---- polarization weight ----


def polarization_weight_order(N: int) -> ReliabilityOrder:
    return _rank(_pw_scores(N))


def _pw_scores(N: int) -> np.ndarray:
    N, n = _check_length(N)
    # channels 2**j + 1 .. 2**(j+1) repeat the scores before them plus beta**j;
    # each score sums its powers in ascending digit order
    scores = _zeros(N)
    for j in range(n):
        scores[1 << j : 2 << j] = scores[: 1 << j] + PW_BETA ** j
    return scores


def _top(scores: np.ndarray, K: int) -> np.ndarray:
    """The mask of the first K positions of _rank(scores), found by selection
    instead of a full sort: every key below the K-th smallest, then as many
    of its ties as fit, lowest index first."""
    key = -scores
    key[np.isnan(key)] = np.inf  # a NaN score sorts last; no score is -inf
    kth = np.partition(key, K - 1)[K - 1]
    mask = key < kth
    mask[np.flatnonzero(key == kth)[: K - np.count_nonzero(mask)]] = True
    return mask


def _label(design_ebn0_db) -> str:
    return "PW" if design_ebn0_db is None else f"GA({design_ebn0_db:g}dB)"


def _codes(N: int, design_ebn0_db=None):
    """K -> the code of length N that construct_pw (design_ebn0_db None) or
    construct_ga builds, all K read off one reliability order; its `rows`
    attribute holds that order's 0-based rows, most reliable first."""
    if design_ebn0_db is None:
        order = polarization_weight_order(N)
    else:
        order = gaussian_approx_order(N, design_sigma(design_ebn0_db, 0.5))
    rows, label = order.ranking - 1, _label(design_ebn0_db)

    def code(K: int) -> CodeSpec:
        # the first K rows of a permutation of [0, N): distinct and in range
        mask = np.zeros(N, dtype=bool)
        mask[rows[: _check_int("K", K, 1, N)]] = True
        return CodeSpec._from_mask(N, mask, label)

    code.rows = rows
    return code


def _code(N: int, K: int, design_ebn0_db) -> CodeSpec:
    """_codes(N, design_ebn0_db)(K), without sorting the N scores."""
    if design_ebn0_db is None:
        scores = _pw_scores(N)
    else:
        scores = _ga_means(N, design_sigma(design_ebn0_db, 0.5))
    mask = _top(scores, _check_int("K", K, 1, len(scores)))
    return CodeSpec._from_mask(len(scores), mask, _label(design_ebn0_db))


def construct_pw(N: int, K: int) -> CodeSpec:
    return _code(N, K, None)


# ---- gaussian approximation ----


def _ln_phi(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    small = m < 10.0
    ms = m[small]
    out[small] = -0.4527 * ms ** 0.86 + 0.0218
    ml = m[~small]
    out[~small] = 0.5 * np.log(np.pi / ml) - ml / 4.0 + np.log1p(-10.0 / (7.0 * ml))
    return out


def _inv_ln_phi(target: np.ndarray) -> np.ndarray:
    """Solve ln phi(m) = target for m > 0."""
    m = np.empty_like(target)
    closed = target >= _LN_PHI_SPLIT
    m[closed] = ((0.0218 - target[closed]) / 0.4527) ** (1.0 / 0.86)
    t = target[~closed]
    if t.size:
        # Newton on the large-m segment; ln phi ~ -m/4 there, so -4*target
        # is already close and the iteration converges in a handful of steps
        x = -4.0 * t
        for _ in range(100):
            f = 0.5 * np.log(np.pi / x) - x / 4.0 + np.log1p(-10.0 / (7.0 * x)) - t
            fp = -0.5 / x - 0.25 + (10.0 / (7.0 * x * x)) / (1.0 - 10.0 / (7.0 * x))
            step = f / fp
            x = x - step
            if np.max(np.abs(step)) < 1e-12:
                break
        m[~closed] = x
    return m


def _check_combine(m: np.ndarray) -> np.ndarray:
    ln_phi = _ln_phi(m)
    phi = np.exp(ln_phi)  # underflows to 0 when m is large; that is fine
    return _inv_ln_phi(ln_phi + np.log(2.0 - phi))


def gaussian_approx_order(N: int, sigma: float) -> ReliabilityOrder:
    return _rank(_ga_means(N, sigma))


def _ga_means(N: int, sigma: float) -> np.ndarray:
    N, n = _check_length(N)
    if not sigma > 0:
        raise ValueError(f"noise std sigma={sigma} must be positive")
    # Shared-prefix recursion: one stage at a time, all in one array.  Child
    # order (check, double) makes the final index i-1 read its digits
    # MSB-first, which is exactly the natural channel order.
    means = _zeros(N)
    means[0] = 2.0 / (sigma * sigma)
    for j in range(n):
        stage = means[: 1 << j]
        check, double = _check_combine(stage), 2.0 * stage
        means[0 : 2 << j : 2] = check
        means[1 : 2 << j : 2] = double
    return means


def design_sigma(ebn0_db: float, rate: float) -> float:
    if not 0 < rate <= 1:
        raise ValueError(f"rate {rate} out of (0, 1]")
    try:
        sigma = math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        sigma = 0.0
    if not 0 < sigma < math.inf:
        raise ValueError(f"Eb/N0 {ebn0_db:g} dB out of range: no positive finite noise std")
    return sigma


def construct_ga(N: int, K: int, design_ebn0_db: float) -> CodeSpec:
    """The K most reliable channels by Gaussian approximation, designed at
    design_ebn0_db for rate 1/2 whatever K is."""
    return _code(N, K, design_ebn0_db)


# ---- spec files ----


class SpecFormatError(ValueError):
    """Raised for malformed or inconsistent code-spec files."""


_MAGIC = "polarmhw-spec 1"


def _spec_lines(spec) -> list[str]:
    """The field lines, without newlines, that save_spec writes for spec."""
    A = " ".join(map(str, spec.A))
    return [f"N = {spec.N}", f"construction = {spec.construction}", f"A = {A}"]


def _commented(header_lines, *lines) -> list[str]:
    """header_lines as comments, then lines, each checked to be one printable
    line: a writer's text after its magic line."""
    lines = [*(line if line[:1] == "#" else f"# {line}" for line in header_lines), *lines]
    if bad := [line for line in lines if not line.isprintable()]:
        raise ValueError(f"{bad[0]!r} is not one printable line")
    return lines


def save_spec(spec: CodeSpec, path, header_lines=()) -> None:
    """Write the magic line, then _commented with _spec_lines.  A header line
    or a label that is not printable (a line break is not) raises ValueError
    before the file is opened."""
    lines = [_MAGIC, *_commented(header_lines, *_spec_lines(spec))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def load_spec(path) -> CodeSpec:
    """Read a spec file by re-writing it.  The contract: the magic line, then
    comment lines, then the N, construction and A lines, each exactly as
    _spec_lines writes them for the spec they hold; every line is printable
    UTF-8 ended by '\\n', and nothing follows the last.  Every error is a
    SpecFormatError naming the path and the line."""
    # a byte that is not UTF-8 reads as a surrogate, which is not printable
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        lines = fh.readlines()
    if lines[:1] != [_MAGIC + "\n"]:
        raise SpecFormatError(f"{path}: line 1: expected {_MAGIC!r}")
    try:
        head = next((j for j in range(1, len(lines)) if lines[j][:1] != "#"), len(lines))
        fields = []
        for k, prefix in enumerate(("N = ", "construction = ", "A = "), head):
            if k >= len(lines) or not lines[k].startswith(prefix):
                raise ValueError(f"expected a line starting {prefix!r}")
            fields.append(lines[k][len(prefix) :].removesuffix("\n"))
            if k == head:
                _check_length(N := int(fields[0]))
        spec = CodeSpec(N, [int(a) for a in fields[2].split()], fields[1])
        want = lines[:head] + [line + "\n" for line in _spec_lines(spec)]
        for k, (line, need) in enumerate(itertools.zip_longest(lines, want, fillvalue="")):
            if not line[:-1].isprintable():
                raise ValueError(f"{line!r} is not one printable line")
            if line != need:
                raise ValueError(f"read {line!r} where the writer writes {need!r}")
    except ValueError as exc:  # ours, int()'s or CodeSpec's
        raise SpecFormatError(f"{path}: line {k + 1}: {exc}") from None
    return spec
