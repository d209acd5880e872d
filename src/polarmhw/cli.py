"""Command-line front end.

Subcommands: construct (build and save a code spec), bound (minimum-weight
codeword counting bound), enumerate (list the minimum-weight codewords),
verify (run the property checks on a given code, every SC path read off one
listdec._replay call, none off sctree's scalar tree), simulate (AWGN frame
error rates), sweep (bound across a rate grid).

Every command prints a version line and a full parameter echo, and produces
byte-identical output for identical inputs.  Exit codes: 0 success, 2 input
error, 3 capability refusal, 4 property failure.
"""

from __future__ import annotations

import argparse
import collections
import functools
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bitops import _check_length, _first_ones, _unpack, encode_rows
from .bound import (
    _prefix_bounds,
    bound_count,
    decompose,
    subtree_input_llr,
    zero_capacity_set,
)
from .channel import render_fer_csv, sweep_fer
from .construction import CodeSpec, _codes, construct_ga, construct_pw, load_spec, save_spec
from .listdec import _charged, _replay
from .mhw import (
    EXHAUSTIVE_CAP,
    ExhaustiveCapError,
    _exact_count,
    enumerate_subset_scl,
    enumerate_zero_split,
    exhaustive_mhw,
    scl_global_search,
    write_enumeration,
    zero_split_triggers,
)

__all__ = ["main", "UsageError"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_PROPERTY = 4

_DEFAULT_DESIGN_EBN0 = 2.0

# --method's choices, in the order in which --check runs them (the
# exhaustive oracle only up to its cap), each with its call on (spec,
# threads, --list-size); a scl-global list of the bound + 1 misses nothing
_METHODS = {
    "exhaustive": lambda spec, threads, L: exhaustive_mhw(spec),
    "subset-scl": lambda spec, threads, L: enumerate_subset_scl(spec, threads=threads),
    "zero-split": lambda spec, threads, L: enumerate_zero_split(spec),
    "scl-global": lambda spec, threads, L: scl_global_search(
        spec, L or bound_count(spec, materialize_sets=False).total + 1
    ),
}

_BOUND_HEADER = "trigger,overlap,term"
_SWEEP_HEADER = "R,K,d_m,bound,exact"


class UsageError(ValueError):
    """Conflicting flags or an unparseable flag value."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes a word starting with '-' and then a
    digit, '.', 'inf' or 'nan' (-1e3, -inf, -1:2:0.5) as a flag's value, not
    as an option: argparse's own pattern knows only -2 and -0.5.  It raises
    its errors as UsageError, which main prints as one error: line, in place
    of printing usage and exiting.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


# ---- small helpers ----


def _echo_lines(argv) -> list[str]:
    # a non-printable argument (a line break, say) echoes as its one-line repr
    command = " ".join(a if a.isprintable() else repr(a) for a in argv)
    return [f"# polarmhw {__version__}", f"# command: polarmhw {command}"]


def _spec_line(spec) -> str:
    return (
        f"N={spec.N} K={spec.K} R={spec.R:.6g} "
        f"construction={spec.construction}"
    )


def _print_head(argv, spec) -> None:
    print(*_echo_lines(argv), _spec_line(spec), sep="\n")


def _parse_positions(text: str) -> tuple[int, ...]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise UsageError("--A needs at least one position")
    try:
        return tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise UsageError(f"bad --A value: {exc}") from exc


# the most values a range that no bound cuts (--ebn0's) may expand to
_GRID_CAP = 1 << 16


def _parse_grid(text: str, cast, flag: str, bounds=(-math.inf, math.inf)) -> list:
    """Comma/space separated values, or an inclusive start:stop:step range,
    each within bounds.  A range is cut after its first value out of bounds
    before it is expanded, so it yields at most hi - lo + 2 values; with no
    upper bound, one of more than _GRID_CAP values is refused (MemoryError)."""
    lo, hi = bounds
    try:
        if ":" in text:
            pieces = text.split(":")
            if len(pieces) != 3:
                raise UsageError(f"{flag} range must be start:stop:step")
            start, stop, step = (cast(p) for p in pieces)
            if step <= 0 or stop < start:
                raise UsageError(f"{flag} range must ascend with positive step")
            stop = start if start < lo else min(stop, hi + step)
            steps = (stop - start) / step
            if steps == math.inf:
                raise UsageError(f"{flag} range overflows: (stop - start) / step is not finite")
            if hi == math.inf and round(steps) >= _GRID_CAP:
                raise MemoryError(f"{flag} range has {steps + 1:.6g} values, over {_GRID_CAP}")
            values = [start + k * step for k in range(int(round(steps)) + 1)]
            values = [v for v in values if v <= stop + 1e-9]
        else:
            values = [cast(t) for t in text.replace(",", " ").split()]
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"bad {flag} value: {exc}") from exc
    if not values:
        raise UsageError(f"{flag} grid is empty")
    for v in values:
        if not lo <= v <= hi:
            raise UsageError(f"{flag} value {v} out of [{lo}, {hi}]")
    return values


def _finite_float(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not finite")
    return value


def _resolve_threads(args) -> int:
    value = args.threads
    if value is None:
        raw = os.environ.get("POLARMHW_THREADS", "")
        if raw:
            try:
                value = int(raw)
            except ValueError as exc:
                raise UsageError(f"POLARMHW_THREADS={raw!r} is not an integer") from exc
        else:
            value = 1
    if value < 1:
        raise UsageError("thread count must be >= 1")
    return value


# ---- spec sources ----


def _build_spec(N, K, A_text, construction, design_ebn0):
    if N is None:
        raise UsageError("give --spec PATH, or --N with --K or --A")
    if A_text is not None and (K is not None or construction is not None):
        raise UsageError("--A conflicts with --K/--construction")
    if A_text is None and K is None:
        raise UsageError("need --K (with optional --construction) or --A")
    # --A, like pw, takes no --design-ebn0: _design_point refuses one
    design = _design_point(construction, design_ebn0)
    if A_text is not None:
        return CodeSpec(N, _parse_positions(A_text))
    return construct_pw(N, K) if design is None else construct_ga(N, K, design)


def _design_point(construction, design_ebn0):
    """The design Eb/N0 of the GA construction --construction asks for, or
    None for pw, the default."""
    if (construction or "pw") == "pw":
        if design_ebn0 is not None:
            raise UsageError("--design-ebn0 applies only to --construction ga")
        return None
    return _DEFAULT_DESIGN_EBN0 if design_ebn0 is None else design_ebn0


def _resolve_spec(args):
    if args.spec is not None:
        extras = [o for flags in _CODE.values() for o, *_ in flags if _value(args, o) is not None]
        if extras:
            raise UsageError(f"--spec conflicts with {', '.join(extras)}")
        return load_spec(args.spec)
    return _build_spec(args.N, args.K, args.A, args.construction, args.design_ebn0)


# ---- construct ----


def cmd_construct(args, argv) -> int:
    spec = _build_spec(args.N, args.K, args.A, args.construction, args.design_ebn0)
    save_spec(spec, args.out, header_lines=_echo_lines(argv))
    _print_head(argv, spec)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---- bound ----


def cmd_bound(args, argv) -> int:
    spec = _resolve_spec(args)
    report = bound_count(spec, materialize_sets=False)
    table = [_BOUND_HEADER, *(f"{i},{overlap},{term}" for i, overlap, term in report._terms())]
    if args.csv:
        Path(args.csv).write_text("\n".join([*_echo_lines(argv), *table]) + "\n", encoding="utf-8")
    _print_head(argv, spec)
    print(f"d_m={report.d_m} triggers={len(report.a_m)}", *table, sep="\n")
    print(f"total={report.total}")
    return EXIT_OK


# ---- enumerate ----


def cmd_enumerate(args, argv) -> int:
    spec = _resolve_spec(args)
    threads = _resolve_threads(args)
    method = args.method or "zero-split"
    if args.check and args.method:
        raise UsageError("--check runs every method; drop --method")
    if args.list_size is not None and method != "scl-global":
        raise UsageError("--list-size applies to --method scl-global only")
    _print_head(argv, spec)
    names = [method]
    if args.check:
        names = [m for m in _METHODS if m != "exhaustive" or spec.K <= EXHAUSTIVE_CAP]
    results = {name: _METHODS[name](spec, threads, args.list_size) for name in names}
    # --out under --check writes the zero-split result
    result = results[method]
    if args.check:
        base, *others = results.values()
        if not all(r.d_m == base.d_m and np.array_equal(r.words, base.words) for r in others):
            for r in results.values():
                print(f"method={r.method} d_m={r.d_m} count={r.count}")
            print("mismatch between enumeration methods")
            return EXIT_PROPERTY
        print(f"{len(results)} methods agree: {base.count} vectors")
    else:
        if result.warning:
            print(f"warning: {result.warning}")
        print(
            f"method={result.method} d_m={result.d_m} count={result.count} "
            f"maxListUsed={result.max_list_used}"
        )
    if args.out:
        write_enumeration(args.out, spec, result, header_lines=_echo_lines(argv))
        print(f"wrote {args.out}")
    return EXIT_OK


# ---- verify ----


def _run_verify(spec, negative_control, max_triggers, max_members, exact_limit):
    """Return [(name, status, detail)] for the property suite on one code."""
    N, n = spec.N, spec.n
    report = bound_count(spec, materialize_sets=False)
    d_m = report.d_m
    triggers = list(report.a_m)[:max_triggers]
    exact_wanted = report.total <= exact_limit
    words = zero_split_triggers(spec, report.a_m if exact_wanted else triggers).words
    first = _first_ones(words)  # a member's trigger is its first one
    members = [_unpack(words[first == i][:max_members], N) for i in triggers]
    exact = len(words) if exact_wanted else None
    # after the members, per trigger i the bare row e_i (SC's retrace of all
    # ones flipped at i), then the all-zero rows (SC's decodes of 1 - g_i)
    bare = (np.arange(1, N + 1) == np.array(triggers)[:, None]).astype(np.uint8)
    g = encode_rows(bare)
    stops = np.cumsum([len(m) for m in members]).tolist()
    rows = {i: range(stop - len(m), stop) for i, m, stop in zip(triggers, members, stops)}
    end, T = stops[-1], len(triggers)
    retrace_rows, residual_rows = range(end, end + T), range(end + T, end + 2 * T)
    # the subtree-root probes: the first four members of the first two triggers
    probes = [(i, row) for i in triggers[:2] for row in rows[i][:4]]
    u = np.concatenate(members + [bare, np.zeros_like(bare)])
    nodes = [(row, p.lam, p.node) for i, row in probes for p in decompose(i, n)]
    which = [0] * (end + T) + list(range(1, T + 1))
    pm, llr, got = _replay([[1] * N, *(1 - g).tolist()], spec, u, nodes, which)
    zeros = llr == 0
    scope = f"{T} triggers, {end} members"

    def tiles(i):
        # the parts, placed by decompose's closed-form starts, tile [i+1, N] as
        # a running sum of power-of-two sizes and sit at even subtree indices
        parts = decompose(i, n)
        ends = [i] + [p.end for p in parts]
        return ends[-1] == N and all(
            p.start == end + 1
            and p.end == p.start + (1 << p.lam) - 1
            and p.node % 2 == 0
            and p.end == p.node << p.lam
            for p, end in zip(parts, ends)
        )

    def one_extra_bit(i):
        # the zero-pinned positions are those one bit above i - 1, in the
        # number the per-part cardinality formula gives
        r = i - 1
        zc = zero_capacity_set(i, N)
        alt = {e for e in range(1, N + 1) if e - 1 > r and ((e - 1) & ~r).bit_count() == 1}
        card = sum(1 << (r & ((1 << p.lam) - 1)).bit_count() for p in decompose(i, n))
        return zc == alt and len(zc) == card

    def predicted(i):
        # replaying any member of i against the noiseless all-positive input
        # zeroes the decoder LLRs exactly on the predicted set
        want = sorted(zero_capacity_set(i, N))
        if negative_control:
            pool = [p for p in range(1, N + 1) if p not in set(want)]
            want = sorted(want[:-1] + pool[:1])
        return (zeros[rows[i]] == np.isin(np.arange(1, N + 1), want)).all()

    def root_llrs(i, row):
        # subtree root LLRs along a member replay match the closed form
        return all(
            got[row, p.lam, p.node].tolist() == subtree_input_llr(i, p.k, u[row], n)
            for p in decompose(i, n)
        )

    # erasing the channel exactly on a generator row's support reproduces
    # that support as the zero LLRs of SC, which charges nothing there
    residual = (pm[residual_rows] == 0).all() and (zeros[residual_rows] == g).all()
    # a lone disagreement at the trigger is stable under replay: e_i goes
    # against its leaf's sign at i alone, at the trigger's row weight
    retrace = (_charged(bare, llr[retrace_rows]) == bare).all() and (pm[retrace_rows] == d_m).all()
    equal_pm = all((pm[rows[i]] == pm[row]).all() for i, row in zip(triggers, retrace_rows))
    # the counting bound dominates the exact counts, per trigger and in total
    terms = zip(triggers, report.overlaps)
    per_trigger = all(np.count_nonzero(first == i) <= 1 << overlap for i, overlap in terms)
    sound = per_trigger and (exact is None or exact <= report.total)
    checks = [
        ("partition-parts", all(map(tiles, triggers)), scope),
        ("one-extra-bit-set", all(map(one_extra_bit, triggers)), scope),
        (
            "zero-location-replay",
            all(map(predicted, triggers)),
            scope + (" [negative control]" if negative_control else ""),
        ),
        ("residual-zero-locations", residual, scope),
        ("retrace-rds-fixed", retrace, scope),
        # the retraced path's codeword already sits at the minimum weight
        ("retrace-weight", (g.sum(axis=1) == d_m).all(), f"d_m={d_m}"),
        # every member of a trigger costs exactly the trigger penalty
        ("equal-pm-within-subset", equal_pm, scope),
        ("subtree-root-llr", all(root_llrs(*probe) for probe in probes), f"{len(probes)} replays"),
        (
            "bound-soundness",
            sound,
            f"bound={report.total} (total enumeration skipped)"
            if exact is None
            else f"exact={exact} bound={report.total}",
        ),
    ]
    checks = [(name, "PASS" if ok else "FAIL", detail) for name, ok, detail in checks]
    # tightness is reported, never required
    if exact is None:
        tight = ("INFO", f"skipped: bound {report.total} exceeds --exact-limit {exact_limit}")
    elif exact == report.total:
        tight = ("PASS", f"tight at {exact}")
    else:
        tight = ("INFO", f"bound {report.total} exceeds exact {exact}")
    return checks + [("bound-tightness", *tight)]


def cmd_verify(args, argv) -> int:
    spec = _resolve_spec(args)
    _print_head(argv, spec)
    checks = _run_verify(
        spec,
        negative_control=args.negative_control,
        max_triggers=args.max_triggers,
        max_members=args.max_members,
        exact_limit=args.exact_limit,
    )
    for name, status, detail in checks:
        print(f"check {name:<24} {status:<4} {detail}")
    tally = collections.Counter(status for _, status, _ in checks)
    print(
        f"verify: {len(checks)} checks, {tally['PASS']} PASS, {tally['FAIL']} FAIL, "
        f"{tally['INFO']} INFO"
    )
    return EXIT_PROPERTY if tally["FAIL"] else EXIT_OK


# ---- simulate ----


def cmd_simulate(args, argv) -> int:
    spec = _resolve_spec(args)
    threads = _resolve_threads(args)
    grid = _parse_grid(args.ebn0, _finite_float, "--ebn0")
    limit = max(args.error_limit, 0) or None  # 0 or less: no limit
    points = sweep_fer(
        spec,
        grid,
        args.list_size,
        args.trials,
        seed=args.seed,
        threads=threads,
        error_limit=limit,
        random_messages=args.random_messages,
    )
    text = render_fer_csv(
        spec, points, header_lines=_echo_lines(argv) + [_spec_line(spec)]
    )
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


# ---- sweep ----


def cmd_sweep(args, argv) -> int:
    N = args.N
    if N is None:
        raise UsageError("sweep needs --N")
    _check_length(N)
    if args.K_grid is not None:
        Ks = _parse_grid(args.K_grid, int, "--K-grid", (1, N))
    else:
        Ks = range(1, N)
    # one reliability order serves every K; building it first refuses an N
    # too large to hold before any K is visited.  Every bound comes off one
    # pass over it; a code is built only for an exact count
    codes = _codes(N, _design_point(args.construction, args.design_ebn0))
    rows = []
    for K, d_m, total in zip(Ks, *_prefix_bounds(codes.rows, Ks)):
        exact = _exact_count(codes(K)) if total <= args.exact_limit else ""
        rows.append(f"{K / N:.6g},{K},{d_m},{total},{exact}")
    text = "\n".join([*_echo_lines(argv), _SWEEP_HEADER, *rows]) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


# ---- command table ----


def _flag(option, help, least=(None, None), **kwargs):
    """A flag's table entry: (option, add_argument keywords, least value or
    None, the error line for a value below it)."""
    return option, dict(help=help, **kwargs), *least


def _value(args, option):
    """The parsed value of a flag, under argparse's default dest."""
    return getattr(args, option[2:].replace("-", "_"))


# least values that two flags share, each with its one error line
_ONE_LIST = 1, "--list-size must be >= 1"
_ONE_SAMPLE = 1, "--max-triggers and --max-members must be >= 1"
_DESIGN_HELP = f"design point for --construction ga (default {_DEFAULT_DESIGN_EBN0:g})"
# the code flags under their help group titles: sweep takes the code
# definition alone, and --spec conflicts with every code flag
_DEFINITION = {"code definition": [
    _flag("--N", "code length (power of two)", type=int),
    _flag("--construction", "reliability rule (default pw)", choices=("pw", "ga")),
    _flag("--design-ebn0", _DESIGN_HELP, type=float, metavar="DB"),
]}
_CODE = {**_DEFINITION, "information set": [
    _flag("--K", "number of information positions", type=int),
    _flag("--A", "explicit information set, comma or space separated, 1-based",
          metavar="POSITIONS"),
]}
_SPEC = _flag("--spec", "load a saved code-spec file", metavar="PATH")
_THREADS = _flag("--threads", "worker threads (default: POLARMHW_THREADS or 1)", type=int)
_CSV_OUT = _flag("--out", "write the CSV here as well", metavar="PATH")

# per command: its function, its help, its code flags and its other flags,
# each in the order --help lists them
_COMMANDS = {
    "construct": (cmd_construct, "build a code spec and save it", _CODE, [
        _flag("--out", "spec file to write", required=True, metavar="PATH"),
    ]),
    "bound": (cmd_bound, "count minimum-weight codewords from above without enumerating", _CODE, [
        _SPEC,
        _flag("--csv", "also write per-trigger CSV", metavar="PATH"),
    ]),
    "enumerate": (cmd_enumerate, "list the minimum-weight codewords", _CODE, [
        _SPEC,
        _THREADS,
        _flag("--method", "enumeration strategy (default zero-split)", choices=_METHODS),
        _flag("--list-size", "list width for scl-global (default: counting bound + 1)",
              least=_ONE_LIST, type=int),
        _flag("--check", "run every available method and require identical vector sets",
              action="store_true"),
        _flag("--out", "write the enumeration file", metavar="PATH"),
    ]),
    "verify": (cmd_verify, "run the property-check suite", _CODE, [
        _SPEC,
        _flag("--negative-control",
              "corrupt the predicted zero set; the replay check must then fail",
              action="store_true"),
        _flag("--max-triggers", "triggers sampled", least=_ONE_SAMPLE, type=int, default=8),
        _flag("--max-members", "members sampled per trigger", least=_ONE_SAMPLE, type=int,
              default=48),
        _flag("--exact-limit", "skip full enumeration when the bound exceeds this", type=int,
              default=100000),
    ]),
    "simulate": (cmd_simulate, "Monte-Carlo frame error rate over an Eb/N0 grid", _CODE, [
        _SPEC,
        _THREADS,
        _flag("--ebn0", "dB values: comma separated, or start:stop:step", required=True,
              metavar="GRID"),
        _flag("--list-size", "decoder list width", least=_ONE_LIST, type=int, default=8),
        _flag("--trials", "frames per grid point", least=(1, "--trials must be >= 1"), type=int,
              required=True),
        _flag("--seed", "base random seed", least=(0, "--seed must be nonnegative"), type=int,
              default=0),
        _flag("--error-limit", "stop a point after this many frame errors (0 disables)",
              type=int, default=100),
        _flag("--random-messages", "draw random messages instead of the all-zero codeword",
              action="store_true"),
        _CSV_OUT,
    ]),
    "sweep": (cmd_sweep, "bound (and exact count when cheap) across a rate grid", _DEFINITION, [
        _flag("--K-grid", "K values: comma separated or start:stop:step (default 1..N-1)",
              metavar="GRID"),
        _flag("--exact-limit", "enumerate exactly when the bound is at most this", type=int,
              default=1000),
        _CSV_OUT,
    ]),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polarmhw",
        description="Minimum-weight codeword analysis for polar codes.",
    )
    parser.add_argument("--version", action="version", version=f"polarmhw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, code, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help)
        command.set_defaults(func=func)
        for title, entries in [*code.items(), (None, flags)]:
            group = command.add_argument_group(title) if title else command
            for option, kwargs, _, _ in entries:
                group.add_argument(option, **kwargs)
    return parser


def _check_least(args) -> None:
    """Refuse a flag value below the least value its table entry gives."""
    _, _, code, flags = _COMMANDS[args.command]
    for entries in [*code.values(), flags]:
        for option, _, least, message in entries:
            value = _value(args, option)
            if least is not None and value is not None and value < least:
                raise UsageError(message)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        _check_least(args)
        return args.func(args, argv)
    except SystemExit:  # --help and --version print and exit 0
        return EXIT_OK
    except (ExhaustiveCapError, MemoryError) as exc:
        print(f"refused: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, OSError) as exc:
        # SpecFormatError, EnumFormatError and UsageError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
