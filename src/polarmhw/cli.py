"""Command-line front end.

Subcommands: construct (build and save a code spec), bound (minimum-weight
codeword counting bound), enumerate (list the minimum-weight codewords),
verify (run the property checks on a given code), simulate (AWGN frame error
rates), sweep (bound across a rate grid).

Every command prints a version line and a full parameter echo, and produces
byte-identical output for identical inputs.  Exit codes: 0 success, 2 input
error, 3 capability refusal, 4 property failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .bitops import _check_length, generator_row, positions_of
from .bound import (
    bound_count,
    decompose,
    per_subset_bound,
    subtree_input_llr,
    zero_capacity_set,
)
from .channel import render_fer_csv, sweep_fer
from .construction import CodeSpec, _codes, construct_ga, construct_pw, load_spec, save_spec
from .listdec import _search
from .mhw import (
    EXHAUSTIVE_CAP,
    ExhaustiveCapError,
    enumerate_subset_scl,
    enumerate_zero_split,
    exhaustive_mhw,
    scl_global_search,
    write_enumeration,
    zero_split_triggers,
)
from .sctree import sc_decode, sc_replay, sc_retrace

__all__ = ["main", "UsageError"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_PROPERTY = 4

_DEFAULT_DESIGN_EBN0 = 2.0

_BOUND_HEADER = "trigger,overlap,term"
_SWEEP_HEADER = "R,K,d_m,bound,exact"


class UsageError(ValueError):
    """Conflicting flags or an unparseable flag value."""


# ---- small helpers ----


def _echo_lines(argv) -> list[str]:
    return [
        f"# polarmhw {__version__}",
        "# command: polarmhw " + " ".join(argv),
    ]


def _spec_line(spec) -> str:
    return (
        f"N={spec.N} K={spec.K} R={spec.K / spec.N:.6g} "
        f"construction={spec.construction}"
    )


def _parse_positions(text: str) -> tuple[int, ...]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise UsageError("--A needs at least one position")
    try:
        return tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise UsageError(f"bad --A value: {exc}") from exc


def _parse_grid(text: str, cast, flag: str) -> list:
    """Comma/space separated values, or an inclusive start:stop:step range."""
    try:
        if ":" in text:
            pieces = text.split(":")
            if len(pieces) != 3:
                raise UsageError(f"{flag} range must be start:stop:step")
            start, stop, step = (cast(p) for p in pieces)
            if step <= 0 or stop < start:
                raise UsageError(f"{flag} range must ascend with positive step")
            count = int(round((stop - start) / step))
            values = [start + k * step for k in range(count + 1)]
            return [v for v in values if v <= stop + 1e-9]
        values = [cast(t) for t in text.replace(",", " ").split()]
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"bad {flag} value: {exc}") from exc
    if not values:
        raise UsageError(f"{flag} grid is empty")
    return values


def _finite_float(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not finite")
    return value


def _resolve_threads(args) -> int:
    value = getattr(args, "threads", None)
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


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---- spec sources ----


def _build_spec(N, K, A_text, construction, design_ebn0):
    if N is None:
        raise UsageError("give --spec PATH, or --N with --K or --A")
    if A_text is not None:
        if K is not None or construction is not None:
            raise UsageError("--A conflicts with --K/--construction")
        if design_ebn0 is not None:
            raise UsageError("--design-ebn0 applies only to --construction ga")
        return CodeSpec(N, _parse_positions(A_text))
    if K is None:
        raise UsageError("need --K (with optional --construction) or --A")
    design = _design_point(construction, design_ebn0)
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
        extras = [
            name
            for name, value in (
                ("--N", args.N),
                ("--K", args.K),
                ("--A", args.A),
                ("--construction", args.construction),
                ("--design-ebn0", args.design_ebn0),
            )
            if value is not None
        ]
        if extras:
            raise UsageError(f"--spec conflicts with {', '.join(extras)}")
        return load_spec(args.spec)
    return _build_spec(args.N, args.K, args.A, args.construction, args.design_ebn0)


# ---- construct ----


def cmd_construct(args, argv) -> int:
    spec = _build_spec(args.N, args.K, args.A, args.construction, args.design_ebn0)
    save_spec(spec, args.out, header_lines=_echo_lines(argv))
    for line in _echo_lines(argv):
        print(line)
    print(_spec_line(spec))
    print(f"wrote {args.out}")
    return EXIT_OK


# ---- bound ----


def cmd_bound(args, argv) -> int:
    spec = _resolve_spec(args)
    report = bound_count(spec, materialize_sets=False)
    for line in _echo_lines(argv):
        print(line)
    print(_spec_line(spec))
    print(f"d_m={report.d_m} triggers={len(report.triggers)}")
    rows = [f"{t.i},{t.overlap},{t.term}" for t in report.triggers]
    print(_BOUND_HEADER)
    for row in rows:
        print(row)
    print(f"total={report.total}")
    if args.csv:
        _write_text(
            args.csv,
            "\n".join([*_echo_lines(argv), _BOUND_HEADER, *rows]) + "\n",
        )
    return EXIT_OK


# ---- enumerate ----


def cmd_enumerate(args, argv) -> int:
    spec = _resolve_spec(args)
    threads = _resolve_threads(args)
    if args.check and args.method:
        raise UsageError("--check runs every method; drop --method")
    if (
        args.list_size is not None
        and not args.check
        and (args.method or "zero-split") != "scl-global"
    ):
        raise UsageError("--list-size applies to --method scl-global or --check")
    if args.list_size is not None and args.list_size < 1:
        raise UsageError("--list-size must be >= 1")
    for line in _echo_lines(argv):
        print(line)
    print(_spec_line(spec))
    if args.check:
        results = []
        if spec.K <= EXHAUSTIVE_CAP:
            results.append(exhaustive_mhw(spec))
        results.append(enumerate_subset_scl(spec, threads=threads))
        result = enumerate_zero_split(spec, threads=threads)
        results.append(result)
        needed = bound_count(spec, materialize_sets=False).total + 1
        results.append(scl_global_search(spec, max(args.list_size or 0, needed)))
        base = results[0]
        agree = all(
            r.d_m == base.d_m and np.array_equal(r.vectors, base.vectors)
            for r in results[1:]
        )
        if not agree:
            for r in results:
                print(f"method={r.method} d_m={r.d_m} count={r.count}")
            print("mismatch between enumeration methods")
            return EXIT_PROPERTY
        print(f"{len(results)} methods agree: {base.count} vectors")
    else:
        method = args.method or "zero-split"
        if method == "exhaustive":
            result = exhaustive_mhw(spec)
        elif method == "subset-scl":
            result = enumerate_subset_scl(spec, threads=threads)
        elif method == "zero-split":
            result = enumerate_zero_split(spec, threads=threads)
        else:
            L = args.list_size or bound_count(spec, materialize_sets=False).total + 1
            result = scl_global_search(spec, L)
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


def _weight_filtered_leaves(spec, triggers, cap: int):
    """Sampled minimum-weight members of each trigger, in sorted order, plus
    their full counts, from one walk over all the triggers."""
    rows = zero_split_triggers(spec, triggers).vectors
    first = rows.argmax(axis=1) + 1  # a member belongs to the trigger at its first one
    members, full_counts = {}, {}
    for i in triggers:
        kept = rows[first == i]
        members[i], full_counts[i] = kept[:cap].tolist(), len(kept)
    return members, full_counts


def _run_verify(spec, negative_control, max_triggers, max_members, exact_limit):
    """Return [(name, status, detail)] for the property suite on one code."""
    checks = []
    N = spec.N
    n = N.bit_length() - 1
    report = bound_count(spec, materialize_sets=False)
    d_m = report.d_m
    triggers = list(report.a_m)[:max_triggers]
    ones = [1] * N
    # one walk: over every trigger when the exact count is wanted
    exact_wanted = report.total <= exact_limit
    walked = report.a_m if exact_wanted else triggers
    members, full_counts = _weight_filtered_leaves(spec, walked, max_members)
    retraced = {i: sc_retrace(ones, spec, {i}) for i in triggers}
    # one SC replay of every sampled member, then of every retraced path, all
    # in one list-engine run (L = 1, every decision pinned): per path its
    # trigger, path metric, reverse-decision set and zero-LLR positions
    paths = [(i, u) for i in triggers for u in members[i]]
    paths += [(i, retraced[i].decisions) for i in triggers]
    replays = []
    for (i, _), (u, pm, llr, _) in zip(
        paths, _search(ones, spec, 1, [u for _, u in paths], leaves=True)
    ):
        charged = np.where(u[0] == 1, llr[0] > 0, llr[0] < 0)
        rds, zeros = (tuple((np.flatnonzero(x) + 1).tolist()) for x in (charged, llr[0] == 0))
        replays.append((i, pm[0], rds, zeros))
    replays, retrace_replays = replays[: -len(triggers)], replays[-len(triggers) :]
    n_members = sum(len(members[i]) for i in triggers)
    scope = f"{len(triggers)} triggers, {n_members} members"

    # Tail decomposition: parts tile [i+1, N] contiguously with power-of-two
    # sizes and sit at even subtree indices.
    ok = True
    for i in triggers:
        parts = decompose(i, n).parts
        expect_start = i + 1
        for p in parts:
            size = 1 << p.lam
            if p.start != expect_start or p.end != p.start + size - 1:
                ok = False
            if p.node % 2 != 0 or p.end != p.node * size:
                ok = False
            expect_start = p.end + 1
        if i < N and (not parts or parts[-1].end != N):
            ok = False
    checks.append(("partition-parts", "PASS" if ok else "FAIL", scope))

    # Zero-pinned positions match the one-extra-bit characterization and the
    # per-part cardinality formula.
    ok = True
    for i in triggers:
        zc = zero_capacity_set(i, N)
        r = i - 1
        alt = {
            e
            for e in range(1, N + 1)
            if e - 1 > r and ((e - 1) & ~r).bit_count() == 1
        }
        card = sum(
            1 << (r & ((1 << p.lam) - 1)).bit_count()
            for p in decompose(i, n).parts
        )
        if zc != alt or len(zc) != card:
            ok = False
    checks.append(("one-extra-bit-set", "PASS" if ok else "FAIL", scope))

    # Replaying any minimum-weight member of a trigger against the noiseless
    # all-positive input zeroes the decoder LLRs exactly on the predicted set.
    ok = True
    for i in triggers:
        predicted = sorted(zero_capacity_set(i, N))
        if negative_control:
            pool = [p for p in range(1, N + 1) if p not in set(predicted)]
            predicted = sorted(predicted[:-1] + pool[:1])
        want = tuple(predicted)
        if any(zeros != want for t, _, _, zeros in replays if t == i):
            ok = False
    detail = scope + (" [negative control]" if negative_control else "")
    checks.append(("zero-location-replay", "PASS" if ok else "FAIL", detail))

    # Erasing the channel exactly on a generator row's support reproduces that
    # support as the decoder's zero-LLR positions.
    ok = True
    for i in triggers:
        row = generator_row(i, N)
        support = positions_of(1, row)
        for scale in (1, 3.5):
            out = sc_decode([scale * (1 - bit) for bit in row], spec)
            if out.zero_positions != support:
                ok = False
    checks.append(("residual-zero-locations", "PASS" if ok else "FAIL", scope))

    # Forcing a lone disagreement at the trigger is stable under replay: same
    # penalty, same single flip position, positive cost.
    ok = True
    for i, (_, pm, rds, _) in zip(triggers, retrace_replays):
        rt = retraced[i]
        if rt.rds != (i,) or rds != (i,):
            ok = False
        if pm != rt.pm or not rt.pm > 0:
            ok = False
    checks.append(("retrace-rds-fixed", "PASS" if ok else "FAIL", scope))

    # The retraced path's codeword already sits at the minimum weight.
    ok = True
    for i in triggers:
        if sum(retraced[i].codeword()) != d_m:
            ok = False
    checks.append(("retrace-weight", "PASS" if ok else "FAIL", f"d_m={d_m}"))

    # Every member of a trigger costs exactly the trigger penalty.
    ok = True
    for i in triggers:
        want = retraced[i].pm
        if any(pm != want for t, pm, _, _ in replays if t == i):
            ok = False
    checks.append(("equal-pm-within-subset", "PASS" if ok else "FAIL", scope))

    # Subtree root LLRs along a member replay match the closed form.
    ok = True
    probed = 0
    for i in triggers[:2]:
        parts = decompose(i, n).parts
        for u in members[i][:4]:
            rep = sc_replay(ones, spec, u, record_nodes=True)
            probed += 1
            for p in parts:
                want = subtree_input_llr(i, p.k, u, n)
                if list(rep.node_llrs[(p.lam, p.node)]) != want:
                    ok = False
    checks.append(("subtree-root-llr", "PASS" if ok else "FAIL", f"{probed} replays"))

    # Counting bound dominates the exact counts, per trigger and in total.
    ok = True
    for i in triggers:
        if full_counts[i] > per_subset_bound(i, spec):
            ok = False
    exact = None
    if exact_wanted:
        exact = sum(full_counts.values())
        if exact > report.total:
            ok = False
        detail = f"exact={exact} bound={report.total}"
    else:
        detail = f"bound={report.total} (total enumeration skipped)"
    checks.append(("bound-soundness", "PASS" if ok else "FAIL", detail))

    # Tightness is reported, never required.
    if exact is None:
        checks.append(
            (
                "bound-tightness",
                "INFO",
                f"skipped: bound {report.total} exceeds --exact-limit {exact_limit}",
            )
        )
    elif exact == report.total:
        checks.append(("bound-tightness", "PASS", f"tight at {exact}"))
    else:
        checks.append(
            ("bound-tightness", "INFO", f"bound {report.total} exceeds exact {exact}")
        )
    return checks


def cmd_verify(args, argv) -> int:
    spec = _resolve_spec(args)
    if args.max_triggers < 1 or args.max_members < 1:
        raise UsageError("--max-triggers and --max-members must be >= 1")
    for line in _echo_lines(argv):
        print(line)
    print(_spec_line(spec))
    checks = _run_verify(
        spec,
        negative_control=args.negative_control,
        max_triggers=args.max_triggers,
        max_members=args.max_members,
        exact_limit=args.exact_limit,
    )
    for name, status, detail in checks:
        print(f"check {name:<24} {status:<4} {detail}")
    passes = sum(1 for _, s, _ in checks if s == "PASS")
    fails = sum(1 for _, s, _ in checks if s == "FAIL")
    infos = sum(1 for _, s, _ in checks if s == "INFO")
    print(f"verify: {len(checks)} checks, {passes} PASS, {fails} FAIL, {infos} INFO")
    return EXIT_PROPERTY if fails else EXIT_OK


# ---- simulate ----


def cmd_simulate(args, argv) -> int:
    spec = _resolve_spec(args)
    threads = _resolve_threads(args)
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.list_size < 1:
        raise UsageError("--list-size must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    grid = _parse_grid(args.ebn0, _finite_float, "--ebn0")
    limit = None if args.error_limit <= 0 else args.error_limit
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
    print(text, end="")
    if args.out:
        _write_text(args.out, text)
    return EXIT_OK


# ---- sweep ----


def cmd_sweep(args, argv) -> int:
    N = args.N
    _check_length(N)
    threads = _resolve_threads(args)
    if args.K_grid is not None:
        Ks = _parse_grid(args.K_grid, int, "--K-grid")
    else:
        Ks = list(range(1, N))
    for K in Ks:
        if not 1 <= K <= N:
            raise UsageError(f"--K-grid value {K} out of [1, {N}]")
    # one reliability order serves every K
    codes = _codes(N, _design_point(args.construction, args.design_ebn0))
    rows = []
    for K in Ks:
        spec = codes(K)
        report = bound_count(spec, materialize_sets=False)
        exact = (
            enumerate_zero_split(spec, threads=threads).count
            if report.total <= args.exact_limit
            else None
        )
        rows.append(
            f"{K / N:.6g},{K},{report.d_m},{report.total},"
            f"{'' if exact is None else exact}"
        )
    text = "\n".join([*_echo_lines(argv), _SWEEP_HEADER, *rows]) + "\n"
    print(text, end="")
    if args.out:
        _write_text(args.out, text)
    return EXIT_OK


# ---- parser ----


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarmhw",
        description="Minimum-weight codeword analysis for polar codes.",
    )
    parser.add_argument(
        "--version", action="version", version=f"polarmhw {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = argparse.ArgumentParser(add_help=False)
    g = build.add_argument_group("code definition")
    g.add_argument("--N", type=int, help="code length (power of two)")
    g.add_argument("--K", type=int, help="number of information positions")
    g.add_argument(
        "--A",
        metavar="POSITIONS",
        help="explicit information set, comma or space separated, 1-based",
    )
    g.add_argument(
        "--construction",
        choices=("pw", "ga"),
        help="reliability rule used with --K (default pw)",
    )
    g.add_argument(
        "--design-ebn0",
        type=float,
        default=None,
        metavar="DB",
        help=f"design point for --construction ga (default {_DEFAULT_DESIGN_EBN0:g})",
    )

    source = argparse.ArgumentParser(add_help=False, parents=[build])
    source.add_argument("--spec", metavar="PATH", help="load a saved code-spec file")

    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads (default: POLARMHW_THREADS or 1)",
    )

    p = sub.add_parser(
        "construct", parents=[build], help="build a code spec and save it"
    )
    p.add_argument("--out", required=True, metavar="PATH", help="spec file to write")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "bound",
        parents=[source],
        help="count minimum-weight codewords from above without enumerating",
    )
    p.add_argument("--csv", metavar="PATH", help="also write per-trigger CSV")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser(
        "enumerate",
        parents=[source, threads],
        help="list the minimum-weight codewords",
    )
    p.add_argument(
        "--method",
        choices=("exhaustive", "subset-scl", "zero-split", "scl-global"),
        help="enumeration strategy (default zero-split)",
    )
    p.add_argument(
        "--list-size",
        type=int,
        default=None,
        help="list width for scl-global (default: counting bound + 1)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="run every available method and require identical vector sets",
    )
    p.add_argument("--out", metavar="PATH", help="write the enumeration file")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "verify", parents=[source], help="run the property-check suite"
    )
    p.add_argument(
        "--negative-control",
        action="store_true",
        help="corrupt the predicted zero set; the replay check must then fail",
    )
    p.add_argument("--max-triggers", type=int, default=8, help="triggers sampled")
    p.add_argument(
        "--max-members", type=int, default=48, help="members sampled per trigger"
    )
    p.add_argument(
        "--exact-limit",
        type=int,
        default=100000,
        help="skip full enumeration when the bound exceeds this",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "simulate",
        parents=[source, threads],
        help="Monte-Carlo frame error rate over an Eb/N0 grid",
    )
    p.add_argument(
        "--ebn0",
        required=True,
        metavar="GRID",
        help="dB values: comma separated, or start:stop:step",
    )
    p.add_argument("--list-size", type=int, default=8, help="decoder list width")
    p.add_argument("--trials", type=int, required=True, help="frames per grid point")
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.add_argument(
        "--error-limit",
        type=int,
        default=100,
        help="stop a point after this many frame errors (0 disables)",
    )
    p.add_argument(
        "--random-messages",
        action="store_true",
        help="draw random messages instead of the all-zero codeword",
    )
    p.add_argument("--out", metavar="PATH", help="write the CSV here as well")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "sweep",
        parents=[threads],
        help="bound (and exact count when cheap) across a rate grid",
    )
    p.add_argument("--N", type=int, required=True, help="code length (power of two)")
    p.add_argument(
        "--construction",
        choices=("pw", "ga"),
        default="pw",
        help="reliability rule (default pw)",
    )
    p.add_argument(
        "--design-ebn0",
        type=float,
        default=None,
        metavar="DB",
        help=f"design point for ga (default {_DEFAULT_DESIGN_EBN0:g})",
    )
    p.add_argument(
        "--K-grid",
        metavar="GRID",
        help="K values: comma separated or start:stop:step (default 1..N-1)",
    )
    p.add_argument(
        "--exact-limit",
        type=int,
        default=1000,
        help="enumerate exactly when the bound is at most this",
    )
    p.add_argument("--out", metavar="PATH", help="write the CSV here as well")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args, argv)
    except (ExhaustiveCapError, MemoryError) as exc:
        print(f"refused: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, OSError) as exc:
        # SpecFormatError, EnumFormatError and UsageError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
