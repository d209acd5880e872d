"""Command-line behavior: exit codes, echoes, round-trips, determinism."""

import hashlib
import random
import re
import shlex
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from csvio import read_bound_csv, read_fer_csv, read_sweep_csv

from polarmhw import (
    CodeSpec,
    bound_count,
    cli,
    construct_ga,
    construct_pw,
    enumerate_zero_split,
    load_spec,
    read_enumeration,
)
from polarmhw.cli import main

SPEC8_ARGS = ["--N", "8", "--A", "4,6,7,8"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


# ---- output contract ----


def test_bound_reports_example_total(capsys):
    code, out, err = run(capsys, ["bound", *SPEC8_ARGS])
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "# polarmhw 0.1.0"
    assert "# command: polarmhw bound --N 8 --A 4,6,7,8" in out
    assert "total=14" in out.splitlines()
    assert "4,3,8" in out and "6,2,4" in out and "7,1,2" in out


def test_check_reports_four_method_agreement(capsys):
    code, out, _ = run(capsys, ["enumerate", *SPEC8_ARGS, "--check"])
    assert code == 0
    assert "4 methods agree: 14 vectors" in out


def test_single_method_summary_line(capsys):
    code, out, _ = run(capsys, ["enumerate", *SPEC8_ARGS, "--method", "subset-scl"])
    assert code == 0
    assert "method=SUBSET_SCL d_m=4 count=14 maxListUsed=4" in out


def test_version_flag(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert out.strip() == "polarmhw 0.1.0"


def test_repeated_commands_in_one_process_print_the_same_bytes(capsys):
    # main reuses one parser: a run after a failed parse must see no state
    # left behind by the runs before it
    commands = (["bound", "--N", "64", "--K", "32"], ["enumerate", *SPEC8_ARGS, "--check"])
    first = [run(capsys, argv) for argv in commands]
    assert run(capsys, ["bound", "--N", "x"])[0] == 2
    assert [run(capsys, argv) for argv in commands] == first
    assert [code for code, _, _ in first] == [0, 0]


# ---- exit codes ----


def test_exhaustive_cap_refusal_is_exit_3(capsys):
    code, _, err = run(
        capsys, ["enumerate", "--N", "64", "--K", "30", "--method", "exhaustive"]
    )
    assert code == 3
    assert "refused:" in err


def test_malformed_spec_file_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("not a spec file\n")
    code, _, err = run(capsys, ["bound", "--spec", str(bad)])
    assert code == 2
    assert "line 1" in err


def test_missing_spec_file_is_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, ["bound", "--spec", str(tmp_path / "nope.spec")])
    assert code == 2
    assert "error:" in err


def test_conflicting_spec_flags_are_exit_2(capsys, tmp_path):
    spec_path = tmp_path / "c.spec"
    assert main(["construct", "--N", "8", "--K", "4", "--out", str(spec_path)]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, ["bound", "--spec", str(spec_path), "--N", "8"])
    assert code == 2
    assert "--spec conflicts with --N" in err


def test_zero_trials_is_exit_2(capsys):
    code, _, err = run(
        capsys, ["simulate", *SPEC8_ARGS, "--ebn0", "2.0", "--trials", "0"]
    )
    assert code == 2
    assert "--trials" in err


def test_unknown_flag_is_exit_2(capsys):
    code, _, _ = run(capsys, ["bound", "--frobnicate"])
    assert code == 2


def test_argparse_errors_are_one_error_line(capsys):
    for argv in (
        ["bound", "--N", "x", "--K", "4"],  # bad int
        ["bound", "--N"],  # flag missing its value
        ["bound", "--frobnicate"],  # unknown flag
        ["frobnicate"],  # unknown command
        [],  # no command
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    for argv in (["--help"], ["bound", "--help"], ["--version"]):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "") and out, argv


SIM8_ARGS = ["simulate", *SPEC8_ARGS, "--trials", "8"]

# (argv, the one error line) of the usage errors no other test reaches
USAGE_ERRORS = [
    (["bound", "--N", "8", "--A", ""], "--A needs at least one position"),
    (
        ["bound", "--N", "8", "--A", "4,x"],
        "bad --A value: invalid literal for int() with base 10: 'x'",
    ),
    ([*SIM8_ARGS, "--ebn0", "1:2"], "--ebn0 range must be start:stop:step"),
    ([*SIM8_ARGS, "--ebn0", "2:1:0.5"], "--ebn0 range must ascend with positive step"),
    (["enumerate", *SPEC8_ARGS, "--threads", "0"], "thread count must be >= 1"),
    (["bound"], "give --spec PATH, or --N with --K or --A"),
    (["bound", "--N", "8", "--K", "4", "--A", "4,6,7,8"], "--A conflicts with --K/--construction"),
    (
        ["bound", *SPEC8_ARGS, "--design-ebn0", "1"],
        "--design-ebn0 applies only to --construction ga",
    ),
    (["bound", "--N", "8"], "need --K (with optional --construction) or --A"),
    (
        ["enumerate", *SPEC8_ARGS, "--check", "--method", "zero-split"],
        "--check runs every method; drop --method",
    ),
    (
        ["verify", *SPEC8_ARGS, "--max-triggers", "0"],
        "--max-triggers and --max-members must be >= 1",
    ),
    ([*SIM8_ARGS, "--ebn0", "2", "--list-size", "0"], "--list-size must be >= 1"),
    ([*SIM8_ARGS, "--ebn0", "2", "--seed", "-1"], "--seed must be nonnegative"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS, ids=[m for _, m in USAGE_ERRORS])
def test_usage_errors_are_exit_2_and_one_error_line(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_list_size_below_one_is_exit_2(capsys):
    for L in ("0", "-3"):
        code, out, err = run(
            capsys, ["enumerate", *SPEC8_ARGS, "--method", "scl-global", "--list-size", L]
        )
        assert code == 2
        assert out == ""
        assert err == "error: --list-size must be >= 1\n"


def test_list_size_without_global_method_is_exit_2(capsys):
    # --check's global search already runs at the bound + 1, which misses nothing
    for mode in ([], ["--check"], ["--method", "subset-scl"]):
        code, out, err = run(capsys, ["enumerate", *SPEC8_ARGS, *mode, "--list-size", "5"])
        assert (code, out) == (2, "")
        assert err == "error: --list-size applies to --method scl-global only\n"


def test_simulate_seed_past_64_bits_is_exit_2(capsys):
    # point idx draws from seed + 7919 * idx, one 64-bit word of the Philox key
    top = (1 << 64) - 1
    base = ["simulate", *SPEC8_ARGS, "--trials", "8"]
    for seed, grid in ((top + 1, "2"), (top, "2,3"), (top - 7918, "2,3")):
        code, out, err = run(capsys, [*base, "--ebn0", grid, "--seed", str(seed)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: seed {seed} too large: ") and err.count("\n") == 1
    for seed, grid in ((top, "2"), (top - 7919, "2,3")):
        code, out, err = run(capsys, [*base, "--ebn0", grid, "--seed", str(seed)])
        assert (code, err) == (0, "")
        assert len(data_lines(out)) == 1 + len(grid.split(","))


def test_out_of_memory_is_exit_3(capsys, monkeypatch):
    def exhausted(spec, threads=1):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr(cli, "enumerate_zero_split", exhausted)
    code, out, err = run(capsys, ["enumerate", *SPEC8_ARGS])
    assert code == 3
    assert err == "refused: Unable to allocate 8.00 GiB\n"


def test_design_ebn0_with_pw_is_exit_2(capsys):
    code, _, err = run(
        capsys, ["bound", "--N", "16", "--K", "8", "--design-ebn0", "1.0"]
    )
    assert code == 2
    assert "--design-ebn0" in err


def test_sweep_design_ebn0_with_pw_is_exit_2(capsys):
    for extra in ([], ["--construction", "pw"]):
        code, out, err = run(
            capsys,
            ["sweep", "--N", "16", "--K-grid", "4,8", "--design-ebn0", "1.0", *extra],
        )
        assert code == 2
        assert out == ""
        assert err == "error: --design-ebn0 applies only to --construction ga\n"


def test_single_codes_come_from_the_public_constructors(capsys, monkeypatch):
    # a profiler that wraps construct_pw and construct_ga sees every code a
    # command builds from --K; sweep reads all its codes off one order
    from polarmhw import cli

    calls = []

    def counted(name):
        original = getattr(cli, name)

        def construct(*args):
            calls.append(name)
            return original(*args)

        return construct

    for name in ("construct_pw", "construct_ga"):
        monkeypatch.setattr(cli, name, counted(name))
    assert run(capsys, ["bound", "--N", "64", "--K", "32"])[0] == 0
    assert run(capsys, ["bound", "--N", "64", "--K", "32", "--construction", "ga"])[0] == 0
    assert calls == ["construct_pw", "construct_ga"]


def test_sweep_bad_length_is_exit_2(capsys):
    for N in ("0", "1", "-4", "6"):
        code, out, err = run(capsys, ["sweep", "--N", N])
        assert code == 2
        assert out == ""
        assert err == f"error: code length N={N} is not a power of two >= 2\n"


def test_out_of_range_design_ebn0_is_exit_2(capsys, tmp_path):
    # 10**(EbN0/10) overflows (or underflows to 0) in the noise std
    source = ["--N", "16", "--K", "8", "--construction", "ga"]
    for value in ("1e308", "-1e308"):
        design = [f"--design-ebn0={value}"]
        for argv in (
            ["construct", *source, *design, "--out", str(tmp_path / "code.spec")],
            ["bound", *source, *design],
            ["sweep", "--N", "16", "--K-grid", "4,8", "--construction", "ga", *design],
            ["simulate", *SPEC8_ARGS, f"--ebn0={value}", "--trials", "8"],
        ):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, ""), argv
            why = "no positive finite noise std"
            assert err == f"error: Eb/N0 {float(value):g} dB out of range: {why}\n"


def test_non_finite_or_overflowing_ebn0_is_exit_2(capsys):
    # a non-finite value is a bad flag value; a finite point whose LLRs would
    # overflow the decoder is refused before any noise is drawn, so no numpy
    # warning reaches stderr
    cases = [
        (text, f"bad --ebn0 value: {bad!r} is not finite")
        for text, bad in (("inf", "inf"), ("-inf", "-inf"), ("nan", "nan"), ("0:inf:1", "inf"))
    ]
    cases += [
        (text, f"Eb/N0 {text} dB out of range: the decoder's LLR sums overflow")
        for text in ("3080", "3070")
    ]
    for text, message in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            argv = ["simulate", *SPEC8_ARGS, f"--ebn0={text}", "--trials", "8"]
            code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), text
        assert caught == [], text


def test_empty_K_grid_is_given_not_absent(capsys):
    for grid in ("", " ", ","):
        code, out, err = run(capsys, ["sweep", "--N", "8", "--K-grid", grid])
        assert (code, out, err) == (2, "", "error: --K-grid grid is empty\n"), grid


def test_K_grid_range_is_checked_before_it_is_expanded(capsys):
    # a range stops at its first value out of [1, N]: a stop of 10**12
    # allocates nothing, and the message names the same value as a list would
    for grid, bad in (("1:1000000000000:1", 17), ("0:8:1", 0), ("-1000000000000:8:1", -10**12)):
        code, out, err = run(capsys, ["sweep", "--N", "16", "--K-grid", grid])
        assert (code, out, err) == (2, "", f"error: --K-grid value {bad} out of [1, 16]\n"), grid
    # a range whose stop is past N but whose values are not stays valid
    code, out, err = run(capsys, ["sweep", "--N", "16", "--K-grid", "1:20:7"])
    assert (code, err) == (0, "")
    assert [row.split(",")[1] for row in data_lines(out)[1:]] == ["1", "8", "15"]


def test_negative_values_in_any_number_form_are_flag_values(capsys):
    # argparse alone reads only -2 and -0.5 as values; -1e3, -inf and a
    # range starting below zero went to its option matcher
    for argv in (
        ["simulate", *SPEC8_ARGS, "--ebn0", "-1e3", "--trials", "4"],
        ["simulate", *SPEC8_ARGS, "--ebn0", "-1:2:0.5", "--trials", "4"],
        ["bound", "--N", "16", "--K", "8", "--construction", "ga", "--design-ebn0", "-1e1"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("# polarmhw")
    spaced = run(capsys, ["simulate", *SPEC8_ARGS, "--ebn0", "-1e3", "--trials", "4"])[1]
    joined = run(capsys, ["simulate", *SPEC8_ARGS, "--ebn0=-1e3", "--trials", "4"])[1]
    assert data_lines(spaced) == data_lines(joined)
    code, out, err = run(
        capsys, ["bound", "--N", "16", "--K", "8", "--construction", "ga", "--design-ebn0", "-inf"]
    )
    why = "no positive finite noise std"
    assert (code, out, err) == (2, "", f"error: Eb/N0 -inf dB out of range: {why}\n")
    # an option name after a flag is still a missing value
    code, out, err = run(capsys, ["simulate", *SPEC8_ARGS, "--ebn0", "--trials", "4"])
    assert (code, out) == (2, "")
    assert "argument --ebn0: expected one argument" in err


def test_sweep_takes_the_code_flags_and_no_threads(capsys):
    code, out, err = run(capsys, ["sweep", "--K-grid", "4"])
    assert (code, out, err) == (2, "", "error: sweep needs --N\n")
    code, out, err = run(capsys, ["sweep", "--N", "16", "--K-grid", "4", "--threads", "2"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --threads 2" in err


# ---- verify ----


def test_verify_passes_on_example_code(capsys):
    code, out, _ = run(capsys, ["verify", *SPEC8_ARGS])
    assert code == 0
    assert "verify: 10 checks, 10 PASS, 0 FAIL, 0 INFO" in out
    assert "check zero-location-replay     PASS" in out


def test_negative_control_fails_replay_check(capsys):
    code, out, _ = run(capsys, ["verify", *SPEC8_ARGS, "--negative-control"])
    assert code == 4
    assert "check zero-location-replay     FAIL" in out
    assert "1 FAIL" in out


def test_verify_soundness_passes_when_tightness_is_info(capsys):
    # An info set where the bound (5) overshoots the exact count (4): the
    # soundness check must still pass, tightness degrades to INFO only.
    code, out, _ = run(capsys, ["verify", "--N", "16", "--A", "2,3,10,13,16"])
    assert code == 0
    assert "PASS exact=4 bound=5" in out
    assert "INFO bound 5 exceeds exact 4" in out
    assert "0 FAIL" in out


def _without_smallest(zero_capacity_set):
    def corrupted(i, N):
        zc = zero_capacity_set(i, N)
        return zc - {min(zc)}

    return corrupted


def _shifted_nodes(decompose):
    def corrupted(i, n):
        return tuple(replace(p, node=p.node + 1) for p in decompose(i, n))

    return corrupted


def _zero_overlaps(bound_count):
    def corrupted(spec, **kwargs):
        report = bound_count(spec, **kwargs)
        return replace(report, overlaps=(0,) * len(report.overlaps))

    return corrupted


def _pm_plus_one(sc_retrace):
    def corrupted(llrs, spec, rds):
        out = sc_retrace(llrs, spec, rds)
        return replace(out, pm=out.pm + 1)

    return corrupted


# (check that must read FAIL, helper in cli's namespace, its corruption);
# no helper means the --negative-control flag does the breaking
VERIFY_BREAKS = [
    ("partition-parts", "decompose", _shifted_nodes),
    ("one-extra-bit-set", "zero_capacity_set", _without_smallest),
    ("zero-location-replay", None, None),
    (
        "residual-zero-locations",
        "sc_decode",
        lambda f: lambda llrs, spec: replace(f(llrs, spec), zero_positions=()),
    ),
    ("retrace-rds-fixed", "sc_retrace", lambda f: lambda llrs, spec, rds: f(llrs, spec, ())),
    (
        "retrace-weight",
        "sc_retrace",
        lambda f: lambda llrs, spec, rds: f(llrs, spec, {*rds, spec.N}),
    ),
    ("equal-pm-within-subset", "sc_retrace", _pm_plus_one),
    ("subtree-root-llr", "subtree_input_llr", lambda f: lambda *a: [x + 1 for x in f(*a)]),
    ("bound-soundness", "bound_count", _zero_overlaps),
]


@pytest.mark.parametrize("check,helper,corrupt", VERIFY_BREAKS, ids=[b[0] for b in VERIFY_BREAKS])
def test_every_check_can_fail(capsys, monkeypatch, check, helper, corrupt):
    # a broken helper makes its check read FAIL and exit 4, never a traceback
    argv = ["verify", "--N", "64", "--K", "32"]
    if helper is None:
        argv.append("--negative-control")
    else:
        monkeypatch.setattr(cli, helper, corrupt(getattr(cli, helper)))
    code, out, err = run(capsys, argv)
    assert code == 4 and err == ""
    assert f"check {check:<24} FAIL" in out


def test_verify_flag_variants_golden_digest(capsys):
    # pins every verify line, and the exit code, under each flag and at the
    # smallest codes, including the empty tail of a trigger at i == N
    variants = (
        ["--N", "64", "--K", "32", "--negative-control"],
        ["--N", "128", "--K", "64", "--construction", "ga", "--exact-limit", "0"],
        ["--N", "256", "--K", "136", "--max-triggers", "2", "--max-members", "3"],
        ["--N", "2", "--K", "2"],
        ["--N", "4", "--A", "1"],
        ["--N", "16", "--A", "2,3,10,13,16"],
    )
    h = hashlib.sha256()
    for variant in variants:
        code, out, err = run(capsys, ["verify", *variant])
        assert err == ""
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest()[:16] == "997d43bdc474d2c6"


def readme_examples():
    """(command, expected lines) of each one-command sh block of README.md
    that an output block follows."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    found = re.findall(r"```sh\n(polarmhw [^\n]*)\n```\n\s*```\n(.*?)```", text, re.DOTALL)
    return [(command, output.splitlines()) for command, output in found]


def test_readme_examples_print_their_output(capsys):
    examples = readme_examples()
    assert len(examples) >= 4
    for command, expected in examples:
        code, out, err = run(capsys, shlex.split(command)[1:])
        assert (code, err) == (0, ""), command
        assert [line for line in expected if line not in out.splitlines()] == [], command


# ---- file round-trips ----


def test_construct_round_trips_through_loader(capsys, tmp_path):
    spec_path = tmp_path / "pw.spec"
    code, out, _ = run(
        capsys,
        ["construct", "--N", "32", "--K", "16", "--construction", "pw",
         "--out", str(spec_path)],
    )
    assert code == 0
    assert f"wrote {spec_path}" in out
    assert load_spec(spec_path) == construct_pw(32, 16)


def test_enumeration_file_round_trips(capsys, tmp_path):
    out_path = tmp_path / "mhw.txt"
    code, out, _ = run(capsys, ["enumerate", *SPEC8_ARGS, "--out", str(out_path)])
    assert code == 0
    loaded_spec, result = read_enumeration(out_path)
    assert loaded_spec.N == 8 and loaded_spec.A == (4, 6, 7, 8)
    assert result.count == 14 and result.d_m == 4
    assert "# command: polarmhw enumerate" in out_path.read_text()


def test_every_file_the_cli_writes_reads_back_whatever_its_argv(capsys, tmp_path, monkeypatch):
    # an argument holding a line break is echoed as its repr, on one line
    monkeypatch.chdir(tmp_path)
    A = ["--N", "8", "--A", "4,6\n7,8"]
    commands = {
        "c.spec": ["construct", *A, "--out", "c.spec"],
        "e.txt": ["enumerate", *A, "--out", "e.txt"],
        "b.csv": ["bound", *A, "--csv", "b.csv"],
        "s.csv": ["sweep", "--N", "8", "--K-grid", "2\r4", "--out", "s.csv"],
        "f.csv": ["simulate", *A, "--ebn0", "2", "--trials", "8", "--out", "f.csv"],
    }
    for name, argv in commands.items():
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        echo = "# command: polarmhw " + " ".join(a if a.isprintable() else repr(a) for a in argv)
        assert echo in out.splitlines()
        assert echo in Path(name).read_text().split("\n")
    assert load_spec("c.spec") == CodeSpec(8, (4, 6, 7, 8))
    assert read_enumeration("e.txt")[1].count == 14
    assert [row["term"] for row in read_bound_csv("b.csv")] == [8, 4, 2]
    assert [row["K"] for row in read_sweep_csv("s.csv")] == [2, 4]
    assert [row["trials"] for row in read_fer_csv("f.csv")] == [8]


def test_bound_csv_round_trips(capsys, tmp_path):
    csv_path = tmp_path / "bound.csv"
    code, _, _ = run(capsys, ["bound", *SPEC8_ARGS, "--csv", str(csv_path)])
    assert code == 0
    rows = read_bound_csv(csv_path)
    assert rows == [
        {"trigger": 4, "overlap": 3, "term": 8},
        {"trigger": 6, "overlap": 2, "term": 4},
        {"trigger": 7, "overlap": 1, "term": 2},
    ]


def test_sweep_csv_round_trips(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, ["sweep", "--N", "16", "--out", str(csv_path)])
    assert code == 0
    rows = read_sweep_csv(csv_path)
    assert [r["K"] for r in rows] == list(range(1, 16))
    for r in rows:
        assert r["R"] == r["K"] / 16
        assert r["exact"] is None or r["exact"] <= r["bound"]
    # spot-check one row against the bound command
    capsys.readouterr()
    assert main(["bound", "--N", "16", "--K", "8"]) == 0
    bound_out = capsys.readouterr().out
    row = next(r for r in rows if r["K"] == 8)
    assert f"total={row['bound']}" in bound_out


def test_sweep_rows_match_each_constructed_code(capsys, tmp_path):
    # sweep reads every K off one reliability order; each row must equal
    # the one built from that K's own construct_pw / construct_ga code
    builds = {
        ("pw",): lambda K: construct_pw(64, K),
        ("ga",): lambda K: construct_ga(64, K, 2.0),
        ("ga", "0"): lambda K: construct_ga(64, K, 0.0),
    }
    for flags, build in builds.items():
        csv_path = tmp_path / "sweep.csv"
        argv = ["sweep", "--N", "64", "--K-grid", "2:62:6", "--exact-limit", "300"]
        argv += ["--construction", flags[0], "--out", str(csv_path)]
        argv += ["--design-ebn0", flags[1]] if len(flags) > 1 else []
        assert run(capsys, argv)[0] == 0
        for row in read_sweep_csv(csv_path):
            spec = build(row["K"])
            report = bound_count(spec)
            exact = enumerate_zero_split(spec).count if report.total <= 300 else None
            assert (row["d_m"], row["bound"], row["exact"]) == (report.d_m, report.total, exact)


def test_simulate_csv_round_trips(capsys, tmp_path):
    csv_path = tmp_path / "fer.csv"
    code, out, _ = run(
        capsys,
        ["simulate", "--N", "16", "--K", "8", "--ebn0", "1:2:0.5",
         "--trials", "400", "--list-size", "2", "--seed", "5",
         "--out", str(csv_path)],
    )
    assert code == 0
    assert csv_path.read_text() == out
    rows = read_fer_csv(csv_path)
    assert [r["ebn0_db"] for r in rows] == [1.0, 1.5, 2.0]
    for r in rows:
        assert 0 <= r["fer"] <= 1 and r["trials"] <= 400


# ---- determinism ----


def test_reruns_are_byte_identical(capsys):
    for argv in (
        ["bound", *SPEC8_ARGS],
        ["enumerate", *SPEC8_ARGS, "--check"],
        ["verify", *SPEC8_ARGS],
        ["simulate", *SPEC8_ARGS, "--ebn0", "2.0", "--trials", "300",
         "--seed", "11"],
    ):
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second


def test_simulate_thread_count_leaves_data_unchanged(capsys):
    base = ["simulate", "--N", "32", "--K", "16", "--ebn0", "2.0",
            "--trials", "1500", "--seed", "3", "--list-size", "2"]
    _, out1, _ = run(capsys, [*base, "--threads", "1"])
    _, out4, _ = run(capsys, [*base, "--threads", "4"])
    assert data_lines(out1) == data_lines(out4)


def test_enumerate_thread_count_leaves_data_unchanged(capsys):
    base = ["enumerate", "--N", "32", "--K", "8", "--method", "subset-scl"]
    _, out1, _ = run(capsys, [*base, "--threads", "1"])
    _, out2, _ = run(capsys, [*base, "--threads", "2"])
    assert data_lines(out1) == data_lines(out2)


def test_threads_default_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("POLARMHW_THREADS", "2")
    code, out, _ = run(capsys, ["enumerate", *SPEC8_ARGS])
    assert code == 0 and "count=14" in out
    monkeypatch.setenv("POLARMHW_THREADS", "soup")
    code, _, err = run(capsys, ["enumerate", *SPEC8_ARGS])
    assert code == 2
    assert "POLARMHW_THREADS" in err


def golden_cli_argvs():
    """verify and enumerate --check on PW(64,32), GA(128,64) and one seeded
    random N=64 set whose bound (112) overshoots its exact count (43)."""
    A = ",".join(map(str, sorted(random.Random(4).sample(range(17, 65), 20))))
    codes = (
        ["--N", "64", "--K", "32"],
        ["--N", "128", "--K", "64", "--construction", "ga"],
        ["--N", "64", "--A", A],
    )
    return [
        [command, *code, *extra]
        for code in codes
        for command, extra in (("verify", []), ("enumerate", ["--check"]))
    ]


def test_cli_stdout_golden_digest(capsys):
    # pins the member order of verify (grouped by first one, capped per
    # trigger) and every check line, and the --check agreement lines
    h = hashlib.sha256()
    for argv in golden_cli_argvs():
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest()[:16] == "192295aa3b453951"


def test_enumerate_variants_golden_digest(capsys, monkeypatch, tmp_path):
    # pins the exit code, stdout and --out bytes of every method, of
    # scl-global's default width and its too-narrow-list warning, and of
    # --check writing the zero-split result
    monkeypatch.chdir(tmp_path)
    variants = (
        ["--method", "scl-global"],
        ["--method", "scl-global", "--list-size", "2", "--out", "f"],
        ["--check", "--out", "f"],
        ["--method", "exhaustive", "--out", "f"],
        ["--method", "subset-scl", "--out", "f"],
        ["--method", "zero-split", "--out", "f"],
    )
    h = hashlib.sha256()
    for variant in variants:
        code, out, err = run(capsys, ["enumerate", *SPEC8_ARGS, *variant])
        assert err == ""
        written = (tmp_path / "f").read_text() if "--out" in variant else ""
        h.update(f"{code}\n{out}\n{written}".encode())
    assert h.hexdigest()[:16] == "4a22c51021cf46b1"


def test_check_mismatch_is_exit_4(capsys, monkeypatch):
    def one_short(spec, threads=1):
        result = enumerate_zero_split(spec)
        return replace(result, words=result.words[1:])

    monkeypatch.setattr(cli, "enumerate_zero_split", one_short)
    code, out, err = run(capsys, ["enumerate", *SPEC8_ARGS, "--check"])
    assert code == 4 and err == ""
    assert out.splitlines()[3:] == [
        "method=EXHAUSTIVE d_m=4 count=14",
        "method=SUBSET_SCL d_m=4 count=14",
        "method=ZERO_SPLIT d_m=4 count=13",
        "method=SCL_GLOBAL d_m=4 count=14",
        "mismatch between enumeration methods",
    ]
