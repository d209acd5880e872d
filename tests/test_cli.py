"""Command-line behavior: exit codes, echoes, round-trips, determinism."""

import argparse
import hashlib
import io
import math
import random
import re
import shlex
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    save_spec,
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
    (
        [*SIM8_ARGS, "--ebn0", "-1e308:1e308:1e308"],
        "--ebn0 range overflows: (stop - start) / step is not finite",
    ),
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


@pytest.mark.parametrize("log_n", [60, 100])
@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--K", "3"],
        ["bound", "--K", "3", "--construction", "ga"],
        ["construct", "--K", "3", "--out", "code.spec"],
        ["sweep"],
    ],
)
def test_huge_N_is_refused_before_it_allocates(capsys, tmp_path, monkeypatch, log_n, argv):
    # both lengths are past the address space, so the order's one
    # full-length buffer is refused whatever the host allows
    monkeypatch.chdir(tmp_path)
    argv = [argv[0], "--N", str(1 << log_n), *argv[1:]]
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert peak < 1 << 20
    assert not (tmp_path / "code.spec").exists()


def test_huge_N_with_an_explicit_A_is_refused(capsys):
    # numpy fails to allocate the mask at 2**60 and cannot address it at
    # 2**100; both are one refused line
    for log_n in (60, 100):
        code, out, err = run(capsys, ["bound", "--N", str(1 << log_n), "--A", "1,2"])
        assert (code, out) == (3, "")
        assert err.startswith("refused: ") and err.count("\n") == 1


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


# ---- no traceback, whatever the argv ----

JUNK = st.sampled_from(["", "x", "1.5", "0x10", " ", "1,,2", "--"]) | st.text(max_size=4)
NON_FINITE = (
    st.sampled_from(["1e400", "-1e400", "NaN", "-inf", "1e308", "-1e308"]) | st.floats().map(repr)
)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def joined(values, min_size=0):
    lists = st.lists(values, min_size=min_size, max_size=4)
    return st.tuples(lists, st.sampled_from([",", " ", ", "])).map(lambda p: p[1].join(p[0]))


def ranges(starts, steps):
    """start:stop:step texts of at most 9 values."""
    three = st.tuples(starts, st.integers(0, 8), steps)
    return three.map(lambda t: f"{t[0]!r}:{t[0] + t[1] * t[2]!r}:{t[2]!r}")


def wide_ranges(ends, steps):
    """start:stop:step texts whose span or count may overflow a float, or
    that descend, but never of more than 9 finite steps."""
    three = st.tuples(ends, ends, steps).filter(lambda t: not 9 < (t[1] - t[0]) / t[2] < math.inf)
    return three.map(lambda t: ":".join(map(repr, t)))


def argv_values(root):
    """Per value-taking flag of any command: (a strategy for valid values, one
    for malformed, non-finite or out-of-range ones), as text.  code_flags
    draws a mostly valid code; these serve the flags drawn beside it."""
    paths = st.just(str(root / "out.txt")), st.just(str(root / "no" / "such" / "out.txt"))
    specs = [str(root / name) for name in ("spec.txt", "garbage.txt", "missing.txt")]
    ebn0 = st.floats(-2, 6).map(repr)
    return {
        "--N": (st.sampled_from(["4", "8", "16", "32", "64"]), ints(-2, 64) | JUNK),
        "--K": (ints(1, 64), ints(-2, 70) | JUNK),
        "--A": (joined(ints(1, 64), 1), joined(ints(-1, 70)) | JUNK),
        "--construction": (st.sampled_from(["pw", "ga"]), st.just("rm")),
        "--design-ebn0": (st.floats(-5, 10).map(repr), NON_FINITE | JUNK),
        "--spec": (st.just(specs[0]), st.sampled_from(specs[1:])),
        "--out": paths,
        "--csv": paths,
        "--threads": (ints(1, 4), st.just("0")),
        "--method": (st.sampled_from(list(cli._METHODS)), st.just("fastest")),
        "--list-size": (ints(1, 64), ints(-1, 0) | JUNK),
        "--max-triggers": (ints(1, 10), ints(-1, 0)),
        "--max-members": (ints(1, 10), ints(-1, 0)),
        "--exact-limit": (ints(-1, 10**5), JUNK),
        "--ebn0": (
            ebn0 | joined(ebn0, 1) | ranges(st.floats(-2, 6), st.floats(0.25, 2)),
            st.sampled_from(["-1e308:1e308:1e308", "0:1e308:1e-300", "1e308:1.7e308:5e307"])
            | wide_ranges(st.sampled_from([-1e308, 1e308, 0.0]), st.sampled_from([1e308, 1e-300]))
            | joined(NON_FINITE, 1)
            | st.sampled_from(["1:2", "2:1:1", "1:2:0", "a:b:c", "1:2:3:4", ""]),
        ),
        "--trials": (ints(1, 64), ints(-1, 0) | JUNK),
        "--seed": (
            ints(0, 2**64 - 1) | ints(2**64 - 8000, 2**64 - 1),
            ints(-2, -1) | ints(2**64, 2**64 + 2),
        ),
        "--error-limit": (ints(-1, 100), JUNK),
        "--K-grid": (
            joined(ints(1, 64), 1) | ranges(st.integers(1, 64), st.integers(1, 40)),
            joined(ints(-2, 70)) | ranges(st.integers(-2, 70), st.integers(-1, 40))
            | wide_ranges(
                st.sampled_from([-(10**30), -1, 0, 5, 70, 10**30]), st.sampled_from([1, 3, 10**30])
            )
            | JUNK,
        ),
    }


def command_flags():
    """Each command's flags but --help: (those that take a value, switches)."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        takes = [a.option_strings[0] for a in actions if a.nargs != 0]
        flags[name] = takes, [a.option_strings[0] for a in actions if a.nargs == 0]
    return flags


def rarely(draw, one_in=8):
    """True one time in one_in (st.integers favours its bounds)."""
    return draw(st.sampled_from([True] + [False] * (one_in - 1)))


@st.composite
def code_flags(draw, takes, spec):
    """--spec, or --N with --K (and perhaps --construction ga and its
    --design-ebn0) or --A, mostly valid."""
    sources = ["--spec", "--K", "--K", "--A"] if "--spec" in takes else ["--K", "--A"]
    source = draw(st.sampled_from(sources))
    if source == "--spec":
        return ["--spec", spec]
    N = draw(st.sampled_from([4, 8, 16, 32, 64]))
    if source == "--K":
        ga = ["--construction", "ga", "--design-ebn0", draw(st.floats(-5, 10).map(repr))]
        K = draw(ints(-2, 70) | JUNK if rarely(draw) else ints(1, N))
        return ["--N", str(N), "--K", K] + (ga if draw(st.booleans()) else [])
    K = draw(st.integers(1, min(N, 24)))
    A = ",".join(map(str, draw(st.permutations(range(1, N + 1)))[:K]))
    return ["--N", str(N), "--A", draw(joined(ints(-1, 70)) | JUNK) if rarely(draw) else A]


@st.composite
def argvs(draw, root):
    """A command and some of its flags, about one value in eight invalid,
    sometimes an unknown flag; most commands get a code and their required
    flags."""
    values, flags = argv_values(root), command_flags()
    command = draw(st.sampled_from(sorted(flags)))
    takes, switches = flags[command]
    argv = [command]
    if "--K" in takes and not rarely(draw):
        argv += draw(code_flags(takes, str(root / "spec.txt")))
    required = {"construct": ["--out"], "simulate": ["--ebn0", "--trials"]}.get(command, [])
    if command == "sweep" and not rarely(draw):
        required = ["--N"] + (["--construction"] if draw(st.booleans()) else [])
    pool = takes + switches
    if len(argv) > 1 and not rarely(draw):  # a code is given: mostly no second one
        code = ("--N", "--K", "--A", "--spec", "--construction", "--design-ebn0")
        pool = [flag for flag in pool if flag not in code]
    chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=5))
    for flag in required + [f for f in chosen if f not in required and f not in argv]:
        if flag in switches:
            argv.append(flag)
        else:
            good, bad = values[flag]
            # a command's required flags carry its main input: bad more often
            argv += [flag, draw(bad if rarely(draw, 4 if flag in required else 8) else good)]
    if rarely(draw) and rarely(draw):
        argv.insert(draw(st.integers(1, len(argv))), "--bogus")
    return argv


def test_main_returns_an_exit_code_and_one_error_line_for_any_argv(tmp_path, monkeypatch):
    # every command and flag, with values valid, malformed, non-finite or out
    # of range: main never raises, exits 0, 2, 3 or 4, and writes to stderr
    # exactly one error: or refused: line when, and only when, it exits 2 or 3
    monkeypatch.delenv("POLARMHW_THREADS", raising=False)
    save_spec(construct_pw(16, 8), tmp_path / "spec.txt")
    (tmp_path / "garbage.txt").write_text("not a spec\n")
    flags = command_flags()
    assert sorted(flags) == ["bound", "construct", "enumerate", "simulate", "sweep", "verify"]
    assert {flag for takes, _ in flags.values() for flag in takes} == set(argv_values(tmp_path))

    @settings(derandomize=True, max_examples=500, deadline=None, database=None)
    @given(argvs(tmp_path))
    def clean(argv):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3, 4)
        if code in (2, 3):
            assert err.startswith(("error: ", "refused: ")) and err.count("\n") == 1
            assert err.endswith("\n")
        else:
            assert err == ""

    clean()
