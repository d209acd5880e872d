"""Running one CLI command in-process and checking what it produced.

Commands go through `polarmhw.cli.main(argv)`, looked up at call time so a
traced run sees its wrapped version.  Stdout and stderr are captured; the
command's `--out` file is removed first and read back afterwards.

A command passes when its exit code is 0, its invariant holds, its stdout and
`--out` bytes equal the reference recorded for that exact command line (when
one was recorded) and equal every earlier run of the same command line in
this process.  A failing command is counted, never raised.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Outcome:
    seconds: float
    rc: int | None
    stdout: str
    stderr: str
    out_bytes: bytes | None

    def digests(self) -> tuple[str, str | None]:
        out = None if self.out_bytes is None else _digest(self.out_bytes)
        return _digest(self.stdout.encode()), out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def command_key(cmd) -> str:
    return " ".join(cmd["argv"])


def run_command(cli, cmd) -> Outcome:
    """Run one command; only the call to cli.main sits inside the timer."""
    out_path = cmd["out"]
    if out_path and os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(cmd["argv"]))
        except Exception:  # a crash is a failed command, not a failed run
            rc = None
            traceback.print_exc(file=stderr)
        seconds = time.perf_counter() - t0
    out_bytes = None
    if out_path and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            out_bytes = fh.read()
    return Outcome(seconds, rc, stdout.getvalue(), stderr.getvalue(), out_bytes)


# ---- invariants: each returns (problem or None, items read from the output) ----


def data_rows(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _check_simulate(cmd, outcome):
    rows = data_rows(outcome.stdout)[1:]
    trials, points = cmd["expect"]["trials"], cmd["expect"]["points"]
    if len(rows) != points:
        return f"{len(rows)} CSV rows, expected {points}", 0
    for row in rows:
        cells = row.split(",")
        if int(cells[1]) != trials or not 0 <= int(cells[2]) <= trials:
            return f"row {row!r} does not carry {trials} trials", 0
    if outcome.out_bytes != outcome.stdout.encode():
        return "--out CSV differs from stdout", 0
    return None, trials * points


def _check_enumerate(cmd, outcome):
    m = re.search(r"^method=ZERO_SPLIT d_m=\d+ count=(\d+) ", outcome.stdout, re.M)
    if not m:
        return "no count line", 0
    count = int(m.group(1))
    if count > cmd["expect"]["bound"]:
        return f"count {count} exceeds bound {cmd['expect']['bound']}", 0
    if outcome.out_bytes is None or f"\ncount={count}\n".encode() not in outcome.out_bytes:
        return "--out file missing or its count differs", 0
    return None, count


def _check_agree(cmd, outcome):
    if not re.search(r"^\d+ methods agree: \d+ vectors$", outcome.stdout, re.M):
        return "enumeration methods do not agree", 0
    return None, 0


def _check_verify(cmd, outcome):
    if not re.search(r"^verify: \d+ checks, \d+ PASS, 0 FAIL, \d+ INFO$", outcome.stdout, re.M):
        return "verify reports a FAIL", 0
    return None, 0


def _check_bound(cmd, outcome):
    m = re.search(r"^d_m=\d+ triggers=(\d+)$", outcome.stdout, re.M)
    rows = re.findall(r"^\d+,\d+,\d+$", outcome.stdout, re.M)
    total = re.search(r"^total=(\d+)$", outcome.stdout, re.M)
    if not m or not total or len(rows) != int(m.group(1)):
        return "malformed bound report", 0
    if sum(int(r.rsplit(",", 1)[1]) for r in rows) != int(total.group(1)):
        return "bound terms do not add up to the total", 0
    return None, 0


def _check_sweep(cmd, outcome):
    rows = data_rows(outcome.stdout)[1:]
    if len(rows) != cmd["expect"]["rows"] or any(not r.endswith(",") for r in rows):
        return f"{len(rows)} sweep rows or an exact count where none was asked for", 0
    return None, 0


INVARIANTS = {
    "simulate": _check_simulate,
    "enumerate": _check_enumerate,
    "check": _check_agree,
    "verify": _check_verify,
    "bound": _check_bound,
    "sweep": _check_sweep,
}


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


class Checker:
    """Counts attempted and failed commands against the reference digests."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.seen: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, cmd, outcome: Outcome) -> int:
        """Record one command's outcome; return the items it produced (0 if it failed)."""
        self.attempted += 1
        key = command_key(cmd)
        digests = list(outcome.digests())
        if outcome.rc != 0:
            problem, items = f"exit code {outcome.rc}: {outcome.stderr.strip()[-300:]}", 0
        else:
            problem, items = INVARIANTS[cmd["kind"]](cmd, outcome)
        if problem is None and key in self.reference and self.reference[key] != digests:
            problem = "stdout or --out bytes differ from the recorded reference"
        if problem is None and self.seen.setdefault(key, digests) != digests:
            problem = "stdout or --out bytes differ from an earlier run of the same command"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{key}: {problem}")
            return 0
        return items
