"""Record the reference digests the benchmark checks outputs against.

    python3 perfbench/record.py [--workload enum ...] [--seeds 0-10]

For every shipped seed this sets up the workload, runs each unit of its
cycle once in-process and stores sha256 prefixes of each command's stdout
and `--out` bytes in perfbench/reference/<workload>.json, keyed by the
command line.  A command whose invariant fails is not recorded and the run
exits 1.  Record again only when a change is meant to alter CLI output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import harness
import run
from workloads import WORKLOADS


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload: str, seeds: list[int], cli) -> tuple[dict, list[str]]:
    reference, problems = {}, []
    for seed in seeds:
        workdir = run.ROOT / ".perfbench" / f"record-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            run.set_up(workload, seed, workdir, 1)
            units = json.loads((workdir / "manifest.json").read_text())["units"]
            os.chdir(workdir)
            checker = harness.Checker({})
            for unit in units:
                for cmd in unit["commands"]:
                    outcome = harness.run_command(cli, cmd)
                    failed = checker.failed
                    checker.check(cmd, outcome)
                    if checker.failed == failed:
                        reference[harness.command_key(cmd)] = list(outcome.digests())
            problems += checker.problems
        finally:
            os.chdir(run.ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{workload} seed {seed}: {len(reference)} commands recorded", flush=True)
    return reference, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record reference output digests")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seeds", default="0-10", help="inclusive range, e.g. 0-10")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    from polarmhw import cli

    status = 0
    for workload in args.workload or WORKLOADS:
        reference, problems = record(workload, _seeds(args.seeds), cli)
        for problem in problems:
            print(f"FAILED {problem}", file=sys.stderr)
        if problems:
            status = 1
            continue
        path = harness.REFERENCE_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
