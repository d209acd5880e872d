"""Run every workload once and print all of their metrics.

    python3 perfbench/report.py --seed 1 --seconds 20 [--trace 1]

Each workload runs in its own process through run.py, exactly as a single
benchmark run does; this prints each run's metric table (name, value, unit,
sample count) and exits 1 if any run failed or reported a failed command.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run all benchmark workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload={workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
