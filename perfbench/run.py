"""polarmhw benchmark: fixed CLI workloads, run in-process, one client.

    python3 perfbench/run.py --workload fer --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this directory and must
hold `src/polarmhw`, or the run exits 2 without printing a result.

Set-up (workloads.py) runs in SETUP_RUNS fresh interpreters; `setup_s` is
the median of their wall times.  The main process then calls
`polarmhw.cli.main(argv)` for one command at a time: a closed loop with one
client and `--threads 1`.  It runs the workload's cycle, whole cycles only,
until `--seconds` have passed.  The first unit runs once untimed first, so
lazy set-up in numpy and the allocator is not charged to a sample.  Every
command's stdout and `--out` bytes are checked (harness.py); a failed
command counts in `failed` and never aborts the run.

--trace 0 reports the end-to-end metrics:
  setup_s           median wall time of a fresh set-up process
  norm_items_per_s  work items per second of command wall time, with the
                    wall time rescaled to the nominal host speed (see
                    timed_run).  The item is a frame (fer), a codeword (enum)
                    or a code (crosscheck, design); the table prints it under
                    that name (frames_per_s, codewords_per_s, codes_per_s).
  peak_rss_mb       peak resident set of the process that ran the commands
The table above the JSON line also prints, ungated, the raw items_per_s,
the median command time (cmd_s_p50), its 90th percentile when at least 100
commands ran (cmd_s_p90) and failed_frac, the failed share of commands.
Command latency is not gated because a median over a mix of command sizes
follows the seed's mix, not the code.  The raw rate is not gated because
other tenants move this host's speed by 10-25% from one run to the next.

--trace 1 replays one cycle untraced and then traced, with every public
polarmhw function wrapped (tracer.py), fails any command whose bytes differ
between the two replays, and reports the per-layer metrics plus
trace.overhead_ratio.  The spans go to .perfbench/trace-<workload>-<seed>.json.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import harness
import tracer
from workloads import ITEM_UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 9
SETUP_TIMEOUT = 120

# Host-speed probe: a fixed job of about PROBE_NOMINAL_S seconds on an
# unloaded 2-core Xeon, run after every PROBE_EVERY seconds of commands.
PROBE_LOOP = 100_000
PROBE_ARRAY = 16_384
PROBE_SORTS = 60
PROBE_BOXES = 4
PROBE_EVERY = 0.5
PROBE_NOMINAL_S = 0.025


def probe() -> float:
    """Seconds for a fixed piece of work that does not touch polarmhw: an
    interpreted integer loop, numpy sorts, and boxing a large array into a
    sorted tuple, which loads the allocator and cache like the CLI does."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += (i * i) % 7
    a = np.arange(PROBE_ARRAY, dtype=np.float64)
    for _ in range(PROBE_SORTS):
        a = np.sort(a[::-1]) + 1.0
    for _ in range(PROBE_BOXES):
        tuple(sorted(float(x) for x in a[::-1]))
    return time.perf_counter() - t0


def set_up(workload, seed, workdir, runs):
    """Run the set-up `runs` times in fresh interpreters.

    Returns the wall times and the same times rescaled to the nominal host
    speed by the probes that bracket each run (see timed_run).
    """
    raw, scaled, probes = [], [], [probe()]
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--dir", str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT,
        )
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
        probes.append(probe())
        scaled.append(raw[-1] * PROBE_NOMINAL_S / statistics.fmean(probes[-2:]))
    return raw, scaled


def run_unit(cli, checker, unit, outcomes=None):
    """Run a unit's commands; return (seconds, per-command seconds, items).

    A unit with a failed command yields no items."""
    failed_before = checker.failed
    seconds, samples, items = 0.0, [], 0
    for cmd in unit["commands"]:
        outcome = harness.run_command(cli, cmd)
        items += checker.check(cmd, outcome)
        if outcomes is not None:
            outcomes.append(outcome)
        seconds += outcome.seconds
        samples.append(outcome.seconds)
    if checker.failed != failed_before:
        items = 0
    elif unit["items"] is not None:
        items = unit["items"]
    return seconds, samples, items


@dataclass
class Timing:
    busy: float = 0.0  # wall seconds inside cli.main
    scaled: float = 0.0  # the same seconds at the nominal host speed
    items: int = 0
    samples: list = field(default_factory=list)  # per-command wall seconds
    probes: list = field(default_factory=list)


def timed_run(cli, checker, units, budget) -> Timing:
    """Run whole cycles of the workload until `budget` seconds have passed.

    Each stretch of about PROBE_EVERY seconds of commands is rescaled by
    PROBE_NOMINAL_S over the mean of the two probes that bracket it, so a
    host that is slowed down by other tenants slows the probe alike and the
    rescaled time stays put while the raw time moves.
    """
    run_unit(cli, checker, units[0])
    out = Timing(probes=[probe()])
    stretch = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < budget:
        for k, unit in enumerate(units):
            seconds, cmd_samples, items = run_unit(cli, checker, unit)
            out.busy += seconds
            out.items += items
            out.samples += cmd_samples
            stretch += seconds
            if stretch >= PROBE_EVERY or k == len(units) - 1:
                out.probes.append(probe())
                out.scaled += stretch * PROBE_NOMINAL_S / statistics.fmean(out.probes[-2:])
                stretch = 0.0
    return out


def traced_run(cli, checker, units, trace_path):
    """Replay one cycle untraced, then traced; return per-layer metrics.

    The checker fails any traced command whose bytes differ from its untraced
    run.  trace.overhead_ratio compares the two replays, each rescaled by the
    probes that bracket it.
    """
    run_unit(cli, checker, units[0])
    traced = []
    probes = [probe()]
    plain_s = sum(run_unit(cli, checker, unit)[0] for unit in units)
    probes.append(probe())
    rec = tracer.Tracer()
    rec.install()
    try:
        traced_s = sum(run_unit(cli, checker, unit, traced)[0] for unit in units)
    finally:
        rec.uninstall()
    probes.append(probe())
    rec.dump(trace_path)
    metrics = tracer.layer_metrics(rec.spans)
    metrics["channel.frame_errors"] = sum(
        int(row.split(",")[2])
        for cmd, outcome in zip((c for u in units for c in u["commands"]), traced)
        if cmd["kind"] == "simulate"
        for row in harness.data_rows(outcome.stdout)[1:]
    )
    metrics["trace.overhead_ratio"] = (traced_s / (probes[1] + probes[2])) / (
        plain_s / (probes[0] + probes[1])
    )
    return metrics, plain_s, traced_s, len(rec.spans)


UNITS = {"_s": "s", "_ratio": "ratio", "_bytes": "bytes"}


def _unit_of(name):
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="polarmhw benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polarmhw" / "__init__.py").is_file():
        print(f"error: no polarmhw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            setup_raw, setup_times = set_up(args.workload, args.seed, workdir, 1 if args.trace else SETUP_RUNS)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        manifest = json.loads((workdir / "manifest.json").read_text())
        units = manifest["units"]
        os.chdir(workdir)
        from polarmhw import cli

        checker = harness.Checker(harness.load_reference(args.workload))
        item, alias = ITEM_UNITS[args.workload]
        lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"]
        if args.trace:
            trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
            layer, plain_s, traced_s, n_spans = traced_run(cli, checker, units, trace_path)
            metrics = {name: {"value": v, "unit": _unit_of(name)} for name, v in layer.items()}
            lines.append(
                f"replayed one cycle of {len(units)} units: untraced {plain_s:.3f} s, "
                f"traced {traced_s:.3f} s, {n_spans} spans -> {trace_path.relative_to(ROOT)}"
            )
            for name, m in metrics.items():
                lines.append(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
        else:
            run = timed_run(cli, checker, units, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            n = len(run.samples)
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "norm_items_per_s": {"value": run.items / run.scaled, "unit": "1/s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
            }
            lines += [
                f"  setup_s           {metrics['setup_s']['value']:.4f} s at nominal host speed"
                f"  (median of {len(setup_times)} set-up processes; raw {statistics.median(setup_raw):.4f} s)",
                f"  norm_items_per_s  {run.items / run.scaled:.4f} {item}/s = {alias} at nominal host"
                f" speed  ({run.items} {item}, {n} commands; median probe"
                f" {statistics.median(run.probes):.4f} s of {len(run.probes)}, nominal {PROBE_NOMINAL_S} s)",
                f"  items_per_s       {run.items / run.busy:.4f} {item}/s raw, not gated"
                f"  ({run.items} {item} in {run.busy:.3f} s)",
                f"  cmd_s_p50         {statistics.median(run.samples):.5f} s  ({n} commands)",
            ]
            if n >= 100:
                p90 = statistics.quantiles(run.samples, n=10)[-1]
                lines.append(f"  cmd_s_p90         {p90:.5f} s  ({n} commands)")
            lines.append(f"  peak_rss_mb       {rss_mb:.1f} MiB  (1 process)")
        lines.append(
            f"  failed_frac       {checker.failed / checker.attempted:.4f}  "
            f"({checker.failed} of {checker.attempted} commands)"
        )
        lines += [f"  FAILED {p}" for p in checker.problems[:20]]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
