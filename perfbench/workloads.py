"""Seeded inputs for the benchmark workloads.

Run as a script this is the benchmark's set-up step, the part `setup_s`
times: a fresh interpreter imports polarmhw, draws the workload's inputs
from the seed, writes the perturbed and random information sets as spec
files and writes `manifest.json` with the command cycle to run:

    python3 perfbench/workloads.py --workload enum --seed 3 --dir WORKDIR

Every path in a command is relative to WORKDIR, and spec files are named by
the hash of their content, so a command line (and therefore the CLI's
echoed stdout) is the same wherever the set-up ran.

The cycle is a list of units.  A unit is one or more CLI commands that
together finish a piece of work worth `items` of the workload's throughput
unit (frames, codewords or codes); `items` is None when the count is read
from the command's own output.  A timed run only ever runs whole cycles, so
its mix of inputs does not depend on where the clock stops, and the traced
run replays one cycle, so its counters repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("fer", "enum", "crosscheck", "design")

# The item `norm_items_per_s` counts on each workload, and the name the
# roadmap gives that rate.
ITEM_UNITS = {
    "fer": ("frames", "frames_per_s"),
    "enum": ("codewords", "codewords_per_s"),
    "crosscheck": ("codes", "codes_per_s"),
    "design": ("codes", "codes_per_s"),
}

FER_TRIALS = 64
FER_GRID = ("2.0", "3.0")

ENUM_BASE = (1024, 192)
# Bound window for the perturbed enumeration sets, and how many candidates to
# draw for each (about half land in the window).  The bound caps how much each
# set's walk and filter can cost, so drawing inside a window keeps the work
# per cycle from swinging with the seed while every set still differs.
ENUM_WINDOW = ((480, 640), 12)
ENUM_PERTURBED = 4

CROSS_SMALL_K = (14, 16, 18, 20, 22)  # random sets at N = 64, all <= EXHAUSTIVE_CAP
CROSS_FIXED = (256, 136)
# (base code, (bound window, candidates drawn), sets per cycle) of the
# perturbed cross-check codes; about one candidate in eight lands in these
# windows, which hold the cost of the wide global list search steady.
CROSS_PERTURBED = (((128, 64), ((460, 520), 40), 2), (CROSS_FIXED, ((300, 360), 40), 1))

DESIGN_LOG_N = range(10, 17)
DESIGN_REPEATS = 4
DESIGN_SWEEP = ["--N", "65536", "--K-grid", "1024:64512:1024", "--exact-limit", "0"]
DESIGN_SWEEP_CODES = 63

PERTURB_SWAPS = 8
MAX_DRAWS = 5000


def _unit(commands, items):
    return {"commands": commands, "items": items}


def _cmd(argv, kind, out=None, **expect):
    return {"argv": [str(a) for a in argv], "kind": kind, "out": out, "expect": expect}


def write_spec(spec, workdir: Path) -> str:
    """Write spec under WORKDIR/specs, named by content; return the relative path."""
    from polarmhw import save_spec

    tmp = workdir / "specs" / "tmp.spec"
    save_spec(spec, tmp)
    digest = hashlib.sha256(tmp.read_bytes()).hexdigest()[:12]
    rel = f"specs/{digest}.spec"
    tmp.replace(workdir / rel)
    return rel


def perturb(base, rng, window):
    """Swap PERTURB_SWAPS information rows of `base` for frozen rows of weight
    >= d_m; return the first of the candidates whose counting bound lands in
    the window.  `window` is ((lo, hi), draws): all `draws` candidates are
    drawn even after a hit, so the set-up work does not depend on the seed.

    The swaps usually break the partial-order closure of the PW set, so the
    zero-split walk meets killed branches and the bound is loose.
    """
    from polarmhw import CodeSpec, bound_count

    d_m = bound_count(base, materialize_sets=False).d_m
    info = sorted(base.A)
    frozen = [
        p
        for p in range(1, base.N + 1)
        if not base.is_info(p) and 1 << (p - 1).bit_count() >= d_m
    ]
    (lo, hi), draws = window
    found = None
    for draw in range(1, MAX_DRAWS + 1):
        keep = set(info) - set(rng.sample(info, PERTURB_SWAPS))
        spec = CodeSpec(base.N, tuple(sorted(keep | set(rng.sample(frozen, PERTURB_SWAPS)))))
        report = bound_count(spec, materialize_sets=False)
        if found is None and report.d_m == d_m and lo <= report.total <= hi:
            found = spec, report.total
        if found is not None and draw >= draws:
            return found
    raise RuntimeError(f"no perturbation of N={base.N} K={base.K} has a bound in [{lo}, {hi}]")


def fer_cycle(rng, workdir):
    argv = [
        "simulate", "--N", 512, "--K", 256, "--list-size", 8,
        "--ebn0", ",".join(FER_GRID), "--trials", FER_TRIALS, "--error-limit", 0,
        "--threads", 1, "--seed", rng.seed_value, "--out", "out/fer.csv",
    ]
    cmd = _cmd(argv, "simulate", out="out/fer.csv", trials=FER_TRIALS, points=len(FER_GRID))
    return [_unit([cmd], FER_TRIALS * len(FER_GRID))]


def enum_cycle(rng, workdir):
    from polarmhw import bound_count, construct_pw

    N, K = ENUM_BASE
    base = construct_pw(N, K)
    base_unit = _unit(
        [_cmd(["enumerate", "--N", N, "--K", K, "--out", "out/enum.txt"], "enumerate",
              out="out/enum.txt", bound=bound_count(base, materialize_sets=False).total)],
        None,
    )
    perturbed = []
    for _ in range(ENUM_PERTURBED):
        spec, total = perturb(base, rng, ENUM_WINDOW)
        path = write_spec(spec, workdir)
        perturbed.append(
            _unit([_cmd(["enumerate", "--spec", path, "--out", "out/enum.txt"], "enumerate",
                        out="out/enum.txt", bound=total)], None)
        )
    half = ENUM_PERTURBED // 2
    return perturbed[:half] + [base_unit] + perturbed[half:]


def _code_unit(code_args):
    return _unit(
        [_cmd(["enumerate", *code_args, "--check"], "check"), _cmd(["verify", *code_args], "verify")],
        1,
    )


def crosscheck_cycle(rng, workdir):
    from polarmhw import CodeSpec, construct_pw

    small = []
    for K in CROSS_SMALL_K:
        spec = CodeSpec(64, tuple(sorted(rng.sample(range(1, 65), K))))
        small.append(_code_unit(["--spec", write_spec(spec, workdir)]))
    perturbed = {}
    for (N, K), window, count in CROSS_PERTURBED:
        base = construct_pw(N, K)
        perturbed[N] = [
            _code_unit(["--spec", write_spec(perturb(base, rng, window)[0], workdir)])
            for _ in range(count)
        ]
    fixed = _code_unit(["--N", CROSS_FIXED[0], "--K", CROSS_FIXED[1]])
    p128, p256 = perturbed[128], perturbed[256]
    cycle = [small[0], p128[0], small[1], fixed, small[2], p256[0], small[3], p128[1], small[4]]
    return cycle


def design_cycle(rng, workdir):
    halves = []
    for construction in ("pw", "ga"):
        bounds = []
        for log_n in DESIGN_LOG_N:
            N = 1 << log_n
            for _ in range(DESIGN_REPEATS):
                argv = ["bound", "--N", N, "--K", rng.randint(1, N - 1), "--construction", construction]
                bounds.append(_unit([_cmd(argv, "bound")], 1))
        rng.shuffle(bounds)
        sweep = _unit(
            [_cmd(["sweep", *DESIGN_SWEEP, "--construction", construction], "sweep",
                  rows=DESIGN_SWEEP_CODES)],
            DESIGN_SWEEP_CODES,
        )
        half = len(bounds) // 2
        halves += bounds[:half] + [sweep] + bounds[half:]
    return halves


CYCLES = {
    "fer": fer_cycle,
    "enum": enum_cycle,
    "crosscheck": crosscheck_cycle,
    "design": design_cycle,
}


class _Rng(random.Random):
    """random.Random seeded from (workload, seed); keeps the raw seed around."""

    def __init__(self, workload: str, seed: int):
        super().__init__(f"{workload}:{seed}")
        self.seed_value = seed


def set_up(workload: str, seed: int, workdir: Path) -> dict:
    """Write the spec files and manifest for one workload; return the manifest."""
    (workdir / "specs").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(exist_ok=True)
    cycle = CYCLES[workload](_Rng(workload, seed), workdir)
    manifest = {"workload": workload, "seed": seed, "units": cycle}
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    set_up(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
