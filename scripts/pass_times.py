#!/usr/bin/env python3
"""In-process pass times of one benchmark workload, per job seed.

Runs every job of one workload in `perfbench/jobs.py` through
`folrank.cli.main`, in this process and each in a fresh output directory,
and prints one line per job seed with the wall time of that pass: the
median over `--passes` passes.  The last line is the mean over the seeds.
An untimed pass over the first seed runs first, so lazy set-up is not
timed.

With `--against OTHER_SRC` the script compares two source trees instead:
the `folrank` it imports and the one in OTHER_SRC.  It runs `--pairs` pairs
of fresh processes, one per tree, each printing the mean above, and flips
which tree goes first from one pair to the next, so drift on the host
falls on both.  It prints both means of each pair, then how many pairs the
imported tree won (a lower mean):

    PYTHONPATH=src python scripts/pass_times.py --workload small-exact --against ../parent/src --pairs 10

Example:
    PYTHONPATH=src python scripts/pass_times.py --workload fixture-tour --seeds 1 --passes 3
"""

import argparse
import contextlib
import io
import os
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import folrank
from folrank.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]


def load_workloads() -> dict:
    """`WORKLOADS` of perfbench/jobs.py.  run_path compiles the source itself
    and writes no bytecode beside it."""
    return runpy.run_path(str(ROOT / "perfbench" / "jobs.py"))["WORKLOADS"]


def pass_time(jobs, seed: int) -> float:
    """Seconds to run every job once at this job seed, output included."""
    elapsed = 0.0
    for job in jobs:
        with tempfile.TemporaryDirectory() as tmp:
            argv = job.argv(seed, Path(tmp))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                cli_main(argv)
                elapsed += time.perf_counter() - t0
    return elapsed


def fresh_stdout(script: str, src: Path, argv: list[str]) -> str:
    """The output of `script` with these arguments, in a fresh process that
    imports `folrank` from the source tree `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, script, *argv], env=env, capture_output=True, text=True, check=True).stdout


def compare(trees, pairs: int, measure, unit: str = "s") -> None:
    """Alternate `measure` over two source trees, this one first: `measure(src)`
    gives a time per label.  For each pair and label print both times, this
    tree's first, then for each label how many pairs this tree won (a lower
    time).  Which tree goes first flips from one pair to the next."""
    wins = {}
    for pair in range(1, pairs + 1):
        got = [{}, {}]
        for t in (0, 1) if pair % 2 else (1, 0):
            got[t] = measure(trees[t])
        for label, this in got[0].items():
            wins[label] = wins.get(label, 0) + (this < got[1][label])
            print(f"{label} pair={pair} this {this:.4f} {unit} against {got[1][label]:.4f} {unit}")
    for label, won in wins.items():
        print(f"{label} wins {won} of {pairs}")


def tree_mean(src: Path, args) -> dict[str, float]:
    """The mean pass time over the seeds, in a fresh process that imports
    `folrank` from the source tree `src`."""
    argv = ["--workload", args.workload, "--seeds", args.seeds, "--passes", str(args.passes)]
    return {args.workload: float(fresh_stdout(__file__, src, argv).splitlines()[-1].split()[2])}


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seeds", default="0,1,2,3", help="comma-separated job seeds")
    parser.add_argument("--passes", type=int, default=1, help="timed passes per seed (median)")
    parser.add_argument("--against", type=Path, help="another source tree to compare with, in fresh processes")
    parser.add_argument("--pairs", type=int, default=10, help="process pairs with --against")
    args = parser.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        parser.error(f"--seeds: expected comma-separated integers, got {args.seeds!r}")
    if not seeds:
        parser.error("--seeds: no seed given")
    if args.passes < 1:
        parser.error(f"--passes: expected a positive count, got {args.passes}")
    if args.pairs < 1:
        parser.error(f"--pairs: expected a positive count, got {args.pairs}")
    if args.against is not None:
        if not (args.against / "folrank").is_dir():
            parser.error(f"--against: no folrank package in {args.against}")
        compare((Path(folrank.__file__).resolve().parents[1], args.against), args.pairs, lambda src: tree_mean(src, args))
        return 0
    jobs = workloads[args.workload]
    pass_time(jobs, seeds[0])
    times = []
    for seed in seeds:
        times.append(statistics.median(pass_time(jobs, seed) for _ in range(args.passes)))
        print(f"{args.workload} seed={seed} {times[-1]:.4f} s")
    print(f"{args.workload} mean {statistics.mean(times):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
