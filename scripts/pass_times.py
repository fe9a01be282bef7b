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


def tree_mean(src: Path, args) -> float:
    """The mean pass time over the seeds, in a fresh process that imports
    `folrank` from the source tree `src`."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seeds", args.seeds, "--passes", str(args.passes)]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    return float(out.splitlines()[-1].split()[2])


def compare(args) -> None:
    """Print each pair's means, this tree's first, then this tree's wins."""
    trees = (Path(folrank.__file__).resolve().parents[1], args.against)
    wins = 0
    for pair in range(1, args.pairs + 1):
        means = [0.0, 0.0]
        for t in (0, 1) if pair % 2 else (1, 0):
            means[t] = tree_mean(trees[t], args)
        wins += means[0] < means[1]
        print(f"{args.workload} pair={pair} this {means[0]:.4f} s against {means[1]:.4f} s")
    print(f"{args.workload} wins {wins} of {args.pairs}")


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
        compare(args)
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
