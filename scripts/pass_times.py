#!/usr/bin/env python3
"""In-process pass times of one benchmark workload, per job seed.

Runs every job of one workload in `perfbench/jobs.py` through
`folrank.cli.main`, in this process and each in a fresh output directory,
and prints one line per job seed with the wall time of that pass: the
median over `--passes` passes.  The last line is the mean over the seeds.
An untimed pass over the first seed runs first, so lazy set-up is not
timed.  Two checkouts are compared by alternating runs of this script, one
on each source tree:

    PYTHONPATH=../parent/src python scripts/pass_times.py --workload small-exact
    PYTHONPATH=src python scripts/pass_times.py --workload small-exact

Example:
    PYTHONPATH=src python scripts/pass_times.py --workload fixture-tour --seeds 1 --passes 3
"""

import argparse
import contextlib
import io
import runpy
import statistics
import sys
import tempfile
import time
from pathlib import Path

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


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seeds", default="0,1,2,3", help="comma-separated job seeds")
    parser.add_argument("--passes", type=int, default=1, help="timed passes per seed (median)")
    args = parser.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        parser.error(f"--seeds: expected comma-separated integers, got {args.seeds!r}")
    if not seeds:
        parser.error("--seeds: no seed given")
    if args.passes < 1:
        parser.error(f"--passes: expected a positive count, got {args.passes}")
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
