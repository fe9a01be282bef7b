#!/usr/bin/env python3
"""Wall time and peak RSS of a fixed CLI job list, one fresh process per job.

The jobs are the `fixtures` and `commands` workloads of
`scripts/report_digest.py`, two jobs whose window cores reach the
modular rank kernel (`kernel`): `vnd z2hard --L 128,256` and
`vnd hhard --L 5,6`, and two whose cores all go through the doubleton
merges, at sizes no benchmark workload reaches (`merges`):
`vnd xy_minus_one --L 128,256` and `vnd heisenberg_ab --L 5,6`, and
`verify-suite` at 100 and at 1000 cases (`suites`), where drawing the cases
is a large part of the run.  Each job runs as `python -m folrank.cli` in its
own process, with the `folrank` that this script imports and a fresh output
directory.  The process is reaped with `os.wait4`, so its peak RSS is its
own: `RUSAGE_CHILDREN` would keep the largest peak of all children so far.

Every job runs at job seed 0.  The JSON written to `--out` holds the commit
of the source tree, the CPU count, the Python and numpy versions, and for
each job its name, argv (input paths relative to the repository, the output
directory shown as OUT), exit code, wall seconds and peak RSS in MB.  To
compare a change with its parent, run the script on both trees:

    PYTHONPATH=src python scripts/bench.py --out after.json
    PYTHONPATH=../parent/src python scripts/bench.py --out before.json

Example:
    PYTHONPATH=src python scripts/bench.py --only commands/erank-hhard,kernel/vnd-hhard --out bench.json
"""

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import folrank

ROOT = Path(__file__).resolve().parents[1]
KERNEL_JOBS = (("vnd", "z2hard", "128,256"), ("vnd", "hhard", "5,6"))
MERGE_JOBS = (("vnd", "xy_minus_one", "128,256"), ("vnd", "heisenberg_ab", "5,6"))
SUITE_CASES = (100, 1000)
SEED = 0


@dataclass(frozen=True)
class SuiteJob:
    """`verify-suite` at one case count."""

    cases: int

    @property
    def name(self) -> str:
        return f"verify-suite-{self.cases}"

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        return ["verify-suite", "--cases", str(self.cases), "--seed", str(seed), "--out", str(out_dir)]


def _report_digest():
    spec = importlib.util.spec_from_file_location("report_digest", ROOT / "scripts" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_jobs() -> dict:
    """Each job by its name, `workload/command-fixture`."""
    digest = _report_digest()
    workloads = {
        "fixtures": digest.FIXTURE_JOBS,
        "commands": digest.command_jobs(),
        "kernel": tuple(digest.FixtureJob(*job) for job in KERNEL_JOBS),
        "merges": tuple(digest.FixtureJob(*job) for job in MERGE_JOBS),
        "suites": tuple(SuiteJob(cases) for cases in SUITE_CASES),
    }
    return {f"{name}/{job.name}": job for name, jobs in workloads.items() for job in jobs}


def run_job(argv: list[str], env: dict) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one CLI process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "folrank.cli", *argv], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped: Popen must not wait for it
    return proc.returncode, wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def commit(src: Path) -> str:
    """The commit of the git checkout holding `src`, marked `-dirty` when
    its tracked files differ from it; "unknown" outside a checkout."""
    found = subprocess.run(
        ["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=40"], capture_output=True, text=True
    )
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def main(argv=None) -> int:
    jobs = bench_jobs()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--only", help="comma-separated job names (default: every job)")
    args = parser.parse_args(argv)
    names = list(jobs)
    if args.only is not None:
        names = [name for name in args.only.split(",") if name]
        unknown = [name for name in names if name not in jobs]
        if unknown or not names:
            parser.error(f"--only: unknown job names {unknown}; the jobs are {list(jobs)}")
    src = Path(folrank.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    results = []
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            job_argv = jobs[name].argv(SEED, Path(tmp))
            code, wall, rss = run_job(job_argv, env)
        shown = [os.path.relpath(a, ROOT) if a.startswith(f"{ROOT}{os.sep}") else a for a in job_argv]
        shown[shown.index("--out") + 1] = "OUT"
        results.append(
            {"name": name, "argv": shown, "exit": code, "wall_s": round(wall, 4), "peak_rss_mb": round(rss, 1)}
        )
        print(f"{name}: exit {code}, {wall:.3f} s, {rss:.1f} MB")
    bench = {
        "commit": commit(src),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jobs": results,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
