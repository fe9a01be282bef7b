#!/usr/bin/env python3
"""Exit codes and report digests of the benchmark jobs.

Runs every job of the workloads in `perfbench/jobs.py` through
`folrank.cli.main`, once per job seed, each in a fresh output directory,
and prints one line per job with its exit code and one line per report
file with the sha256 of its bytes.  The workload `fixtures` adds a
`compare` job on each of `fixtures/` that no benchmark job reads: the
inputs without a unit entry (`z2hard`, `hhard`), whose cores go to the
modular kernel, and `ztriv`, whose mean-rank values are negative.  The
workload `commands` runs `vnd`, `mrank`, `erank`, `oracle` and
`identity-check` on every input of `fixtures/` on two small windows;
with `compare`, `mmdim` and `verify-suite` in the benchmark workloads, the
report of every command is digested.  Two checkouts that write the same
reports print the same lines, so comparing them is a `diff`:

    PYTHONPATH=src python scripts/report_digest.py > after.txt
    PYTHONPATH=../parent/src python scripts/report_digest.py > before.txt
    diff before.txt after.txt

Example:
    PYTHONPATH=src python scripts/report_digest.py --workload large-windows --seeds 0
"""

import argparse
import contextlib
import hashlib
import io
import json
import runpy
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from folrank.cli import main as cli_main
from folrank.groups import GroupSpec

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class FixtureJob:
    """One command on one input of `fixtures/`."""

    command: str
    fixture: str
    L: str

    @property
    def name(self) -> str:
        return f"{self.command}-{self.fixture}"

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        path = ROOT / "fixtures" / f"{self.fixture}.json"
        return [self.command, "--input", str(path), "--L", self.L, "--seed", str(seed), "--out", str(out_dir)]


FIXTURE_JOBS = tuple(FixtureJob("compare", *job) for job in (("z2hard", "2,4,8"), ("hhard", "1,2"), ("ztriv", "2,4,8")))

COMMANDS = ("vnd", "mrank", "erank", "oracle", "identity-check")


def command_jobs() -> tuple:
    """Each of `COMMANDS` on each input of `fixtures/`, on the windows
    L = 1,2 over Heisenberg and finite groups and L = 2,4 otherwise."""
    jobs = []
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        spec = GroupSpec.from_json(json.loads(path.read_text())["group"])
        L = "1,2" if spec.is_finite or spec.family == "Heisenberg" else "2,4"
        jobs += [FixtureJob(command, path.stem, L) for command in COMMANDS]
    return tuple(jobs)


def load_workloads() -> dict:
    """`WORKLOADS` of perfbench/jobs.py, then `fixtures` and `commands`.
    run_path compiles the source itself and writes no bytecode beside it."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "jobs.py"))["WORKLOADS"]
    return {**workloads, "fixtures": FIXTURE_JOBS, "commands": command_jobs()}


def digest_lines(workload: str, job, seed: int) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(job.argv(seed, out))
        head = f"{workload} seed={seed} {job.name}"
        lines = [f"{head} exit {code}"]
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{head} {path.relative_to(out).as_posix()} {sha}")
    return lines


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads), help="one workload (default: all)")
    parser.add_argument("--seeds", default="0,1,2,3", help="comma-separated job seeds")
    args = parser.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        parser.error(f"--seeds: expected comma-separated integers, got {args.seeds!r}")
    names = [args.workload] if args.workload else list(workloads)
    for name in names:
        for seed in seeds:
            for job in workloads[name]:
                print("\n".join(digest_lines(name, job, seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
