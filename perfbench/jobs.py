"""Workload job mixes and the output checks behind `failed`.

A job is one `folrank.cli.main` invocation.  Every exact, seed-independent
report field is compared with `expected.json`, recorded at commit 32a3c2e;
the seed-dependent fields are checked by invariants instead.  Fields and
files that reports gain later are not compared, so adding report fields
does not need new recorded values.

Regenerate `expected.json` only when a job is added or its arguments change:

    PYTHONPATH=src python3 perfbench/jobs.py --record
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected.json"

MIN_AGREEING_PRIMES = 3
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class Job:
    command: str
    fixture: str | None = None
    L: str | None = None
    extra: tuple[str, ...] = ()
    known_mmdim: float | None = None  # value the mmdim interval must contain

    @property
    def name(self) -> str:
        return f"{self.command}-{self.fixture}" if self.fixture else self.command

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        argv = [self.command]
        if self.fixture:
            argv += ["--input", str(INPUTS / f"{self.fixture}.json"), "--L", self.L]
        return argv + list(self.extra) + ["--seed", str(seed), "--out", str(out_dir)]


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "large-windows": (
        Job("vnd", "xy_minus_one", "16,32,48,64"),
        Job("mrank", "two_over_z2", "16,32,48,64"),
        Job("vnd", "heisenberg_ab", "3,4"),
    ),
    "fixture-tour": (
        Job("compare", "xy_minus_one", "8,16,32"),
        Job("compare", "heisenberg_ab", "1,2,3"),
        Job("compare", "one_plus_2T", "4,8,16,32,64"),
        Job("compare", "two_over_z", "4,8,16,32"),
        Job("compare", "two_over_z2", "4,8,16"),
        Job("compare", "zmod2_one_plus_t", "1,2"),
        Job("compare", "free_rank1_z", "4,8,16,32"),
        Job("mmdim", "two_over_z", "7,8", ("--epsilon", "2^-3,2^-4,2^-5,2^-6"), known_mmdim=0.0),
    ),
    "small-exact": (Job("verify-suite", extra=("--cases", "100")),),
}


# ---------------------------------------------------------------------------
# exact views: the report fields that must not depend on the seed
# ---------------------------------------------------------------------------


def _json_view(name: str, obj: dict) -> dict:
    view = {k: v for k, v in obj.items() if k != "seed"}
    if "series" in view:  # primes are seed-dependent; checked by invariant
        view["series"] = [{k: v for k, v in r.items() if k != "primes"} for r in view["series"]]
    if "suites" in view:  # flagged counts depend on the generated cases
        view["suites"] = [{k: v for k, v in s.items() if k != "flagged"} for s in view["suites"]]
    if name.startswith("mmdim-"):  # the interval is checked by containment
        view.pop("interval")
    return view


def _csv_view(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    drop = {"primes", "lower_count"}  # seed-dependent columns
    return [{k: v for k, v in r.items() if k not in drop} for r in rows]


def report_views(out_dir: Path) -> dict[str, object]:
    """Exact view of every report file the job wrote, keyed by file name."""
    views = {}
    for path in sorted(out_dir.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            views[path.name] = _json_view(path.name, json.loads(text))
        elif path.suffix == ".csv":
            views[path.name] = _csv_view(text)
    return views


# ---------------------------------------------------------------------------
# invariants on the seed-dependent fields
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin, written here so the check does not rely on
    # the primality test of the package it checks.
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _invariant_errors(job: Job, out_dir: Path) -> list[str]:
    errors = []
    for path in sorted(out_dir.glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        for rec in obj.get("series", ()):
            primes = rec["primes"]
            if not primes:
                continue  # fraction-free certificate
            if len(set(primes)) < MIN_AGREEING_PRIMES:
                errors.append(f"{path.name} L={rec['L']}: {len(set(primes))} agreeing primes")
            if not all(_is_prime(p) for p in primes):
                errors.append(f"{path.name} L={rec['L']}: certificate lists a non-prime")
        if "suites" in obj and not (obj["all_pass"] and all(s["passed"] for s in obj["suites"])):
            errors.append(f"{path.name}: suite failures")
        if job.known_mmdim is not None and "interval" in obj:
            lo, hi = obj["interval"]
            if not lo - 1e-9 <= job.known_mmdim <= hi + 1e-9:
                errors.append(f"{path.name}: interval [{lo}, {hi}] misses {job.known_mmdim}")
    return errors


def _matches(want, got) -> bool:
    """True when `got` holds every recorded value of `want`."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and _matches(v, got[k]) for k, v in want.items())
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_matches, want, got))
    return want == got


def check_job(job: Job, expected: dict, exit_code: int, out_dir: Path) -> list[str]:
    """Every reason the job's output is wrong; empty when it is correct."""
    errors = []
    if exit_code != expected["exit"]:
        errors.append(f"exit code {exit_code}, expected {expected['exit']}")
    views = report_views(out_dir)
    for name, want in expected["files"].items():
        if name not in views:
            errors.append(f"{name}: report missing")
        elif not _matches(want, views[name]):
            errors.append(f"{name}: exact fields differ from the recorded values")
    return errors + _invariant_errors(job, out_dir)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def _record(work: Path) -> None:
    import contextlib

    from folrank.cli import main

    expected = {}
    for workload, jobs in WORKLOADS.items():
        expected[workload] = {}
        for i, job in enumerate(jobs):
            out_dir = work / workload / str(i)
            out_dir.mkdir(parents=True, exist_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(job.argv(0, out_dir))  # the views drop every seed-dependent field
            if _invariant_errors(job, out_dir):
                raise SystemExit(f"{job.name}: {_invariant_errors(job, out_dir)}")
            expected[workload][job.name] = {"exit": code, "files": report_views(out_dir)}
            print(f"recorded {workload} {job.name} exit {code}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args()
    if not args.record:
        parser.error("nothing to do without --record")
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        _record(Path(tmp))
