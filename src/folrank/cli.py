"""Batch job runner binding the rank engines, the estimator and the suites.

JSON in, JSON + CSV out.  All rationals in reports are exact decimal
strings "p/q"; the only floats are the labeled metric-mean-dimension slope
columns.  Reports are byte-identical across reruns of the same job.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import BudgetExceededError, FolrankError, InputError, UnsupportedGroupError
from .groupring import RingMatrix
from .groups import DEFAULT_MAX_WINDOW_ELEMENTS
from .mmdim import DEFAULT_EPS_SCHEDULE, mmdim_estimate
from .ranks import (
    DEFAULT_GROWTH_STEPS,
    DEFAULT_TOLERANCE,
    DensitySeries,
    ModulePresentation,
    _frac_str,
    derived_rng,
    erank_of_presentation,
    folner_set,
    mrank_of_presentation,
    oracle_value,
    per_window_identity_check,
    rationality_snap,
    run_identity_suite,
    run_submodularity_suite,
    run_superadditivity_suite,
    vnd_of_presentation,
)

COMMANDS = (
    "vnd",
    "mrank",
    "erank",
    "mmdim",
    "identity-check",
    "oracle",
    "compare",
    "verify-suite",
)

DEFAULT_SCHEDULE = (4, 8, 16, 32)


@dataclass
class JobSpec:
    """One batch job: engine selection plus all knobs that affect the output."""

    command: str
    matrix: RingMatrix | None = None
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    tolerance: Fraction = DEFAULT_TOLERANCE
    seed: int = 0
    epsilons: tuple[float, ...] = DEFAULT_EPS_SCHEDULE
    max_window_elements: int = DEFAULT_MAX_WINDOW_ELEMENTS
    growth_steps: int = DEFAULT_GROWTH_STEPS
    sample_budget: int = 400
    cases: int = 100
    out_dir: Path = Path(".")
    stem: str = "job"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InputError(f"unknown command {self.command!r}")
        if self.tolerance <= 0:
            raise InputError("tolerance must be positive")
        if any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise InputError("schedule must be strictly increasing")
        if self.cases < 1:
            raise InputError(f"cases must be at least 1, got {self.cases}")


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def parse_epsilon(text: str) -> float:
    """A scale written as a rational ("1/8", "0.125") or a power ("2^-3").

    Anything that is not a finite real float is an input error: a negative
    base to a fractional power is complex, and a huge power overflows.
    """
    text = text.strip()
    try:
        if "^" in text:
            base, _, expo = text.partition("^")
            value = float(base) ** float(expo)
        else:
            value = float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"not an epsilon value: {text!r}") from exc
    if not isinstance(value, float) or not math.isfinite(value):
        raise InputError(f"not a finite real epsilon value: {text!r}")
    return value


def _load_json(path: Path) -> object:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _read_input(path: Path) -> tuple[dict, RingMatrix | None]:
    """The job fields and the matrix of an input file: a job file (an object
    with a 'command' field, its matrix optional) or a bare matrix, which has
    no job fields."""
    obj = _load_json(path)
    if not (isinstance(obj, dict) and "command" in obj):
        return {}, RingMatrix.from_json(obj)
    inner = obj.get("matrix")
    return obj, None if inner is None else RingMatrix.from_json(inner)


def load_matrix(path: Path) -> RingMatrix:
    """The matrix of a bare matrix file or of a job file."""
    matrix = _read_input(path)[1]
    if matrix is None:
        raise InputError(f"{path}: job file has no 'matrix' field")
    return matrix


def _series_json(series: DensitySeries) -> list[dict]:
    out = []
    for r in series.records:
        primes = list(r.certificate.primes) if r.certificate else []
        out.append(
            {
                "L": r.L,
                "F_size": r.f_size,
                "numerator": str(r.numerator),
                "density": _frac_str(r.density),
                "primes": primes,
                "stabilized": r.stabilized,
            }
        )
    return out


def _series_csv(series: DensitySeries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["L", "F_size", "numerator", "density", "primes"])
    for r in series.records:
        primes = ";".join(str(p) for p in r.certificate.primes) if r.certificate else ""
        writer.writerow([r.L, r.f_size, r.numerator, _frac_str(r.density), primes])
    return buf.getvalue()


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _series_report(job: JobSpec, series: DensitySeries) -> dict:
    P = ModulePresentation(job.matrix)
    snap = rationality_snap(series, job.matrix.spec)
    return {
        "quantity": series.quantity,
        "group": job.matrix.spec.to_json(),
        "presentation": job.matrix.to_json(),
        "series": _series_json(series),
        "limit_estimate": _frac_str(series.limit_estimate),
        "running_min": _frac_str(series.running_min),
        "snap": snap.to_json(),
        "status": series.status,
        "tolerance": _frac_str(series.tolerance),
        "seed": job.seed,
        "module_rank_bound": P.n,
    }


def _series_kwargs(job: JobSpec) -> dict:
    return dict(
        tolerance=job.tolerance,
        seed=job.seed,
        max_window_elements=job.max_window_elements,
    )


def _run_series_command(job: JobSpec) -> int:
    P = ModulePresentation(job.matrix)
    engine = {
        "mrank": mrank_of_presentation,
        "vnd": vnd_of_presentation,
        "erank": erank_of_presentation,
    }[job.command]
    kwargs = _series_kwargs(job)
    if job.command == "erank":
        kwargs["growth_steps"] = job.growth_steps
    series = engine(P, job.schedule, **kwargs)
    report = _series_report(job, series)
    _write(job.out_dir / f"{job.command}-{job.stem}.json", _dump(report))
    _write(job.out_dir / f"{job.command}-{job.stem}.csv", _series_csv(series))
    print(f"{job.command}: limit_estimate {report['limit_estimate']} status {series.status}")
    return 0 if series.status == "converged" else 2


def _run_mmdim(job: JobSpec) -> int:
    est = mmdim_estimate(
        job.matrix,
        job.schedule,
        job.epsilons,
        budget=job.sample_budget,
        seed=job.seed,
        max_window_elements=job.max_window_elements,
    )
    report = {
        "quantity": "mmdim",
        "group": job.matrix.spec.to_json(),
        "presentation": job.matrix.to_json(),
        "interval": [est.lower, est.upper],
        "flagged": est.flagged,
        "epsilons": [repr(e) for e in sorted(est.lower_slopes)],
        "L": list(job.schedule),
        "seed": job.seed,
        "note": "interval along the canonical window sequence only",
    }
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=["L", "F_size", "epsilon", "lower_count", "upper_log", "lower_slope", "upper_slope"],
        lineterminator="\n",
    )
    writer.writeheader()
    for row in est.csv_rows():
        writer.writerow(row)
    _write(job.out_dir / f"mmdim-{job.stem}.json", _dump(report))
    _write(job.out_dir / f"mmdim-{job.stem}.csv", buf.getvalue())
    print(f"mmdim: estimate interval [{est.lower:.6f}, {est.upper:.6f}] (flagged {est.flagged})")
    return 0


def _run_identity_check(job: JobSpec) -> int:
    f = job.matrix
    checks = []
    all_ok = True
    for L in job.schedule:
        F = folner_set(f.spec, L, job.max_window_elements)
        rng = derived_rng(job.seed, "identity-cli", L)
        ok = per_window_identity_check(f, F, rng=rng)
        checks.append({"L": L, "ok": ok})
        all_ok = all_ok and ok
    report = {
        "quantity": "identity-check",
        "group": f.spec.to_json(),
        "presentation": f.to_json(),
        "checks": checks,
        "all_ok": all_ok,
        "seed": job.seed,
    }
    _write(job.out_dir / f"identity-check-{job.stem}.json", _dump(report))
    print(f"identity-check: {'all windows agree' if all_ok else 'MISMATCH'}")
    return 0 if all_ok else 1


def _run_oracle(job: JobSpec) -> int:
    P = ModulePresentation(job.matrix)
    value = oracle_value(P, seed=job.seed)
    report = {
        "quantity": "oracle",
        "group": job.matrix.spec.to_json(),
        "presentation": job.matrix.to_json(),
        "value": _frac_str(value),
        "seed": job.seed,
    }
    _write(job.out_dir / f"oracle-{job.stem}.json", _dump(report))
    print(value)
    return 0


def _run_compare(job: JobSpec) -> int:
    P = ModulePresentation(job.matrix)
    common = _series_kwargs(job)
    mrank = mrank_of_presentation(P, job.schedule, **common)
    vnd = vnd_of_presentation(P, job.schedule, **common)
    erank = erank_of_presentation(P, job.schedule, growth_steps=job.growth_steps, **common)
    try:
        oracle = oracle_value(P, seed=job.seed)
    except UnsupportedGroupError:
        oracle = None
    columns = {
        "mrank": mrank.limit_estimate,
        "vnd": vnd.limit_estimate,
        "erank": erank.limit_estimate,
    }
    if oracle is not None:
        columns["oracle"] = oracle
    values = list(columns.values())
    max_gap = max(abs(a - b) for a in values for b in values)
    report = {
        "quantity": "compare",
        "group": job.matrix.spec.to_json(),
        "presentation": job.matrix.to_json(),
        "columns": {k: _frac_str(v) for k, v in columns.items()},
        "max_pairwise_gap": _frac_str(max_gap),
        "within_tolerance": max_gap <= job.tolerance,
        "tolerance": _frac_str(job.tolerance),
        "statuses": {"mrank": mrank.status, "vnd": vnd.status, "erank": erank.status},
        "seed": job.seed,
    }
    _write(job.out_dir / f"compare-{job.stem}.json", _dump(report))
    for name, value in columns.items():
        print(f"{name:>8}: {value}")
    print(f"max pairwise gap {max_gap} (tolerance {job.tolerance})")
    statuses = (mrank.status, vnd.status, erank.status)
    return 0 if all(s == "converged" for s in statuses) else 2


def _run_verify_suite(job: JobSpec) -> int:
    suites = [
        run_identity_suite(job.seed, cases=job.cases),
        run_superadditivity_suite(job.seed, cases=job.cases),
        run_submodularity_suite(job.seed, cases=job.cases),
    ]
    all_pass = True
    for s in suites:
        status = "PASS" if s.passed else "FAIL"
        print(f"{status} {s.name}: {s.cases} cases, {len(s.failures)} failures, {s.flagged} flagged")
        for msg in s.failures[:10]:
            print(f"  {msg}")
        all_pass = all_pass and s.passed
    report = {
        "quantity": "verify-suite",
        "seed": job.seed,
        "cases": job.cases,
        "suites": [s.to_json() for s in suites],
        "all_pass": all_pass,
    }
    _write(job.out_dir / f"verify-suite-{job.stem}.json", _dump(report))
    return 0 if all_pass else 1


def run(job: JobSpec) -> int:
    """Execute one job; returns the process exit code."""
    if job.command == "verify-suite":
        return _run_verify_suite(job)
    if job.matrix is None:
        raise InputError(f"command {job.command!r} needs --input")
    if job.command in ("mrank", "vnd", "erank"):
        return _run_series_command(job)
    if job.command == "mmdim":
        return _run_mmdim(job)
    if job.command == "identity-check":
        return _run_identity_check(job)
    if job.command == "oracle":
        return _run_oracle(job)
    return _run_compare(job)


def _job_int(name: str, value) -> int:
    """A JSON integer, or a string of one; a float or a boolean is not cut to one."""
    try:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
    except ValueError:
        pass
    raise InputError(f"job field {name!r}: expected an integer, got {value!r}")


def _job_list(name: str, value) -> list:
    if not isinstance(value, list):
        raise InputError(f"job field {name!r}: expected a list, got {value!r}")
    return value


def _job_budgets(value) -> dict:
    """The budgets of a job file, with the default of each key it omits."""
    budgets = {
        "max_window_elements": DEFAULT_MAX_WINDOW_ELEMENTS,
        "growth_steps": DEFAULT_GROWTH_STEPS,
        "max_samples": 400,
    }
    if not isinstance(value, dict):
        raise InputError(f"job field 'budgets': expected an object, got {value!r}")
    unknown = sorted(set(value) - set(budgets))
    if unknown:
        raise InputError(f"job field 'budgets': unknown keys {unknown}, expected some of {sorted(budgets)}")
    budgets.update((key, _job_int(f"budgets.{key}", v)) for key, v in value.items())
    return budgets


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    file_job, matrix, stem = {}, None, "job"
    if args.input:
        stem = Path(args.input).stem
        file_job, matrix = _read_input(Path(args.input))
    command = args.command or file_job.get("command")
    if command is None:
        raise InputError("no command given")
    schedule = _job_list("schedule", file_job.get("schedule", list(DEFAULT_SCHEDULE)))
    schedule = [_job_int("schedule", L) for L in schedule]
    if args.L:
        try:
            schedule = [int(x) for x in args.L.split(",") if x]
        except ValueError as exc:
            raise InputError(f"--L: expected comma-separated integers, got {args.L!r}") from exc
    tolerance = parse_fraction(str(file_job.get("tolerance", DEFAULT_TOLERANCE)))
    if args.tolerance:
        tolerance = parse_fraction(args.tolerance)
    epsilons = tuple(parse_epsilon(str(e)) for e in _job_list("epsilons", file_job.get("epsilons", [])))
    epsilons = epsilons or DEFAULT_EPS_SCHEDULE
    if args.epsilon:
        epsilons = tuple(parse_epsilon(x) for x in args.epsilon.split(",") if x)
    seed = args.seed if args.seed is not None else _job_int("seed", file_job.get("seed", 0))
    budgets = _job_budgets(file_job.get("budgets", {}))
    return JobSpec(
        command=command,
        matrix=matrix,
        schedule=tuple(schedule),
        tolerance=tolerance,
        seed=seed,
        epsilons=epsilons,
        max_window_elements=(
            args.max_window_elements
            if args.max_window_elements is not None
            else budgets["max_window_elements"]
        ),
        growth_steps=budgets["growth_steps"],
        sample_budget=args.samples if args.samples is not None else budgets["max_samples"],
        cases=args.cases,
        out_dir=Path(args.out),
        stem=stem,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folrank",
        description="Exact window densities for group-ring modules: mean rank, "
        "kernel density, dual-restriction rank, and a metric mean dimension estimator.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", help="RingMatrix JSON (or a JobSpec JSON with a 'command' field)")
    parser.add_argument("--L", help="comma-separated window indices, e.g. 4,8,16,32")
    parser.add_argument("--tolerance", help="convergence tolerance as p/q")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--epsilon", help="comma-separated eps values, e.g. 1/8,1/16 or 2^-3")
    parser.add_argument("--out", default=".", help="output directory for reports")
    parser.add_argument("--cases", type=int, default=100, help="verify-suite case count")
    parser.add_argument("--samples", type=int, default=None, help="mmdim sample budget")
    parser.add_argument("--max-window-elements", type=int, default=None, dest="max_window_elements")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        job = _job_from_args(args)
        return run(job)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2
    except UnsupportedGroupError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 1
    except FolrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
