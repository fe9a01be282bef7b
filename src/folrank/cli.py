"""Batch job runner binding the rank engines, the estimator and the suites.

JSON in, JSON + CSV out.  The report format lives here, and only here: each
command computes its own fields and `_report` adds the shared header and
writes the files.  All rationals in reports are exact decimal strings "p/q";
the only floats are the labeled metric-mean-dimension slope columns.
Reports are byte-identical across reruns of the same job.
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

from .errors import BudgetExceededError, FolrankError, InputError, UnsupportedGroupError, check_keys
from .groupring import RingMatrix
from .groups import DEFAULT_MAX_WINDOW_ELEMENTS
from .mmdim import DEFAULT_EPS_SCHEDULE, mmdim_estimate
from .ranks import (
    DEFAULT_GROWTH_STEPS,
    DEFAULT_TOLERANCE,
    DensitySeries,
    ModulePresentation,
    _identity_checks,
    _truncate_schedule,
    _validate_schedule,
    derived_rng,
    erank_of_presentation,
    folner_set,
    mrank_of_presentation,
    oracle_value,
    rationality_snap,
    run_identity_suite,
    run_submodularity_suite,
    run_superadditivity_suite,
    vnd_of_presentation,
)

DEFAULT_SCHEDULE = (4, 8, 16, 32)

JOB_KEYS = ("command", "matrix", "schedule", "tolerance", "seed", "epsilons", "budgets")


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
    check_keys("job file", obj, JOB_KEYS)
    inner = obj.get("matrix")
    return obj, None if inner is None else RingMatrix.from_json(inner)


def load_matrix(path: Path) -> RingMatrix:
    """The matrix of a bare matrix file or of a job file."""
    matrix = _read_input(path)[1]
    if matrix is None:
        raise InputError(f"{path}: job file has no 'matrix' field")
    return matrix


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _report(job: JobSpec, quantity: str, fields: dict, csv_text: str | None = None) -> None:
    """Write `<command>-<stem>.json`: `fields` under the shared header of the
    quantity, the seed and (but for `verify-suite`) the group and the
    presentation; and `csv_text`, if any, as `<command>-<stem>.csv`."""
    report = {"quantity": quantity, "seed": job.seed, **fields}
    if job.command != "verify-suite":
        report.update(group=job.matrix.spec.to_json(), presentation=job.matrix.to_json())
    name = f"{job.command}-{job.stem}"
    job.out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    (job.out_dir / f"{name}.json").write_text(text, encoding="utf-8")
    if csv_text is not None:
        (job.out_dir / f"{name}.csv").write_text(csv_text, encoding="utf-8")


def _density_series(job: JobSpec, P: ModulePresentation, command: str) -> DensitySeries:
    kwargs = dict(tolerance=job.tolerance, seed=job.seed, max_window_elements=job.max_window_elements)
    if command == "erank":
        return erank_of_presentation(P, job.schedule, growth_steps=job.growth_steps, **kwargs)
    engine = mrank_of_presentation if command == "mrank" else vnd_of_presentation
    return engine(P, job.schedule, **kwargs)


def _run_series(job: JobSpec) -> int:
    P = ModulePresentation(job.matrix)
    series = _density_series(job, P, job.command)
    records, rows = [], []
    for r in series.records:
        primes = list(r.certificate.primes) if r.certificate else []
        density = _frac_str(r.density)
        records.append(
            {
                "L": r.L,
                "F_size": r.f_size,
                "numerator": str(r.numerator),
                "density": density,
                "primes": primes,
                "stabilized": r.stabilized,
            }
        )
        rows.append([r.L, r.f_size, r.numerator, density, ";".join(map(str, primes))])
    snap = rationality_snap(series, P.spec)
    estimate = _frac_str(series.limit_estimate)
    fields = {
        "series": records,
        "limit_estimate": estimate,
        "running_min": _frac_str(series.running_min),
        "snap": {
            "raw": _frac_str(snap.raw),
            "grid_denominator": snap.grid_denominator,
            "snapped": _frac_str(snap.snapped),
            "residual": _frac_str(snap.residual),
        },
        "status": series.status,
        "tolerance": _frac_str(series.tolerance),
        "module_rank_bound": P.n,
    }
    _report(job, series.quantity, fields, _csv(["L", "F_size", "numerator", "density", "primes"], rows))
    print(f"{job.command}: limit_estimate {estimate} status {series.status}")
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
    fields = {
        "interval": [est.lower, est.upper],
        "flagged": est.flagged,
        "epsilons": [repr(e) for e in sorted(est.lower_slopes)],
        "L": list(job.schedule),
        "note": "interval along the canonical window sequence only",
    }
    header = ["L", "F_size", "epsilon", "lower_count", "upper_log", "lower_slope", "upper_slope"]
    rows = [
        [r.L, r.f_size, repr(r.eps), r.lower_count, repr(r.upper_log)]
        + [repr(est.lower_slopes[r.eps]), repr(est.upper_slopes[r.eps])]
        for r in est.reports
    ]
    _report(job, "mmdim", fields, _csv(header, rows))
    print(f"mmdim: estimate interval [{est.lower:.6f}, {est.upper:.6f}] (flagged {est.flagged})")
    return 0


def _run_identity_check(job: JobSpec) -> int:
    """The window identity on each scheduled window within the budget; a
    schedule cut by the budget writes the checks made and exits 2."""
    f = job.matrix
    kept, truncated = _truncate_schedule(f.spec, _validate_schedule(job.schedule), job.max_window_elements)
    cases = [(f, folner_set(f.spec, L, job.max_window_elements), derived_rng(job.seed, "identity-cli", L)) for L in kept]
    checks = [{"L": L, "ok": ok} for L, ok in zip(kept, _identity_checks(f.spec, cases))]
    all_ok = all(c["ok"] for c in checks)
    _report(job, "identity-check", {"checks": checks, "all_ok": all_ok})
    verdict = "all windows agree" if all_ok else "MISMATCH"
    print(f"identity-check: {verdict}" + (" (window budget reached)" if truncated else ""))
    return 1 if not all_ok else 2 if truncated else 0


def _run_oracle(job: JobSpec) -> int:
    value = oracle_value(ModulePresentation(job.matrix), seed=job.seed)
    _report(job, "oracle", {"value": _frac_str(value)})
    print(value)
    return 0


def _run_compare(job: JobSpec) -> int:
    P = ModulePresentation(job.matrix)
    series = {name: _density_series(job, P, name) for name in ("mrank", "vnd", "erank")}
    columns = {name: s.limit_estimate for name, s in series.items()}
    try:
        columns["oracle"] = oracle_value(P, seed=job.seed)
    except UnsupportedGroupError:
        pass
    max_gap = max(abs(a - b) for a in columns.values() for b in columns.values())
    statuses = {name: s.status for name, s in series.items()}
    fields = {
        "columns": {k: _frac_str(v) for k, v in columns.items()},
        "max_pairwise_gap": _frac_str(max_gap),
        "within_tolerance": max_gap <= job.tolerance,
        "tolerance": _frac_str(job.tolerance),
        "statuses": statuses,
    }
    _report(job, "compare", fields)
    for name, value in columns.items():
        print(f"{name:>8}: {value}")
    print(f"max pairwise gap {max_gap} (tolerance {job.tolerance})")
    return 0 if fields["within_tolerance"] and all(s == "converged" for s in statuses.values()) else 2


def _run_verify_suite(job: JobSpec) -> int:
    suites = [
        run_identity_suite(job.seed, cases=job.cases),
        run_superadditivity_suite(job.seed, cases=job.cases),
        run_submodularity_suite(job.seed, cases=job.cases),
    ]
    for s in suites:
        status = "PASS" if s.passed else "FAIL"
        print(f"{status} {s.name}: {s.cases} cases, {len(s.failures)} failures, {s.flagged} flagged")
        for msg in s.failures[:10]:
            print(f"  {msg}")
    all_pass = all(s.passed for s in suites)
    fields = {
        "cases": job.cases,
        "suites": [
            {"name": s.name, "cases": s.cases, "failures": list(s.failures), "flagged": s.flagged, "passed": s.passed}
            for s in suites
        ],
        "all_pass": all_pass,
    }
    _report(job, "verify-suite", fields)
    return 0 if all_pass else 1


# The command-line choices, in this order, and the runner of each.
_RUNNERS = {
    "vnd": _run_series,
    "mrank": _run_series,
    "erank": _run_series,
    "mmdim": _run_mmdim,
    "identity-check": _run_identity_check,
    "oracle": _run_oracle,
    "compare": _run_compare,
    "verify-suite": _run_verify_suite,
}
COMMANDS = tuple(_RUNNERS)


def run(job: JobSpec) -> int:
    """Execute one job; returns the process exit code."""
    if job.matrix is None and job.command != "verify-suite":
        raise InputError(f"command {job.command!r} needs --input")
    return _RUNNERS[job.command](job)


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
    check_keys("job field 'budgets'", value, budgets)
    budgets.update((key, _job_int(f"budgets.{key}", v)) for key, v in value.items())
    return budgets


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    file_job, matrix, stem = {}, None, "job"
    if args.input:
        stem = Path(args.input).stem
        file_job, matrix = _read_input(Path(args.input))
    if file_job.get("command", args.command) != args.command:
        raise InputError(f"job field 'command': {file_job['command']!r}, but the command given is {args.command!r}")
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
        command=args.command,
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
