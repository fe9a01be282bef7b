#!/usr/bin/env python3
"""Build times of window operators: fixed one-part builds and the batches of a suite pass.

Prints one line per build: the median time of one call over `--repeats`
calls, in ms.  The one-part builds are `window_matrix` on `xy_minus_one`
at L=64 (4224x8192), on `heisenberg_ab` at L=4 and on `two_over_z` at L=4,
and `submodule_rank_matrix` on `two_over_z2` at L=64.  The last line is the
total time of the `window_operator` batches in one `verify-suite --cases
100` pass at job seed 1: the median over `--passes` passes, after an
untimed one, with the number of batches and of parts they build.

With `--against OTHER_SRC` the script compares two source trees instead,
in `--pairs` pairs of fresh processes, as `pass_times.py --against` does:

    PYTHONPATH=src python scripts/build_times.py --against ../parent/src --pairs 5

Example:
    PYTHONPATH=src python scripts/build_times.py --repeats 21
"""

import argparse
import json
import runpy
import statistics
import sys
import time
from pathlib import Path

import folrank
from folrank import groupring, ranks
from folrank.groupring import RingMatrix, window_matrix
from folrank.groups import folner_set
from folrank.ranks import run_identity_suite, run_submodularity_suite, run_superadditivity_suite, submodule_rank_matrix

ROOT = Path(__file__).resolve().parents[1]

# (label, builder, fixture, L): one part each.
BUILDS = (
    ("window_matrix/xy_minus_one/L=64", "window", "xy_minus_one", 64),
    ("window_matrix/heisenberg_ab/L=4", "window", "heisenberg_ab", 4),
    ("window_matrix/two_over_z/L=4", "window", "two_over_z", 4),
    ("submodule_rank_matrix/two_over_z2/L=64", "submodule", "two_over_z2", 64),
)


def build_time(builder: str, fixture: str, L: int, repeats: int) -> float:
    """The median seconds of one build of the fixture's window at L; the
    matrix's terms and the window are made before the timing."""
    f = RingMatrix.from_json(json.loads((ROOT / "fixtures" / f"{fixture}.json").read_text()))
    F = folner_set(f.spec, L)
    f.terms()
    call = (lambda: window_matrix(f, F)) if builder == "window" else (lambda: submodule_rank_matrix(f, F, f.spec))
    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def suite_batches(seed: int) -> tuple[float, int, int]:
    """Seconds spent in `window_operator` over the three suites of one
    `verify-suite` pass at this job seed, and its batches and parts."""
    build = groupring.window_operator
    spent = [0.0, 0, 0]

    def timed(spec, batch, *args, **kwargs):
        t0 = time.perf_counter()
        out = build(spec, batch, *args, **kwargs)
        spent[0] += time.perf_counter() - t0
        spent[1] += 1
        spent[2] += sum(map(len, batch))
        return out

    # ranks imports the builder by name; groupring's window builders look it up in groupring.
    ranks.window_operator = groupring.window_operator = timed
    try:
        for suite in (run_identity_suite, run_superadditivity_suite, run_submodularity_suite):
            suite(seed, cases=100)
    finally:
        ranks.window_operator = groupring.window_operator = build
    return spent[0], spent[1], spent[2]


def compare(args) -> None:
    """`pass_times.compare` of each line's time in ms, from fresh processes."""
    pass_times = runpy.run_path(str(ROOT / "scripts" / "pass_times.py"))
    argv = ["--repeats", str(args.repeats), "--passes", str(args.passes)]

    def measure(src: Path) -> dict[str, float]:
        lines = pass_times["fresh_stdout"](__file__, src, argv).splitlines()
        return {line.split()[0]: float(line.split()[1]) for line in lines}

    this = Path(folrank.__file__).resolve().parents[1]
    pass_times["compare"]((this, args.against), args.pairs, measure, unit="ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=51, help="timed calls per one-part build (median)")
    parser.add_argument("--passes", type=int, default=3, help="timed verify-suite passes (median)")
    parser.add_argument("--against", type=Path, help="another source tree to compare with, in fresh processes")
    parser.add_argument("--pairs", type=int, default=5, help="process pairs with --against")
    args = parser.parse_args(argv)
    for name in ("repeats", "passes", "pairs"):
        if getattr(args, name) < 1:
            parser.error(f"--{name}: expected a positive count, got {getattr(args, name)}")
    if args.against is not None:
        if not (args.against / "folrank").is_dir():
            parser.error(f"--against: no folrank package in {args.against}")
        compare(args)
        return 0
    for label, builder, fixture, L in BUILDS:
        print(f"{label} {1e3 * build_time(builder, fixture, L, args.repeats):.4f} ms")
    suite_batches(1)
    runs = [suite_batches(1) for _ in range(args.passes)]
    _, batches, parts = runs[0]
    total = statistics.median(run[0] for run in runs)
    print(f"window_operator/verify-suite/seed=1 {1e3 * total:.4f} ms in {batches} batches of {parts} parts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
