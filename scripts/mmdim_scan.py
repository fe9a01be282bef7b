#!/usr/bin/env python3
"""Metric-mean-dimension scan over epsilon and window schedules.

Prints the packing table (one row per window/epsilon pair) and the final
interval estimate for one presentation.

Example:
    python scripts/mmdim_scan.py --input fixtures/one_plus_2T.json --L 6,7,8 --eps 3:8
"""

import argparse
import json
import sys
from pathlib import Path

from folrank.cli import parse_epsilon
from folrank.errors import InputError
from folrank.groupring import RingMatrix
from folrank.mmdim import mmdim_estimate


def parse_eps(spec: str):
    if ":" in spec:
        lo, _, hi = spec.partition(":")
        try:
            exponents = range(int(lo), int(hi) + 1)
        except ValueError as exc:
            raise InputError(f"--eps: expected a dyadic range lo:hi, got {spec!r}") from exc
        return [parse_epsilon(f"2^{-k}") for k in exponents]
    return [parse_epsilon(x) for x in spec.split(",") if x]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", required=True, help="RingMatrix JSON path")
    parser.add_argument("--L", default="6,7,8")
    parser.add_argument("--eps", default="3:8", help="dyadic range lo:hi (2^-lo .. 2^-hi) or a list")
    parser.add_argument("--budget", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        f = RingMatrix.from_json(json.loads(Path(args.input).read_text()))
        est = mmdim_estimate(
            f,
            [int(x) for x in args.L.split(",") if x],
            parse_eps(args.eps),
            budget=args.budget,
            seed=args.seed,
        )
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    print(f"{'L':>4} {'|F|':>6} {'eps':>12} {'lower_count':>12} {'upper_log':>12} {'grid_dim':>9}")
    for r in est.reports:
        print(
            f"{r.L:>4} {r.f_size:>6} {r.eps:>12.6f} {r.lower_count:>12} "
            f"{r.upper_log:>12.4f} {r.kernel_grid_dim:>9}"
        )
    print(f"\nestimate interval: [{est.lower:.6f}, {est.upper:.6f}]  (flagged: {est.flagged})")
    print("values are along the canonical window sequence only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
