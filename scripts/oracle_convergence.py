#!/usr/bin/env python3
"""Kernel-density convergence experiment.

Runs the window kernel densities of a presentation against its closed-form
oracle (generic Laurent rank over Z^d or the whole-group kernel density for
finite groups) and prints one row per window with the gap and a 4/L
reference envelope.

Example:
    python scripts/oracle_convergence.py --input fixtures/xy_minus_one.json --L 2,4,8,16,32
"""

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from folrank.groupring import RingMatrix
from folrank.groups import folner_set
from folrank.ranks import ModulePresentation, oracle_value, window_kernel_dim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", required=True, help="RingMatrix JSON path")
    parser.add_argument("--L", default="2,4,8,16,32", help="comma-separated window indices")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    f = RingMatrix.from_json(json.loads(Path(args.input).read_text()))
    P = ModulePresentation(f)
    oracle = oracle_value(P, seed=args.seed)
    print(f"presentation: {f.rows}x{f.cols} over {f.spec.family}, oracle value {oracle}")
    print(f"{'L':>5} {'|F|':>8} {'density':>12} {'|density-oracle|':>18} {'4/L':>10} {'secs':>7}")
    for L in (int(x) for x in args.L.split(",") if x):
        t0 = time.perf_counter()
        F = folner_set(f.spec, L)
        density = Fraction(window_kernel_dim(P, F)[0], len(F))
        gap = abs(density - oracle)
        bound = Fraction(4, L)
        flag = "" if gap <= bound else "  <-- outside 4/L"
        print(
            f"{L:>5} {len(F):>8} {str(density):>12} {str(gap):>18} {str(bound):>10}"
            f" {time.perf_counter() - t0:>7.2f}{flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
