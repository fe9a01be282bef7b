"""Self-test of the output checks: a corrupted report must count as failed.

Runs one large-windows job through the same pass code the benchmark times,
once as is and once with one density in its JSON report changed after the
CLI wrote it.  Exits 0 when the first pass has fail_frac 0 and the second
fail_frac > 0.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import jobs as joblib
from worker import run_pass

from folrank import cli

JOB = joblib.WORKLOADS["large-windows"][0]  # vnd on xy_minus_one


class CorruptingCli:
    """`folrank.cli` whose main adds 1 to the first density it reports."""

    build_parser = staticmethod(cli.build_parser)

    @staticmethod
    def main(argv):
        code = cli.main(argv)
        out_dir = Path(argv[argv.index("--out") + 1])
        report = next(out_dir.glob("*.json"))
        obj = json.loads(report.read_text(encoding="utf-8"))
        density = Fraction(obj["series"][0]["density"]) + 1
        obj["series"][0]["density"] = f"{density.numerator}/{density.denominator}"
        report.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return code


def main() -> int:
    expected = joblib.load_expected()["large-windows"]
    fractions = {}
    with tempfile.TemporaryDirectory(dir=joblib.HERE.parent) as tmp:
        for label, runner in (("clean", cli), ("corrupted", CorruptingCli)):
            result = run_pass(runner, (JOB,), expected, 0, Path(tmp) / label, None)
            fractions[label] = result["failed"] / result["attempted"]
            print(f"{label:<10} fail_frac {fractions[label]:g}")
    ok = fractions["clean"] == 0 and fractions["corrupted"] > 0
    print("self-test", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
