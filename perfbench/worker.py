"""One workload run in a fresh process (started by run.py).

Imports folrank, parses every input of the workload, prints `ready`, then
runs passes over the workload's jobs through `folrank.cli.main` until the
time budget is spent, and at least POOL passes.  Pass p runs every job with
`--seed (seed + p) % POOL`: job seeds come from a small fixed pool that one
run covers, because the cost of a verify-suite case set or an mmdim sample
stream varies by up to 2x between job seeds.  Each job's reports are checked after its timed call.
The last stdout line is a JSON summary of all passes.

With --trace 1, passes come in pairs on the same seed: the unmodified
program, then the same pass with the tracer installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import jobs as joblib
from tracing import Tracer, layer_metrics

POOL = 4


def _parse_inputs(cli, jobs, out_dir: Path) -> None:
    parser = cli.build_parser()
    for job in jobs:
        args = parser.parse_args(job.argv(0, out_dir))
        if args.input:
            cli.load_matrix(Path(args.input))


def run_pass(cli, jobs, expected, seed, work: Path, tracer: Tracer | None) -> dict:
    wall = cpu = 0.0
    failed = reports = report_bytes = 0
    for i, job in enumerate(jobs):
        out_dir = work / str(i)
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        argv = job.argv(seed, out_dir)
        code = None
        with contextlib.redirect_stdout(io.StringIO()):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
            except (Exception, SystemExit):  # a crashing job counts as failed
                traceback.print_exc()
            finally:
                wall += time.perf_counter() - t0
                cpu += time.process_time() - c0
        errors = ["raised"] if code is None else joblib.check_job(job, expected[job.name], code, out_dir)
        if errors:
            failed += 1
            print(f"FAILED {job.name} seed {seed}: {'; '.join(errors)}", file=sys.stderr)
        files = list(out_dir.iterdir())
        reports += len(files)
        report_bytes += sum(f.stat().st_size for f in files)
    return {
        "seed": seed,
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": len(jobs),
        "failed": failed,
        "reports": reports,
        "report_bytes": report_bytes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(joblib.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import folrank  # noqa: F401  (set-up cost: the whole package)
    from folrank import cli, exactla

    jobs = joblib.WORKLOADS[args.workload]
    _parse_inputs(cli, jobs, args.work)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    expected = joblib.load_expected()[args.workload]
    passes, traced = [], []  # traced: (pass result, its tracer) per traced pass
    # An untraced run covers the whole pool even when that overruns
    # --seconds; traced runs report per-pass medians and need no balance.
    min_units = 1 if args.trace else POOL
    start = time.perf_counter()
    unit_times = []
    for p in itertools.count():
        t0 = time.perf_counter()
        seed = (args.seed + p) % POOL
        passes.append(run_pass(cli, jobs, expected, seed, args.work, None))
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append((run_pass(cli, jobs, expected, seed, args.work, tracer), tracer))
            finally:
                tracer.uninstall()
        unit_times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(unit_times) >= min_units and elapsed + statistics.mean(unit_times) > args.seconds:
            break

    summary = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        layers = []
        for result, tracer in traced:
            m = layer_metrics(tracer.spans, result["wall_s"], exactla.SMALL_DIM_CUTOFF)
            m["cli.reports"] = result["reports"]
            m["cli.report_bytes"] = result["report_bytes"]
            layers.append(m)
        summary["traced"] = [result for result, _ in traced]
        summary["layers"] = layers
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
