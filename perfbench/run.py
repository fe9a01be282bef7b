"""folrank benchmark: fixed job mixes through `folrank.cli.main`, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload fixture-tour --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Each workload run starts fresh processes: SETUP_SAMPLES that only import
folrank and parse the inputs, then one worker that also runs timed passes
(see worker.py).  With --trace 0 the last stdout line reports the end-to-end
metrics, with --trace 1 the per-layer metrics; the lines before it print the
same numbers with units for a reader.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 4  # set-up-only processes per run; the worker adds one more
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _units() -> dict[str, str]:
    """Unit of every metric, as `BENCHMARK.json` at the repository root lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("FOLRANK_THREADS", None)  # single-threaded: the package default
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _start_worker(args, workload: str, work: Path, deadline: float, setup_only: bool):
    """Start a worker; return (set-up seconds, stdout after `ready`)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded the run time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode} before finishing")
    return setup_s, rest


def balanced_wall(passes: list[dict]) -> float:
    """Mean over job seeds of the median pass time at that seed.

    Job seeds differ in cost, so a plain median over passes would move with
    how many passes each seed got; this weighs every seed once.
    """
    by_seed = defaultdict(list)
    for p in passes:
        by_seed[p["seed"]].append(p["wall_s"])
    return statistics.mean(statistics.median(times) for times in by_seed.values())


def run_workload(args, workload: str, work: Path, units: dict[str, str]) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [_start_worker(args, workload, work, deadline, True)[0] for _ in range(SETUP_SAMPLES)]
    setup_s, out = _start_worker(args, workload, work, deadline, False)
    setups.append(setup_s)
    summary = json.loads(out.strip().splitlines()[-1])
    passes = summary["passes"] + summary.get("traced", [])
    result = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "samples": {"setup_s": setups, "wall_s": [(p["seed"], p["wall_s"]) for p in summary["passes"]]},
    }
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in summary["layers"])
                   for name in summary["layers"][0]}
        pairs = zip(summary["traced"], summary["passes"])
        metrics["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for t, u in pairs)
        metrics["process.cpu_s"] = statistics.median(p["cpu_s"] for p in summary["passes"])
    else:
        metrics = {
            "wall_s": balanced_wall(summary["passes"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
    result["metrics"] = {name: (value, units[name]) for name, value in sorted(metrics.items())}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "folrank" / "__init__.py").is_file():
        print(f"no folrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = _units()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench_work"
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(args, workload, work / workload, units)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for workload, r in results.items():
        for name, (value, unit) in r["metrics"].items():
            n = len(r["samples"].get(name, ()))
            print(f"{workload:<14} {name:<40} {value:>14.6g} {unit:<6}" + (f"  n={n}" if n else ""))
        print(f"{workload:<14} {'setup samples (s)':<40} "
              + " ".join(f"{t:.4f}" for t in r["samples"]["setup_s"]))
        print(f"{workload:<14} {'passes (job seed:s)':<40} "
              + " ".join(f"{seed}:{t:.4f}" for seed, t in r["samples"]["wall_s"]))
        frac = r["failed"] / r["attempted"]
        print(f"{workload:<14} {'fail_frac':<40} {frac:>14.6g} {'ratio':<6} "
              f"{r['failed']} of {r['attempted']} jobs")
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
            for w, r in results.items() for name, (value, unit) in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
