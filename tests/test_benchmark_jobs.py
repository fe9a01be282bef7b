"""Every benchmark job, run once through the CLI, passes the benchmark's own
output check.

`perfbench/run.py` counts a job whose reports differ from
`perfbench/expected.json`, or break an invariant on the seed-dependent
fields, as failed.  This runs each job of every workload at job seed 0 and
applies the same check, so a change that alters a report fails here before
a benchmark run.

The `large-windows` jobs also keep their certificate primes at job seed 0.
The recorded values ignore primes, so these pins are what holds the largest
windows to their certificates: every one is ranked fraction-free, with no
prime, because the peel and the doubleton merges leave an empty core.
"""

import json
import runpy
from pathlib import Path

import pytest

from folrank.cli import main

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
# run_path compiles the source itself and writes no bytecode beside it.
_jobs = runpy.run_path(str(JOBS))
_EXPECTED = _jobs["load_expected"]()
# (L, primes) of every series record, recorded at job seed 0.
_LARGE_WINDOW_PRIMES = {
    # Binomial windows merge away.
    "vnd-xy_minus_one": {16: [], 32: [], 48: [], 64: []},
    # Diagonal windows peel away.
    "mrank-two_over_z2": {16: [], 32: [], 48: [], 64: []},
    "vnd-heisenberg_ab": {3: [], 4: []},
}

_CASES = [(workload, job) for workload, jobs in _jobs["WORKLOADS"].items() for job in jobs]


@pytest.mark.parametrize("workload, job", _CASES, ids=[f"{w}-{j.name}" for w, j in _CASES])
def test_benchmark_job_passes_its_check(workload, job, tmp_path):
    code = main(job.argv(0, tmp_path))
    assert _jobs["check_job"](job, _EXPECTED[workload][job.name], code, tmp_path) == []
    if workload == "large-windows":
        report = json.loads((tmp_path / f"{job.name}.json").read_text(encoding="utf-8"))
        assert {r["L"]: r["primes"] for r in report["series"]} == _LARGE_WINDOW_PRIMES[job.name]
