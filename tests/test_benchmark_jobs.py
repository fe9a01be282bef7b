"""Every benchmark job, run once through the CLI, passes the benchmark's own
output check.

`perfbench/run.py` counts a job whose reports differ from
`perfbench/expected.json`, or break an invariant on the seed-dependent
fields, as failed.  This runs each job of every workload at job seed 0 and
applies the same check, so a change that alters a report fails here before
a benchmark run.
"""

import runpy
from pathlib import Path

import pytest

from folrank.cli import main

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
# run_path compiles the source itself and writes no bytecode beside it.
_jobs = runpy.run_path(str(JOBS))
_EXPECTED = _jobs["load_expected"]()
_CASES = [(workload, job) for workload, jobs in _jobs["WORKLOADS"].items() for job in jobs]


@pytest.mark.parametrize("workload, job", _CASES, ids=[f"{w}-{j.name}" for w, j in _CASES])
def test_benchmark_job_passes_its_check(workload, job, tmp_path):
    code = main(job.argv(0, tmp_path))
    assert _jobs["check_job"](job, _EXPECTED[workload][job.name], code, tmp_path) == []
