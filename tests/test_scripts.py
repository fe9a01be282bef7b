"""The runnable experiments in scripts/, called through their main(argv)."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_convergence_prints_one_row_per_window(capsys):
    script = load("oracle_convergence")
    assert script.main(["--input", str(ROOT / "fixtures" / "xy_minus_one.json"), "--L", "2,4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "presentation: 1x2 over Zd, oracle value 1"
    # On the L-box the density is ((L - 1) / L)^2, rising to the oracle's 1.
    rows = [line.split()[:4] for line in lines[2:]]
    assert rows == [["2", "4", "1/4", "3/4"], ["4", "16", "9/16", "7/16"]]


def test_mmdim_scan_prints_the_packing_table(capsys):
    script = load("mmdim_scan")
    argv = ["--input", str(ROOT / "fixtures" / "two_over_z.json"), "--L", "3,4", "--eps", "2:3", "--budget", "20"]
    assert script.main(argv) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["L", "|F|", "eps", "lower_count", "upper_log", "grid_dim"]
    table = [line.split() for line in lines[1:5]]
    assert [(r[0], r[2]) for r in table] == [("3", "0.250000"), ("4", "0.250000"), ("3", "0.125000"), ("4", "0.125000")]
    assert "estimate interval: [" in out


def test_report_digest_is_stable(capsys):
    script = load("report_digest")
    argv = ["--workload", "large-windows", "--seeds", "0"]
    assert script.main(argv) == 0
    first = capsys.readouterr().out
    assert script.main(argv) == 0
    assert capsys.readouterr().out == first
    lines = [line.split() for line in first.splitlines()]
    exits = [line for line in lines if line[3] == "exit"]
    assert [line[:3] for line in exits] == [
        ["large-windows", "seed=0", name] for name in ("vnd-xy_minus_one", "mrank-two_over_z2", "vnd-heisenberg_ab")
    ]
    # A JSON and a CSV report per job, each with a sha256.
    digests = [line for line in lines if line[3] != "exit"]
    assert len(digests) == 6 and all(len(line[4]) == 64 for line in digests)


def test_reports_match_the_recorded_digests(capsys):
    # Every report of every workload at job seed 0, byte for byte.  A change
    # that alters a report re-records the file and says so:
    #   PYTHONPATH=src python scripts/report_digest.py --seeds 0 > tests/golden/report_digest_seed0.txt
    script = load("report_digest")
    assert script.main(["--seeds", "0"]) == 0
    recorded = (ROOT / "tests" / "golden" / "report_digest_seed0.txt").read_text()
    assert capsys.readouterr().out.splitlines() == recorded.splitlines()


def test_report_digest_covers_the_fixtures_no_benchmark_reads(capsys):
    script = load("report_digest")
    assert script.main(["--workload", "fixtures", "--seeds", "0"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    # compare exits 2 on each: some series has not converged within these windows.
    names = ("compare-z2hard", "compare-hhard", "compare-ztriv")
    assert [line for line in lines if line[3] == "exit"] == [["fixtures", "seed=0", name, "exit", "2"] for name in names]
    digests = [line for line in lines if line[3] != "exit"]
    assert [line[3] for line in digests] == [f"{name}.json" for name in names]
    assert all(len(line[4]) == 64 for line in digests)


def test_report_digest_covers_every_command_on_every_fixture(capsys):
    script = load("report_digest")
    assert script.main(["--workload", "commands", "--seeds", "0"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    fixtures = sorted(path.stem for path in (ROOT / "fixtures").glob("*.json"))
    commands = ("vnd", "mrank", "erank", "oracle", "identity-check")
    exits = {line[2]: int(line[4]) for line in lines if line[3] == "exit"}
    assert list(exits) == [f"{command}-{fixture}" for fixture in fixtures for command in commands]
    # Heisenberg has no closed-form oracle: an input error, with no report.
    failed = {name for name, code in exits.items() if code == 1}
    assert failed == {"oracle-heisenberg_ab", "oracle-hhard"}
    assert set(exits.values()) == {0, 1, 2}
    # The series write a JSON and a CSV report, oracle and identity-check a JSON one.
    digests = [line for line in lines if line[3] != "exit"]
    want = [
        f"{name}.{ext}"
        for name in exits
        if name not in failed
        for ext in (("json",) if name.startswith(("oracle", "identity")) else ("csv", "json"))
    ]
    assert [line[3] for line in digests] == want
    assert all(len(line[4]) == 64 for line in digests)
    # Every job has its own windows: two small ones per group.
    jobs = {job.name: job.L for job in script.load_workloads()["commands"]}
    assert jobs["vnd-heisenberg_ab"] == jobs["vnd-zmod2_one_plus_t"] == "1,2"
    assert jobs["vnd-xy_minus_one"] == jobs["vnd-ztriv"] == "2,4"


def test_mmdim_scan_bad_eps_is_an_input_error(capsys):
    script = load("mmdim_scan")
    argv = ["--input", str(ROOT / "fixtures" / "two_over_z.json"), "--L", "3,4", "--eps", "0", "--budget", "20"]
    assert script.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: eps must lie in (0, 1)")
    assert captured.out == ""


def test_pass_times_prints_one_line_per_seed_and_the_mean(capsys):
    script = load("pass_times")
    assert script.main(["--workload", "large-windows", "--seeds", "0,1"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:2] for line in lines] == [["large-windows", "seed=0"], ["large-windows", "seed=1"], ["large-windows", "mean"]]
    times = [float(line[2]) for line in lines]
    assert all(line[3] == "s" for line in lines) and all(t > 0 for t in times)
    assert abs(times[2] - (times[0] + times[1]) / 2) < 1e-3


def test_pass_times_compares_this_tree_with_itself(capsys):
    script = load("pass_times")
    src = Path(script.folrank.__file__).resolve().parents[1]
    argv = ["--workload", "large-windows", "--seeds", "0", "--against", str(src), "--pairs", "1"]
    assert script.main(argv) == 0
    pair, wins = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert pair[:3] == ["large-windows", "pair=1", "this"] and pair[4:6] == ["s", "against"]
    assert float(pair[3]) > 0 and float(pair[6]) > 0
    assert wins[:2] == ["large-windows", "wins"] and wins[3:] == ["of", "1"] and wins[2] in ("0", "1")


@pytest.mark.parametrize(
    "argv", [["--seeds", ""], ["--passes", "0"], ["--seeds", "x"], ["--pairs", "0"], ["--against", "no/such/tree"]]
)
def test_pass_times_rejects_bad_arguments(argv, capsys):
    script = load("pass_times")
    with pytest.raises(SystemExit) as exc:
        script.main(["--workload", "small-exact", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_build_times_prints_each_build_and_the_suite_batches(capsys):
    script = load("build_times")
    assert script.main(["--repeats", "1", "--passes", "1"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == [label for label, *_ in script.BUILDS] + ["window_operator/verify-suite/seed=1"]
    assert all(float(line[1]) > 0 and line[2] == "ms" for line in lines)
    # The suites build every part in a few batches.
    batches, parts = int(lines[-1][4]), int(lines[-1][7])
    assert 0 < batches < parts


def test_bench_writes_one_record_per_selected_job(tmp_path, capsys):
    script = load("bench")
    out = tmp_path / "bench.json"
    names = ["commands/oracle-one_plus_2T", "fixtures/compare-ztriv"]
    assert script.main(["--only", ",".join(names), "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert set(bench) == {"commit", "cpu_count", "python", "numpy", "jobs"}
    assert bench["cpu_count"] == os.cpu_count()
    assert [job["name"] for job in bench["jobs"]] == names
    for job in bench["jobs"]:
        assert set(job) == {"name", "argv", "exit", "wall_s", "peak_rss_mb"}
        assert job["wall_s"] > 0 and job["peak_rss_mb"] > 0
        assert job["argv"][job["argv"].index("--out") + 1] == "OUT"
    # compare exits 2 on ztriv (report_digest's fixtures workload says why).
    assert [job["exit"] for job in bench["jobs"]] == [0, 2]
    assert bench["jobs"][0]["argv"][:3] == ["oracle", "--input", "fixtures/one_plus_2T.json"]
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_bench_job_groups(tmp_path):
    jobs = load("bench").bench_jobs()
    assert {name.split("/")[0] for name in jobs} == {"fixtures", "commands", "kernel", "merges"}
    # The merges jobs: binomial windows above every benchmark workload's size.
    merges = {name: jobs[name].argv(0, tmp_path) for name in jobs if name.startswith("merges/")}
    assert {name: (argv[0], Path(argv[2]).name, argv[4]) for name, argv in merges.items()} == {
        "merges/vnd-xy_minus_one": ("vnd", "xy_minus_one.json", "128,256"),
        "merges/vnd-heisenberg_ab": ("vnd", "heisenberg_ab.json", "5,6"),
    }


def test_bench_rejects_an_unknown_job(tmp_path, capsys):
    script = load("bench")
    with pytest.raises(SystemExit) as exc:
        script.main(["--only", "commands/no-such-job", "--out", str(tmp_path / "bench.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "bench.json").exists()
