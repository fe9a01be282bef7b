import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from folrank import cli as cli_module
from folrank.cli import main, parse_epsilon, parse_fraction
from folrank.errors import InputError
from folrank.groupring import RingMatrix

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def run_cli(args, tmp_path, capsys=None):
    code = main([*args, "--out", str(tmp_path)])
    return code


def test_parse_helpers():
    from fractions import Fraction

    assert parse_fraction("1/100") == Fraction(1, 100)
    assert parse_epsilon("2^-3") == 0.125
    assert parse_epsilon("1/8") == 0.125
    assert parse_epsilon("0.125") == 0.125
    with pytest.raises(InputError):
        parse_fraction("abc")


def test_vnd_paper_case(tmp_path, capsys):
    code = run_cli(["vnd", "--input", str(FIXTURES / "one_plus_2T.json"), "--L", "4,8,16,32"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "0/1" in out and "converged" in out
    report = json.loads((tmp_path / "vnd-one_plus_2T.json").read_text())
    assert report["limit_estimate"] == "0/1"
    assert report["status"] == "converged"
    assert all(rec["density"] == "0/1" for rec in report["series"])
    csv_text = (tmp_path / "vnd-one_plus_2T.csv").read_text()
    assert csv_text.splitlines()[0] == "L,F_size,numerator,density,primes"


def test_oracle_case(tmp_path, capsys):
    code = run_cli(["oracle", "--input", str(FIXTURES / "xy_minus_one.json")], tmp_path)
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_mrank_and_erank_reports(tmp_path):
    code = run_cli(["mrank", "--input", str(FIXTURES / "two_over_z.json"), "--L", "2,4,8"], tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "mrank-two_over_z.json").read_text())
    assert report["limit_estimate"] == "0/1"
    code = run_cli(
        ["erank", "--input", str(FIXTURES / "one_plus_2T.json"), "--L", "2,4,8", "--tolerance", "1/4"],
        tmp_path,
    )
    assert code == 0
    report = json.loads((tmp_path / "erank-one_plus_2T.json").read_text())
    assert [r["density"] for r in report["series"]] == ["1/2", "1/4", "1/8"]


def test_compare_finite_case(tmp_path, capsys):
    code = run_cli(["compare", "--input", str(FIXTURES / "zmod2_one_plus_t.json"), "--L", "1,2"], tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "compare-zmod2_one_plus_t.json").read_text())
    assert report["columns"] == {
        "mrank": "1/2",
        "vnd": "1/2",
        "erank": "1/2",
        "oracle": "1/2",
    }
    assert report["within_tolerance"] is True


def test_identity_check_command(tmp_path):
    code = run_cli(["identity-check", "--input", str(FIXTURES / "one_plus_2T.json"), "--L", "2,3,4"], tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "identity-check-one_plus_2T.json").read_text())
    assert report["all_ok"] is True


@pytest.mark.parametrize("via", ["flag", "file"])
def test_identity_check_of_an_empty_schedule_is_an_input_error(via, tmp_path, capsys):
    # No window checked is no pass: exit 1 and no report, as for the series engines.
    if via == "flag":
        argv = ["identity-check", "--input", str(FIXTURES / "one_plus_2T.json"), "--L", ","]
    else:
        path = tmp_path / "job.json"
        matrix = json.loads((FIXTURES / "one_plus_2T.json").read_text())
        path.write_text(json.dumps({"command": "identity-check", "matrix": matrix, "schedule": []}))
        argv = ["identity-check", "--input", str(path)]
    assert run_cli(argv, tmp_path) == 1
    assert capsys.readouterr().err.startswith("input error: empty window schedule")
    assert not list(tmp_path.glob("identity-check-*"))


def test_identity_check_noncommutative(tmp_path):
    code = run_cli(["identity-check", "--input", str(FIXTURES / "heisenberg_ab.json"), "--L", "1"], tmp_path)
    assert code == 0


def test_mrank_torsion_over_z2(tmp_path):
    code = run_cli(["mrank", "--input", str(FIXTURES / "two_over_z2.json"), "--L", "2,4,8"], tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "mrank-two_over_z2.json").read_text())
    assert report["limit_estimate"] == "0/1"


def test_mrank_of_more_relations_than_generators(tmp_path):
    # ztriv presents the trivial module Z by the 2x1 matrix (x - 1; y - 1).
    # With m = 2 > n = 1 a window value lies in [n - m, n] = [-1, 1], and it
    # is negative on every window here; the limit estimate stays at 0.
    code = run_cli(["mrank", "--input", str(FIXTURES / "ztriv.json"), "--L", "2,4,8,16"], tmp_path)
    assert code == 2
    report = json.loads((tmp_path / "mrank-ztriv.json").read_text())
    assert [r["density"] for r in report["series"]] == ["-3/4", "-7/16", "-15/64", "-31/256"]
    assert report["limit_estimate"] == "0/1"
    assert report["status"] == "exhausted-budget"


def test_compare_of_more_relations_than_generators(tmp_path):
    code = run_cli(["compare", "--input", str(FIXTURES / "ztriv.json"), "--L", "2,4,8,16"], tmp_path)
    assert code == 2
    report = json.loads((tmp_path / "compare-ztriv.json").read_text())
    assert report["columns"]["oracle"] == report["columns"]["mrank"] == "0/1"


@pytest.mark.parametrize("command", ["vnd", "mrank", "erank", "compare", "oracle", "identity-check"])
def test_every_command_runs_over_the_trivial_group(command, tmp_path):
    # Z^0 has coordinate rows of length 0, and f = 2 is a unit over Q: every
    # value is 0.
    matrix = {"group": {"family": "Zd", "d": 0}, "rows": 1, "cols": 1, "entries": [
        {"row": 0, "col": 0, "terms": [{"coeff": "2", "elem": []}]},
    ]}
    path = tmp_path / "z0.json"
    path.write_text(json.dumps(matrix))
    assert run_cli([command, "--input", str(path), "--L", "1,2"], tmp_path) == 0
    report = json.loads((tmp_path / f"{command}-z0.json").read_text())
    if command == "compare":
        assert set(report["columns"].values()) == {"0/1"}
    elif command == "identity-check":
        assert report["all_ok"] is True
    else:
        assert report.get("limit_estimate", report.get("value")) == "0/1"


def test_mmdim_command(tmp_path):
    code = run_cli(
        ["mmdim", "--input", str(FIXTURES / "two_over_z.json"), "--L", "5,6", "--epsilon", "2^-3,2^-4"],
        tmp_path,
    )
    assert code == 0
    report = json.loads((tmp_path / "mmdim-two_over_z.json").read_text())
    lo, hi = report["interval"]
    assert lo <= 0.0 <= hi + 1e-9
    header = (tmp_path / "mmdim-two_over_z.csv").read_text().splitlines()[0]
    assert header == "L,F_size,epsilon,lower_count,upper_log,lower_slope,upper_slope"


def test_mmdim_csv_has_a_row_per_window_and_epsilon(tmp_path):
    argv = ["mmdim", "--input", str(FIXTURES / "two_over_z.json"), "--L", "3,4", "--epsilon", "1/4,1/8"]
    assert run_cli([*argv, "--samples", "60", "--seed", "1"], tmp_path) == 0
    with open(tmp_path / "mmdim-two_over_z.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["L", "F_size", "epsilon", "lower_count", "upper_log", "lower_slope", "upper_slope"]
    assert all(len(row) == 7 for row in rows)
    # Larger scales first, and within a scale the windows in order.
    assert [(row[0], row[2]) for row in rows[1:]] == [("3", "0.25"), ("4", "0.25"), ("3", "0.125"), ("4", "0.125")]


@pytest.mark.parametrize("text", ["-8^0.5", "10^400", "1e400", "nan", "inf", "1/0", "2^x"])
def test_parse_epsilon_rejects_what_is_not_a_finite_real(text):
    with pytest.raises(InputError):
        parse_epsilon(text)


@pytest.mark.parametrize("flag", ["--epsilon=-8^0.5", "--epsilon=10^400", "--epsilon=0", "--epsilon=2^-1074"])
def test_mmdim_bad_epsilon_is_an_input_error(flag, tmp_path, capsys):
    argv = ["mmdim", "--input", str(FIXTURES / "two_over_z.json"), "--L", "3,4", flag]
    assert run_cli(argv, tmp_path) == 1
    assert capsys.readouterr().err.startswith("input error: ")
    assert not list(tmp_path.iterdir())


def test_mmdim_on_a_finite_group_is_an_input_error(tmp_path):
    # Every window of a finite group is the whole group, so no slope exists.
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "folrank.cli",
            "mmdim",
            "--input",
            str(FIXTURES / "zmod2_one_plus_t.json"),
            "--L",
            "1,2",
            "--epsilon",
            "2^-3",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error: windows L=1 and L=2 both have 2 elements")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_verify_suite_needs_a_case(cases, tmp_path, capsys):
    assert run_cli(["verify-suite", "--cases", cases], tmp_path) == 1
    assert capsys.readouterr().err.startswith("input error: ")
    assert not list(tmp_path.iterdir())


def test_verify_suite_command(tmp_path, capsys):
    code = run_cli(["verify-suite", "--seed", "7", "--cases", "8"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    report = json.loads((tmp_path / "verify-suite-job.json").read_text())
    assert report["all_pass"] is True


# -- exit code contract -----------------------------------------------------------


def test_exit_code_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = run_cli(["vnd", "--input", str(bad)], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_exit_code_on_missing_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rows": 1, "cols": 1}))
    code = run_cli(["vnd", "--input", str(bad)], tmp_path)
    assert code == 1
    assert "group" in capsys.readouterr().err


def test_exit_code_on_budget_exhaustion(tmp_path):
    code = run_cli(
        [
            "vnd",
            "--input",
            str(FIXTURES / "xy_minus_one.json"),
            "--L",
            "2,4,64",
            "--max-window-elements",
            "100",
        ],
        tmp_path,
    )
    assert code == 2
    report = json.loads((tmp_path / "vnd-xy_minus_one.json").read_text())
    assert report["status"] == "exhausted-budget"
    assert [r["L"] for r in report["series"]] == [2, 4]


def test_identity_check_writes_the_windows_within_budget(tmp_path, capsys):
    # As the series engines do: the L = 64 window (4,096 elements) is cut by
    # the budget, and the checks made on L = 2 and 4 are written.
    argv = ["identity-check", "--input", str(FIXTURES / "xy_minus_one.json"), "--L", "2,4,64"]
    assert run_cli([*argv, "--max-window-elements", "100"], tmp_path) == 2
    report = json.loads((tmp_path / "identity-check-xy_minus_one.json").read_text())
    assert report["checks"] == [{"L": 2, "ok": True}, {"L": 4, "ok": True}]
    assert report["all_ok"] is True
    assert "window budget reached" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda m: m.update(entires=m.pop("entries")), "matrix: unknown keys ['entires']"),
        (lambda m: m["entries"][0].update(column=0), "matrix.entries[0]: unknown keys ['column']"),
        (lambda m: m["entries"][0]["terms"][0].update(exp=2), "matrix.entries[0].terms[0]: unknown keys ['exp']"),
        (lambda m: m["group"].update(dim=1), "group: unknown keys ['dim']"),
    ],
    ids=["matrix-entires", "entry", "term", "group-dim"],
)
def test_unknown_matrix_key_is_an_input_error(edit, named, tmp_path, capsys):
    # A misspelt 'entries' would otherwise present the zero matrix, whose
    # kernel density is 1, not the 0 of f = 2.
    matrix = json.loads((FIXTURES / "two_over_z.json").read_text())
    edit(matrix)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(matrix))
    assert run_cli(["vnd", "--input", str(path), "--L", "2,4"], tmp_path) == 1
    assert capsys.readouterr().err.startswith(f"input error: {named}")
    assert not list(tmp_path.glob("vnd-*"))


def test_job_file_command_must_match_the_command_given(tmp_path, capsys):
    matrix = json.loads((FIXTURES / "one_plus_2T.json").read_text())
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "mrank", "matrix": matrix, "schedule": [2, 4]}))
    assert main(["vnd", "--input", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: job field 'command'") and "'mrank'" in err and "'vnd'" in err
    assert not list(tmp_path.glob("*-job.*"))
    assert main(["mrank", "--input", str(path), "--out", str(tmp_path)]) == 0


def test_jobspec_file_input(tmp_path):
    matrix = json.loads((FIXTURES / "one_plus_2T.json").read_text())
    job = {
        "command": "vnd",
        "matrix": matrix,
        "schedule": [2, 4],
        "tolerance": "1/10",
        "seed": 3,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["vnd", "--input", str(path), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "vnd-job.json").read_text())
    assert report["seed"] == 3
    assert [r["L"] for r in report["series"]] == [2, 4]


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"seed": "x"}, "'seed'"),
        ({"seed": 2.5}, "'seed'"),
        ({"schedule": ["a"]}, "'schedule'"),
        ({"schedule": 5}, "'schedule'"),
        ({"epsilons": 5}, "'epsilons'"),
        ({"budgets": [1]}, "'budgets'"),
        ({"budgets": {"max_window_elements": "abc"}}, "'budgets.max_window_elements'"),
        ({"budgets": {"growth_steps": True}}, "'budgets.growth_steps'"),
        ({"budgets": {"max_windw_elements": 100}}, "max_windw_elements"),
        ({"budgets": {"max_primes": 16}}, "max_primes"),
        ({"shedule": [2, 4]}, "shedule"),
        ({"cases": 5}, "cases"),
    ],
    ids=[
        "seed",
        "seed-float",
        "schedule-item",
        "schedule",
        "epsilons",
        "budgets",
        "budget-value",
        "budget-bool",
        "budget-typo",
        "max_primes",
        "shedule",
        "cases",
    ],
)
def test_malformed_job_file_is_an_input_error(fields, named, tmp_path, capsys):
    matrix = json.loads((FIXTURES / "one_plus_2T.json").read_text())
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "vnd", "matrix": matrix, **fields}))
    assert main(["vnd", "--input", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and named in err
    assert not list(tmp_path.glob("vnd-*"))


def test_job_file_budget_bounds_the_windows(tmp_path):
    matrix = json.loads((FIXTURES / "xy_minus_one.json").read_text())
    job = {"command": "vnd", "matrix": matrix, "schedule": [2, 4, 64], "budgets": {"max_window_elements": 100}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["vnd", "--input", str(path), "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "vnd-job.json").read_text())
    assert [r["L"] for r in report["series"]] == [2, 4]


@pytest.mark.parametrize("command", ["erank", "compare"])
def test_negative_growth_steps_is_an_input_error(command, tmp_path, capsys):
    matrix = json.loads((FIXTURES / "one_plus_2T.json").read_text())
    job = {"command": command, "matrix": matrix, "schedule": [2, 4], "budgets": {"growth_steps": -1}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main([command, "--input", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "growth_steps" in err


@pytest.mark.parametrize("command", ["erank", "compare"])
def test_negative_growth_steps_without_relations_is_an_input_error(command, tmp_path, capsys):
    group = json.loads((FIXTURES / "two_over_z.json").read_text())["group"]
    matrix = {"group": group, "rows": 1, "cols": 1, "entries": []}
    job = {"command": command, "matrix": matrix, "schedule": [2, 4], "budgets": {"growth_steps": -1}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main([command, "--input", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "growth_steps" in err


def test_mmdim_window_budget_flag(tmp_path, capsys):
    argv = ["mmdim", "--input", str(FIXTURES / "two_over_z.json"), "--L", "20,30"]
    argv += ["--max-window-elements", "10", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("budget exhausted: window of index 20")
    assert not list(tmp_path.glob("mmdim-*"))


def test_mmdim_job_file_window_budget(tmp_path, capsys):
    # Heisenberg windows have 27 elements at L=1 and 225 at L=2.
    matrix = json.loads((FIXTURES / "heisenberg_ab.json").read_text())
    job = {"command": "mmdim", "matrix": matrix, "schedule": [1, 2], "epsilons": ["2^-3"]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps({**job, "budgets": {"max_window_elements": 30}}))
    assert main(["mmdim", "--input", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("budget exhausted: window of index 2")
    assert not list(tmp_path.glob("mmdim-*"))


def test_load_matrix_reads_a_bare_matrix_and_a_job_file(tmp_path):
    bare = FIXTURES / "one_plus_2T.json"
    matrix = cli_module.load_matrix(bare)
    assert matrix == RingMatrix.from_json(json.loads(bare.read_text()))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "vnd", "matrix": json.loads(bare.read_text()), "seed": 4}))
    assert cli_module.load_matrix(job) == matrix


def test_load_matrix_of_a_job_file_without_a_matrix_names_the_file(tmp_path):
    job = tmp_path / "no_matrix.json"
    job.write_text(json.dumps({"command": "verify-suite"}))
    with pytest.raises(InputError, match=re.escape(str(job))):
        cli_module.load_matrix(job)


def test_verify_suite_job_file_needs_no_matrix(tmp_path, capsys):
    job = tmp_path / "suite.json"
    job.write_text(json.dumps({"command": "verify-suite", "seed": 2}))
    assert main(["verify-suite", "--input", str(job), "--cases", "4", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify-suite-suite.json").read_text())
    assert report["seed"] == 2 and report["all_pass"] is True


# -- determinism -------------------------------------------------------------------


def test_reports_byte_identical_across_runs_and_threads(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    args = ["vnd", "--input", str(FIXTURES / "xy_minus_one.json"), "--L", "4,8", "--seed", "11"]
    assert main([*args, "--out", str(a)]) in (0, 2)
    assert main([*args, "--out", str(b)]) in (0, 2)
    old = os.environ.get("FOLRANK_THREADS")
    os.environ["FOLRANK_THREADS"] = "4"
    try:
        assert main([*args, "--out", str(c)]) in (0, 2)
    finally:
        if old is None:
            os.environ.pop("FOLRANK_THREADS")
        else:
            os.environ["FOLRANK_THREADS"] = old
    ja = (a / "vnd-xy_minus_one.json").read_bytes()
    assert ja == (b / "vnd-xy_minus_one.json").read_bytes()
    assert ja == (c / "vnd-xy_minus_one.json").read_bytes()


def test_console_script_entry(tmp_path):
    # The child process imports folrank from wherever this process found it,
    # so the test also runs from a checkout without an install.
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "folrank.cli",
            "oracle",
            "--input",
            str(FIXTURES / "xy_minus_one.json"),
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"
