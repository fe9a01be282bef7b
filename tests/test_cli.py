import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from folrank import cli as cli_module, exactla
from folrank.cli import main, parse_epsilon, parse_fraction
from folrank.errors import InputError
from folrank.groupring import RingMatrix, window_matrix
from folrank.groups import folner_set

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


def test_identity_check_noncommutative(tmp_path):
    code = run_cli(["identity-check", "--input", str(FIXTURES / "heisenberg_ab.json"), "--L", "1"], tmp_path)
    assert code == 0


def test_mrank_torsion_over_z2(tmp_path):
    code = run_cli(["mrank", "--input", str(FIXTURES / "two_over_z2.json"), "--L", "2,4,8"], tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "mrank-two_over_z2.json").read_text())
    assert report["limit_estimate"] == "0/1"


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


def test_max_primes_budget_stays_inside_its_job(tmp_path, monkeypatch):
    # Never certify, so every rank_q call runs through its whole prime budget.
    tried = []
    kernel = exactla._ranks_mod_primes
    monkeypatch.setattr(exactla, "_spot_check", lambda M, primes, rng: False)

    def hook(lay, primes):
        tried.extend(primes)
        return kernel(lay, primes)

    monkeypatch.setattr(exactla, "_ranks_mod_primes", hook)
    matrix = json.loads((FIXTURES / "xy_minus_one.json").read_text())
    job = {"command": "vnd", "matrix": matrix, "schedule": [8], "budgets": {"max_primes": 3}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["vnd", "--input", str(path), "--out", str(tmp_path)]) == 2
    assert len(tried) == 3
    tried.clear()
    f = RingMatrix.from_json(matrix)
    W = window_matrix(f, folner_set(f.spec, 8)).data
    cert = exactla.rank_q(W)
    assert len(tried) == exactla.MAX_PRIMES == 16
    assert cert.method == "fraction-free"


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
