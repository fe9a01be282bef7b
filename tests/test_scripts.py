"""The runnable experiments in scripts/, called through their main(argv)."""

import importlib.util
from pathlib import Path

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


def test_mmdim_scan_bad_eps_is_an_input_error(capsys):
    script = load("mmdim_scan")
    argv = ["--input", str(ROOT / "fixtures" / "two_over_z.json"), "--L", "3,4", "--eps", "0", "--budget", "20"]
    assert script.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: eps must lie in (0, 1)")
    assert captured.out == ""
