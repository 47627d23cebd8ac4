"""Command-line interface: subcommands, seed handling, determinism."""

import json
import subprocess
import sys

import pytest

from slicealg import Quaternion, MonogenicSeries, gen_exp, save_monogenic
from slicealg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_exp_stdout(capsys):
    code, out, err = run_cli(capsys, "gen-exp", "--lambdas", "i,j", "--degree", "6")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 7
    f = gen_exp([Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0)], 6)
    for rec, want in zip(data, f.coeffs):
        assert rec == want.as_list()


def test_gen_exp_to_file_and_eval(tmp_path, capsys):
    coeffs = tmp_path / "e.json"
    code, _, _ = run_cli(capsys, "gen-exp", "--lambdas", "1+i,1+j",
                         "--degree", "40", "-o", str(coeffs))
    assert code == 0 and coeffs.exists()

    points = tmp_path / "pts.txt"
    points.write_text("# sample points\n1\n0.5+0.5i\n\n-0.25k\n")
    code, out, _ = run_cli(capsys, "eval", "--coeffs", str(coeffs),
                           "--points", str(points), "--at", "0.1+0.2j")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x0,x1,x2,x3,f_w,f_x1,f_x2,f_x3"
    assert len(lines) == 5
    # the first point is real x = 1; check against the closed form
    # E_(1+i,1+j)(1) = e/2 ((cos1 + sin1) + sin1 (i+j) + (sin1 - cos1) k)
    import math
    e = math.e
    row = [float(v) for v in lines[1].split(",")]
    assert row[:4] == [1.0, 0.0, 0.0, 0.0]
    assert row[4] == pytest.approx(e / 2 * (math.cos(1) + math.sin(1)), rel=1e-12)
    assert row[5] == pytest.approx(e / 2 * math.sin(1), rel=1e-12)
    assert row[6] == pytest.approx(e / 2 * math.sin(1), rel=1e-12)
    assert row[7] == pytest.approx(e / 2 * (math.sin(1) - math.cos(1)), rel=1e-12)


def test_solve_roundtrip(tmp_path, capsys):
    problem = tmp_path / "prob.json"
    problem.write_text(json.dumps({
        "lambdas": ["i", "j"],
        "initial": ["1", "k"],
        "degree": 12,
    }))
    code, out, _ = run_cli(capsys, "solve", "--problem", str(problem))
    assert code == 0
    data = json.loads(out)
    assert data[0] == [0.0, 0.0, 0.0, 1.0]   # f(0) = k (the last initial value)
    assert len(data) == 13


def test_eval_monogenic_file(tmp_path, capsys):
    path = tmp_path / "mono.json"
    save_monogenic(path, MonogenicSeries([Quaternion(1.0), Quaternion(0, 1, 0, 0)]))
    code, out, _ = run_cli(capsys, "eval", "--coeffs", str(path),
                           "--at", "0.5")
    assert code == 0
    row = [float(v) for v in out.splitlines()[1].split(",")]
    # P_0 + P_1 i at real 0.5: 1 + 3*0.5*i
    assert row[4:] == [1.0, 1.5, 0.0, 0.0]


def test_pde_summary_stdout(capsys):
    code, out, err = run_cli(capsys, "pde", "--kind", "helmholtz",
                             "--lambda", "1.0", "--grid-counts", "5",
                             "--fd-step", "0.02")
    assert code == 0
    summary = json.loads(out)
    assert set(summary) == {"max_rel_residual", "mean_rel_residual",
                            "richardson_order"}
    assert summary["max_rel_residual"] < 1e-4
    assert "helmholtz" in err


def test_pde_out_prefix(tmp_path, capsys):
    prefix = tmp_path / "run"
    code, out, _ = run_cli(capsys, "pde", "--kind", "klein-gordon",
                           "--unit", "j", "--lambda", "1.0",
                           "--grid-counts", "5", "--fd-step", "0.02",
                           "--out-prefix", str(prefix))
    assert code == 0
    assert (tmp_path / "run.csv").exists()
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["max_rel_residual"] < 1e-4
    header = (tmp_path / "run.csv").read_text().splitlines()[0]
    assert header == "x0,x1,x2,x3,f_w,f_x1,f_x2,f_x3,residual_norm"


def test_pde_out_prefix_creates_directories(tmp_path, capsys):
    prefix = tmp_path / "deep" / "nested" / "run"
    code, _, _ = run_cli(capsys, "pde", "--kind", "helmholtz",
                         "--lambda", "1.0", "--grid-counts", "5",
                         "--fd-step", "0.02", "--out-prefix", str(prefix))
    assert code == 0
    assert (tmp_path / "deep" / "nested" / "run.csv").exists()
    assert (tmp_path / "deep" / "nested" / "run.summary.json").exists()


def test_pde_bad_constants_record_exits_2(tmp_path, capsys):
    # lowercase 'i' key instead of 'I': friendly message, no traceback
    consts = tmp_path / "consts.json"
    consts.write_text('[{"i": "i", "a1": "1", "a2": "-1"}]')
    code, _, err = run_cli(capsys, "pde", "--kind", "klein-gordon",
                           "--unit", "i", "--lambda", "1.0",
                           "--constants", str(consts),
                           "--grid-counts", "5", "--exclude", "0.5",
                           "--fd-step", "0.01")
    assert code == 2
    assert "slice-constant record" in err


def test_pde_yukawa_writes_solution(tmp_path, capsys):
    rhs = tmp_path / "rhs.json"
    save_monogenic(rhs, MonogenicSeries([Quaternion(1.0),
                                         Quaternion(0.0, 1.0, -1.0, 1.0),
                                         Quaternion(0.0, -1.0, -1.0, -1.0),
                                         Quaternion(1.0)]))
    prefix = tmp_path / "yk"
    code, _, _ = run_cli(capsys, "pde", "--kind", "yukawa", "--unit", "i",
                         "--lambda", "1.0", "--rhs", str(rhs),
                         "--grid-counts", "5", "--fd-step", "0.02",
                         "--out-prefix", str(prefix))
    assert code == 0
    sol = json.loads((tmp_path / "yk.coeffs.json").read_text())
    assert sol["basis"] == "P"
    assert sol["coeffs"][0] == [-1.0, -12.0, -12.0, -12.0]
    assert sol["coeffs"][3] == [-1.0, 0.0, 0.0, 0.0]


def test_pde_problem_file(tmp_path, capsys):
    spec = {
        "kind": "helmholtz",
        "lambda": 1.0,
        "grid": {"counts": [5, 5, 5], "lo": [-1, -1, -1], "hi": [1, 1, 1],
                 "x0": 0.0, "exclude_radius": 0.0, "fd_step": 0.02},
        "degree": 40,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "pde", "--problem", str(path))
    assert code == 0
    assert json.loads(out)["max_rel_residual"] < 1e-4


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "quaternion",
                           "--seed", "5")
    assert code == 0
    assert "ok quaternion" in out
    assert "(seed 5)" in out


def test_seed_precedence(capsys, monkeypatch):
    monkeypatch.setenv("SLICEALG_SEED", "99")
    code, out, _ = run_cli(capsys, "verify", "--suite", "quaternion")
    assert code == 0 and "(seed 99)" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "quaternion",
                           "--seed", "7")
    assert code == 0 and "(seed 7)" in out
    monkeypatch.setenv("SLICEALG_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "verify", "--suite", "quaternion")
    assert code == 2
    assert "SLICEALG_SEED" in err


def test_bad_input_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen-exp", "--lambdas", "i,,")
    assert code == 0 or code == 2  # empty entries are skipped by the splitter
    code, _, err = run_cli(capsys, "gen-exp", "--lambdas", "zorp")
    assert code == 2 and "gen-exp" in err
    code, _, err = run_cli(capsys, "gen-exp", "--lambdas", "i,j,k",
                           "--degree", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "eval", "--coeffs",
                           str(tmp_path / "missing.json"), "--at", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "pde", "--lambda", "1.0")
    assert code == 2 and "pde" in err
    # malformed grid and eigenvalue flags end before any grid work
    for flags in (["--grid-counts", "a,b"], ["--grid-lo", "1", "--grid-hi", "0"],
                  ["--lambda", "nan"], ["--lambda", "inf"]):
        code, out, err = run_cli(capsys, "pde", "--kind", "helmholtz",
                                 "--grid-counts", "5", *flags)
        assert code == 2 and out == ""
        assert err.startswith("slicealg pde: ") and err.count("\n") == 1


def test_cli_determinism_byte_identical(tmp_path):
    env_cmd = [sys.executable, "-m", "slicealg.cli"]

    def run(args):
        return subprocess.run(env_cmd + args, capture_output=True, text=True)

    a = run(["gen-exp", "--lambdas", "1+i,1+j", "--degree", "30"])
    b = run(["gen-exp", "--lambdas", "1+i,1+j", "--degree", "30"])
    assert a.returncode == 0 and a.stdout == b.stdout

    pde_args = ["pde", "--kind", "helmholtz", "--lambda", "1.0",
                "--grid-counts", "5", "--fd-step", "0.02"]
    a = run(pde_args)
    b = run(pde_args)
    assert a.returncode == 0
    assert a.stdout == b.stdout and a.stderr == b.stderr


def test_version_flag():
    proc = subprocess.run([sys.executable, "-m", "slicealg.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("slicealg ")
