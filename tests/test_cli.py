"""Command-line interface: subcommands, seed handling, determinism."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from slicealg import Quaternion, MonogenicSeries, __version__, gen_exp
from slicealg.cli import main
from slicealg.fmtio import dump_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _process(*args, stdout=subprocess.PIPE, **env):
    """Run ``python *args`` as a user does, with block-buffered stdout
    unless ``env`` says otherwise; its stdout (unless redirected) and stderr
    as bytes."""
    env = {**os.environ, "PYTHONUNBUFFERED": "", **env}   # "" means unset
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


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
    dump_json(MonogenicSeries([Quaternion(1.0), Quaternion(0, 1, 0, 0)]).to_record(),
              path)
    code, out, _ = run_cli(capsys, "eval", "--coeffs", str(path),
                           "--at", "0.5")
    assert code == 0
    row = [float(v) for v in out.splitlines()[1].split(",")]
    # P_0 + P_1 i at real 0.5: 1 + 3*0.5*i
    assert row[4:] == [1.0, 1.5, 0.0, 0.0]


def test_eval_monogenic_file_without_points(tmp_path, capsys):
    # no --at and no --points: the header line alone, exit 0
    path = tmp_path / "mono.json"
    dump_json(MonogenicSeries([Quaternion(1.0), Quaternion(0, 1, 0, 0)]).to_record(),
              path)
    code, out, err = run_cli(capsys, "eval", "--coeffs", str(path))
    assert (code, out, err) == (0, "x0,x1,x2,x3,f_w,f_x1,f_x2,f_x3\n", "")


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


def test_pde_order_at_roundoff_reads_null(capsys):
    # at lambda = 1e-4 both residuals (3e-12 and 1e-11) sit below
    # ROUNDOFF: the run is certified, and its order, a ratio of roundoff,
    # reads null in the summary and on stderr
    code, out, err = run_cli(capsys, "pde", "--kind", "helmholtz",
                             "--lambda", "1e-4", "--grid-counts", "21")
    assert code == 0
    summary = json.loads(out)
    assert summary["max_rel_residual"] < 1e-9
    assert summary["richardson_order"] is None
    assert err.endswith(", richardson_order null\n") and err.count("\n") == 1


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
    assert err == ("slicealg pde: slice_constants[0]: expected a JSON object "
                   "with keys I, a1, a2\n")


def test_pde_yukawa_writes_solution(tmp_path, capsys):
    rhs = tmp_path / "rhs.json"
    dump_json(MonogenicSeries([Quaternion(1.0),
                               Quaternion(0.0, 1.0, -1.0, 1.0),
                               Quaternion(0.0, -1.0, -1.0, -1.0),
                               Quaternion(1.0)]).to_record(), rhs)
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
    # the seed has one source, --seed; the environment variable that was a
    # second one has no effect, whatever its value
    for env in ("99", "not-a-number"):
        monkeypatch.setenv("SLICEALG_SEED", env)
        code, out, _ = run_cli(capsys, "verify", "--suite", "quaternion")
        assert code == 0 and "(seed 1729)" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "quaternion",
                           "--seed", "7")
    assert code == 0 and "(seed 7)" in out


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
    proc = _process("-m", "slicealg.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout == f"slicealg {__version__}\n".encode()
    assert proc.stderr == b""


@pytest.mark.parametrize("argv,closed,status,out,err", [
    (["--version"], ">&-", 0, b"", f"slicealg {__version__}\n".encode()),
    (["gen-exp", "--lambdas", "i", "--degree", "1"], "2>&-", 0,
     b"[\n  [1, 0, 0, 0],\n  [0, 1, 0, 0]\n]\n", b""),
    (["gen-exp", "--lambdas", "i,j", "--degree", "4"], ">&-", 2, b"",
     b"slicealg gen-exp: cannot write stdout: it is closed\n"),
    (["gen-exp", "--lambdas", "i,"], "2>&-", 2, b"", b""),
], ids=["stdout", "stderr", "stdout-gen-exp", "stderr-refusal"])
def test_process_started_with_a_closed_stream(argv, closed, status, out, err):
    # Python has no sys.stdout (or sys.stderr) when fd 1 (or 2) is closed
    # at its start, and argparse writes --version to stderr; run() flushes
    # only the streams there are.  Output for a closed stdout is refused as
    # for a full disk, and a refusal with no stderr goes nowhere: not to
    # stdout, and its status stays 2
    if not os.path.exists("/bin/sh"):
        pytest.skip("no /bin/sh")
    script = f'exec "$0" -m slicealg.cli {" ".join(argv)} {closed}'
    proc = subprocess.run(["/bin/sh", "-c", script, sys.executable],
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, err)


@pytest.mark.parametrize("argv,status", [
    (["--help"], 0),
    (["gen-exp", "--degree", "4"], 2),      # --lambdas missing
])
def test_argparse_exits_keep_their_status_and_text(argv, status, capsys,
                                                  monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")     # one width for both help texts
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == status
    proc = _process("-m", "slicealg.cli", *argv)
    assert proc.returncode == status
    assert (proc.stdout, proc.stderr) == (out.encode(), err.encode())


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "quaternion", "--seed", "1"],
    ["gen-exp", "--lambdas", "i,j", "--degree", "400"],
])
def test_closed_stdout_exits_1_without_traceback(argv):
    # the reader of stdout is gone before the command writes (``| head``)
    proc = subprocess.Popen([sys.executable, "-m", "slicealg.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "quaternion", "--seed", "1"],
    ["gen-exp", "--lambdas", "i,j", "--degree", "400"],
])
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_full_stdout_exits_2_with_one_line(argv, unbuffered):
    # a disk that is full takes nothing: the error is the command's, as for
    # an output file, whether the write or the last flush fails
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as full:
        proc = _process("-m", "slicealg.cli", *argv, stdout=full,
                        PYTHONUNBUFFERED=unbuffered)
    assert proc.returncode == 2
    assert proc.stderr.decode() == (f"slicealg {argv[0]}: cannot write "
                                    f"stdout: [Errno 28] No space left on "
                                    f"device\n")


@pytest.mark.parametrize("argv,status", [
    (["gen-exp", "--lambdas", "i,"], 2),
    (["pde", "--kind", "helmholtz", "--lambda", "50", "--grid-counts", "5"], 3),
    (["pde", "--kind", "helmholtz", "--grid-counts", "5"], 0),
], ids=["refusal", "not-certified", "certified"])
def test_gone_stderr_reader_keeps_the_status(argv, status):
    # stderr is a pipe whose read end is closed before the start, so every
    # stderr line fails to be written: the status is still the command's,
    # and nothing goes to stdout but the summary
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "slicealg.cli", *argv],
                              stdout=subprocess.PIPE, stderr=write,
                              timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == status
    if status:
        assert proc.stdout == b""
    else:
        assert set(json.loads(proc.stdout)) == {
            "max_rel_residual", "mean_rel_residual", "richardson_order"}


def _assert_one_line_error(code, out, err, command):
    assert code == 2 and out == ""
    assert err.startswith(f"slicealg {command}: ") and err.count("\n") == 1


def test_eval_bad_input_exits_2(tmp_path, capsys):
    # E_(i,j,k) at degree 60 overflows at |x| = 1e17
    big = tmp_path / "e.json"
    assert main(["gen-exp", "--lambdas", "i,j,k", "--degree", "60",
                 "-o", str(big)]) == 0
    # each coefficient file and the refusal that names its bad entry; a
    # JSON true used to read as 1 and the run exited 0
    files = {
        "word": ('[[1, 2, 3, "x"]]',
                 "word.json[0][3]: expected a JSON number, got a string"),
        "nan": ("[[1, 2, 3, 4], [NaN, 0, 0, 0]]",
                "nan.json[1] is not a quadruple [w, x1, x2, x3] of finite numbers"),
        "inf": ("[[1, 2, 3, Infinity]]", "inf.json[0] is not a quadruple"),
        "pnan": ('{"basis": "P", "coeffs": [[1, NaN, 0, 0]]}',
                 "pnan.json coeffs[0] is not a quadruple"),
        "bool": ("[[true, 0, 0, 0], [0, false, 0, 0]]",
                 "bool.json[0][0] must be a number, got true"),
        "three": ("[[1, 0, 0, 0], [1, 0, 0]]",
                  "bad {path}[1]: expected a JSON array of 4 entries, got 3 entries"),
        "five": ("[[1, 0, 0, 0, 0]]",
                 "bad {path}[0]: expected a JSON array of 4 entries, got 5 entries"),
        "digits": (f"[[1, 0, 0, 0], [0, 0, {'9' * 400}, 0]]",
                   "bad {path}[1][2]: integer beyond the float range"),
        "string": ('"1, 0, 0, 0"',
                   "bad {path}: expected a JSON array, got a string"),
    }
    cases = [(big, ["--at", "0.5", "--at", "1e17"], "not finite at 1e+17"),
             (big, ["--at", "1e400"], "literal '1e400' is not finite"),
             (big, ["--at", "1e308+1e308"], "literal '1e308+1e308' is not")]
    for name, (text, fragment) in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        cases.append((path, ["--at", "1"], fragment.format(path=path)))
    for coeffs, flags, fragment in cases:
        out_file = tmp_path / "out" / "v.csv"
        code, out, err = run_cli(capsys, "eval", "--coeffs", str(coeffs),
                                 *flags, "-o", str(out_file))
        _assert_one_line_error(code, "", err, "eval")
        assert fragment in err
        assert "9" * 17 not in err          # no value of any length is echoed
        assert not out_file.exists()
        code, out, err = run_cli(capsys, "eval", "--coeffs", str(coeffs), *flags)
        _assert_one_line_error(code, out, err, "eval")


def test_eval_points_file_not_utf8_exits_2(tmp_path, capsys):
    coeffs = tmp_path / "e.json"
    assert main(["gen-exp", "--lambdas", "i", "--degree", "4",
                 "-o", str(coeffs)]) == 0
    points = tmp_path / "pts.txt"
    points.write_bytes(b"0.5\n\xff\n")
    for path, fragment in ((points, "pts.txt: 'utf-8' codec"),
                           (tmp_path / "none.txt", "cannot read ")):
        code, out, err = run_cli(capsys, "eval", "--coeffs", str(coeffs),
                                 "--points", str(path))
        _assert_one_line_error(code, out, err, "eval")
        assert fragment in err


@pytest.mark.parametrize("flags", [
    ["--lambda", "1e300"],
    ["--x0", "1e300"],
    ["--x0", "1e300", "--out-prefix", "{prefix}"],
    ["--fd-step", "1e-300"],
])
def test_pde_overflow_exits_2(flags, tmp_path, capsys):
    # a solution that overflows on the grid is one exit-2 line, refused
    # before any output
    prefix = tmp_path / "out" / "PREFIX"
    flags = [str(prefix) if a == "{prefix}" else a for a in flags]
    code, out, err = run_cli(capsys, "pde", "--kind", "helmholtz",
                             "--grid-counts", "5", *flags)
    _assert_one_line_error(code, out, err, "pde")
    assert "not finite" in err
    assert list(tmp_path.iterdir()) == []


def test_pde_grid_too_large_to_allocate_exits_2(capsys):
    # 100000 nodes per axis is a grid of 7.11 PiB: the allocator refuses it
    # at once, and the refusal is one exit-2 line, not a traceback
    code, out, err = run_cli(capsys, "pde", "--kind", "helmholtz",
                             "--grid-counts", "100000")
    _assert_one_line_error(code, out, err, "pde")
    assert "out of memory" in err


def test_pde_problem_file_bad_values_exit_2(tmp_path, capsys, monkeypatch):
    from slicealg.errors import ParseError
    from slicealg.pde import GridSpec, PdeProblem

    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work started on a bad problem")
    monkeypatch.setattr("slicealg.pde.verify_pde", no_grid_work)
    grid = {"counts": [5, 5, 5]}
    bad = [{"kind": "helmholtz", "lambda": float("nan"), "grid": grid},
           {"kind": "helmholtz", "lambda": float("inf"), "grid": grid},
           {"kind": "helmholtz", "lambda": 1.0,
            "grid": {"lo": [1, 1, 1], "hi": [0, 0, 0]}},
           {"kind": "helmholtz", "grid": {"counts": [5, 5, 5],
                                          "x0": float("nan")}},
           {"kind": "helmholtz", "grid": {"counts": [5, 5, 5],
                                          "lo": ["a", 0, 0]}},
           {"kind": "helmholtz", "lambda": "one", "grid": grid},
           {"kind": "bogus", "grid": grid},
           {"kind": "klein-gordon", "grid": grid},
           {"kind": "quadratic", "lambda1": "1+i", "lambda": 7, "grid": grid},
           {"kind": "yukawa", "I": "i", "grid": grid,
            "rhs": {"basis": "P", "coeffs": [[1, 0, 0, float("nan")]]}}]
    for rec in bad:
        with pytest.raises(ParseError):
            PdeProblem.from_record(rec)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(rec))
        code, out, err = run_cli(capsys, "pde", "--problem", str(path))
        _assert_one_line_error(code, out, err, "pde")
    with pytest.raises(ParseError):
        GridSpec.from_record({"lo": [1, 1, 1], "hi": [0, 0, 0]})
    with pytest.raises(ParseError):
        GridSpec.from_record({"hi": [1, float("inf"), 1]})
    # the flags go through the same checks
    code, out, err = run_cli(capsys, "pde", "--kind", "klein-gordon",
                             "--grid-counts", "5")
    _assert_one_line_error(code, out, err, "pde")


def test_pde_problem_file_unknown_keys_exit_2(tmp_path, capsys, monkeypatch):
    # a misspelt key used to fall back to its default: "lamda" verified
    # lambda = 1, "count" the default 21^3 grid, and both exited 0
    from slicealg.errors import ParseError
    from slicealg.pde import PdeProblem

    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work started on a bad problem")
    monkeypatch.setattr("slicealg.pde.verify_pde", no_grid_work)
    for rec, key, accepted in (
            ({"kind": "helmholtz", "lamda": 8, "grid": {"counts": [5, 5, 5]}},
             "'lamda'", "kind, lambda, I, lambda1, slice_constants, rhs, "
             "grid, degree"),
            ({"kind": "helmholtz", "lambda": 8, "grid": {"count": [5, 5, 5]}},
             "'count'", "counts, lo, hi, x0, exclude_radius, fd_step")):
        with pytest.raises(ParseError):
            PdeProblem.from_record(rec)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(rec))
        code, out, err = run_cli(capsys, "pde", "--problem", str(path))
        _assert_one_line_error(code, out, err, "pde")
        assert key in err and accepted in err


def test_solve_degree_below_order_exits_2(tmp_path, capsys):
    problem = tmp_path / "prob.json"
    for degree, fragment in ((-3, "degree -3 too small for a tuple of length 2"),
                             (0, "degree 0 too small for a tuple of length 2"),
                             ("x", "bad degree")):
        problem.write_text(json.dumps({"lambdas": ["i", "j"],
                                       "initial": ["1", "k"],
                                       "degree": degree}))
        code, out, err = run_cli(capsys, "solve", "--problem", str(problem))
        _assert_one_line_error(code, out, err, "solve")
        assert fragment in err
    code, out, err = run_cli(capsys, "gen-exp", "--lambdas", "i,j,k",
                             "--degree", "1")
    assert err == "slicealg gen-exp: degree 1 too small for a tuple of length 3\n"
    # degree m - 1 is the smallest that holds the solution
    problem.write_text(json.dumps({"lambdas": ["i", "j"], "initial": ["1", "k"],
                                   "degree": 1}))
    code, out, err = run_cli(capsys, "solve", "--problem", str(problem))
    assert code == 0 and len(json.loads(out)) == 2


def test_pde_degree_below_2_exits_2(tmp_path, capsys, monkeypatch):
    # below degree 2 the Laplacian image of a series was zero, which passed
    # vacuously; the solutions are closed forms now, and no kind reads a
    # degree, of any value
    from slicealg.errors import ParseError
    from slicealg.pde import PdeProblem

    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work started on a bad degree")
    monkeypatch.setattr("slicealg.pde.verify_pde", no_grid_work)
    kinds = (["--kind", "helmholtz"],
             ["--kind", "klein-gordon", "--unit", "i"],
             ["--kind", "quadratic", "--lambda1", "1+i"])
    for kind in kinds:
        for degree in ("-3", "0", "1", "60"):
            code, out, err = run_cli(capsys, "pde", *kind, "--degree", degree,
                                     "--grid-counts", "5")
            _assert_one_line_error(code, out, err, "pde")
            assert err == (f"slicealg pde: {kind[1]} problems do not read "
                           "'degree'\n")
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"kind": "helmholtz", "degree": 1,
                                "grid": {"counts": [5, 5, 5]}}))
    code, out, err = run_cli(capsys, "pde", "--problem", str(path))
    _assert_one_line_error(code, out, err, "pde")
    for degree in (-3, 2, 40):
        with pytest.raises(ParseError):
            PdeProblem(kind="helmholtz", degree=degree)
    with pytest.raises(ParseError):
        PdeProblem(kind="yukawa", unit_i=Quaternion(0, 1), degree=-3,
                   rhs=MonogenicSeries([1]))


def test_solve_problem_types_exit_2(tmp_path, capsys):
    # an empty eigenvalue list used to end in a ValueError traceback
    problem = tmp_path / "prob.json"
    for spec, message in (
            ({"lambdas": "ij", "initial": ["1", "2"]},
             "FILE: bad lambdas: expected a JSON array, got a string"),
            ({"lambdas": [1], "initial": ["1"]},
             "FILE: lambdas[0]: quaternion literal must be a string, got a number"),
            ({"lambdas": [{"a": 1}], "initial": ["1"]},
             "FILE: lambdas[0]: quaternion literal must be a string, got an object"),
            ({"lambdas": [["i"] * 200], "initial": ["1"]},
             "FILE: lambdas[0]: quaternion literal must be a string, got an array"),
            ({"lambdas": {"i": 1}, "initial": ["1"]},
             "FILE: bad lambdas: expected a JSON array, got an object"),
            ({"lambdas": ["i", "j"], "initial": "12"},
             "FILE: bad initial: expected a JSON array, got a string"),
            ({"lambdas": ["i"], "initial": [1.5]},
             "FILE: initial[0]: quaternion literal must be a string, got a number"),
            ({"lambdas": ["i"], "initial": None},
             "FILE: bad initial: expected a JSON array, got null"),
            ({"lambdas": ["i", "x"], "initial": ["1", "2"]},
             "FILE: lambdas[1]: bad quaternion literal 'x' at position 0"),
            ({"lambdas": [], "initial": []}, "need at least one eigenvalue")):
        problem.write_text(json.dumps(spec))
        out_file = tmp_path / "out" / "f.json"
        for output in ([], ["-o", str(out_file)]):
            code, out, err = run_cli(capsys, "solve", "--problem", str(problem),
                                     *output)
            assert (code, out, err.replace(str(problem), "FILE")) == \
                (2, "", f"slicealg solve: {message}\n")
        assert not out_file.exists()


INPUT_FILE_CASES = {
    # id: (how to write the input file or None for a missing one, argv)
    "rhs-missing": (None, ["pde", "--kind", "yukawa", "--unit", "i",
                           "--rhs", "{path}"]),
    "rhs-not-json": ("{not json", ["pde", "--kind", "yukawa", "--unit", "i",
                                   "--rhs", "{path}"]),
    "constants-missing": (None, ["pde", "--kind", "helmholtz",
                                 "--exclude", "0.5", "--constants", "{path}"]),
    "constants-not-json": ("[{", ["pde", "--kind", "helmholtz",
                                  "--exclude", "0.5", "--constants", "{path}"]),
    "pde-problem-not-json": ("kind: helmholtz", ["pde", "--problem", "{path}"]),
    "solve-problem-not-json": ('{"lambdas": ["i"],',
                               ["solve", "--problem", "{path}"]),
    "constant-unit-not-unit": (
        json.dumps([{"I": "2i", "a1": "1", "a2": "0"}]),
        ["pde", "--kind", "helmholtz", "--exclude", "0.5",
         "--constants", "{path}"]),
    "problem-constants-not-list": (
        json.dumps({"kind": "helmholtz", "slice_constants": 5}),
        ["pde", "--problem", "{path}"]),
    "problem-rhs-coeffs-not-list": (
        json.dumps({"kind": "yukawa", "I": "i",
                    "rhs": {"basis": "P", "coeffs": 5}}),
        ["pde", "--problem", "{path}"]),
    "problem-rhs-without-coeffs": (
        json.dumps({"kind": "yukawa", "I": "i", "rhs": {"basis": "P"}}),
        ["pde", "--problem", "{path}"]),
    # a JSON true used to read as 1, and the run was certified
    "rhs-boolean-coefficient": (
        json.dumps({"basis": "P", "coeffs": [[True, 0, 0, 0]]}),
        ["pde", "--kind", "yukawa", "--unit", "i", "--rhs", "{path}"]),
}


@pytest.mark.parametrize("case", sorted(INPUT_FILE_CASES))
def test_input_files_exit_2(case, tmp_path, capsys, monkeypatch):
    # a missing, malformed or wrongly typed input file is one exit-2 line,
    # refused before any grid work

    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work started on a bad input file")
    monkeypatch.setattr("slicealg.pde.verify_pde", no_grid_work)
    text, argv = INPUT_FILE_CASES[case]
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "{path}" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    _assert_one_line_error(code, out, err, argv[0])
    # and no output file
    out_dir = tmp_path / "out"
    output = ["--out-prefix", str(out_dir / "run")] if argv[0] == "pde" \
        else ["-o", str(out_dir / "f")]
    code, out, err = run_cli(capsys, *argv, *output)
    _assert_one_line_error(code, out, err, argv[0])
    assert not out_dir.exists()


def test_pde_problem_file_refuses_problem_flags(tmp_path, capsys, monkeypatch):
    # the flags used to be ignored: the file's helmholtz lambda = 1 was
    # verified and the run exited 0

    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work started despite refused flags")
    monkeypatch.setattr("slicealg.pde.verify_pde", no_grid_work)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"kind": "helmholtz",
                                "grid": {"counts": [5, 5, 5]}}))
    code, out, err = run_cli(capsys, "pde", "--problem", str(path),
                             "--kind", "klein-gordon", "--lambda", "8")
    _assert_one_line_error(code, out, err, "pde")
    assert "--kind, --lambda" in err
    for flags in (["--grid-counts", "7"], ["--fd-step", "0.01"],
                  ["--exclude", "0.5"], ["--degree", "40"]):
        code, out, err = run_cli(capsys, "pde", "--problem", str(path), *flags)
        _assert_one_line_error(code, out, err, "pde")
        assert flags[0] in err
    # --out-prefix is the one flag that goes with --problem
    monkeypatch.undo()
    prefix = tmp_path / "run"
    code, out, _ = run_cli(capsys, "pde", "--problem", str(path),
                           "--out-prefix", str(prefix))
    assert code == 0 and out == ""
    assert (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("rec", [
    {"kind": "helmholtz", "grid": {"counts": [5.7, 5, 5]}},
    {"kind": "helmholtz", "grid": {"counts": [True, 5, 5]}},
    {"kind": "helmholtz", "degree": 40.9, "grid": {"counts": [5, 5, 5]}},
    {"kind": "helmholtz", "degree": True, "grid": {"counts": [5, 5, 5]}},
])
def test_pde_record_integers_exit_2(rec, tmp_path, capsys, monkeypatch):
    # int() used to truncate 5.7 and 40.9 and read true as 1, and the run
    # exited 0
    from slicealg.errors import ParseError
    from slicealg.pde import PdeProblem

    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work started on a bad integer")
    monkeypatch.setattr("slicealg.pde.verify_pde", no_grid_work)
    with pytest.raises(ParseError, match="must be an integer"):
        PdeProblem.from_record(rec)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(rec))
    code, out, err = run_cli(capsys, "pde", "--problem", str(path))
    _assert_one_line_error(code, out, err, "pde")
    assert "must be an integer" in err


def test_record_integral_floats_read_as_integers(tmp_path, capsys):
    from slicealg.pde import PdeProblem
    p = PdeProblem.from_record({"kind": "helmholtz",
                                "grid": {"counts": [5.0, 7, 9]}})
    assert p.grid.counts == (5, 7, 9)
    problem = tmp_path / "prob.json"
    problem.write_text(json.dumps({"lambdas": ["i", "j"],
                                   "initial": ["1", "k"], "degree": 3.0}))
    code, out, _ = run_cli(capsys, "solve", "--problem", str(problem))
    assert code == 0 and len(json.loads(out)) == 4


def test_solve_degree_must_be_an_integer(tmp_path, capsys):
    problem = tmp_path / "prob.json"
    for degree, shown in ((7.5, "7.5"), (True, "true")):
        problem.write_text(json.dumps({"lambdas": ["i", "j"],
                                       "initial": ["1", "k"],
                                       "degree": degree}))
        code, out, err = run_cli(capsys, "solve", "--problem", str(problem))
        _assert_one_line_error(code, out, err, "solve")
        assert f"degree must be an integer, got {shown}" in err


def test_solve_bad_degree_names_the_key_once(tmp_path, capsys):
    problem = tmp_path / "prob.json"
    problem.write_text(json.dumps({"lambdas": ["i", "j"], "initial": ["1", "k"],
                                   "degree": 7.5}))
    code, out, err = run_cli(capsys, "solve", "--problem", str(problem))
    _assert_one_line_error(code, out, err, "solve")
    text = err.replace(str(problem), "FILE")    # tmp_path holds the test name
    assert text.count("degree") == 1
    assert text == "slicealg solve: FILE: degree must be an integer, got 7.5\n"


@pytest.mark.parametrize("key, value, shown", [
    ("lambda", True, "true"), ("lo", [-1, True, -1], "true"),
    ("hi", [1, 1, False], "false"), ("x0", False, "false"),
    ("exclude_radius", False, "false"), ("fd_step", True, "true")])
def test_pde_problem_file_refuses_booleans_as_numbers(tmp_path, capsys,
                                                      monkeypatch, key, value,
                                                      shown):
    # a JSON true used to read as 1.0 and false as 0.0, and the run exited 0
    from slicealg.errors import ParseError
    from slicealg.pde import PdeProblem

    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work started on a bad problem")
    monkeypatch.setattr("slicealg.pde.verify_pde", no_grid_work)
    rec = {"kind": "helmholtz", "grid": {"counts": [5, 5, 5]}}
    (rec if key == "lambda" else rec["grid"])[key] = value
    if isinstance(value, list):         # the refusal names the entry
        key += f"[{[type(v) for v in value].index(bool)}]"
    message = f"{key} must be a number, got {shown}"
    with pytest.raises(ParseError, match=re.escape(message)):
        PdeProblem.from_record(rec)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(rec))
    code, out, err = run_cli(capsys, "pde", "--problem", str(path))
    _assert_one_line_error(code, out, err, "pde")
    assert message in err


def test_pde_flags_and_problem_file_make_the_same_problem(tmp_path):
    # the flags are a problem record: the same record as a file gives the
    # same problem, and a key that no flag gives keeps its default
    import slicealg.cli as cli
    from slicealg.pde import GridSpec, PdeProblem
    consts = tmp_path / "consts.json"
    consts.write_text(json.dumps([{"I": "i", "a1": "1", "a2": "0"}]))
    args = cli.build_parser().parse_args(
        ["pde", "--kind", "helmholtz", "--lambda", "2",
         "--constants", str(consts), "--grid-counts", "7,9,11",
         "--grid-lo", "-2", "--exclude", "0.25"])
    p = cli._problem_from_args(args)
    record = tmp_path / "problem.json"
    record.write_text(json.dumps({
        "kind": "helmholtz", "lambda": 2, "slice_constants": [
            {"I": "i", "a1": "1", "a2": "0"}],
        "grid": {"counts": [7, 9, 11], "lo": [-2, -2, -2],
                 "exclude_radius": 0.25}}))
    assert p == cli._problem_from_args(
        cli.build_parser().parse_args(["pde", "--problem", str(record)]))
    assert p.grid == GridSpec(counts=(7, 9, 11), lo=(-2.0, -2.0, -2.0),
                              exclude_radius=0.25)
    assert p.lam == 2.0 and p.unit_i is None
    bare = cli._problem_from_args(
        cli.build_parser().parse_args(["pde", "--kind", "helmholtz"]))
    assert bare == PdeProblem(kind="helmholtz")


def test_pde_rhs_content_error_names_the_record_key(tmp_path, capsys):
    # a malformed --rhs file is refused under its record key; a missing
    # one still names the path
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"basis": "P"}))
    code, out, err = run_cli(capsys, "pde", "--kind", "yukawa", "--unit", "i",
                             "--rhs", str(rhs))
    _assert_one_line_error(code, out, err, "pde")
    assert err == "slicealg pde: rhs: expected a JSON object with keys basis, coeffs\n"
    code, out, err = run_cli(capsys, "pde", "--kind", "yukawa", "--unit", "i",
                             "--rhs", str(tmp_path / "missing.json"))
    _assert_one_line_error(code, out, err, "pde")
    assert "missing.json" in err


def test_gen_exp_and_solve_overflow_exit_2(tmp_path, capsys):
    # lambda^2 / 2 overflows at lambda = 1e200: this used to end in a
    # ValueError traceback and exit 1
    problem = tmp_path / "prob.json"
    problem.write_text(json.dumps({"lambdas": ["1e200", "i"],
                                   "initial": ["1", "k"], "degree": 5}))
    for command, flags, fragment in (
            ("gen-exp", ["--lambdas", "1e200", "--degree", "3"],
             "coefficient 2 of the series is not finite: [inf, 0.0, 0.0, 0.0]"),
            ("solve", ["--problem", str(problem)],
             "coefficient 3 of the series is not finite")):
        out_file = tmp_path / "out" / "f.json"
        code, out, err = run_cli(capsys, command, *flags, "-o", str(out_file))
        _assert_one_line_error(code, out, err, command)
        assert fragment in err
        assert not out_file.exists()
        code, out, err = run_cli(capsys, command, *flags)
        _assert_one_line_error(code, out, err, command)


@pytest.mark.parametrize("key, value, what, shown", [
    ("lambda", "2", "lambda", '"2"'), ("degree", "30", "degree", '"30"'),
    ("counts", ["5", "5", "5"], "grid counts", '"5"'),
    ("x0", "0.5", "grid x0", '"0.5"'), ("lo", [-1, "-1", -1], "grid lo", '"-1"'),
    ("hi", [1, 1, None], "grid hi", "null"),
    ("exclude_radius", "0", "grid exclude_radius", '"0"'),
    ("fd_step", "0.01", "grid fd_step", '"0.01"')])
def test_pde_problem_file_refuses_strings_as_numbers(tmp_path, capsys,
                                                     monkeypatch, key, value,
                                                     what, shown):
    # float() and int() read the string "2" as 2, and the run exited 0
    from slicealg.errors import ParseError
    from slicealg.pde import PdeProblem

    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work started on a bad problem")
    monkeypatch.setattr("slicealg.pde.verify_pde", no_grid_work)
    rec = {"kind": "helmholtz", "grid": {"counts": [5, 5, 5]}}
    (rec if key in ("lambda", "degree") else rec["grid"])[key] = value
    if isinstance(value, list):         # the refusal names the entry
        what += f"[{[json.dumps(v) for v in value].index(shown)}]"
    # the refusal names the JSON type of the entry shown, not the entry
    got = "a string" if shown.startswith('"') else shown
    message = f"bad {what}: expected a JSON number, got {got}"
    with pytest.raises(ParseError, match=re.escape(message)):
        PdeProblem.from_record(rec)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(rec))
    code, out, err = run_cli(capsys, "pde", "--problem", str(path))
    _assert_one_line_error(code, out, err, "pde")
    assert err == f"slicealg pde: {message}\n"


def test_solve_degree_string_exits_2(tmp_path, capsys):
    problem = tmp_path / "prob.json"
    for degree, got in (("7", "a string"), (None, "null"), ([7], "an array")):
        problem.write_text(json.dumps({"lambdas": ["i", "j"],
                                       "initial": ["1", "k"],
                                       "degree": degree}))
        code, out, err = run_cli(capsys, "solve", "--problem", str(problem))
        _assert_one_line_error(code, out, err, "solve")
        text = err.replace(str(problem), "FILE")
        assert text == ("slicealg solve: FILE: bad degree: expected a JSON "
                        f"number, got {got}\n")


@pytest.mark.parametrize("lambdas", ["i,,j", "i,j,", ",i", ""])
def test_gen_exp_refuses_empty_lambdas_entries(capsys, lambdas):
    # "i,,j" used to run as "i,j": an empty entry silently changed m
    code, out, err = run_cli(capsys, "gen-exp", "--lambdas", lambdas)
    _assert_one_line_error(code, out, err, "gen-exp")
    assert err == f"slicealg gen-exp: --lambdas {lambdas!r} has an empty entry\n"


def test_solve_refuses_an_unknown_key(tmp_path, capsys):
    # "degre" used to run at the default degree 40 and exit 0
    problem = tmp_path / "prob.json"
    problem.write_text(json.dumps({"lambdas": ["i"], "initial": ["1"],
                                   "degre": 3}))
    code, out, err = run_cli(capsys, "solve", "--problem", str(problem))
    _assert_one_line_error(code, out, err, "solve")
    assert err.replace(str(problem), "FILE") == (
        "slicealg solve: FILE: problem: unknown key 'degre'; accepted keys: "
        "lambdas, initial, degree\n")


def test_pde_refuses_unknown_keys_in_constants_and_rhs(tmp_path, capsys,
                                                       monkeypatch):
    # an extra key in a slice-constant or P-basis record was ignored

    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work started on a bad problem")
    monkeypatch.setattr("slicealg.pde.verify_pde", no_grid_work)
    consts = tmp_path / "consts.json"
    good = {"I": "i", "a1": "1", "a2": "-1"}
    bad = dict(good, a3="2")
    for n, records in enumerate(([bad], [good, bad])):   # the refusal names the entry
        consts.write_text(json.dumps(records))
        code, out, err = run_cli(capsys, "pde", "--kind", "klein-gordon",
                                 "--unit", "i", "--constants", str(consts),
                                 "--exclude", "0.5")
        _assert_one_line_error(code, out, err, "pde")
        assert err == (f"slicealg pde: slice_constants[{n}]: unknown key 'a3'; "
                       "accepted keys: I, a1, a2\n")
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"basis": "P", "coeffs": [[1, 0, 0, 0]],
                               "cofs": []}))
    code, out, err = run_cli(capsys, "pde", "--kind", "yukawa", "--unit", "i",
                             "--rhs", str(rhs))
    _assert_one_line_error(code, out, err, "pde")
    assert err == ("slicealg pde: rhs: unknown key 'cofs'; accepted keys: "
                   "basis, coeffs\n")


UNREAD_INPUT_CASES = {
    # id: (extra flags, the message after "slicealg pde: ")
    "helmholtz-I": (["--kind", "helmholtz", "--unit", "j"],
                    "helmholtz problems do not read 'I'"),
    "quadratic-I": (["--kind", "quadratic", "--lambda1", "1+i", "--unit", "j"],
                    "quadratic problems do not read 'I'"),
    "quadratic-lambda": (["--kind", "quadratic", "--lambda1", "1+i",
                          "--lambda", "7"],
                         "quadratic problems do not read 'lambda'"),
    "helmholtz-lambda1": (["--kind", "helmholtz", "--lambda1", "2+i"],
                          "helmholtz problems do not read 'lambda1'"),
    "klein-gordon-lambda1": (["--kind", "klein-gordon", "--unit", "i",
                              "--lambda1", "2+i"],
                             "klein-gordon problems do not read 'lambda1'"),
    "yukawa-lambda1": (["--kind", "yukawa", "--unit", "i", "--rhs", "{rhs}",
                        "--lambda1", "2+i"],
                       "yukawa problems do not read 'lambda1'"),
    "helmholtz-rhs": (["--kind", "helmholtz", "--rhs", "{rhs}"],
                      "helmholtz problems do not read 'rhs'"),
    "klein-gordon-rhs": (["--kind", "klein-gordon", "--unit", "i",
                          "--rhs", "{rhs}"],
                         "klein-gordon problems do not read 'rhs'"),
    "quadratic-rhs": (["--kind", "quadratic", "--lambda1", "1+i",
                       "--rhs", "{rhs}"],
                      "quadratic problems do not read 'rhs'"),
    "yukawa-constants": (["--kind", "yukawa", "--unit", "i", "--rhs", "{rhs}",
                          "--constants", "{one}"],
                         "yukawa problems do not read 'slice_constants'"),
    "yukawa-degree": (["--kind", "yukawa", "--unit", "i", "--rhs", "{rhs}",
                       "--degree", "-3"],
                      "yukawa problems do not read 'degree'"),
    "helmholtz-three-constants": (
        ["--kind", "helmholtz", "--constants", "{three}", "--exclude", "0.5"],
        "helmholtz problems read at most two slice_constants, got 3"),
    "quadratic-three-constants": (
        ["--kind", "quadratic", "--lambda1", "1+i", "--constants", "{three}",
         "--exclude", "0.5"],
        "quadratic problems read at most two slice_constants, got 3"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_INPUT_CASES))
def test_pde_refuses_inputs_its_kind_does_not_read(tmp_path, capsys,
                                                   monkeypatch, case):
    # each of these used to run, ignore the input and exit 0

    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work started on a bad problem")
    monkeypatch.setattr("slicealg.pde.verify_pde", no_grid_work)
    files = {"rhs": {"basis": "P", "coeffs": [[1, 0, 0, 0]]},
             "one": [{"I": "i", "a1": "1", "a2": "0"}],
             "three": [{"I": "i", "a1": "1", "a2": "0"}] * 3}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    flags, message = UNREAD_INPUT_CASES[case]
    argv = [flag.format(**{name: str(tmp_path / f"{name}.json")
                           for name in files}) for flag in flags]
    code, out, err = run_cli(capsys, "pde", *argv, "--grid-counts", "5")
    _assert_one_line_error(code, out, err, "pde")
    assert err == f"slicealg pde: {message}\n"


VALUE_REFUSAL_CASES = {
    # id: (argv, the record that "{problem}" names, the whole stderr line)
    "helmholtz-lambda-zero": (["pde", "--kind", "helmholtz", "--lambda", "0"],
                              None, "slicealg pde: lambda must be nonzero"),
    "quadratic-lambda1-zero": (
        ["pde", "--kind", "quadratic", "--lambda1", "0"], None,
        "slicealg pde: lambda1 must be nonzero"),
    "quadratic-without-lambda1": (
        ["pde", "--kind", "quadratic"], None,
        "slicealg pde: quadratic problems need lambda1"),
    # |lambda|^2 underflows: inverting lambda used to divide by zero in a
    # traceback
    "quadratic-lambda1-tiny": (
        ["pde", "--kind", "quadratic", "--lambda1", "1e-170i",
         "--grid-counts", "5"], None,
        "slicealg pde: lambda1 = 1e-170i has no accurate inverse: "
        "|q|^2 = 0.0 is not a normal float"),
    "yukawa-lambda-tiny": (
        ["pde", "--kind", "yukawa", "--unit", "i", "--lambda", "1e-170",
         "--rhs", "{problem}", "--grid-counts", "5"],
        {"basis": "P", "coeffs": [[1, 0, 0, 0]]},
        "slicealg pde: lambda = 1e-170 has no accurate inverse: "
        "|q|^2 = 0.0 is not a normal float"),
    "fd-step-zero": (["pde", "--kind", "helmholtz", "--fd-step", "0"], None,
                     "slicealg pde: fd_step must be positive"),
    "exclude-negative": (["pde", "--kind", "helmholtz", "--exclude", "-1"],
                         None, "slicealg pde: exclude_radius must be >= 0"),
    "grid-two-axes": (["pde", "--kind", "helmholtz", "--grid-counts", "5,5"],
                      None, "slicealg pde: GridSpec needs three axes"),
    "yukawa-without-rhs": (
        ["pde", "--kind", "yukawa", "--unit", "i"], None,
        "slicealg pde: yukawa problems need a right-hand side"),
    "solve-initial-count": (
        ["solve", "--problem", "{problem}"],
        {"lambdas": ["i", "j"], "initial": ["1"]},
        "slicealg solve: need as many initial values as eigenvalues"),
    # a JSON number where a quaternion literal belongs
    "literal-I-number": (
        ["pde", "--problem", "{problem}"], {"kind": "klein-gordon", "I": 5},
        "slicealg pde: I: quaternion literal must be a string, got a number"),
    "literal-lambda1-number": (
        ["pde", "--problem", "{problem}"], {"kind": "quadratic", "lambda1": 1},
        "slicealg pde: lambda1: quaternion literal must be a string, got a "
        "number"),
    "literal-constant-a1-number": (
        ["pde", "--problem", "{problem}"],
        {"kind": "helmholtz", "grid": {"exclude_radius": 0.5},
         "slice_constants": [{"I": "i", "a1": 0.5, "a2": "0"}]},
        "slicealg pde: slice_constants[0] a1: quaternion literal must be a "
        "string, got a number"),
    # a kind that is not a string used to end in a TypeError traceback
    "kind-not-string": (["pde", "--problem", "{problem}"],
                        {"kind": ["helmholtz"]},
                        "slicealg pde: unknown problem kind ['helmholtz']"),
    # the grid arrays used to be iterated as whatever they were: a number
    # failed in Python's words, a string was read character by character
    # and an object through its keys
    "grid-counts-number": (
        ["pde", "--problem", "{problem}"],
        {"kind": "helmholtz", "grid": {"counts": 5}},
        "slicealg pde: bad grid counts: expected a JSON array, got a number"),
    "grid-counts-string": (
        ["pde", "--problem", "{problem}"],
        {"kind": "helmholtz", "grid": {"counts": "555"}},
        "slicealg pde: bad grid counts: expected a JSON array, got a string"),
    "grid-counts-object": (
        ["pde", "--problem", "{problem}"],
        {"kind": "helmholtz", "grid": {"counts": {"5": 1, "6": 2, "7": 3}}},
        "slicealg pde: bad grid counts: expected a JSON array, got an object"),
    "grid-lo-number": (
        ["pde", "--problem", "{problem}"],
        {"kind": "helmholtz", "grid": {"lo": -1}},
        "slicealg pde: bad grid lo: expected a JSON array, got a number"),
    "grid-hi-null": (
        ["pde", "--problem", "{problem}"],
        {"kind": "helmholtz", "grid": {"hi": None}},
        "slicealg pde: bad grid hi: expected a JSON array, got null"),
}


@pytest.mark.parametrize("case", sorted(VALUE_REFUSAL_CASES))
def test_value_refusals_exit_2(case, tmp_path, capsys, monkeypatch):
    # each is one exit-2 line, before any grid work

    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work started on a bad problem")
    monkeypatch.setattr("slicealg.pde.verify_pde", no_grid_work)
    argv, record, line = VALUE_REFUSAL_CASES[case]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(record))
    code, out, err = run_cli(capsys, *(str(problem) if a == "{problem}" else a
                                       for a in argv))
    assert (code, out, err) == (2, "", line + "\n")


# Runs on the default 21^3 box that the verdict must tell apart: the
# flags, and the max_rel_residual a certified run reports (None: not
# certified).  Rows 6 and 7 have FD steps too coarse for lambda (h lambda
# = 1.5 and 6.25); the raw residual of row 2 (0.128) is FD error of a
# correct solution.
VERDICT_ROWS = {
    "1-helmholtz-1": (["--kind", "helmholtz", "--lambda", "1"], 3.125e-05),
    "2-helmholtz-8": (["--kind", "helmholtz", "--lambda", "8"], 0.1279),
    "4-klein-gordon-3": (["--kind", "klein-gordon", "--unit", "i",
                          "--lambda", "3"], 2.346e-3),
    "5-helmholtz-2-two-valued": (["--kind", "helmholtz", "--lambda", "2",
                                  "--constants", "{constants}",
                                  "--exclude", "0.5", "--fd-step", "0.005"],
                                 2.738e-3),
    "6-klein-gordon-30-at-11": (["--kind", "klein-gordon", "--unit", "i",
                                 "--lambda", "30", "--grid-counts", "11"],
                                None),
    "7-helmholtz-50-at-5": (["--kind", "helmholtz", "--lambda", "50",
                             "--grid-counts", "5"], None),
}


@pytest.mark.parametrize("row", sorted(VERDICT_ROWS))
def test_pde_exit_status_is_the_verdict(row, tmp_path, capsys):
    flags, residual = VERDICT_ROWS[row]
    constants = tmp_path / "constants.json"
    constants.write_text('[{"I": "i", "a1": "1", "a2": "0"}]')
    flags = [str(constants) if a == "{constants}" else a for a in flags]
    if residual is None:
        # one line naming the extrapolated residual, and no file
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "pde", *flags,
                                 "--out-prefix", str(out_dir / "run"))
        assert (code, out) == (3, "")
        assert err.startswith("slicealg pde: not certified: extrapolated "
                              "residual ") and err.count("\n") == 1
        assert not out_dir.exists()
    else:
        code, out, err = run_cli(capsys, "pde", *flags)
        assert code == 0
        summary = json.loads(out)
        assert summary["max_rel_residual"] == pytest.approx(residual, rel=1e-3)
        assert summary["richardson_order"] == pytest.approx(2.0, abs=1e-2)
        assert err.count("\n") == 1 and "max_rel_residual" in err


@pytest.mark.parametrize("flags", [
    ["--kind", "klein-gordon", "--unit", "i", "--lambda", "60",
     "--grid-counts", "11", "--fd-step", "0.0016667"],
    ["--kind", "helmholtz", "--lambda", "50", "--fd-step", "0.002"],
    ["--kind", "helmholtz", "--lambda", "100", "--fd-step", "0.001"],
], ids=["klein-gordon-60", "helmholtz-50", "helmholtz-100"])
def test_crf_fd_error_alone_does_not_fail_a_run(flags, capsys):
    # raw CRF residuals of 2.4e-2 to 0.13 at the fixed probe steps are FD
    # error of correct solutions: their extrapolation certifies the runs
    code, out, err = run_cli(capsys, "pde", *flags)
    assert code == 0, err
    assert json.loads(out)["richardson_order"] == pytest.approx(2.0, abs=1e-2)


def _delta4_exp_sum(terms, unit, points):
    """Sum_t c_t Delta_4 e^{x q_t} at the rows of ``points`` (n, 4), for
    complex c_t and q_t of the plane C_I, I = ``unit`` (0, u1, u2, u3), by
    the spherical Bessel form -2 q^2 e^{x0 q} (j0(beta q) + (Im x / beta)
    j1(beta q)), with Im x multiplied on the left."""
    x0, x1, x2, x3 = points.T
    beta = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    off = beta > 0.0                # on the real axis j0 = 1 and Im x = 0
    re = np.zeros(len(x0), complex)
    im = np.zeros(len(x0), complex)
    for c, q in terms:
        t = np.where(off, beta, 1.0) * q
        j0 = np.sin(t) / t
        e = -2.0 * c * q * q * np.exp(x0 * q)
        re += e * np.where(off, j0, 1.0)
        im += e * np.where(off, (j0 - np.cos(t)) / t * q / t, 0.0)
    (rw, *rv), (iw, *iv) = ([z.real * (k == 0) + z.imag * unit[k]
                             for k in range(4)] for z in (re, im))
    # re + (0, x1, x2, x3)(iw, iv): the Hamilton product, term by term
    return np.stack([rw - x1 * iv[0] - x2 * iv[1] - x3 * iv[2],
                     rv[0] + x1 * iw + x2 * iv[2] - x3 * iv[1],
                     rv[1] + x2 * iw + x3 * iv[0] - x1 * iv[2],
                     rv[2] + x3 * iw + x1 * iv[1] - x2 * iv[0]], axis=-1)


def _sweep_problem(kind, lam):
    # the pde flags, and the terms and unit of the solution they make
    if kind == "helmholtz":
        return ["--lambda", repr(lam)], [(1.0, complex(lam))], (0, 1, 0, 0)
    if kind == "klein-gordon":
        return (["--lambda", repr(lam), "--unit", "i"], [(1.0, 1j * lam)],
                (0, 1, 0, 0))
    lam1 = complex(0.6 * lam, 0.8 * lam)      # E_(lam1, -lam1), in C_j
    r = 1.0 / (2.0 * lam1)
    return ([f"--lambda1={lam1.real!r}+{lam1.imag!r}j"],
            [(r, lam1), (-r, -lam1)], (0, 0, 1, 0))


@pytest.mark.parametrize("lam", [0.5, 1, 2, 4, 8, 16, 30, 50])
@pytest.mark.parametrize("kind", ["helmholtz", "klein-gordon", "quadratic"])
def test_pde_sweep_is_never_silently_wrong(kind, lam, tmp_path, capsys):
    # on a 9^3 grid, a run is certified and agrees with the closed form,
    # or it is refused with one line
    flags, terms, unit = _sweep_problem(kind, lam)
    prefix = tmp_path / "run"
    code, out, err = run_cli(capsys, "pde", "--kind", kind, *flags,
                             "--grid-counts", "9", "--out-prefix", str(prefix))
    assert out == "" and err.count("\n") == 1
    if code == 3:
        assert err.startswith("slicealg pde: not certified: ")
        assert lam >= 8
        return
    assert code == 0
    rows = np.loadtxt(f"{prefix}.csv", delimiter=",", skiprows=1)
    want = _delta4_exp_sum(terms, unit, rows[:, :4])
    assert np.abs(rows[:, 4:8] - want).max() <= 1e-9 * np.abs(want).max()


def test_verify_fails_closed_under_python_O():
    # a wrong right inverse (lambda -> 1.01 lambda) fails the eigensolve
    # suite even when the interpreter strips assert statements
    code = ("import sys\n"
            "import slicealg.eigensolve as es\n"
            "S_lambda = es.S_lambda\n"
            "es.S_lambda = lambda lam, p: S_lambda(lam * 1.01, p)\n"
            "from slicealg.cli import main\n"
            "sys.exit(main(['verify', '--suite', 'eigensolve', '--seed', '1']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == ["FAIL eigensolve: D(S(p)) != p",
                                        "1 suite(s) failed (seed 1)"]


def test_run_starts_one_blas_thread():
    # the slicealg process asks BLAS for one thread, whatever it inherits
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count threads")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")

    def threads(code):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)
    count = "print(len(os.listdir('/proc/self/task')))"
    if threads("import numpy, os\n" + count) == 1:
        pytest.skip("numpy starts no second BLAS thread here")
    probe = ("import slicealg.cli as cli\n"
             "def main(argv=None):\n"
             "    import numpy, os\n"
             f"    {count}\n"
             "    return 0\n"
             "cli.main = main\n"
             "cli.run()\n")
    assert threads(probe) == 1


def test_process_output_is_main_output(tmp_path, capsys):
    # the process ends by os._exit: every byte main wrote is out by then
    coeffs = tmp_path / "series.json"
    points = tmp_path / "points.txt"
    code, _, _ = run_cli(capsys, "gen-exp", "--lambdas", "1+i,j",
                         "--degree", "60", "-o", str(coeffs))
    assert code == 0
    points.write_text("".join(f"{0.1 + k * 1e-4!r}+0.2i-0.1k\n"
                              for k in range(2000)))
    for argv in (["gen-exp", "--lambdas", "i,j,k", "--degree", "400"],
                 ["eval", "--coeffs", str(coeffs), "--points", str(points)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and len(out) > 8192     # more than one buffer
        proc = _process("-m", "slicealg.cli", *argv)
        assert proc.returncode == 0
        assert (proc.stdout, proc.stderr) == (out.encode(), err.encode())


def test_run_flushes_what_main_left_in_the_buffers():
    # ... and ends the process without atexit handlers or teardown
    probe = ("import atexit, sys\n"
             "import slicealg.cli as cli\n"
             "def main(argv=None):\n"
             "    atexit.register(print, 'atexit', file=sys.stderr)\n"
             "    print('out' * 1000, end='')\n"
             "    print('err', end='', file=sys.stderr)\n"
             "    return 0\n"
             "cli.main = main\n"
             "cli.run()\n")
    proc = _process("-c", probe)
    assert proc.returncode == 0
    assert (proc.stdout, proc.stderr) == (b"out" * 1000, b"err")


def test_an_exception_out_of_main_goes_through_the_interpreter():
    probe = ("import slicealg.cli as cli\n"
             "def main(argv=None):\n"
             "    raise RuntimeError('main failed')\n"
             "cli.main = main\n"
             "cli.run()\n")
    proc = _process("-c", probe)
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.startswith(b"Traceback (most recent call last):\n")
    assert proc.stderr.endswith(b"RuntimeError: main failed\n")


def test_main_leaves_the_environment_alone(capsys):
    # tests, the benchmark's in-process requests and library users keep
    # their thread settings: only run() sets them
    before = dict(os.environ)
    code, _, _ = run_cli(capsys, "pde", "--kind", "helmholtz",
                         "--grid-counts", "5")
    assert code == 0
    assert dict(os.environ) == before
