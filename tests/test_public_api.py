"""The package's public names come from its modules' ``__all__`` lists."""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import slicealg

MODULES = ("errors", "quaternion", "series", "sliceexpr", "eigensolve",
           "monogenic", "pde")


def test_exports_are_the_union_of_module_all():
    homes = {}
    for name in MODULES:
        module = importlib.import_module(f"slicealg.{name}")
        for public in module.__all__:
            homes[public] = module
    homes["run_suites"] = importlib.import_module("slicealg.verify")
    exported = {n for n in dir(slicealg) if not n.startswith("_")
                and not isinstance(getattr(slicealg, n), types.ModuleType)}
    assert exported == set(homes)
    for name, module in homes.items():
        assert getattr(slicealg, name) is getattr(module, name)


def test_every_exception_class_is_public():
    errors = importlib.import_module("slicealg.errors")
    classes = {n for n, v in vars(errors).items()
               if isinstance(v, type) and issubclass(v, Exception)
               and v.__module__ == errors.__name__}
    assert set(errors.__all__) == classes


# a child interpreter imports the slicealg under test
_ENV = dict(os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(slicealg.__file__)))


def _modules_loaded(code):
    """The slicealg modules a fresh interpreter holds after running code."""
    probe = (code + "\nimport sys\nprint(' '.join(sorted(m for m in "
             "sys.modules if m.startswith('slicealg.'))))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=_ENV).stdout
    return {m.split(".", 1)[1] for m in out.split()}


def _command(*argv):
    return ("import contextlib, io\nfrom slicealg.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == 0")


def test_each_command_imports_only_what_it_uses(tmp_path):
    # timing-free: which modules a command loads, in a fresh interpreter
    heavy = {"pde", "verify", "monogenic", "sliceexpr"}
    assert not _modules_loaded("import slicealg.cli") \
        & (heavy | {"eigensolve"})
    assert not _modules_loaded(_command("gen-exp", "--lambdas", "i,j",
                                        "--degree", "8")) & heavy
    problem = tmp_path / "ivp.json"
    problem.write_text(json.dumps({"lambdas": ["i", "1+j"],
                                   "initial": ["1", "k"], "degree": 8}))
    assert not _modules_loaded(_command("solve", "--problem",
                                        str(problem))) & heavy
    loaded = _modules_loaded(_command("pde", "--kind", "helmholtz",
                                      "--grid-counts", "5"))
    assert "pde" in loaded and "verify" not in loaded


def test_submodule_import_loads_that_module_alone():
    # ``from slicealg import quaternion`` asks the package for the name
    # before the submodule: it used to import every module and numpy
    probe = ("import sys\nfrom slicealg import quaternion\n"
             "print(quaternion.__name__, 'numpy' in sys.modules, "
             "sorted(m for m in sys.modules if m.startswith('slicealg.')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=_ENV).stdout
    assert out == ("slicealg.quaternion False ['slicealg.errors', "
                   "'slicealg.fmtio', 'slicealg.quaternion']\n")


def test_verify_loads_eigensolve_only_for_the_suites_that_use_it():
    # timing-free: the scalar suites that check no eigensolver load none
    for suite in ("quaternion", "sliceexpr"):
        loaded = _modules_loaded(_command("verify", "--suite", suite,
                                          "--seed", "5"))
        assert "verify" in loaded and "eigensolve" not in loaded, suite
    assert "eigensolve" in _modules_loaded(_command("verify", "--suite", "all",
                                                    "--seed", "5"))


# child programs: the CLI on its argv, and the scalar library API
_CLI = "from slicealg.cli import main\nsys.exit(main(sys.argv[1:]))"
_LIBRARY = ("from slicealg import Quaternion, PowerSeries, gen_exp, "
            "solve_with_initial\n"
            "i, j = Quaternion(0, 1), Quaternion(0, 0, 1)\n"
            "print(gen_exp([i, j, 1 + j], 12).coeffs)\n"
            "print(solve_with_initial([i, j], [Quaternion(1), j], 12).coeffs)\n"
            "print(PowerSeries([1, i])(j))")


def test_scalar_commands_run_without_numpy(tmp_path):
    # --version, gen-exp and solve build no array, so they never import
    # numpy: with every import of it failing, they print the same bytes
    problem = tmp_path / "ivp.json"
    problem.write_text(json.dumps({"lambdas": ["i", "1+j", "0.5k"],
                                   "initial": ["1", "k", "1+i"],
                                   "degree": 30}))
    cases = [(_CLI, ["--version"], 0),
             (_CLI, ["gen-exp", "--lambdas", "i,j,1+k", "--degree", "60"], 0),
             (_CLI, ["solve", "--problem", str(problem)], 0),
             (_CLI, ["gen-exp", "--lambdas", "1e200", "--degree", "3"], 2),
             (_LIBRARY, [], 0)]
    for code, argv, returncode in cases:
        free, blocked = (subprocess.run(
            [sys.executable, "-c", "import sys\n" + block + code, *argv],
            capture_output=True, env=_ENV, timeout=120)
            for block in ("", "sys.modules['numpy'] = None\n"))
        assert blocked.returncode == free.returncode == returncode, blocked.stderr
        assert (blocked.stdout, blocked.stderr) == (free.stdout, free.stderr)
        assert blocked.stdout or returncode


def test_scalar_commands_run_without_dataclasses(tmp_path):
    # --version, gen-exp and solve build no certificate and no dataclass:
    # with every import of dataclasses and inspect failing, they print the
    # same bytes, and importing eigensolve loads no dataclasses
    problem = tmp_path / "ivp.json"
    problem.write_text(json.dumps({"lambdas": ["i", "1+j", "0.5k"],
                                   "initial": ["1", "k", "1+i"],
                                   "degree": 30}))
    cases = [(_CLI, ["--version"]),
             (_CLI, ["gen-exp", "--lambdas", "i,j,1+k", "--degree", "60"]),
             (_CLI, ["solve", "--problem", str(problem)]),
             (_LIBRARY, [])]
    block = "sys.modules['dataclasses'] = None\nsys.modules['inspect'] = None\n"
    for code, argv in cases:
        free, blocked = (subprocess.run(
            [sys.executable, "-c", "import sys\n" + prefix + code, *argv],
            capture_output=True, env=_ENV, timeout=120)
            for prefix in ("", block))
        assert blocked.returncode == free.returncode == 0, blocked.stderr
        assert (blocked.stdout, blocked.stderr) == (free.stdout, free.stderr)
        assert blocked.stdout
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, slicealg.eigensolve\n"
         "print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, check=True, env=_ENV).stdout
    assert loaded == "False\n"


def _rhs_file(tmp_path):
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"basis": "P", "coeffs": [
        [1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, -0.5], [0.25, 0.0, 0.0, 1.0]]}))
    return str(rhs)


def test_pde_kinds_import_only_what_they_use(tmp_path):
    # timing-free: a yukawa run never loads sliceexpr, and a helmholtz,
    # klein-gordon or quadratic run never loads eigensolve
    yukawa = _modules_loaded(_command(
        "pde", "--kind", "yukawa", "--unit", "i", "--lambda", "1",
        "--rhs", _rhs_file(tmp_path), "--grid-counts", "5"))
    assert "pde" in yukawa and "sliceexpr" not in yukawa
    for argv in (["--kind", "helmholtz"],
                 ["--kind", "klein-gordon", "--unit", "j"],
                 ["--kind", "quadratic", "--lambda1", "1+i"]):
        loaded = _modules_loaded(_command("pde", *argv, "--grid-counts", "5"))
        assert "pde" in loaded and "eigensolve" not in loaded


def test_pde_and_verify_run_without_numpy_ma(tmp_path):
    # np.unique without return_index, return_inverse or return_counts
    # imports numpy.ma on NumPy 2; nothing needs it: with every import of
    # it failing, pde and verify print the same bytes and write the same
    # files
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy\nprint('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, env=_ENV, check=True)
    if probe.stdout.strip() == "True":
        pytest.skip("importing numpy loads numpy.ma already")
    rhs = _rhs_file(tmp_path)
    cases = [["pde", "--kind", "yukawa", "--unit", "i", "--lambda", "1",
              "--rhs", rhs, "--grid-counts", "9"],
             ["pde", "--kind", "helmholtz", "--grid-counts", "11",
              "--out-prefix", "{}/helmholtz"],
             ["verify", "--suite", "all", "--seed", "5"]]
    for argv in cases:
        free, blocked = (subprocess.run(
            [sys.executable, "-c", "import sys\n" + block + _CLI,
             *(a.format(tmp_path / name) for a in argv)],
            capture_output=True, env=_ENV, timeout=120)
            for name, block in (("free", ""),
                                ("blocked", "sys.modules['numpy.ma'] = None\n")))
        assert blocked.returncode == free.returncode == 0, blocked.stderr
        assert (blocked.stdout, blocked.stderr) == (free.stdout, free.stderr)
    for suffix in (".csv", ".summary.json"):
        assert (tmp_path / "blocked" / ("helmholtz" + suffix)).read_bytes() \
            == (tmp_path / "free" / ("helmholtz" + suffix)).read_bytes()


def test_scalar_verify_suites_run_without_numpy():
    # verify imports sliceexpr, monogenic and pde in the suites that check
    # them, so the suites that build no array run with numpy blocked
    for suite in ("quaternion", "sliceexpr", "eigensolve", "monogenic"):
        argv = ["verify", "--suite", suite, "--seed", "5"]
        free, blocked = (subprocess.run(
            [sys.executable, "-c", "import sys\n" + block + _CLI, *argv],
            capture_output=True, env=_ENV, timeout=120)
            for block in ("", "sys.modules['numpy'] = None\n"))
        assert blocked.returncode == free.returncode == 0, blocked.stderr
        assert (blocked.stdout, blocked.stderr) == (free.stdout, free.stderr)


def test_star_import_gives_the_exports():
    # the names load on first use; a star import still binds every export
    # that dir() lists (the union test above), as the same objects
    namespace = {}
    exec("from slicealg import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == {
        n for n in dir(slicealg) if not n.startswith("_")
        and not isinstance(getattr(slicealg, n), types.ModuleType)}
    for name, value in namespace.items():
        assert value is getattr(slicealg, name)
    with pytest.raises(AttributeError):
        slicealg.no_such_name


def test_cli_suite_choices_are_the_verify_suites():
    from slicealg import cli, verify
    assert list(cli.SUITE_NAMES) == [name for name, _ in verify.SUITES]
