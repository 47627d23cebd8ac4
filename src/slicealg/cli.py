"""Command-line front end.

Subcommands
-----------
gen-exp   write the coefficients of a generalized exponential E_Lambda
solve     solve an initial-value problem for D_{lambda_1}...D_{lambda_m}
eval      evaluate a coefficient file at a list of points (CSV out)
pde       construct a Helmholtz/Klein-Gordon/Yukawa solution and verify it
verify    run the randomized self-check suites

All outputs are deterministic: floats are printed with 17 significant
digits, so identical invocations produce byte-identical files.  The
random seed for ``verify`` comes from --seed, else the SLICEALG_SEED
environment variable, else a fixed default.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .errors import IoError, ParseError, SliceAlgError
from .fmtio import csv_chunks, dumps_json, load_json
from .quaternion import parse_quaternion
from .series import load_coeffs
from .eigensolve import gen_exp, solve_with_initial
from .monogenic import MonogenicSeries, load_monogenic
from .sliceexpr import SliceConstant
from .pde import (GridSpec, PdeProblem, general_quadratic_kernel,
                  helmholtz_solution, klein_gordon_solution, verify_pde,
                  yukawa_solve)
from .verify import SUITES, run_suites

DEFAULT_SEED = 1729


def _parse_lambdas(text: str):
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ParseError("empty eigenvalue list")
    return [parse_quaternion(t) for t in items]


def _read_points(args):
    points = []
    if args.points:
        try:
            with open(args.points, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise IoError(f"cannot read points file: {exc}") from exc
        for line in lines:
            line = line.strip()
            if line and not line.startswith("#"):
                points.append(parse_quaternion(line))
    for lit in args.at or ():
        points.append(parse_quaternion(lit))
    return points


def _load_series_file(path):
    """A coefficient file: JSON array -> PowerSeries, P-basis object ->
    MonogenicSeries."""
    try:
        data = load_json(path)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if isinstance(data, dict):
        return load_monogenic(path)
    return load_coeffs(path)


def _write_text(text: str, path) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        parent = os.path.dirname(str(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def cmd_gen_exp(args) -> int:
    lams = _parse_lambdas(args.lambdas)
    if args.degree < len(lams) - 1:
        raise ParseError(f"--degree {args.degree} too small for a tuple of "
                         f"length {len(lams)}")
    f = gen_exp(lams, args.degree)
    _write_text(dumps_json([c.as_list() for c in f.coeffs]), args.output)
    return 0


def cmd_solve(args) -> int:
    try:
        spec = load_json(args.problem)
    except OSError as exc:
        raise IoError(f"cannot read {args.problem}: {exc}") from exc
    if not isinstance(spec, dict) or "lambdas" not in spec or "initial" not in spec:
        raise ParseError(f"{args.problem}: expected keys 'lambdas', 'initial'")
    lams = [parse_quaternion(t) for t in spec["lambdas"]]
    initial = [parse_quaternion(t) for t in spec["initial"]]
    degree = int(spec.get("degree", args.degree))
    if len(initial) != len(lams):
        raise ParseError("need as many initial values as eigenvalues")
    f = solve_with_initial(lams, initial, degree)
    _write_text(dumps_json([c.as_list() for c in f.coeffs]), args.output)
    return 0


def cmd_eval(args) -> int:
    f = _load_series_file(args.coeffs)
    rows = [x.as_list() + f(x).as_list() for x in _read_points(args)]
    header = ["x0", "x1", "x2", "x3", "f_w", "f_x1", "f_x2", "f_x3"]
    _write_text("".join(csv_chunks(header, rows)), args.output)
    return 0


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise ParseError(f"{flag} must be finite, got {value!r}")
    return value


def _axis_values(text: str, flag: str, kind):
    """A comma list of one value (for all three axes) or three values."""
    try:
        values = tuple(kind(v) for v in text.split(","))
    except ValueError as exc:
        raise ParseError(f"{flag} {text!r}: {exc}") from exc
    for v in values:
        _finite(v, flag)
    return values * 3 if len(values) == 1 else values


def _grid_from_args(args) -> GridSpec:
    fd_step = args.fd_step
    if fd_step is not None:
        _finite(fd_step, "--fd-step")
    try:
        return GridSpec(counts=_axis_values(args.grid_counts, "--grid-counts", int),
                        lo=_axis_values(args.grid_lo, "--grid-lo", float),
                        hi=_axis_values(args.grid_hi, "--grid-hi", float),
                        x0=_finite(args.x0, "--x0"),
                        exclude_radius=_finite(args.exclude, "--exclude"),
                        fd_step=fd_step)
    except SliceAlgError:
        raise
    except ValueError as exc:
        raise ParseError(f"bad grid: {exc}") from exc


def _constants_from_file(path):
    data = load_json(path)
    if not isinstance(data, list):
        raise ParseError(f"{path}: expected a JSON array of slice-constant "
                         "records")
    return [SliceConstant.from_record(rec) for rec in data]


def _problem_from_args(args) -> PdeProblem:
    if args.problem:
        try:
            return PdeProblem.from_record(load_json(args.problem))
        except OSError as exc:
            raise IoError(f"cannot read {args.problem}: {exc}") from exc
    if not args.kind:
        raise ParseError("pde needs --kind or --problem")
    unit = parse_quaternion(args.unit) if args.unit else None
    rhs = None
    if args.rhs:
        rhs = load_monogenic(args.rhs)
    constants = tuple(_constants_from_file(args.constants)) \
        if args.constants else ()
    lam1 = parse_quaternion(args.lambda1) if args.lambda1 else None
    return PdeProblem(kind=args.kind, lam=_finite(args.lam, "--lambda"),
                      unit_i=unit,
                      slice_constants=constants, rhs=rhs, lam1=lam1,
                      grid=_grid_from_args(args), degree=args.degree)


def _build_solution(problem: PdeProblem):
    cs = problem.slice_constants
    if problem.kind == "helmholtz":
        h1 = cs[0] if len(cs) > 0 else None
        h2 = cs[1] if len(cs) > 1 else SliceConstant.uniform(0)
        return helmholtz_solution(problem.lam, h1, h2, problem.degree)
    if problem.kind == "klein-gordon":
        terms = [(problem.unit_i, h) for h in cs] if cs \
            else [(problem.unit_i, SliceConstant.uniform(1))]
        return klein_gordon_solution(problem.lam, terms, problem.degree)
    if problem.kind == "yukawa":
        return yukawa_solve(problem.lam, problem.unit_i, problem.rhs)
    h1 = cs[0] if len(cs) > 0 else None
    h2 = cs[1] if len(cs) > 1 else None
    return general_quadratic_kernel(problem.lam1, h1, h2, problem.degree)


def cmd_pde(args) -> int:
    problem = _problem_from_args(args)
    f = _build_solution(problem)
    report = verify_pde(f, problem)
    if isinstance(f, MonogenicSeries):
        coeffs_json = dumps_json(
            {"basis": "P", "coeffs": [c.as_list() for c in f.coeffs]})
        if args.out_prefix:
            _write_text(coeffs_json, args.out_prefix + ".coeffs.json")
        else:
            sys.stdout.write(coeffs_json)
    if args.out_prefix:
        try:
            parent = os.path.dirname(args.out_prefix)
            if parent:
                os.makedirs(parent, exist_ok=True)
            report.write_csv(args.out_prefix + ".csv")
            report.write_summary(args.out_prefix + ".summary.json")
        except OSError as exc:
            raise IoError(f"cannot write {args.out_prefix}.*: {exc}") from exc
    else:
        sys.stdout.write(dumps_json(report.summary()))
    print(f"{problem.kind}: {report.n_points} nodes, fd_step "
          f"{report.fd_step:.6g}, max_rel_residual {report.max_rel_residual:.3e}, "
          f"richardson_order {report.richardson_order:.3f}",
          file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = [name for name, _ in SUITES]
    else:
        names = [args.suite]
    return run_suites(names, args.seed)


def _pick_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("SLICEALG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"SLICEALG_SEED must be an integer, got {env!r}") \
                from exc
    return DEFAULT_SEED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slicealg",
        description="Slice-function algebra over the quaternions: "
                    "generalized exponentials, eigenvalue solvers, and "
                    "grid-verified PDE solutions.")
    ap.add_argument("--version", action="version", version=f"slicealg {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-exp", help="coefficients of E_Lambda")
    p.add_argument("--lambdas", required=True,
                   help="comma-separated quaternion literals, e.g. 'i,j'")
    p.add_argument("--degree", type=int, default=40, help="truncation degree")
    p.add_argument("-o", "--output", default="-",
                   help="output file (default stdout)")
    p.set_defaults(func=cmd_gen_exp)

    p = sub.add_parser("solve", help="initial-value problem for a D-product")
    p.add_argument("--problem", required=True,
                   help="JSON file {lambdas: [...], initial: [...], degree: N}")
    p.add_argument("--degree", type=int, default=40,
                   help="truncation degree if the problem file has none")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate a coefficient file at points")
    p.add_argument("--coeffs", required=True,
                   help="JSON coefficient file (power series or P-basis)")
    p.add_argument("--points", help="text file, one quaternion literal per line")
    p.add_argument("--at", action="append",
                   help="additional point literal (repeatable)")
    p.add_argument("-o", "--output", default="-",
                   help="CSV output (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pde", help="construct and verify a PDE solution")
    p.add_argument("--problem", help="JSON problem file (overrides flags)")
    p.add_argument("--kind",
                   choices=["helmholtz", "klein-gordon", "yukawa", "quadratic"])
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="real eigenvalue scale")
    p.add_argument("--lambda1", help="quaternion literal for the quadratic kernel")
    p.add_argument("--unit", help="imaginary unit literal (klein-gordon/yukawa)")
    p.add_argument("--rhs", help="P-basis JSON file (yukawa right-hand side)")
    p.add_argument("--constants", help="JSON file with slice-constant records")
    p.add_argument("--degree", type=int, default=40)
    p.add_argument("--grid-counts", default="21,21,21")
    p.add_argument("--grid-lo", default="-1,-1,-1")
    p.add_argument("--grid-hi", default="1,1,1")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--exclude", type=float, default=0.0,
                   help="exclusion radius around the real axis")
    p.add_argument("--fd-step", type=float, default=None)
    p.add_argument("--out-prefix",
                   help="write PREFIX.csv / PREFIX.summary.json "
                        "(default: summary to stdout)")
    p.set_defaults(func=cmd_pde)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("--suite", default="all",
                   choices=["all"] + [name for name, _ in SUITES])
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (overrides SLICEALG_SEED)")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "verify":
            args.seed = _pick_seed(args.seed)
        return args.func(args)
    except SliceAlgError as exc:
        print(f"slicealg {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
