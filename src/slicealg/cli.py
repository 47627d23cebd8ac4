"""Command-line front end.

Subcommands
-----------
gen-exp   write the coefficients of a generalized exponential E_Lambda
solve     solve an initial-value problem for D_{lambda_1}...D_{lambda_m}
eval      evaluate a coefficient file at a list of points (CSV out)
pde       construct a Helmholtz/Klein-Gordon/Yukawa solution and verify it
          (exit 3 when the verification does not certify it)
verify    run the randomized self-check suites

All outputs are deterministic: floats are printed with 17 significant
digits, so identical invocations produce byte-identical files; ``verify``
draws from --seed, 1729 unless given.  A refused input, or a request too
large to allocate, or a failed write to stdout (or a stdout closed at
start), ends as one line on stderr and exit status 2.  A line that stderr
cannot take is dropped: it never reaches stdout or changes the status.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .errors import IoError, ParseError, RangeError, SliceAlgError
from .fmtio import array_from_json, csv_chunks, dump_json, dumps_json, \
    int_from_json, load_json, read_text, record_fields, write_text
from .quaternion import Quaternion, parse_quaternion
from .series import PowerSeries

# Each command imports the other modules it uses, and numpy, where it
# builds arrays, so that a process loads only those: gen-exp and solve run
# on the scalar algebra and never load numpy, pde, verify, monogenic or
# sliceexpr (nor does --version), and pde never loads verify.

DEFAULT_SEED = 1729

# the names of verify.SUITES, which --suite offers without importing verify
SUITE_NAMES = ("quaternion", "series", "sliceexpr", "eigensolve",
               "monogenic", "pde")


def _parse_lambdas(text: str):
    items = [t.strip() for t in text.split(",")]
    if not all(items):      # an empty entry would change the order m
        raise ParseError(f"--lambdas {text!r} has an empty entry")
    return [parse_quaternion(t) for t in items]


def _read_points(args):
    """The points of --points and --at, in order, as an (N, 4) array."""
    import numpy as np
    lines = read_text(args.points).split("\n") if args.points else []
    lits = [t for t in map(str.strip, lines) if t and not t.startswith("#")]
    points = [parse_quaternion(t) for t in lits + (args.at or [])]
    return np.array([x.as_list() for x in points], dtype=float).reshape(-1, 4)


def _load_series_file(path):
    """A coefficient file: JSON array -> PowerSeries, P-basis object ->
    MonogenicSeries."""
    data = load_json(path)
    if isinstance(data, dict):
        from .monogenic import MonogenicSeries
        return MonogenicSeries.from_record(data, path)
    return PowerSeries.from_record(data, path)


def _drop_stdout() -> None:
    """Point stdout at os.devnull, so that what its buffer still holds
    goes nowhere when it is flushed."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _to_stdout(text: str = "") -> None:
    """Write ``text`` to stdout and flush it.  A failed write, or a process
    started with stdout closed, is refused as one error, as for an output
    file; a closed pipe (``| head``) is left to the caller."""
    if sys.stdout is None:          # fd 1 was closed at start (``>&-``)
        raise IoError("cannot write stdout: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        _drop_stdout()
        raise IoError(f"cannot write stdout: {exc}") from exc


def _to_stderr(text: str = "") -> None:
    """Write ``text`` to stderr and flush it, or drop it when the process
    has no stderr (``2>&-``) or its reader is gone: there is nowhere left
    to report that, and the status stays the command's."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(text)
            sys.stderr.flush()
    except OSError:
        pass


def _write_text(text: str, path) -> None:
    if path in (None, "-"):
        _to_stdout(text)
    else:
        write_text(path, [text])


def _write_coeffs(f, path) -> None:
    """Write the coefficient record of the series ``f``; an overflowed
    coefficient is refused first, as one error."""
    for n, c in enumerate(f.coeffs):
        if not all(map(math.isfinite, c.as_list())):
            raise RangeError(f"coefficient {n} of the series is not finite: "
                             f"{c.as_list()}")
    _write_text(dumps_json(f.to_record()), path)


def cmd_gen_exp(args) -> int:
    from .eigensolve import gen_exp
    _write_coeffs(gen_exp(_parse_lambdas(args.lambdas), args.degree), args.output)
    return 0


def cmd_solve(args) -> int:
    from .eigensolve import solve_with_initial
    spec = load_json(args.problem)
    try:
        spec = record_fields(spec, {
            "lambdas": ("lambdas",
                        lambda v: array_from_json(v, "lambdas", parse_quaternion)),
            "initial": ("initial",
                        lambda v: array_from_json(v, "initial", parse_quaternion)),
            "degree": ("degree", lambda n: int_from_json(n, "degree")),
        }, "problem", required=("lambdas", "initial"))
    except ParseError as exc:       # each message names its key
        raise ParseError(f"{args.problem}: {exc}") from exc
    _write_coeffs(solve_with_initial(spec["lambdas"], spec["initial"],
                                     spec.get("degree", args.degree)), args.output)
    return 0


def cmd_eval(args) -> int:
    import numpy as np
    f = _load_series_file(args.coeffs)
    pts = _read_points(args)
    # an overflow shows up as inf/NaN values, refused below as one error
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f.eval_components(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        raise RangeError(f"the series is not finite at "
                         f"{Quaternion(*pts[bad][0])} ({bad.sum()} of "
                         f"{len(pts)} points)")
    header = ["x0", "x1", "x2", "x3", "f_w", "f_x1", "f_x2", "f_x3"]
    _write_text("".join(csv_chunks(header, np.column_stack([pts, vals]))),
                args.output)
    return 0


def _axis_values(text: str, flag: str, kind):
    """A comma list of one value (for all three axes) or three values."""
    try:
        values = [kind(v) for v in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"{flag} {text!r}: {exc}") from exc
    return values * 3 if len(values) == 1 else values


# the keys of the pde flags in a problem record, where not the flag's name
_RECORD_KEYS = {"--unit": "I", "--constants": "slice_constants",
                "--grid-counts": "counts", "--grid-lo": "lo", "--grid-hi": "hi",
                "--exclude": "exclude_radius", "--fd-step": "fd_step"}


def _problem_from_args(args):
    """The problem of a --problem file, or the record of the flags given: a
    key that no flag gives keeps its default on PdeProblem or GridSpec."""
    from dataclasses import fields
    from .pde import GridSpec, PdeProblem
    given = {"--" + d.replace("_", "-"): v for d, v in vars(args).items()
             if v is not None and d not in ("command", "func", "problem", "out_prefix")}
    if args.problem:
        if given:
            raise ParseError("--problem excludes " + ", ".join(given))
        return PdeProblem.from_record(load_json(args.problem))
    if not args.kind:
        raise ParseError("pde needs --kind or --problem")
    rec = {}
    for flag, value in given.items():
        if flag in ("--rhs", "--constants"):
            value = load_json(value)
        elif flag.startswith("--grid-"):
            value = _axis_values(value, flag, int if flag == "--grid-counts" else float)
        rec[_RECORD_KEYS.get(flag, flag[2:])] = value
    rec["grid"] = {f.name: rec.pop(f.name) for f in fields(GridSpec) if f.name in rec}
    return PdeProblem.from_record(rec)


def cmd_pde(args) -> int:
    import numpy as np
    from .monogenic import MonogenicSeries
    from .pde import verify_pde
    problem = _problem_from_args(args)
    # an overflow shows up as inf/NaN values, refused by verify_pde
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = problem.solve()
        report = verify_pde(f, problem)
    failures = report.verdict()
    if failures:
        _to_stderr(f"slicealg pde: not certified: {failures[0]}\n")
        return 3
    if isinstance(f, MonogenicSeries):
        _write_text(dumps_json(f.to_record()),
                    args.out_prefix + ".coeffs.json" if args.out_prefix
                    else None)
    if args.out_prefix:
        report.write_csv(args.out_prefix + ".csv")
        dump_json(report.summary(), args.out_prefix + ".summary.json")
    else:
        _to_stdout(dumps_json(report.summary()))
    order = report.richardson_order
    _to_stderr(f"{problem.kind}: {report.n_points} nodes, fd_step "
               f"{report.fd_step:.6g}, max_rel_residual "
               f"{report.max_rel_residual:.3e}, richardson_order "
               f"{'null' if order is None else f'{order:.3f}'}\n")
    return 0


def cmd_verify(args) -> int:
    from io import StringIO
    from .verify import run_suites
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    report = StringIO()
    status = run_suites(names, args.seed, report)
    _to_stdout(report.getvalue())
    return status


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
    p.add_argument("--problem",
                   help="JSON problem record (no other flag but --out-prefix)")
    p.add_argument("--kind",
                   choices=["helmholtz", "klein-gordon", "yukawa", "quadratic"])
    p.add_argument("--lambda", type=float, help="real eigenvalue scale")
    p.add_argument("--lambda1", help="quaternion literal for the quadratic kernel")
    p.add_argument("--unit", help="imaginary unit literal (klein-gordon/yukawa)")
    p.add_argument("--rhs", help="P-basis JSON file (yukawa right-hand side)")
    p.add_argument("--constants", help="JSON file with slice-constant records")
    p.add_argument("--degree", type=int)
    p.add_argument("--grid-counts")
    p.add_argument("--grid-lo")
    p.add_argument("--grid-hi")
    p.add_argument("--x0", type=float)
    p.add_argument("--exclude", type=float,
                   help="exclusion radius around the real axis")
    p.add_argument("--fd-step", type=float)
    p.add_argument("--out-prefix",
                   help="write PREFIX.csv / PREFIX.summary.json "
                        "(default: summary to stdout)")
    p.set_defaults(func=cmd_pde)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("--suite", default="all",
                   choices=["all", *SUITE_NAMES])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="RNG seed (default %(default)s)")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SliceAlgError as exc:
        _to_stderr(f"slicealg {args.command}: {exc}\n")
        return 2
    except MemoryError as exc:      # e.g. a grid too large to allocate
        _to_stderr(f"slicealg {args.command}: out of memory: {exc}\n")
        return 2
    except BrokenPipeError:
        # the reader closed stdout (``| head``): flush the rest to os.devnull
        _drop_stdout()
        return 1


def run() -> None:
    """The entry point of ``python -m slicealg.cli`` and of the ``slicealg``
    script: :func:`main` with one BLAS thread, and no interpreter teardown.

    No command makes a matrix product that would gain from a second
    thread, and a thread pool slows the numpy import.  No command imports
    numpy at start, so the setting holds; ``main`` itself leaves the
    environment as it is.

    The status is that of ``main``, or of argparse's exit for ``--help``,
    ``--version`` and a usage error.  Once stdout and stderr are flushed,
    the process ends by ``os._exit``: it skips ``atexit`` handlers and the
    teardown of every module and object, which no command needs, since
    every file is written and closed inside ``main``.  Output left in the
    stdout buffer that cannot be written ends as exit 2 and one line on
    stderr, or exit 1 and nothing for a closed pipe.  An exception that
    escapes ``main`` goes through the interpreter: a traceback, exit 1."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    try:
        status = main()
    except SystemExit as exc:       # argparse's exit: always an int status
        status = exc.code
    if sys.stdout is not None:      # None when started with stdout closed
        try:
            _to_stdout()
        except BrokenPipeError:
            status = 1
        except IoError as exc:
            _to_stderr(f"slicealg: {exc}\n")
            status = 2
    _to_stderr()
    os._exit(status)


if __name__ == "__main__":
    run()
