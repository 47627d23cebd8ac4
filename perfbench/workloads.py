"""The three workloads: seeded inputs, the request list of one round, and
the independent check of every request's output.

A workload's ``setup`` writes its input files into a work directory and
returns the requests of one round.  A request is a ``slicealg`` command
line (``argv``), run as a subprocess or in-process through
``slicealg.cli.main``.  Its ``check`` turns the output into an
:class:`Outcome`; it never trusts the exit status alone.

Why each workload is there:

* ``pde-stem`` -- grid evaluation through the stem formula and CSV
  writing do most of the work; the series and eigensolve modules do
  almost none.
* ``pde-pbasis`` -- the other grid evaluator, the O(n^2) P-basis path,
  plus scalar CRF probes through ``MonogenicSeries.__call__``; JSON out,
  no CSV, stem path idle.
* ``cli-short`` -- short commands where process start and import
  dominate; the only place ``verify``, the series and eigensolve
  solvers and the parse-heavy read path run.

Known defects are counted, never dodged: they lower ``ok_ratio``; see
``KNOWN_DEFECTS``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

import refs

# Failures the benchmark expects from the code it was written against.
# A request that shows one, and nothing else wrong, lowers ``ok_ratio``
# but is not counted in the result's ``failed``: it returned what the
# code is known to return.  Any other failure counts in ``failed`` and
# ``ok_ratio`` and makes the run's ``correct`` false.
KNOWN_DEFECTS = {
    "verify-eigensolve-roundtrip":
        "verify --suite all fails 'eigensolve: D(S(p)) != p' for some seeds "
        "(round-trip error 1.2-2.2e-9 against an absolute 1e-9)",
}

SIZES = {
    "full": {
        "stem_counts": 41, "stem_mu_counts": 31,
        "pbasis_counts": 21, "pbasis_degrees": (12, 13, 14, 15, 16),
        "cli_gen_exp": (3, 200), "cli_solve": (4, 200), "cli_eval": (60, 2000),
    },
    "tiny": {
        "stem_counts": 7, "stem_mu_counts": 7,
        "pbasis_counts": 7, "pbasis_degrees": (3, 4, 5),
        "cli_gen_exp": (2, 10), "cli_solve": (2, 10), "cli_eval": (5, 10),
    },
}

TOL_VALUES = 1e-10       # closed-form / reference agreement, relative
TOL_ROUNDOFF = 1e-12     # series identities evaluated in floating point
TOL_ORDER = 0.1          # |richardson_order - 2|
# The references are float64 computations too: below this relative size
# they are no more accurate than the output they check, so smaller errors
# and residuals are reported as this value.
RESOLUTION = 1e-13


@dataclass
class Outcome:
    ok: bool
    err: float = math.nan           # largest relative error vs a reference
    residual: float = math.nan      # largest relative residual
    defect: Optional[str] = None    # KNOWN_DEFECTS key when ok is False
    note: str = ""


@dataclass
class CliResult:
    rc: Optional[int]
    stdout: str
    stderr: str


@dataclass
class Request:
    kind: str
    check: Callable[[object], Outcome]
    argv: Optional[List[str]] = None
    renew: Optional[Callable[[], "Request"]] = None   # fresh inputs per round


def fail(note, err=math.nan, residual=math.nan, defect=None) -> Outcome:
    return Outcome(False, err, residual, defect, note)


def judge(err, residual=math.nan, tol=TOL_VALUES, note="") -> Outcome:
    ok = math.isfinite(err) and err <= tol and not (residual > tol)
    return Outcome(ok, err, residual, None,
                   note or f"error {err:.3e} (tolerance {tol:.0e})")


# -- helpers ---------------------------------------------------------------------

def rand_q(rng, scale=1.0):
    return [rng.uniform(-scale, scale) for _ in range(4)]


def rand_unit_imag(rng):
    while True:
        v = [0.0] + [rng.uniform(-1.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in v))
        if n > 1e-3:
            return [c / n for c in v]


def with_norm(q, size):
    n = math.sqrt(sum(c * c for c in q))
    return [c * size / n for c in q]


def literal(q) -> str:
    """A quaternion literal slicealg parses back to exactly q."""
    out = repr(float(q[0]))
    for v, unit in zip(q[1:], "ijk"):
        out += ("+" if math.copysign(1.0, v) > 0 else "-") + repr(abs(float(v))) + unit
    return out


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def cli_ok(res: CliResult) -> Optional[Outcome]:
    if res.rc != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return fail(f"exit status {res.rc}: {tail[0][:160]}")
    return None


def json_documents(text):
    """Every JSON document in ``text``, in order (pde prints two)."""
    dec = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return docs
        doc, pos = dec.raw_decode(text, pos)
        docs.append(doc)


def read_csv(path, ncols):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    data = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    return header, data.reshape(-1, ncols)


def order_off(summary):
    """Distance of the summary's Richardson order from 2.

    pde reports no order (null) when both residuals sit at roundoff,
    which certifies the solution as well as an order of 2 does.
    """
    order = summary.get("richardson_order")
    if order is None:
        return 0.0 if summary["max_rel_residual"] <= 1e-11 else math.inf
    return abs(float(order) - 2.0)


def grid_nodes(counts, exclude, fd_step):
    """The nodes verify_pde keeps, in its order (x1-major meshgrid)."""
    ax = np.linspace(-1.0, 1.0, counts)
    g1, g2, g3 = np.meshgrid(ax, ax, ax, indexing="ij")
    x1, x2, x3 = g1.ravel(), g2.ravel(), g3.ravel()
    if exclude > 0.0:
        keep = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3) >= exclude + fd_step
        x1, x2, x3 = x1[keep], x2[keep], x3[keep]
    return x1, x2, x3


# -- pde-stem --------------------------------------------------------------------

# The product-domain variant of the acceptance tests:
# h1 = on_halves(I, 1, 0) with exp(x), h2 = on_halves(J, 0.5, 1) with exp(-x),
# where (I, J) is (i, j) turned by a seeded rotation of the cube grid.
# The rotation maps grid nodes and stencil offsets onto each other, so
# the work, the residuals and the Richardson order do not depend on it.
MU_VALUES = ((1.0, 1.0, 0.0), (-1.0, 0.5, 1.0))      # (lambda sign, a1, a2)
MU_EXCLUDE, MU_FD_STEP = 0.5, 0.005
CSV_HEADER = ["x0", "x1", "x2", "x3", "f_w", "f_x1", "f_x2", "f_x3",
              "residual_norm"]


def cube_rotation(rng):
    """One of the 24 signed permutation matrices with determinant +1."""
    rots = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            m[range(3), perm] = signs
            if np.linalg.det(m) > 0:
                rots.append(m)
    return rots[rng.randrange(len(rots))]


def mu_problem(rot):
    """Constant records for pde and the (lambda, h1, h2) stems of each term."""
    records, terms = [], []
    for (sign, a1, a2), axis in zip(MU_VALUES, rot.T):
        unit = [0.0, *axis]
        records.append({"I": literal(unit), "a1": repr(a1), "a2": repr(a2)})
        terms.append((sign, [(a1 + a2) / 2.0, 0.0, 0.0, 0.0],
                      [(a2 - a1) / 2.0 * u for u in unit]))
    return records, terms


def check_stem_csv(prefix, counts, x0, terms, exclude, fd_step, max_res):
    def check(res: CliResult) -> Outcome:
        bad = cli_ok(res)
        if bad:
            return bad
        header, rows = read_csv(prefix + ".csv", 9)
        if header != CSV_HEADER:
            return fail(f"CSV header {header}")
        with open(prefix + ".summary.json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        x1, x2, x3 = grid_nodes(counts, exclude, fd_step)
        if rows.shape[0] != x1.size:
            return fail(f"{rows.shape[0]} CSV rows, expected {x1.size}")
        xs = np.stack([np.full_like(x1, x0), x1, x2, x3], axis=-1)
        if not np.array_equal(rows[:, :4], xs):
            return fail("CSV node coordinates differ from the grid")
        ref = sum(refs.laplacian_of_exp(lam, h1, h2, xs[:, 0], x1, x2, x3)
                  for lam, h1, h2 in terms)
        err_vals = refs.rel_err(rows[:, 4:8], ref)
        scale = float(refs.norms(rows[:, 4:8]).max())
        csv_res = float(rows[:, 8].max()) / scale
        residual = float(summary["max_rel_residual"])
        if not (err_vals <= TOL_VALUES and order_off(summary) <= TOL_ORDER
                and residual <= max_res
                and abs(csv_res - residual) <= 1e-9 * residual):
            return fail(f"values err {err_vals:.2e}, summary {summary}, "
                        f"CSV residual {csv_res:.3e}", err_vals, residual)
        return Outcome(True, err_vals, residual, None,
                       f"values err {err_vals:.2e}")
    return check


def setup_pde_stem(work, rng, size):
    n_a, n_b = size["stem_counts"], size["stem_mu_counts"]
    # e^{x0 + y} = e^{x0} e^y: the shift rescales f and leaves the relative
    # residuals and the order of the uniform solution unchanged
    x0_a = rng.uniform(-0.25, 0.25)
    x0_b = 0.0
    records, mu_terms = mu_problem(cube_rotation(rng))
    constants = write_json(os.path.join(work, "mu_constants.json"), records)
    pa, pb = os.path.join(work, "stem_a"), os.path.join(work, "stem_b")
    uniform = [(1.0, [1.0, 0.0, 0.0, 0.0], [0.0] * 4)]
    return [
        Request("helmholtz-uniform",
                check_stem_csv(pa, n_a, x0_a, uniform, 0.0, None, 1e-3),
                argv=["pde", "--kind", "helmholtz", "--lambda", "1.0",
                      "--grid-counts", str(n_a), "--x0", repr(x0_a),
                      "--out-prefix", pa]),
        Request("helmholtz-mu",
                check_stem_csv(pb, n_b, x0_b, mu_terms, MU_EXCLUDE,
                               MU_FD_STEP, 1e-2),
                argv=["pde", "--kind", "helmholtz", "--lambda", "1.0",
                      "--constants", constants, "--exclude", repr(MU_EXCLUDE),
                      "--fd-step", repr(MU_FD_STEP), "--grid-counts", str(n_b),
                      "--x0", repr(x0_b), "--out-prefix", pb]),
    ]


# -- pde-pbasis ------------------------------------------------------------------

FD_SPOT_STEP = 1e-2
FD_SPOT_TOL = 1e-8
YUKAWA_LAMBDA = 1.0


def yukawa_spot_check(coeffs, rhs, lam, nodes):
    """Relative residual of Delta_3 f - lam^2 f - h at a few nodes, with a
    fourth-order central stencil on the benchmark's own P_n evaluation."""
    x0, x1, x2, x3 = nodes
    s = FD_SPOT_STEP
    f = refs.p_basis_eval(coeffs, x0, x1, x2, x3)
    lap = np.zeros_like(f)
    for axis in range(3):
        def shifted(k):
            xs = [x1, x2, x3]
            xs[axis] = xs[axis] + k * s
            return refs.p_basis_eval(coeffs, x0, *xs)
        lap += (-shifted(2) + 16.0 * shifted(1) - 30.0 * f
                + 16.0 * shifted(-1) - shifted(-2)) / (12.0 * s * s)
    h = refs.p_basis_eval(rhs, x0, x1, x2, x3)
    res = lap - lam * lam * f - h
    size = np.maximum(np.maximum(refs.norms(lap), lam * lam * refs.norms(f)),
                      refs.norms(h))
    return float((refs.norms(res) / size).max())


def yukawa_coeffs(rhs, lam):
    """The unique polynomial solution of Delta_3 f - lam^2 f = h, P-basis.

    Axially monogenic f is harmonic in four variables and d/dx0 P_n =
    (n+2) P_{n-1}, so Delta_3 P_n = -(n+2)(n+1) P_{n-2} and the
    coefficients obey m_k = -(h_k + (k+4)(k+3) m_{k+2}) / lam^2 from the
    top down.  Returns the coefficients and the size of each one's terms.
    """
    top = len(rhs) - 1
    m = np.zeros((top + 3, 4))
    size = np.zeros(top + 1)
    for k in range(top, -1, -1):
        m[k] = -(rhs[k] + (k + 4) * (k + 3) * m[k + 2]) / lam ** 2
        size[k] = (refs.norms(rhs[k])
                   + (k + 4) * (k + 3) * refs.norms(m[k + 2])) / lam ** 2
    return m[:top + 1], size


def check_yukawa(rhs, lam, nodes):
    ref, size = yukawa_coeffs(rhs, lam)

    def check(res: CliResult) -> Outcome:
        bad = cli_ok(res)
        if bad:
            return bad
        docs = json_documents(res.stdout)
        if len(docs) != 2 or docs[0].get("basis") != "P":
            return fail("expected the P-basis coefficients and the summary")
        coeffs = np.array(docs[0]["coeffs"], dtype=float)
        summary = docs[1]
        if coeffs.shape != (len(rhs), 4):
            return fail(f"solution has shape {coeffs.shape}, rhs {len(rhs)} terms")
        err = float((refs.norms(coeffs - ref) / size).max())
        spot = yukawa_spot_check(coeffs, rhs, lam, nodes)
        residual = float(summary["max_rel_residual"])
        if not (err <= TOL_ROUNDOFF and spot <= FD_SPOT_TOL
                and order_off(summary) <= TOL_ORDER and residual <= 1e-3):
            return fail(f"coefficients err {err:.2e}, FD spot check "
                        f"{spot:.2e}, summary {summary}", err, residual)
        return Outcome(True, err, residual, None,
                       f"coefficients err {err:.2e}, FD spot check {spot:.2e}")
    return check


def setup_pde_pbasis(work, rng, size):
    counts = size["pbasis_counts"]
    reqs = []
    for deg in size["pbasis_degrees"]:
        rhs = np.array([rand_q(rng) for _ in range(deg + 1)])
        unit = rand_unit_imag(rng)
        path = write_json(os.path.join(work, f"rhs_{deg}.json"),
                          {"basis": "P", "coeffs": rhs.tolist()})
        # spot nodes: grid nodes at least 0.3 off the real axis
        x1, x2, x3 = grid_nodes(counts, 0.3, 0.0)
        pick = rng.sample(range(x1.size), 6)
        nodes = (np.zeros(6), x1[pick], x2[pick], x3[pick])
        reqs.append(Request(
            f"yukawa-deg{deg}", check_yukawa(rhs, YUKAWA_LAMBDA, nodes),
            argv=["pde", "--kind", "yukawa", "--unit", literal(unit),
                  "--lambda", repr(YUKAWA_LAMBDA), "--rhs", path,
                  "--grid-counts", str(counts)]))
    return reqs


# -- cli-short -------------------------------------------------------------------

def check_gen_exp_cli(lams, n):
    ref, scales = refs.gen_exp_ref(lams, n)

    def check(res: CliResult) -> Outcome:
        bad = cli_ok(res)
        if bad:
            return bad
        got = np.array(json.loads(res.stdout), dtype=float)
        return judge(refs.scaled_err(got, ref, scales), tol=TOL_ROUNDOFF)
    return check


def check_solve_cli(lams, initial):
    def check(res: CliResult) -> Outcome:
        bad = cli_ok(res)
        if bad:
            return bad
        cur = np.array(json.loads(res.stdout), dtype=float)
        err = 0.0
        # f(0) = c_m, then D_{lam_m} f (0) = c_{m-1}, ..., and the whole
        # chain D_{lam_1} ... D_{lam_m} annihilates f
        for i in range(len(lams) - 1, -1, -1):
            err = max(err, float(refs.norms(cur[0] - initial[i]))
                      / max(1.0, float(refs.norms(initial[i]))))
            cur, size = refs.apply_D(lams[i], cur)
        residual = float(refs.norms(cur).max() / size.max())
        return judge(err, residual, tol=TOL_ROUNDOFF)
    return check


def check_eval_cli(coeffs, pts):
    ref, scale = refs.horner(coeffs, pts)

    def check(res: CliResult) -> Outcome:
        bad = cli_ok(res)
        if bad:
            return bad
        lines = res.stdout.splitlines()
        rows = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
        if rows.shape != (len(pts), 8):
            return fail(f"eval printed {rows.shape}, expected {(len(pts), 8)}")
        if not np.array_equal(rows[:, :4], pts):
            return fail("points did not parse back to the written values")
        return judge(float((refs.norms(rows[:, 4:] - ref) / scale).max()),
                     tol=TOL_ROUNDOFF)
    return check


VERIFY_SUITES = ("quaternion", "series", "sliceexpr", "eigensolve",
                 "monogenic", "pde")
EIGENSOLVE_ROUNDTRIP_FAIL = "FAIL eigensolve: D(S(p)) != p"


def verify_report_is(lines, suite_lines, status):
    """True when ``lines`` are one line per suite, in order, each equal to
    its ``suite_lines`` entry (or starting with it, for an ``ok`` line),
    followed by ``status``."""
    return (len(lines) == len(suite_lines) + 1 and lines[-1] == status
            and all(ln.startswith(want) if want.startswith("ok ") else ln == want
                    for ln, want in zip(lines, suite_lines)))


def check_verify_cli(seed):
    oks = [f"ok {name}: " for name in VERIFY_SUITES]
    # the known defect only when it is the whole story: every other suite
    # ok, the one round-trip failure, exit 1
    with_defect = [EIGENSOLVE_ROUNDTRIP_FAIL if name == "eigensolve" else ok
                   for name, ok in zip(VERIFY_SUITES, oks)]

    def check(res: CliResult) -> Outcome:
        lines = res.stdout.strip().splitlines()
        if res.rc == 0 and verify_report_is(
                lines, oks, f"all suites passed (seed {seed})"):
            return Outcome(True, note="all suites passed")
        fails = [ln for ln in lines if ln.startswith("FAIL")]
        note = f"exit {res.rc}: {'; '.join(fails) or res.stderr[-160:]}"
        known = res.rc == 1 and verify_report_is(
            lines, with_defect, f"1 suite(s) failed (seed {seed})")
        return fail(note, defect="verify-eigensolve-roundtrip" if known else None)
    return check


def setup_cli_short(work, rng, size):
    m, n = size["cli_gen_exp"]
    lams = [with_norm(rand_q(rng), 1.0) for _ in range(m)]
    reqs = [Request("gen-exp", check_gen_exp_cli(lams, n),
                    argv=["gen-exp", "--lambdas=" + ",".join(map(literal, lams)),
                          "--degree", str(n)])]
    m, n = size["cli_solve"]
    lams = [with_norm(rand_q(rng), 1.0) for _ in range(m)]
    initial = [rand_q(rng) for _ in range(m)]
    problem = write_json(os.path.join(work, "ivp.json"), {
        "lambdas": [literal(l) for l in lams],
        "initial": [literal(c) for c in initial], "degree": n})
    reqs.append(Request("solve", check_solve_cli(np.array(lams), np.array(initial)),
                        argv=["solve", "--problem", problem]))
    deg, npts = size["cli_eval"]
    coeffs = np.array([rand_q(rng) for _ in range(deg + 1)])
    pts = np.array([rand_q(rng, 0.6) for _ in range(npts)])
    cpath = write_json(os.path.join(work, "coeffs.json"), coeffs.tolist())
    ppath = os.path.join(work, "points.txt")
    with open(ppath, "w", encoding="utf-8") as fh:
        fh.write("# evaluation points\n")
        fh.writelines(literal(x) + "\n" for x in pts)
    reqs.append(Request("eval", check_eval_cli(coeffs, pts),
                        argv=["eval", "--coeffs", cpath, "--points", ppath]))
    # one verify seed per round, drawn from the workload seed
    verify_rng = random.Random(rng.getrandbits(64))

    def verify_request():
        seed = verify_rng.randrange(1, 1_000_000)
        return Request("verify", check_verify_cli(seed),
                       argv=["verify", "--suite", "all", "--seed", str(seed)])
    reqs.append(Request("verify", None, renew=verify_request))
    return reqs


WORKLOADS = {
    "pde-stem": setup_pde_stem,
    "pde-pbasis": setup_pde_pbasis,
    "cli-short": setup_cli_short,
}


def round_requests(reqs):
    """The requests of the next round (verify draws a fresh seed)."""
    return [r.renew() if r.renew else r for r in reqs]
