"""Axially monogenic solutions of Helmholtz, Klein-Gordon and Yukawa
equations, with finite-difference grid verification.

A slice-regular function u with x0-dependence controlled by its
eigenvalue data satisfies d^2 u / dx0^2 = u * lambda^2-type identities;
its Laplacian image f = Delta_4 u is axially monogenic, hence harmonic
in all four variables, so Delta_3 f = -d^2 f / dx0^2 at fixed x0.  That
single observation turns the closed-form eigenfunctions of eigensolve
into solutions of

    (Delta_3 + lambda^2) f = 0        (Helmholtz,      lambda real)
    (Delta_3 - lambda^2) f = 0        (Klein-Gordon,   exp_{I lambda})
    Delta_3 f + (a^2-b^2) f + 2ab f I = 0   (quadratic kernel, lambda_1 = a + bI)
    Delta_3 f - lambda^2 f = h        (Yukawa, h axially monogenic)

where Delta_3 acts in (x1, x2, x3).  Solutions come in two flavours:

* a *uniform* part, Delta_4 of an ordinary power series (defined on all
  of H, real axis included);
* *product-domain* terms Delta_4(h . e) with h a genuine two-valued
  slice constant; these are singular on the real axis and grids must
  carry an exclusion ball around it.

Everything a grid needs is evaluated in closed form.  The uniform part
and the Yukawa solutions are P-series Sum P_n m_n, evaluated by the O(n)
recurrence of :meth:`MonogenicSeries.eval_components`, which is exact on
the real axis.  Only the product-domain terms use the stem formula
Delta_4 u = -(2/beta) J (u'_s - du/dx), whose division by beta is
inherent there; the stems of all terms together are one linear map of
the powers of z = x0 + i beta, built once per evaluator.  Grids are
evaluated in blocks of :data:`monogenic.BLOCK` points, so the working
memory of an evaluation does not grow with the grid.

No finite differences enter the *construction*; FD is used only by
:func:`verify_pde` to certify the residuals independently.  Its report
keeps the nodes, values and residual norms as one (n, 9) float array,
``PdeReport.rows``, which :func:`fmtio.write_csv` writes block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, GridTooSmall, ParseError, ZeroEigenvalue
from .fmtio import dump_json, write_csv
from .quaternion import Quaternion, ZERO, ONE, as_quaternion, decompose, \
    format_quaternion, parse_quaternion, qmul
from .series import PowerSeries, exp_series
from .sliceexpr import SliceConstant
from .eigensolve import gen_exp, S_lambda
from .monogenic import MonogenicSeries, fueter_laplacian, in_blocks, \
    inv_laplacian, richardson_order

__all__ = [
    "GridSpec",
    "PdeProblem",
    "SolutionEvaluator",
    "PdeReport",
    "helmholtz_solution",
    "klein_gordon_solution",
    "general_quadratic_kernel",
    "yukawa_solve",
    "verify_pde",
]

_KINDS = ("helmholtz", "klein-gordon", "yukawa", "quadratic")

def _qarr(q: Quaternion):
    return np.array(q.as_list())


def _stem_map(h: SliceConstant, e: PowerSeries):
    """The linear map from powers of z to the stems of Delta_4(h . e).

    With z = alpha + i beta, h = h1 + J h2 and e = Sum x^n a_n, the stem
    formula needs G2 = h1 F2 + h2 F1, P1 = h1 D1 - h2 D2 and
    P2 = h1 D2 + h2 D1, where F1 + i F2 = Sum z^n a_n and D1 + i D2 =
    Sum z^n (n+1) a_{n+1} (the slice derivative).  Each is linear in Re z^n
    and Im z^n, so the (2n, 12) array returned maps the interleaved row
    [Re z^0, Im z^0, Re z^1, Im z^1, ...] to [G2, P1, P2].
    """
    h1, h2 = (_qarr(q) for q in h.stems())
    a = np.array([c.as_list() for c in e.coeffs])
    da = np.zeros_like(a)
    da[:-1] = np.arange(1.0, len(a))[:, None] * a[1:]
    h1a, h2a, h1d, h2d = qmul(h1, a), qmul(h2, a), qmul(h1, da), qmul(h2, da)
    out = np.empty((2 * len(a), 12))
    out[0::2] = np.hstack([h2a, h1d, h2d])
    out[1::2] = np.hstack([h1a, -h2d, h1d])
    return out


# grids and problems ---------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned sampling box in (x1, x2, x3) at fixed x0.

    ``fd_step`` is the base step of the central-difference Delta_3
    stencil (defaults to a quarter of the smallest grid spacing; the
    stencil samples the solution off-grid, so the two are independent).
    ``exclude_radius`` removes the ball |(x1,x2,x3)| < r around the
    real-axis trace; it is mandatory for product-domain solutions.
    """

    counts: Tuple[int, int, int] = (21, 21, 21)
    lo: Tuple[float, float, float] = (-1.0, -1.0, -1.0)
    hi: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    x0: float = 0.0
    exclude_radius: float = 0.0
    fd_step: Optional[float] = None

    def __post_init__(self):
        if len(self.counts) != 3 or len(self.lo) != 3 or len(self.hi) != 3:
            raise ValueError("GridSpec needs three axes")
        if any(int(c) < 3 for c in self.counts):
            raise GridTooSmall(f"counts {self.counts}: need >= 3 points per axis")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty box: lo={self.lo}, hi={self.hi}")
        if self.fd_step is not None and self.fd_step <= 0:
            raise ValueError("fd_step must be positive")
        if self.exclude_radius < 0:
            raise ValueError("exclude_radius must be >= 0")

    @property
    def steps(self) -> Tuple[float, float, float]:
        return tuple((h - l) / (int(c) - 1)
                     for l, h, c in zip(self.lo, self.hi, self.counts))

    @property
    def effective_fd_step(self) -> float:
        if self.fd_step is not None:
            return float(self.fd_step)
        return min(self.steps) / 4.0

    def axes(self):
        return [np.linspace(l, h, int(c))
                for l, h, c in zip(self.lo, self.hi, self.counts)]

    def to_record(self) -> dict:
        rec = {
            "counts": [int(c) for c in self.counts],
            "lo": [float(v) for v in self.lo],
            "hi": [float(v) for v in self.hi],
            "x0": float(self.x0),
            "exclude_radius": float(self.exclude_radius),
        }
        if self.fd_step is not None:
            rec["fd_step"] = float(self.fd_step)
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "GridSpec":
        try:
            return cls(
                counts=tuple(int(c) for c in rec.get("counts", (21, 21, 21))),
                lo=tuple(float(v) for v in rec.get("lo", (-1.0, -1.0, -1.0))),
                hi=tuple(float(v) for v in rec.get("hi", (1.0, 1.0, 1.0))),
                x0=float(rec.get("x0", 0.0)),
                exclude_radius=float(rec.get("exclude_radius", 0.0)),
                fd_step=(None if rec.get("fd_step") is None
                         else float(rec["fd_step"])),
            )
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad grid record: {exc}") from exc


def _real_lambda(lam) -> float:
    q = as_quaternion(lam)
    if not q.is_real():
        raise ValueError(f"lambda must be real, got {q}")
    if q.w == 0.0:
        raise ZeroEigenvalue("lambda must be nonzero")
    return q.w


def _unit_imag(u) -> Quaternion:
    q = as_quaternion(u)
    if abs(q.w) > 1e-12 or abs(q.imag_norm() - 1.0) > 1e-12:
        raise ValueError(f"expected a unit imaginary quaternion, got {q}")
    return q


@dataclass(frozen=True)
class PdeProblem:
    """A Helmholtz / Klein-Gordon / Yukawa / quadratic-kernel instance.

    ``lam`` is the real eigenvalue scale; ``unit_i`` the imaginary unit
    for Klein-Gordon exponentials or the Yukawa operator splitting;
    ``slice_constants`` the h-data (one per term); ``rhs`` the Yukawa
    source; ``lam1`` the quaternionic eigenvalue of the quadratic kernel.
    """

    kind: str
    lam: float = 1.0
    unit_i: Optional[Quaternion] = None
    slice_constants: Tuple[SliceConstant, ...] = ()
    rhs: Optional[MonogenicSeries] = None
    lam1: Optional[Quaternion] = None
    grid: GridSpec = GridSpec()
    degree: int = 40

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind == "quadratic":
            if self.lam1 is None or as_quaternion(self.lam1).is_zero():
                raise ZeroEigenvalue("quadratic kernel needs lambda_1 != 0")
        else:
            if self.lam == 0.0:
                raise ZeroEigenvalue("lambda must be nonzero")
        if self.kind in ("klein-gordon", "yukawa") and self.unit_i is None:
            raise ValueError(f"{self.kind} problems need an imaginary unit I")
        if self.kind == "yukawa" and self.rhs is None:
            raise ValueError("yukawa problems need a right-hand side")

    def to_record(self) -> dict:
        rec = {"kind": self.kind, "lambda": float(self.lam)}
        if self.unit_i is not None:
            rec["I"] = format_quaternion(self.unit_i)
        if self.lam1 is not None:
            rec["lambda1"] = format_quaternion(self.lam1)
        if self.slice_constants:
            rec["slice_constants"] = [h.to_record() for h in self.slice_constants]
        if self.rhs is not None:
            rec["rhs"] = {"basis": "P",
                          "coeffs": [c.as_list() for c in self.rhs.coeffs]}
        rec["grid"] = self.grid.to_record()
        rec["degree"] = int(self.degree)
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "PdeProblem":
        if not isinstance(rec, dict) or "kind" not in rec:
            raise ParseError("problem record must be an object with a 'kind'")
        kind = rec["kind"]
        unit_i = None
        if rec.get("I") is not None:
            unit_i = _unit_imag(parse_quaternion(rec["I"]))
        lam1 = None
        if rec.get("lambda1") is not None:
            lam1 = parse_quaternion(rec["lambda1"])
        constants = tuple(SliceConstant.from_record(r)
                          for r in rec.get("slice_constants", []))
        rhs = None
        if rec.get("rhs") is not None:
            raw = rec["rhs"]
            if not isinstance(raw, dict) or raw.get("basis") != "P":
                raise ParseError("rhs must be a P-basis monogenic series record")
            rhs = MonogenicSeries([Quaternion(*c) for c in raw.get("coeffs", [])])
        return cls(
            kind=kind,
            lam=float(rec.get("lambda", 1.0)),
            unit_i=unit_i,
            slice_constants=constants,
            rhs=rhs,
            lam1=lam1,
            grid=GridSpec.from_record(rec.get("grid", {})),
            degree=int(rec.get("degree", 40)),
        )


# solution evaluators ---------------------------------------------------------

class SolutionEvaluator:
    """Pointwise/vectorized evaluator for f = Sum_t Delta_4(h_t . e_t).

    Uniform constants are folded into a single power series u (so that
    part of f is fueter_laplacian(u), defined on all of H); genuine
    two-valued slice constants keep their stem form and restrict the
    evaluator to the product domain H \\ R.
    """

    def __init__(self, terms: Sequence[Tuple[SliceConstant, PowerSeries]],
                 name: str = ""):
        u = None
        maps = []
        for h, e in terms:
            if h.is_uniform:
                if h.a1.is_zero():
                    continue
                ue = h.a1 * e
                u = ue if u is None else u + ue
            else:
                maps.append(_stem_map(h, e))
        self.name = name
        self.mono = fueter_laplacian(u) if u is not None else MonogenicSeries([ZERO])
        self._stem_map = None
        if maps:
            self._stem_map = np.zeros((max(len(m) for m in maps), 12))
            for m in maps:
                self._stem_map[:len(m)] += m

    @property
    def product_domain(self) -> bool:
        return self._stem_map is not None

    def eval_components(self, x0, x1, x2, x3):
        """f at the points (x0, x1, x2, x3); returns an (..., 4) array.

        The uniform part is the P-series ``mono``.  The product-domain
        terms together are -(2/beta) J (G2/beta - P1 - J P2), with
        [G2, P1, P2] one product of the powers of z = x0 + i beta with
        the summed linear maps of the terms (:func:`_stem_map`).  The
        points are taken in blocks (:func:`monogenic.in_blocks`).
        """
        if self._stem_map is None:
            return self.mono.eval_components(x0, x1, x2, x3)
        return in_blocks(self._block_components, x0, x1, x2, x3)

    def _block_components(self, x0, x1, x2, x3):
        b = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
        if not (b > 1e-9).all():
            raise DomainError("product-domain solution evaluated at a real "
                              "point; exclude the real axis from the grid")
        zp = np.empty((b.size, len(self._stem_map) // 2), dtype=complex)
        zp[:, 0] = 1.0
        zp[:, 1:] = (x0 + 1j * b)[:, None]
        np.multiply.accumulate(zp, axis=1, out=zp)
        g = zp.view(float) @ self._stem_map
        g2, p1, p2 = g[:, :4], g[:, 4:8], g[:, 8:]
        jv = np.stack([np.zeros_like(b), x1 / b, x2 / b, x3 / b], axis=-1)
        f = self.mono.eval_components(x0, x1, x2, x3)
        f += (-2.0 / b)[:, None] * qmul(jv, g2 / b[:, None]
                                        - (p1 + qmul(jv, p2)))
        return f.T

    def __call__(self, x) -> Quaternion:
        x = as_quaternion(x)
        if self._stem_map is None:
            return self.mono(x)
        comps = self.eval_components(
            np.array([x.w]), np.array([x.x1]),
            np.array([x.x2]), np.array([x.x3]))
        return Quaternion(*comps[0])


def _as_constant(h) -> SliceConstant:
    if isinstance(h, SliceConstant):
        return h
    return SliceConstant.uniform(as_quaternion(h))


def helmholtz_solution(lam, h1=None, h2=None, n_trunc: int = 40) -> SolutionEvaluator:
    """f = Delta_4(h1 . exp_lam) + Delta_4(h2 . exp_{-lam}), lam real != 0.

    Solves (Delta_3 + lam^2) f = 0; defaults h1 = 1, h2 = 0 give the
    fundamental entire solution Delta_4 e^{lam x}.
    """
    lam = _real_lambda(lam)
    h1 = _as_constant(ONE if h1 is None else h1)
    h2 = _as_constant(ZERO if h2 is None else h2)
    terms = [(h1, exp_series(Quaternion(lam), n_trunc)),
             (h2, exp_series(Quaternion(-lam), n_trunc))]
    return SolutionEvaluator(terms, name=f"helmholtz(lambda={lam})")


def klein_gordon_solution(lam, constants, n_trunc: int = 40) -> SolutionEvaluator:
    """f = Sum_I Delta_4(h_I . exp_{I lam}) for (I, h_I) in ``constants``.

    Solves (Delta_3 - lam^2) f = 0.  An empty list yields the zero
    evaluator.
    """
    lam = _real_lambda(lam)
    terms = []
    for unit, h in constants:
        unit = _unit_imag(unit)
        terms.append((_as_constant(h), exp_series(unit * lam, n_trunc)))
    return SolutionEvaluator(terms, name=f"klein-gordon(lambda={lam})")


def general_quadratic_kernel(lam1, h1=None, h2=None,
                             n_trunc: int = 40) -> SolutionEvaluator:
    """f = Delta_4(h1 . E_{(lam1, -lam1)}) + Delta_4(h2 . exp_{-lam1}).

    For lam1 = a + b I the result satisfies the twisted equation
    Delta_3 f + (a^2 - b^2) f + 2ab f I = 0; b = 0 reduces to Helmholtz
    and a = 0 to Klein-Gordon.
    """
    lam1 = as_quaternion(lam1)
    if lam1.is_zero():
        raise ZeroEigenvalue("quadratic kernel needs lambda_1 != 0")
    h1 = _as_constant(ONE if h1 is None else h1)
    h2 = _as_constant(ZERO if h2 is None else h2)
    terms = [(h1, gen_exp([lam1, -lam1], n_trunc)),
             (h2, exp_series(-lam1, n_trunc))]
    return SolutionEvaluator(terms, name=f"quadratic(lambda1={lam1})")


def yukawa_solve(lam, unit_i, h: MonogenicSeries) -> MonogenicSeries:
    """Particular solution of Delta_3 f - lam^2 f = h in the P-basis.

    f = -Delta_4 S_{-I lam} S_{I lam} (inv_laplacian h); everything stays
    polynomial, so the result is an exact MonogenicSeries.
    """
    lam = _real_lambda(lam)
    unit = _unit_imag(unit_i)
    u = inv_laplacian(h)
    v = S_lambda(unit * lam, u)
    w = S_lambda(-(unit * lam), v)
    return -fueter_laplacian(w)


# verification ----------------------------------------------------------------

@dataclass
class PdeReport:
    """Residual statistics from :func:`verify_pde`.

    ``rows`` is an (n_points, 9) float array, one row per verified node:
    x0, x1, x2, x3, f_w, f_x1, f_x2, f_x3, residual_norm.  It is the
    CSV body that :meth:`write_csv` writes.
    """

    kind: str
    n_points: int
    fd_step: float
    scale: float
    max_rel_residual: float
    mean_rel_residual: float
    richardson_order: float
    negative_control: float
    monogenicity_max_rel: float
    monogenicity_order: float
    rows: np.ndarray

    def summary(self) -> dict:
        order = self.richardson_order
        return {
            "max_rel_residual": float(self.max_rel_residual),
            "mean_rel_residual": float(self.mean_rel_residual),
            "richardson_order": (None if not math.isfinite(order)
                                 else float(order)),
        }

    def write_summary(self, path) -> None:
        dump_json(self.summary(), path)

    def write_csv(self, path) -> None:
        write_csv(path,
                  ["x0", "x1", "x2", "x3", "f_w", "f_x1", "f_x2", "f_x3",
                   "residual_norm"],
                  self.rows)


def _operator_residual(problem: PdeProblem, lap, fv, rhs_vals, factor: float):
    """Residual of the problem's operator; ``factor`` scales lambda^2
    (factor 4 is the deliberate lambda -> 2 lambda negative control)."""
    kind = problem.kind
    if kind == "helmholtz":
        return lap + (factor * problem.lam ** 2) * fv
    if kind == "klein-gordon":
        return lap - (factor * problem.lam ** 2) * fv
    if kind == "yukawa":
        res = lap - (factor * problem.lam ** 2) * fv
        return res - rhs_vals
    # quadratic: Delta_3 f + (a^2-b^2) f + 2ab f I = 0
    sp = decompose(as_quaternion(problem.lam1))
    a, b = sp.alpha, sp.beta
    res = lap + (factor * (a * a - b * b)) * fv
    if b != 0.0:
        iv = _qarr(sp.j)
        res = res + (factor * 2.0 * a * b) * qmul(fv, iv)
    return res


def _fd_crf_at(f, points, h: float):
    """d_cf f at each row of ``points`` (k, 4), as :func:`monogenic.fd_crf`
    computes it: central differences of step h along the four axes, with
    the 8 k shifted points taken in one ``eval_components`` call."""
    units = np.eye(4)           # the axis steps, and 1, i, j, k
    shifted = points[:, None, :] + h * np.concatenate([units, -units])
    vals = f.eval_components(*np.moveaxis(shifted, -1, 0))
    parts = (vals[:, :4] - vals[:, 4:]) / (2.0 * h)
    i, j, k = units[1:]
    return 0.5 * (parts[:, 0] + qmul(i, parts[:, 1]) + qmul(j, parts[:, 2])
                  + qmul(k, parts[:, 3]))


def verify_pde(f, problem: PdeProblem) -> PdeReport:
    """Check a solution (a SolutionEvaluator or a MonogenicSeries)
    against its PDE on the grid.

    The Laplacian Delta_3 is approximated by second-order central
    differences at fixed x0, at steps h and h/2 (Richardson order
    estimate); the relative residual is |residual| / max|f| over kept
    nodes.  A negative control re-evaluates the residual with
    lambda -> 2 lambda from the same samples, and monogenicity of f is
    spot-checked with the fd_crf differences at five nodes.
    """
    grid = problem.grid
    h = grid.effective_fd_step

    ax1, ax2, ax3 = grid.axes()
    g1, g2, g3 = np.meshgrid(ax1, ax2, ax3, indexing="ij")
    x1c, x2c, x3c = g1.ravel(), g2.ravel(), g3.ravel()
    beta = np.sqrt(x1c * x1c + x2c * x2c + x3c * x3c)

    product_domain = isinstance(f, SolutionEvaluator) and f.product_domain
    if product_domain and grid.exclude_radius <= 0.0:
        raise DomainError("product-domain solutions require a grid with "
                          "exclude_radius > 0 (singular on the real axis)")
    if grid.exclude_radius > 0.0:
        keep = beta >= grid.exclude_radius + h
        x1c, x2c, x3c = x1c[keep], x2c[keep], x3c[keep]
    if x1c.size == 0:
        raise GridTooSmall("no grid nodes survive the exclusion ball")
    x0c = np.full_like(x1c, grid.x0)

    fv = f.eval_components(x0c, x1c, x2c, x3c)

    def lap3(step):
        acc = -6.0 * fv
        for dx1, dx2, dx3 in ((step, 0.0, 0.0), (-step, 0.0, 0.0),
                              (0.0, step, 0.0), (0.0, -step, 0.0),
                              (0.0, 0.0, step), (0.0, 0.0, -step)):
            acc += f.eval_components(x0c, x1c + dx1, x2c + dx2, x3c + dx3)
        return acc / (step * step)

    rhs_vals = None
    if problem.kind == "yukawa":
        rhs_vals = problem.rhs.eval_components(x0c, x1c, x2c, x3c)

    fnorm = np.linalg.norm(fv, axis=-1)
    scale = float(fnorm.max())
    div = scale if scale > 0.0 else 1.0

    def residual_norms(lap, factor=1.0):
        return np.linalg.norm(
            _operator_residual(problem, lap, fv, rhs_vals, factor), axis=-1)

    laps = {}

    def max_rel_residual(step):
        laps[step] = lap3(step)
        return float(residual_norms(laps[step]).max()) / div

    max_rel, _, order = richardson_order(max_rel_residual, h, floor=1e-11)
    res_h = residual_norms(laps[h])
    mean_rel = float(res_h.mean()) / div
    neg = residual_norms(laps[h], 4.0)

    # monogenicity spot checks
    spots = np.unique(np.linspace(0, x1c.size - 1, 5).astype(int))
    centres = np.stack([x0c[spots], x1c[spots], x2c[spots], x3c[spots]],
                       axis=-1)
    monog_rel, _, monog_order = richardson_order(
        lambda step: float(np.linalg.norm(_fd_crf_at(f, centres, step),
                                          axis=-1).max()) / div,
        1e-3, floor=1e-12)

    return PdeReport(
        kind=problem.kind,
        n_points=int(x1c.size),
        fd_step=h,
        scale=scale,
        max_rel_residual=max_rel,
        mean_rel_residual=mean_rel,
        richardson_order=order,
        negative_control=float(neg.max()) / div,
        monogenicity_max_rel=monog_rel,
        monogenicity_order=monog_order,
        rows=np.column_stack([x0c, x1c, x2c, x3c, fv, res_h]),
    )
