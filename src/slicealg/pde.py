"""Axially monogenic solutions of Helmholtz, Klein-Gordon and Yukawa
equations, with finite-difference grid verification.

A slice-regular function u with x0-dependence controlled by its
eigenvalue data satisfies d^2 u / dx0^2 = u * lambda^2-type identities;
its Laplacian image f = Delta_4 u is axially monogenic, hence harmonic
in all four variables, so Delta_3 f = -d^2 f / dx0^2 at fixed x0.  That
single observation turns the closed-form eigenfunctions of eigensolve
into solutions of one equation, Delta_3 f + f lambda_1^2 = h, where
Delta_3 acts in (x1, x2, x3): h = 0 and lambda_1 = lambda real (Helmholtz),
I lambda (Klein-Gordon, exp_{I lambda}) or a + bI (quadratic kernel), or
h axially monogenic and lambda_1 = I lambda (Yukawa).  A run is one
:class:`PdeProblem`: its ``lambda1_squared`` and ``rhs`` are the
equation, and its ``solve()`` builds the solution.

Every Helmholtz, Klein-Gordon and quadratic solution is a sum of terms
Delta_4(h . e^{xq}), h a slice constant and q a quaternion, and
:class:`SolutionEvaluator` evaluates each in closed form, point by point,
from exp, sin and cos of beta q: the paper's Bessel representation
-2 lambda^2 e^{lambda x0} (j_0(lambda beta) + omega j_1(lambda beta)) for
real q = lambda, omega = Im x / beta, and its continuation to the plane
of a quaternion q.  No series is truncated.  A genuine two-valued h makes
the solution singular on the real axis, so grids must carry an exclusion
ball around it.  The Yukawa solution is a P-series Sum P_n m_n, defined
on all of H and evaluated by the O(n) recurrence of
:meth:`MonogenicSeries.eval_components`, exact on the real axis.

No finite differences enter the *construction*; FD is used only by
:func:`verify_pde` to certify the residuals independently: one driver
checks stencil(f) + f sq = rhs at steps h and h/2, for the Delta_3
stencil on the grid and the CRF stencil at five spot nodes, and
:meth:`PdeReport.verdict` is the failures of their two
:class:`monogenic.FdCheck` values.  Delta_3 evaluates 13 point sets, each
in one ``eval_components`` call; a P-series runs its recurrence once per
distinct pair (x0, beta^2) of each set.  ``PdeReport.rows`` keeps the
nodes, values and residual norms as one (n, 9) float array, which
:func:`fmtio.write_csv` writes block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .errors import DomainError, GridTooSmall, ParseError, RangeError
from .fmtio import array_from_json, float_from_json, int_from_json, \
    record_fields, write_csv
from .quaternion import Quaternion, ZERO, ONE, _require_invertible, \
    _require_unit_imag, as_quaternion, axial_combine, flat_points, in_blocks, \
    parse_quaternion, qmul
from .monogenic import CRF_STEP, FdCheck, MonogenicSeries, \
    fueter_laplacian, inv_laplacian

if TYPE_CHECKING:   # sliceexpr and eigensolve load where a kind uses them
    from .sliceexpr import SliceConstant

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

# the record keys each kind reads besides kind and grid
_READS = {"helmholtz": ("lambda", "slice_constants"),
          "klein-gordon": ("lambda", "I", "slice_constants"),
          "yukawa": ("lambda", "I", "rhs"),
          "quadratic": ("lambda1", "slice_constants")}

# grids and problems ---------------------------------------------------------

def _optional(convert):
    # a JSON null reads as None
    return lambda value: None if value is None else convert(value)


def _slice_constants(data) -> Tuple[SliceConstant, ...]:
    # the slice_constants array of a problem record
    from .sliceexpr import SliceConstant
    return array_from_json(data, "slice_constants", SliceConstant.from_record)


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
            raise ParseError("GridSpec needs three axes")
        object.__setattr__(self, "counts", tuple(
            int_from_json(c, f"grid counts[{n}]") for n, c in enumerate(self.counts)))
        if any(c < 3 for c in self.counts):
            raise GridTooSmall(f"counts {self.counts}: need >= 3 points per axis")
        for name, values in (("lo", self.lo), ("hi", self.hi),
                             ("x0", (self.x0,)),
                             ("exclude_radius", (self.exclude_radius,)),
                             ("fd_step", (self.fd_step or 0.0,))):
            if not all(map(math.isfinite, values)):
                raise ParseError(f"grid {name} must be finite, got "
                                 f"{getattr(self, name)!r}")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ParseError(f"empty box: lo={self.lo}, hi={self.hi}")
        if self.fd_step is not None and self.fd_step <= 0:
            raise ParseError("fd_step must be positive")
        if self.exclude_radius < 0:
            raise ParseError("exclude_radius must be >= 0")

    @property
    def steps(self) -> Tuple[float, float, float]:
        return tuple((h - l) / (c - 1)
                     for l, h, c in zip(self.lo, self.hi, self.counts))

    @property
    def effective_fd_step(self) -> float:
        if self.fd_step is not None:
            return float(self.fd_step)
        return min(self.steps) / 4.0

    def axes(self):
        return [np.linspace(l, h, c)
                for l, h, c in zip(self.lo, self.hi, self.counts)]

    @classmethod
    def from_record(cls, rec: dict) -> "GridSpec":
        return cls(**record_fields(rec, {
            "counts": ("counts",
                       lambda v: array_from_json(v, "grid counts", int_from_json)),
            "lo": ("lo", lambda v: array_from_json(v, "grid lo", float_from_json)),
            "hi": ("hi", lambda v: array_from_json(v, "grid hi", float_from_json)),
            "x0": ("x0", lambda v: float_from_json(v, "grid x0")),
            "exclude_radius": ("exclude_radius",
                               lambda v: float_from_json(v, "grid exclude_radius")),
            "fd_step": ("fd_step", _optional(
                lambda v: float_from_json(v, "grid fd_step"))),
        }, "grid"))


def _real_lambda(lam) -> float:
    q = as_quaternion(lam)
    if not q.is_real():
        raise ParseError(f"lambda must be real, got {q}")
    if not math.isfinite(q.w):
        raise ParseError(f"lambda must be finite, got {q.w!r}")
    return _require_invertible(q, "lambda").w


@dataclass(frozen=True)
class PdeProblem:
    """A Helmholtz / Klein-Gordon / Yukawa / quadratic-kernel instance.

    ``lam`` is the real eigenvalue scale, 1.0 unless given (None for
    quadratic, which reads ``lam1`` instead); ``unit_i`` the imaginary unit
    for Klein-Gordon exponentials or the Yukawa operator splitting;
    ``slice_constants`` the h-data (one per term, at most two for
    Helmholtz and quadratic); ``rhs`` the Yukawa source; ``lam1`` the
    quaternionic eigenvalue of the quadratic kernel.  A field that its
    kind does not read is refused, and no kind reads ``degree``: every
    solution is a closed form or an exact P-series, so a truncation
    degree ends in one error that names it.
    """

    kind: str
    lam: Optional[float] = None
    unit_i: Optional[Quaternion] = None
    slice_constants: Tuple[SliceConstant, ...] = ()
    rhs: Optional[MonogenicSeries] = None
    lam1: Optional[Quaternion] = None
    grid: GridSpec = GridSpec()
    degree: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _READS:
            raise ParseError(f"unknown problem kind {self.kind!r}")
        if self.unit_i is not None:
            object.__setattr__(self, "unit_i", _require_unit_imag(self.unit_i, "I"))
        given = {"lambda": self.lam, "I": self.unit_i, "lambda1": self.lam1,
                 "rhs": self.rhs, "slice_constants": self.slice_constants or None,
                 "degree": self.degree}
        for key, value in given.items():
            if value is not None and key not in _READS[self.kind]:
                raise ParseError(f"{self.kind} problems do not read {key!r}")
        if self.kind in ("helmholtz", "quadratic") and len(self.slice_constants) > 2:
            raise ParseError(f"{self.kind} problems read at most two "
                             f"slice_constants, got {len(self.slice_constants)}")
        if self.kind == "quadratic":
            if self.lam1 is None:
                raise ParseError("quadratic problems need lambda1")
            object.__setattr__(self, "lam1", _require_invertible(self.lam1, "lambda1"))
        else:
            object.__setattr__(self, "lam",
                               _real_lambda(1.0 if self.lam is None else self.lam))
        if self.kind in ("klein-gordon", "yukawa") and self.unit_i is None:
            raise ParseError(f"{self.kind} problems need an imaginary unit I")
        if self.kind == "yukawa" and self.rhs is None:
            raise ParseError("yukawa problems need a right-hand side")

    @classmethod
    def from_record(cls, rec: dict) -> "PdeProblem":
        return cls(**record_fields(rec, {
            "kind": ("kind", lambda kind: kind),
            "lambda": ("lam", lambda v: float_from_json(v, "lambda")),
            "I": ("unit_i", _optional(lambda v: parse_quaternion(v, "I"))),
            "lambda1": ("lam1", _optional(lambda v: parse_quaternion(v, "lambda1"))),
            "slice_constants": ("slice_constants", _slice_constants),
            "rhs": ("rhs", _optional(
                lambda data: MonogenicSeries.from_record(data, "rhs"))),
            "grid": ("grid", GridSpec.from_record),
            "degree": ("degree", lambda n: int_from_json(n, "degree")),
        }, "problem", required=("kind",)))

    @property
    def lambda1_squared(self) -> Quaternion:
        """lambda_1^2 of the equation Delta_3 f + f lambda_1^2 = h that
        every kind solves: lambda_1 = lambda (helmholtz), I lambda
        (klein-gordon, yukawa) or the quadratic kernel's lambda_1."""
        if self.kind == "quadratic":
            lam1 = as_quaternion(self.lam1)
            return lam1 * lam1
        lam2 = self.lam * self.lam
        return Quaternion(lam2 if self.kind == "helmholtz" else -lam2)

    def solve(self):
        """The solution of this problem, by the constructor of its kind: a
        :class:`SolutionEvaluator`, or a :class:`MonogenicSeries` for
        yukawa.  Without slice constants, helmholtz and quadratic take
        h1 = 1, h2 = 0, and klein-gordon one term with h = 1."""
        cs = self.slice_constants
        h1 = cs[0] if cs else None
        h2 = cs[1] if len(cs) > 1 else None
        if self.kind == "helmholtz":
            return helmholtz_solution(self.lam, h1, h2)
        if self.kind == "klein-gordon":
            return klein_gordon_solution(
                self.lam, [(self.unit_i, h) for h in cs or (ONE,)])
        if self.kind == "yukawa":
            return yukawa_solve(self.lam, self.unit_i, self.rhs)
        return general_quadratic_kernel(self.lam1, h1, h2)


# solution evaluators ---------------------------------------------------------

# sin(t)/t and g(t) = (sin t - t cos t)/t^3 for |t| < TAYLOR_RADIUS, as
# polynomials in t^2: there the closed forms cancel (0/0 at t = 0).  The
# terms left out are below 1e-19 of the sums.
TAYLOR_RADIUS = 0.5
_SINC = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(8))
_G = tuple((-1) ** k * (2 * k + 2) / math.factorial(2 * k + 3) for k in range(8))


def _even_series(coeffs, t2):
    # Sum_k coeffs[k] t^(2k), by Horner in t2 = t^2
    acc = coeffs[-1] * t2
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= t2
    return acc + coeffs[0]


class SolutionEvaluator:
    """f = Sum_t Delta_4(h_t . e^{x q_t}) for ``terms`` (h_t, q_t), with h_t
    a slice constant (or a quaternion, taken as uniform) and q_t a
    quaternion; each term is evaluated in closed form, point by point.

    The stems of e^{xq} at x = alpha + J beta are e^{alpha q} cos(beta q)
    and e^{alpha q} sin(beta q), functions of q in its complex plane C_I
    (I = Im q / |Im q|), and h = (h1, h2) multiplies them on the left.
    With E = -2 e^{alpha q}, t = beta q and g(t) = j_1(t)/t, the stem
    formula for Delta_4 gives f = re + Im(x) im, with

    - for the uniform stem h1: re = h1 E q^2 sin(t)/t and
      im = h1 E q^3 g(t);
    - for the two-valued stem h2: re = h2 E q cos(t)/beta and
      im = h2 E (cos(t)/beta + q sin t)/beta^2.

    For real q = lambda and h = 1 this is -2 lambda^2 e^{lambda x0}
    (j_0(lambda beta) + omega j_1(lambda beta)), omega = Im x / beta.  A
    right factor r of C_I folds into the constant, h . e^{xq} r =
    (h r) . e^{xq}.  A genuine two-valued h restricts f to the product
    domain H \\ R, where the beta in the denominators is inherent.  Terms
    with the same q share their exponentials, and the components that are
    zero are skipped.  Every operation is elementwise, so a value has the
    bits of a one-point call.
    """

    def __init__(self, terms):
        stems = {}                  # q -> the sums of the stems (h1, h2)
        for h, q in terms:
            q = as_quaternion(q)
            if not q.is_zero():     # Delta_4 annihilates e^{x 0} = 1
                key = tuple(q.as_list())
                stems[key] = [s + g for s, g in zip(stems.get(key, (ZERO, ZERO)),
                                                    _as_constant(h).stems())]
        # per q: q as a float or a complex number of C_I, and for each stem
        # the nonzero (component, imaginary part?, value) of h and h I, the
        # factors of the real and the imaginary part of the kernel
        self._terms = []
        for key, (h1, h2) in stems.items():
            q = Quaternion(*key)
            beta = q.imag_norm()
            units = ((False, ONE),) if beta == 0.0 else \
                ((False, ONE), (True, q.imag() / beta))
            uniform, two_valued = (tuple(
                (k, imag, v) for imag, unit in units
                for k, v in enumerate((h * unit).as_list()) if v != 0.0)
                for h in (h1, h2))
            if uniform or two_valued:
                self._terms.append((complex(q.w, beta) if beta else q.w,
                                    uniform, two_valued))
        self.product_domain = any(t[2] for t in self._terms)

    def eval_components(self, x0, x1, x2, x3):
        """f at the points (x0, x1, x2, x3), an (..., 4) array: the block driver
        :func:`quaternion.in_blocks` runs the point kernel, re + Im(x) im
        (:func:`quaternion.axial_combine`) of :meth:`_sums` at (x0, |Im x|^2)."""
        xs, shape = flat_points(x0, x1, x2, x3)
        return in_blocks(lambda x0, x1, x2, x3: axial_combine(self._sums(
            x0, x1 * x1 + x2 * x2 + x3 * x3), x1, x2, x3), xs, np.empty(shape))

    def _sums(self, x0, b2):
        # the radial kernel: the components of re, then of im, at (x0,
        # b2 = beta^2); a component that no term reaches is 0.0
        beta = np.sqrt(b2)
        if self.product_domain and not (beta > 1e-9).all():
            raise DomainError("product-domain solution evaluated at a real "
                              "point; exclude the real axis from the grid")
        sums = [0.0] * 8
        for q, uniform, two_valued in self._terms:
            e = -2.0 * np.exp(x0 * q)
            t = beta * q
            s, c = np.sin(t), np.cos(t)
            if uniform:
                with np.errstate(divide="ignore", invalid="ignore"):
                    sinc = s / t
                    g = (sinc - c) / (t * t)
                near = np.flatnonzero(beta < TAYLOR_RADIUS / abs(q))
                if near.size:
                    t2 = t[near] * t[near]
                    sinc[near] = _even_series(_SINC, t2)
                    g[near] = _even_series(_G, t2)
                eq2 = e * (q * q)
                _accumulate(sums, uniform, eq2 * sinc, (eq2 * q) * g)
            if two_valued:
                cb = c / beta
                _accumulate(sums, two_valued, (e * q) * cb, e * (cb + q * s) / b2)
        return sums

    def __call__(self, x) -> Quaternion:
        return Quaternion(*self.eval_components(*as_quaternion(x).as_list()))


def _accumulate(sums, factors, re, im):
    # sums[k] += v Re(re) (or v Im(re)), and sums[4 + k] alike for im, for
    # the (k, imag, v) in factors; a real kernel has no imaginary factor
    for k, imag, v in factors:
        sums[k] = sums[k] + v * (re.imag if imag else re.real)
        sums[4 + k] = sums[4 + k] + v * (im.imag if imag else im.real)


def _as_constant(h) -> SliceConstant:
    from .sliceexpr import SliceConstant
    if isinstance(h, SliceConstant):
        return h
    return SliceConstant.uniform(h)


def helmholtz_solution(lam, h1=None, h2=None) -> SolutionEvaluator:
    """f = Delta_4(h1 . exp_lam) + Delta_4(h2 . exp_{-lam}), lam real != 0.

    Solves (Delta_3 + lam^2) f = 0; defaults h1 = 1, h2 = 0 give the
    fundamental entire solution Delta_4 e^{lam x}.
    """
    lam = _real_lambda(lam)
    return SolutionEvaluator([(ONE if h1 is None else h1, Quaternion(lam)),
                              (ZERO if h2 is None else h2, Quaternion(-lam))])


def klein_gordon_solution(lam, constants) -> SolutionEvaluator:
    """f = Sum_I Delta_4(h_I . exp_{I lam}) for (I, h_I) in ``constants``.

    Solves (Delta_3 - lam^2) f = 0.  An empty list yields the zero
    evaluator.
    """
    lam = _real_lambda(lam)
    return SolutionEvaluator([(h, _require_unit_imag(unit, "I") * lam)
                              for unit, h in constants])


def general_quadratic_kernel(lam1, h1=None, h2=None) -> SolutionEvaluator:
    """f = Delta_4(h1 . E_{(lam1, -lam1)}) + Delta_4(h2 . exp_{-lam1}).

    For lam1 = a + b I the result satisfies the twisted equation
    Delta_3 f + (a^2 - b^2) f + 2ab f I = 0; b = 0 reduces to Helmholtz
    and a = 0 to Klein-Gordon.  lam1 and -lam1 commute, so
    E_{(lam1, -lam1)} = (e^{x lam1} - e^{-x lam1}) (2 lam1)^{-1}.
    """
    from .sliceexpr import SliceConstant
    lam1 = _require_invertible(lam1, "lambda1")
    r = 0.5 * lam1.inverse()
    h1 = _as_constant(ONE if h1 is None else h1)
    h1r, h1mr = (SliceConstant(h1.i, h1.a1 * c, h1.a2 * c) for c in (r, -r))
    return SolutionEvaluator([(h1r, lam1), (h1mr, -lam1),
                              (ZERO if h2 is None else h2, -lam1)])


def yukawa_solve(lam, unit_i, h: MonogenicSeries) -> MonogenicSeries:
    """Particular solution of Delta_3 f - lam^2 f = h in the P-basis.

    f = -Delta_4 S_{-I lam} S_{I lam} (inv_laplacian h); everything stays
    polynomial, so the result is an exact MonogenicSeries.
    """
    from .eigensolve import S_lambda
    lam = _real_lambda(lam)
    unit = _require_unit_imag(unit_i, "I")
    u = inv_laplacian(h)
    v = S_lambda(unit * lam, u)
    w = S_lambda(-(unit * lam), v)
    return fueter_laplacian(-w)


# verification ----------------------------------------------------------------

@dataclass
class PdeReport:
    """Residual statistics from :func:`verify_pde`, and their verdict.

    ``laplacian`` and ``monogenicity`` are the two
    :class:`monogenic.FdCheck` of one driver: Delta_3 at the FD steps h
    and h/2, with the lambda -> 2 lambda control, and the CRF spot checks
    d_cf f at ``monogenic.CRF_STEP`` and its half; their residuals are
    relative to max|f| (``scale``).
    :attr:`max_rel_residual` and :attr:`richardson_order` are Delta_3's
    residual at h and its order (None at roundoff).
    ``rows`` is an (n_points, 9) float array, one row per verified node:
    x0, x1, x2, x3, f_w, f_x1, f_x2, f_x3, residual_norm.  It is the
    CSV body that :meth:`write_csv` writes.
    """

    n_points: int
    fd_step: float
    scale: float
    mean_rel_residual: float
    laplacian: FdCheck
    monogenicity: FdCheck
    rows: np.ndarray

    @property
    def max_rel_residual(self) -> float:
        return self.laplacian.at_h

    @property
    def richardson_order(self) -> Optional[float]:
        return self.laplacian.order

    def verdict(self) -> Tuple[str, ...]:
        """The failures of this run, one line each (:meth:`FdCheck.failures`),
        Delta_3's, then the CRF probe's; empty when the run is certified."""
        return self.laplacian.failures() + \
            self.monogenicity.failures("monogenicity ")

    def summary(self) -> dict:
        return {
            "max_rel_residual": float(self.max_rel_residual),
            "mean_rel_residual": float(self.mean_rel_residual),
            "richardson_order": self.richardson_order,
        }

    def write_csv(self, path) -> None:
        write_csv(path,
                  ["x0", "x1", "x2", "x3", "f_w", "f_x1", "f_x2", "f_x3",
                   "residual_norm"],
                  self.rows)


def _delta3_stencil(f, points, fv, step: float):
    """Delta_3 f at ``points`` (x0, x1, x2, x3), where f = fv, by the
    7-point central stencil at fixed x0: one ``eval_components`` per shift."""
    x0, x1, x2, x3 = points
    acc = -6.0 * fv
    for d in ((step, 0.0, 0.0), (-step, 0.0, 0.0), (0.0, step, 0.0),
              (0.0, -step, 0.0), (0.0, 0.0, step), (0.0, 0.0, -step)):
        acc += f.eval_components(x0, x1 + d[0], x2 + d[1], x3 + d[2])
    acc /= step * step
    return acc


def _crf_stencil(f, points, fv, step: float):
    """d_cf f at ``points`` (x0, x1, x2, x3) as :func:`monogenic.fd_crf`
    computes it, with the 8 k shifted points in one ``eval_components``
    call; central differences have no centre node, so fv is not read."""
    units = np.eye(4)           # the axis steps, and 1, i, j, k
    shifts = step * np.concatenate([units, -units])
    vals = f.eval_components(*(x[:, None] + d for x, d in zip(points, shifts.T)))
    parts = (vals[:, :4] - vals[:, 4:]) / (2.0 * step)
    i, j, k = units[1:]
    return 0.5 * (parts[:, 0] + qmul(i, parts[:, 1]) + qmul(j, parts[:, 2])
                  + qmul(k, parts[:, 3]))


def _fd_check(f, stencil, points, h: float, div: float, fv=None,
              sq: Optional[Quaternion] = None, rhs=0.0):
    """The :class:`FdCheck` of stencil(f) + f sq = rhs at ``points`` (f =
    ``fv`` there) from the residual rows R(s) = stencil(f, points, fv, s)
    + fv sq - rhs at s = h and h/2, relative to ``div``, with the lambda ->
    2 lambda control (sq -> 4 sq, at h) when sq is given; and |R(h)|."""
    def residual(op, k=1.0):
        # op + (k sq) fv - rhs, in op itself since a new n-long array
        # faults fresh pages; the control writes a new one, as its op
        # becomes R(h); the quaternion product only when sq is not real
        res = op if sq is None else \
            np.add(op, (k * sq.w) * fv, out=op if k == 1.0 else None)
        if sq is not None and not sq.is_real():
            res += k * qmul(fv, np.array(sq.imag().as_list()))
        res -= rhs
        return res

    op = stencil(f, points, fv, h)
    control = None if sq is None else \
        float(np.linalg.norm(residual(op, 4.0), axis=-1).max()) / div
    r_h, r_half = residual(op), residual(stencil(f, points, fv, h / 2.0))
    norm_h = np.linalg.norm(r_h, axis=-1)       # the only norm kept
    at_h, at_half, extrapolated = (
        float(v.max()) / div
        for v in (norm_h, np.linalg.norm(r_half, axis=-1),
                  np.linalg.norm((4.0 * r_half - r_h) / 3.0, axis=-1)))
    return FdCheck(at_h, at_half, extrapolated, control), norm_h


def verify_pde(f, problem: PdeProblem) -> PdeReport:
    """Check f = ``problem.solve()`` on the problem's grid against its
    equation Delta_3 f + f ``lambda1_squared`` = ``rhs`` (0 when None).

    One driver, :func:`_fd_check`, runs two stencils at steps h and h/2:
    the 7-point Delta_3 at fixed x0 on every kept node, with the lambda ->
    2 lambda control, and the CRF d_cf f = 0 at five nodes from h =
    ``monogenic.CRF_STEP``.  Residuals are relative to max|f|; a value or
    residual that is not finite raises RangeError.
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
    nodes = (np.full_like(x1c, grid.x0), x1c, x2c, x3c)

    # the values, then Delta_3 at h and at h/2: 13 point sets
    fv = f.eval_components(*nodes)
    rhs_vals = 0.0 if problem.rhs is None else \
        problem.rhs.eval_components(*nodes)

    # fnorm lives to the end: freeing it lets the heap top go back to the
    # OS, and the n-long arrays that follow fault in fresh pages
    fnorm = np.linalg.norm(fv, axis=-1)
    scale = float(fnorm.max())
    div = scale if scale > 0.0 else 1.0

    laplacian, res_h = _fd_check(f, _delta3_stencil, nodes, h, div, fv,
                                 problem.lambda1_squared, rhs_vals)
    rows = np.column_stack([*nodes, fv, res_h])
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():       # an overflow in the solution or in the stencil
        raise RangeError(f"the solution or its residual is not finite at "
                         f"{bad.sum()} of {len(rows)} grid nodes")

    # monogenicity spot checks at five nodes spread over the grid, each
    # once (np.unique would import numpy.ma, which nothing else needs)
    spots = sorted(set(np.linspace(0, x1c.size - 1, 5).astype(int).tolist()))
    monogenicity, _ = _fd_check(f, _crf_stencil, [x[spots] for x in nodes],
                                CRF_STEP, div)

    return PdeReport(n_points=int(x1c.size), fd_step=h, scale=scale,
                     mean_rel_residual=float(res_h.mean()) / div,
                     laplacian=laplacian, monogenicity=monogenicity, rows=rows)
