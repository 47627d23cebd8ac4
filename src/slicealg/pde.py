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
Delta_4(h . e), h a slice constant with stems (h1, h2) and e a power
series, so it is Delta_4(u + J w) for two power series u = Sum h1 e and
w = Sum h2 e.  Everything a grid needs is evaluated in closed form.  If
every h is uniform (w = 0), and for Yukawa, the solution is a P-series
Sum P_n m_n, defined on all of H and evaluated by the O(n) recurrence of
:meth:`MonogenicSeries.eval_components`, exact on the real axis.  A
genuine two-valued h makes the solution singular on the real axis, so
grids must carry an exclusion ball around it.  It is evaluated by the
stem formula Delta_4 F = -(2/beta) J (F'_s - dF/dx), whose division by
beta is inherent there; the stems of u + J w and of its slice derivative
are one linear map of the powers of z = x0 + i beta, built once per
evaluator.

Every solution has the axial form f(x) = A(x0, beta) + omega B(x0, beta),
omega = Im x / beta, which Fueter's theorem carries over from slice
functions.  So a grid evaluation runs in two steps
(:class:`quaternion.RadialTable`): the series work (the P_n
recurrence, the powers of z and the stem map) once per distinct pair
(x0, beta^2), matched by bit pattern, and the combination
re + Im(x) im per point.  Many grid nodes share a radius, so the first
step runs on several times fewer points than the grid has.  Both steps take
blocks of :data:`quaternion.BLOCK` points; only the index of each
point's pair and the table of distinct pairs grow with the grid.  A
P-series value has the bits of a one-point evaluation.  The stem map is
a matrix product, which BLAS may round differently with the number of
pairs in a block, so a product-domain value may differ from a one-point
evaluation by about 1e-14 relative.

No finite differences enter the *construction*; FD is used only by
:func:`verify_pde` to certify the residuals independently.  Its 13 point
sets (the nodes and the six shifts of the Delta_3 stencil at two steps)
share one table of distinct pairs, so a pair that several sets meet goes
through the series work once.  Its report
keeps the nodes, values and residual norms as one (n, 9) float array,
``PdeReport.rows``, which :func:`fmtio.write_csv` writes block by block.
:meth:`PdeReport.verdict` judges the report against the constants
below and :func:`monogenic.richardson_order`'s rule; ``slicealg pde``
and ``verify --suite pde`` read that verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, GridTooSmall, ParseError, RangeError, \
    ZeroEigenvalue
from .fmtio import array_from_json, float_from_json, int_from_json, \
    record_fields, write_csv
from .quaternion import Quaternion, ZERO, ONE, _require_unit_imag, \
    as_quaternion, RadialTable, format_quaternion, parse_quaternion, qmul
from .series import PowerSeries, exp_series
from .monogenic import ORDER_TOLERANCE, MonogenicSeries, _order_ok, \
    fueter_laplacian, inv_laplacian, richardson_order

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
_READS = {"helmholtz": ("lambda", "slice_constants", "degree"),
          "klein-gordon": ("lambda", "I", "slice_constants", "degree"),
          "yukawa": ("lambda", "I", "rhs"),
          "quadratic": ("lambda1", "slice_constants", "degree")}

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
        if any(int(c) < 3 for c in self.counts):
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
    if q.w == 0.0:
        raise ZeroEigenvalue("lambda must be nonzero")
    return q.w


@dataclass(frozen=True)
class PdeProblem:
    """A Helmholtz / Klein-Gordon / Yukawa / quadratic-kernel instance.

    ``lam`` is the real eigenvalue scale, 1.0 unless given (None for
    quadratic, which reads ``lam1`` instead); ``unit_i`` the imaginary unit
    for Klein-Gordon exponentials or the Yukawa operator splitting;
    ``slice_constants`` the h-data (one per term, at most two for
    Helmholtz and quadratic); ``rhs`` the Yukawa source; ``lam1`` the
    quaternionic eigenvalue of the quadratic kernel; ``degree`` the
    truncation degree of the series behind a Helmholtz, Klein-Gordon or
    quadratic solution (at least 2), 40 unless given.  A field that its
    kind does not read is refused.
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
            if self.lam1 is None or as_quaternion(self.lam1).is_zero():
                raise ZeroEigenvalue("quadratic kernel needs lambda_1 != 0")
        else:
            object.__setattr__(self, "lam",
                               _real_lambda(1.0 if self.lam is None else self.lam))
        if self.kind in ("klein-gordon", "yukawa") and self.unit_i is None:
            raise ParseError(f"{self.kind} problems need an imaginary unit I")
        if self.kind == "yukawa" and self.rhs is None:
            raise ParseError("yukawa problems need a right-hand side")
        if self.kind != "yukawa":
            if self.degree is None:
                object.__setattr__(self, "degree", 40)
            # Delta_4 annihilates affine functions: below degree 2 the
            # solution would be zero and pass verification vacuously
            if self.degree < 2:
                raise ParseError(f"degree {self.degree} too small for a "
                                 f"{self.kind} solution (need >= 2)")

    def to_record(self) -> dict:
        rec = {"kind": self.kind}
        if self.lam is not None:
            rec["lambda"] = float(self.lam)
        if self.unit_i is not None:
            rec["I"] = format_quaternion(self.unit_i)
        if self.lam1 is not None:
            rec["lambda1"] = format_quaternion(self.lam1)
        if self.slice_constants:
            rec["slice_constants"] = [h.to_record() for h in self.slice_constants]
        if self.rhs is not None:
            rec["rhs"] = self.rhs.to_record()
        rec["grid"] = self.grid.to_record()
        if self.degree is not None:
            rec["degree"] = int(self.degree)
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "PdeProblem":
        return cls(**record_fields(rec, {
            "kind": ("kind", lambda kind: kind),
            "lambda": ("lam", lambda v: float_from_json(v, "lambda")),
            "I": ("unit_i", _optional(parse_quaternion)),
            "lambda1": ("lam1", _optional(parse_quaternion)),
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
            return helmholtz_solution(self.lam, h1, h2, self.degree)
        if self.kind == "klein-gordon":
            return klein_gordon_solution(
                self.lam, [(self.unit_i, h) for h in cs or (ONE,)], self.degree)
        if self.kind == "yukawa":
            return yukawa_solve(self.lam, self.unit_i, self.rhs)
        return general_quadratic_kernel(self.lam1, h1, h2, self.degree)


# solution evaluators ---------------------------------------------------------

class SolutionEvaluator:
    """Pointwise/vectorized evaluator for f = Sum_t Delta_4(h_t . e_t).

    Each term h_t . e_t is the pair (h1 e_t, h2 e_t), h_t with stems
    (h1, h2); the sums, zero-padded to the longest degree, are two power
    series u and w with f = Delta_4(u + J w).  If every constant is
    uniform (h2 = 0), f is the P-series ``mono`` = Delta_4 u on all of H;
    a two-valued constant restricts f to the product domain H \\ R.
    """

    def __init__(self, terms: Sequence[Tuple[SliceConstant, PowerSeries]]):
        n = max((len(e.coeffs) for _, e in terms), default=1)
        uw = np.zeros((2, n, 4))
        for h, e in terms:
            ev = np.array([c.as_list() for c in e.coeffs])
            for part, stem in zip(uw, h.stems()):
                part[:len(ev)] += qmul(np.array(stem.as_list()), ev)
        self.mono = fueter_laplacian(
            PowerSeries([Quaternion(*c) for c in uw[0].tolist()]))
        self._map = None
        if not all(h.is_uniform for h, _ in terms):
            duw = np.zeros_like(uw)         # the slice derivatives u', w'
            duw[:, :-1] = np.arange(1.0, n)[:, None] * uw[:, 1:]
            (u, w), (du, dw) = uw, duw
            self._map = np.empty((2 * n, 12))
            self._map[0::2] = np.hstack([w, du, dw])
            self._map[1::2] = np.hstack([u, -dw, du])

    @property
    def product_domain(self) -> bool:
        return self._map is not None

    def eval_components(self, x0, x1, x2, x3):
        """f at the points (x0, x1, x2, x3); returns an (..., 4) array.

        Without a two-valued constant, f is the P-series ``mono``.  Else
        f = -(2/beta) J (G2/beta - P1 - J P2), the stem formula for u + J w:
        with U1 + i U2 = Sum z^n u_n at z = x0 + i beta, and W, U', W'
        alike for w and the slice derivatives, G2 = U2 + W1,
        P1 = U'1 - W'2 and P2 = U'2 + W'1, one product of the powers of z
        with the (2n, 12) map.  As J = Im(x)/beta, f = re + Im(x) im with
        re = -(2/beta) P2 and im = -(2/beta^2) (G2/beta - P1), functions
        of (x0, beta^2), so the powers and the product run once per
        distinct pair (:class:`quaternion.RadialTable`).
        """
        return self.radial_table()(x0, x1, x2, x3)

    def radial_table(self) -> RadialTable:
        """An evaluator like :meth:`eval_components` for point sets taken
        one after another: the radial step runs once per distinct pair of
        all of them."""
        if self._map is None:
            return self.mono.radial_table()
        return RadialTable(self._sums)

    def _sums(self, x0, b2):
        # the radial kernel: (re, im) of f = re + Im(x) im at (x0, b2)
        b = np.sqrt(b2)
        if not (b > 1e-9).all():
            raise DomainError("product-domain solution evaluated at a real "
                              "point; exclude the real axis from the grid")
        zp = np.empty((b.size, len(self._map) // 2), dtype=complex)
        zp[:, 0] = 1.0
        zp[:, 1:] = (x0 + 1j * b)[:, None]
        np.multiply.accumulate(zp, axis=1, out=zp)
        g2, p1, p2 = np.split((zp.view(float) @ self._map).T, 3)
        c = -2.0 / b
        return [*(c * p2), *((c / b) * (g2 / b - p1))]

    def __call__(self, x) -> Quaternion:
        return Quaternion(*self.eval_components(*as_quaternion(x).as_list()))


def _as_constant(h) -> SliceConstant:
    from .sliceexpr import SliceConstant
    if isinstance(h, SliceConstant):
        return h
    return SliceConstant.uniform(h)


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
    return SolutionEvaluator(terms)


def klein_gordon_solution(lam, constants, n_trunc: int = 40) -> SolutionEvaluator:
    """f = Sum_I Delta_4(h_I . exp_{I lam}) for (I, h_I) in ``constants``.

    Solves (Delta_3 - lam^2) f = 0.  An empty list yields the zero
    evaluator.
    """
    lam = _real_lambda(lam)
    terms = []
    for unit, h in constants:
        unit = _require_unit_imag(unit, "I")
        terms.append((_as_constant(h), exp_series(unit * lam, n_trunc)))
    return SolutionEvaluator(terms)


def general_quadratic_kernel(lam1, h1=None, h2=None,
                             n_trunc: int = 40) -> SolutionEvaluator:
    """f = Delta_4(h1 . E_{(lam1, -lam1)}) + Delta_4(h2 . exp_{-lam1}).

    For lam1 = a + b I the result satisfies the twisted equation
    Delta_3 f + (a^2 - b^2) f + 2ab f I = 0; b = 0 reduces to Helmholtz
    and a = 0 to Klein-Gordon.
    """
    from .eigensolve import gen_exp
    lam1 = as_quaternion(lam1)
    if lam1.is_zero():
        raise ZeroEigenvalue("quadratic kernel needs lambda_1 != 0")
    h1 = _as_constant(ONE if h1 is None else h1)
    h2 = _as_constant(ZERO if h2 is None else h2)
    terms = [(h1, gen_exp([lam1, -lam1], n_trunc)),
             (h2, exp_series(-lam1, n_trunc))]
    return SolutionEvaluator(terms)


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
    return -fueter_laplacian(w)


# verification ----------------------------------------------------------------

# The verdict: a run is certified when each quantity is within its bound
# (the Richardson order's is in monogenic).  The residuals are relative
# to max|f|.  FD error alone puts the raw residual of a correct helmholtz
# lambda = 8 run at 0.128, so the gate is the extrapolated residual,
# which removes the h^2 term of the stencil.
MAX_EXTRAPOLATED_RESIDUAL = 1e-3
MIN_CONTROL_RATIO = 100.0       # negative control / extrapolated residual
MAX_MONOGENICITY = 1e-2


@dataclass
class PdeReport:
    """Residual statistics from :func:`verify_pde`, and their verdict.

    ``max_rel_residual`` and ``half_step_residual`` are the residuals at
    the FD steps h and h/2, and :attr:`richardson_order` is their order
    (None at roundoff); ``extrapolated_residual`` is
    max|(4 R(h/2) - R(h)) / 3| / max|f| over the residual vectors R.
    ``monogenicity_max_rel`` and ``monogenicity_half_step`` are the CRF
    spot checks at steps 1e-3 and 5e-4, and :attr:`monogenicity_order`
    is their order.
    ``rows`` is an (n_points, 9) float array, one row per verified node:
    x0, x1, x2, x3, f_w, f_x1, f_x2, f_x3, residual_norm.  It is the
    CSV body that :meth:`write_csv` writes.
    """

    n_points: int
    fd_step: float
    scale: float
    max_rel_residual: float
    mean_rel_residual: float
    half_step_residual: float
    extrapolated_residual: float
    negative_control: float
    monogenicity_max_rel: float
    monogenicity_half_step: float
    rows: np.ndarray

    @property
    def richardson_order(self) -> Optional[float]:
        return richardson_order(self.max_rel_residual, self.half_step_residual)

    @property
    def monogenicity_order(self) -> Optional[float]:
        return richardson_order(self.monogenicity_max_rel,
                                self.monogenicity_half_step)

    def verdict(self) -> Tuple[str, ...]:
        """The failures of this run, one line each, in the order: the
        extrapolated residual, the Richardson order (None, at roundoff,
        passes), the lambda -> 2 lambda negative control against the
        extrapolated residual, monogenicity, and its order (by the same
        rule).  Empty when the run is certified."""
        extrap, order = self.extrapolated_residual, self.richardson_order
        failures = []
        if not extrap <= MAX_EXTRAPOLATED_RESIDUAL:
            failures.append(f"extrapolated residual {extrap:.3e} > "
                            f"{MAX_EXTRAPOLATED_RESIDUAL:g}")
        if not _order_ok(order):
            failures.append(f"richardson order {order:.3f} not within "
                            f"{ORDER_TOLERANCE:g} of 2")
        if not self.negative_control > MIN_CONTROL_RATIO * extrap:
            failures.append(f"negative control {self.negative_control:.3e} "
                            f"<= {MIN_CONTROL_RATIO:g} x extrapolated residual "
                            f"{extrap:.3e}")
        if not self.monogenicity_max_rel <= MAX_MONOGENICITY:
            failures.append(f"monogenicity {self.monogenicity_max_rel:.3e} > "
                            f"{MAX_MONOGENICITY:g}")
        order = self.monogenicity_order
        if not _order_ok(order):
            failures.append(f"monogenicity order {order:.3f} not within "
                            f"{ORDER_TOLERANCE:g} of 2")
        return tuple(failures)

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


def _operator_residual(sq: Quaternion, lap, fv, rhs_vals, factor: float):
    """lap + factor (f sq) - h, with sq = lambda_1^2 and h = ``rhs_vals``
    (factor 4 is the deliberate lambda -> 2 lambda negative control).  The
    quaternion product runs only when sq is not real."""
    res = lap + (factor * sq.w) * fv
    if not sq.is_real():
        res += factor * qmul(fv, np.array(sq.imag().as_list()))
    res -= rhs_vals
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
    """Check f = ``problem.solve()`` on the problem's grid against its
    equation Delta_3 f + f ``lambda1_squared`` = ``rhs`` (0 when None).

    The Laplacian Delta_3 is approximated by second-order central
    differences at fixed x0, at steps h and h/2 (Richardson order
    estimate); the relative residual is |residual| / max|f| over kept
    nodes; a value or residual that is not finite raises RangeError.  A
    negative control re-evaluates the residual with lambda -> 2 lambda
    from the same samples; :func:`_fd_crf_at` spot-checks monogenicity at
    five nodes, at steps 1e-3 and 5e-4.
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

    # the values, then Delta_3 at h and at h/2: 13 point sets, with the
    # radial step once per distinct pair of all of them
    evaluate = f.radial_table()
    fv = evaluate(x0c, x1c, x2c, x3c)

    sq = problem.lambda1_squared
    rhs_vals = 0.0 if problem.rhs is None else \
        problem.rhs.eval_components(x0c, x1c, x2c, x3c)

    fnorm = np.linalg.norm(fv, axis=-1)
    scale = float(fnorm.max())
    div = scale if scale > 0.0 else 1.0

    def residuals(step, *factors):
        # the residual vectors for each factor, with Delta_3 f at step
        acc = -6.0 * fv
        for dx1, dx2, dx3 in ((step, 0.0, 0.0), (-step, 0.0, 0.0),
                              (0.0, step, 0.0), (0.0, -step, 0.0),
                              (0.0, 0.0, step), (0.0, 0.0, -step)):
            acc += evaluate(x0c, x1c + dx1, x2c + dx2, x3c + dx3)
        lap = acc / (step * step)
        return [_operator_residual(sq, lap, fv, rhs_vals, k) for k in factors]

    vec_h, vec_neg = residuals(h, 1.0, 4.0)
    (vec_half,) = residuals(h / 2.0, 1.0)
    del evaluate                    # drops the table
    res_h, neg, res_half = (np.linalg.norm(v, axis=-1)
                            for v in (vec_h, vec_neg, vec_half))
    extrapolated = np.linalg.norm((4.0 * vec_half - vec_h) / 3.0, axis=-1)
    rows = np.column_stack([x0c, x1c, x2c, x3c, fv, res_h])
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():       # an overflow in the series or in the stencil
        raise RangeError(f"the solution or its residual is not finite at "
                         f"{bad.sum()} of {len(rows)} grid nodes")

    # monogenicity spot checks at five nodes spread over the grid, each
    # once (np.unique would import numpy.ma, which nothing else needs)
    spots = sorted(set(np.linspace(0, x1c.size - 1, 5).astype(int).tolist()))
    centres = np.stack([x0c[spots], x1c[spots], x2c[spots], x3c[spots]],
                       axis=-1)
    monog_rel, monog_half = (
        float(np.linalg.norm(_fd_crf_at(f, centres, step), axis=-1).max())
        / div for step in (1e-3, 5e-4))

    return PdeReport(
        n_points=int(x1c.size),
        fd_step=h,
        scale=scale,
        max_rel_residual=float(res_h.max()) / div,
        mean_rel_residual=float(res_h.mean()) / div,
        half_step_residual=float(res_half.max()) / div,
        extrapolated_residual=float(extrapolated.max()) / div,
        negative_control=float(neg.max()) / div,
        monogenicity_max_rel=monog_rel,
        monogenicity_half_step=monog_half,
        rows=rows,
    )
