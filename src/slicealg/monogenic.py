"""Bridge from slice-regular power series to axially monogenic functions.

The quaternionic Laplacian maps x^{n+2} to -4 P_n, where

    P_n(x) = Sum_{k=1}^{n+1} k x^{k-1} xbar^{n-k+1}

is a degree-n axially monogenic polynomial (P_n restricted to the real
axis is binom(n+2, 2) x0^n).  Consequently Delta sends a slice-regular
entire series Sum x^n a_n to the monogenic series Sum P_n m_n with
m_n = -4 a_{n+2}, and the two directions of this correspondence are
implemented by :func:`fueter_laplacian` and :func:`inv_laplacian`.
Every P-series value, on grids and at single points, goes through the
O(n) recurrence of :meth:`MonogenicSeries.eval_components`;
:func:`eval_P` and :func:`eval_Z` keep the definitional sums as
references.

On the monogenic side the operator L with L(P_n) = (n+2) P_{n-1}
intertwines the slice derivative: L_lambda o Delta = Delta o D_lambda,
so eigenvalue problems can be transported basis-to-basis
(:func:`apply_L`, :func:`delta_exp`).

Finite-difference utilities (:func:`fd_crf`, :func:`fd_laplacian`,
:func:`richardson_order`) allow pointwise verification that the
constructed functions really satisfy the Cauchy-Riemann-Fueter equation
and the intertwining identities.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ParseError
from .fmtio import dump_json, load_json
from .quaternion import Quaternion, ZERO, ONE, I, J, K, as_quaternion, decompose
from .series import PowerSeries, slice_derivative
from .sliceexpr import slice_derivative_pointwise

__all__ = [
    "MonogenicSeries",
    "eval_P",
    "eval_Z",
    "fueter_laplacian",
    "inv_laplacian",
    "apply_L",
    "delta_exp",
    "laplacian_pointwise",
    "laplacian_via_partials",
    "save_monogenic",
    "load_monogenic",
    "fd_partial",
    "fd_crf",
    "fd_laplacian",
    "richardson_order",
]

_UNITS = (ONE, I, J, K)

# Points per block of a grid evaluation: a block's buffers stay in cache.
BLOCK = 8192


def in_blocks(kernel, x0, x1, x2, x3):
    """Evaluate ``kernel`` over broadcast coordinate arrays, block by block.

    ``kernel(x0, x1, x2, x3)`` takes 1-D coordinate arrays of at most
    :data:`BLOCK` points and returns the four components of its values.
    Returns the (..., 4) array of all points; the kernel's working memory
    stays bounded by the block size.
    """
    x0, x1, x2, x3 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x0, x1, x2, x3)))
    shape = x0.shape
    flat = [v.reshape(-1) for v in (x0, x1, x2, x3)]
    out = np.empty((x0.size, 4))
    for start in range(0, x0.size, BLOCK):
        block = slice(start, start + BLOCK)
        for c, v in enumerate(kernel(*(x[block] for x in flat))):
            out[block, c] = v
    return out.reshape(shape + (4,))


def _powers(x: Quaternion, top: int):
    """[x^0, ..., x^top]."""
    out = [ONE]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def eval_P(n: int, x) -> Quaternion:
    """P_n(x) = Sum_{k=1}^{n+1} k x^{k-1} xbar^{n-k+1}.

    P_0 = 1; on the real axis P_n(x0) = binom(n+2, 2) x0^n.
    """
    if n < 0:
        raise ValueError("P_n is defined for n >= 0")
    x = as_quaternion(x)
    xc = x.conjugate()
    xp = _powers(x, n)
    xcp = _powers(xc, n)
    acc = ZERO
    for k in range(1, n + 2):
        acc = acc + float(k) * (xp[k - 1] * xcp[n - k + 1])
    return acc


def eval_Z(n: int, x) -> Quaternion:
    """Zonal harmonic Z_n(x) = Sum_{k=0}^{n} x^k xbar^{n-k}.

    Equals the spherical derivative of x^{n+1}; restricted to the real
    axis it is (n+1) x0^n.
    """
    if n < 0:
        raise ValueError("Z_n is defined for n >= 0")
    x = as_quaternion(x)
    xc = x.conjugate()
    xp = _powers(x, n)
    xcp = _powers(xc, n)
    acc = ZERO
    for k in range(n + 1):
        acc = acc + xp[k] * xcp[n - k]
    return acc


class MonogenicSeries:
    """A finite expansion g(x) = Sum_n P_n(x) m_n in the P-basis."""

    __slots__ = ("coeffs", "_terms")

    def __init__(self, coeffs):
        cs = tuple(as_quaternion(c) for c in coeffs)
        if not cs:
            cs = (ZERO,)
        object.__setattr__(self, "coeffs", cs)
        # the nonzero (component, value) pairs of each m_n, up to the last
        # nonzero m_n: what the evaluation kernel reads
        last = max((n for n, c in enumerate(cs) if not c.is_zero()), default=0)
        object.__setattr__(self, "_terms", tuple(
            tuple((k, v) for k, v in enumerate(c.as_list()) if v != 0.0)
            for c in cs[:last + 1]))

    def __setattr__(self, name, value):
        raise AttributeError("MonogenicSeries is immutable")

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Quaternion:
        return self.coeffs[n] if n <= self.degree_bound else ZERO

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, MonogenicSeries):
            return NotImplemented
        top = max(self.degree_bound, other.degree_bound)
        return all(self.coeff(n) == other.coeff(n) for n in range(top + 1))

    def __add__(self, other):
        if not isinstance(other, MonogenicSeries):
            return NotImplemented
        top = max(self.degree_bound, other.degree_bound)
        return MonogenicSeries([self.coeff(n) + other.coeff(n)
                                for n in range(top + 1)])

    def __sub__(self, other):
        if not isinstance(other, MonogenicSeries):
            return NotImplemented
        top = max(self.degree_bound, other.degree_bound)
        return MonogenicSeries([self.coeff(n) - other.coeff(n)
                                for n in range(top + 1)])

    def __neg__(self):
        return MonogenicSeries([-c for c in self.coeffs])

    def eval_components(self, x0, x1, x2, x3):
        """Sum_n P_n(x) m_n at the points (x0, x1, x2, x3); an (..., 4) array.

        On the slice of x, P_n(x) is the complex value P_n(z) at
        z = x0 + i beta (beta = |Im x|), and the O(n) recurrence
        P_0 = Z_0 = 1, Z_n = z Z_{n-1} + zbar^n, P_n = z P_{n-1} + Z_n
        builds it.  Z_n is real, so it obeys Z_n = 2 x0 Z_{n-1} - |x|^2
        Z_{n-2}; P_n(z) is carried as A_n + i beta B_n, which gives
        P_n(x) = A_n + Im(x) B_n.  Only beta^2 enters: nothing divides by
        beta and real points need no special case.  The points are taken
        in blocks of :data:`BLOCK` (:func:`in_blocks`).
        """
        return in_blocks(self._sums, x0, x1, x2, x3)

    def _sums(self, x0, x1, x2, x3):
        # The one evaluation kernel, on floats (one point) or on 1-D
        # arrays (a block): the components of Sum A_n m_n + Im(x) Sum B_n m_n.
        # Zero components of m_n are skipped; the arithmetic is otherwise
        # that of the docstring of eval_components, operation for operation.
        b2 = x1 * x1 + x2 * x2 + x3 * x3
        r2 = x0 * x0 + b2
        two_x0 = 2.0 * x0
        z_prev, z_cur = 0.0, 1.0
        pa, pb = 1.0, 0.0
        re = [0.0] * 4
        im = [0.0] * 4
        for n, m in enumerate(self._terms):
            if n:
                z_prev, z_cur = z_cur, two_x0 * z_cur - r2 * z_prev
                pa, pb = x0 * pa - b2 * pb + z_cur, pa + x0 * pb
            for c, mc in m:
                re[c] += pa * mc
                im[c] += pb * mc
        return (re[0] + (-x1 * im[1] - x2 * im[2] - x3 * im[3]),
                re[1] + (x1 * im[0] + x2 * im[3] - x3 * im[2]),
                re[2] + (-x1 * im[3] + x2 * im[0] + x3 * im[1]),
                re[3] + (x1 * im[2] - x2 * im[1] + x3 * im[0]))

    def __call__(self, x) -> Quaternion:
        """Evaluate Sum_n P_n(x) m_n at one point, by the kernel of
        :meth:`eval_components` on floats (the same values, bit for bit)."""
        return Quaternion(*self._sums(*as_quaternion(x).as_list()))

    def __repr__(self):
        return f"MonogenicSeries({[str(c) for c in self.coeffs]!r})"


def fueter_laplacian(f: PowerSeries) -> MonogenicSeries:
    """Delta f for a power series: Sum x^n a_n -> Sum P_n (-4 a_{n+2}).

    Affine functions are annihilated; the result is axially monogenic.
    """
    top = f.degree_bound
    if top < 2:
        return MonogenicSeries([ZERO])
    return MonogenicSeries([-4.0 * f.coeffs[n + 2] for n in range(top - 1)])


def inv_laplacian(g: MonogenicSeries) -> PowerSeries:
    """The slice-regular primitive: Sum P_n m_n -> Sum x^{n+2} (-m_n/4).

    A right inverse of :func:`fueter_laplacian`; the composition the
    other way recovers f minus its affine part.
    """
    coeffs = [ZERO, ZERO] + [-0.25 * m for m in g.coeffs]
    return PowerSeries(coeffs, exact=True)


def apply_L(lam, g: MonogenicSeries) -> MonogenicSeries:
    """L_lambda g = L g - g lambda, where L(P_n) = (n+2) P_{n-1}.

    In coefficients b_k = (k+3) m_{k+1} - m_k lambda.  Intertwining:
    apply_L(lam, fueter_laplacian(f)) = fueter_laplacian(apply_D(lam, f)).
    """
    lam = as_quaternion(lam)
    top = g.degree_bound
    out = [float(k + 3) * g.coeff(k + 1) - g.coeffs[k] * lam
           for k in range(top + 1)]
    return MonogenicSeries(out)


def delta_exp(lambdas, n_trunc: int = 40) -> MonogenicSeries:
    """Delta-exponential: the Laplacian image of gen_exp(lambdas).

    Solves L_{lambda_1} ... L_{lambda_m} g = 0 in the P-basis.
    """
    from .eigensolve import gen_exp
    return fueter_laplacian(gen_exp(lambdas, n_trunc))


def laplacian_pointwise(f, x, h: float = 1e-5) -> Quaternion:
    """Delta f at x from the slice decomposition (x not real).

    Uses Delta f = -2 (Im x / |Im x|^2) (f'_s - df/dx) with
    f'_s = F_2 / beta.  Accepts a PowerSeries (exact df/dx) or a
    SliceExpr (df/dx by central difference with step h).
    """
    x = as_quaternion(x)
    sp = decompose(x)
    if sp.real:
        raise DomainError("the pointwise Laplacian formula needs Im x != 0")
    if isinstance(f, PowerSeries):
        _, f2 = f.stem(sp.alpha, sp.beta)
        dfdx = slice_derivative(f)(x)
    else:
        _, f2 = f.stems(sp.alpha, sp.beta, sp.j)
        dfdx = slice_derivative_pointwise(f, x, h=h)
    sph = f2 / sp.beta
    return (-2.0 / sp.beta) * (sp.j * (sph - dfdx))


def _partial_poly(f: PowerSeries, x: Quaternion, unit: Quaternion) -> Quaternion:
    # d/dt f(x + t*unit) at t=0, from d(x^n) = Sum_t x^t unit x^{n-1-t}
    top = f.degree_bound
    xp = _powers(x, top)
    acc = ZERO
    for n in range(1, top + 1):
        a = f.coeffs[n]
        if a.is_zero():
            continue
        d = ZERO
        for t in range(n):
            d = d + xp[t] * unit * xp[n - 1 - t]
        acc = acc + d * a
    return acc


def laplacian_via_partials(f: PowerSeries, x) -> Quaternion:
    """Delta f at x via exact first-order partials of the monomials.

    Delta f = (Im x / |Im x|^2) (3 d0 f + i d1 f + j d2 f + k d3 f),
    with each partial computed symbolically from d(x^n)/d x_i =
    Sum_t x^t e_i x^{n-1-t}.  Independent of :func:`laplacian_pointwise`,
    hence usable as a cross-check.  Requires Im x != 0.
    """
    x = as_quaternion(x)
    im = x.imag()
    b2 = im.norm2()
    if b2 == 0.0:
        raise DomainError("the partials formula for Delta needs Im x != 0")
    parts = [_partial_poly(f, x, u) for u in _UNITS]
    combo = 3.0 * parts[0] + I * parts[1] + J * parts[2] + K * parts[3]
    return (im / b2) * combo


def save_monogenic(path, g: MonogenicSeries) -> None:
    """Write {"basis": "P", "coeffs": [[w, x1, x2, x3], ...]}."""
    dump_json({"basis": "P", "coeffs": [c.as_list() for c in g.coeffs]}, path)


def load_monogenic(path) -> MonogenicSeries:
    data = load_json(path)
    if not isinstance(data, dict) or data.get("basis") != "P":
        raise ParseError(f"{path}: expected a P-basis monogenic series")
    raw = data.get("coeffs")
    if not isinstance(raw, list):
        raise ParseError(f"{path}: missing coefficient list")
    coeffs = []
    for n, item in enumerate(raw):
        if (not isinstance(item, list) or len(item) != 4
                or not all(isinstance(v, (int, float)) for v in item)):
            raise ParseError(f"{path}: coefficient {n} is not a quadruple")
        coeffs.append(Quaternion(*item))
    return MonogenicSeries(coeffs)


# --- finite-difference verification helpers ---------------------------------

def fd_partial(f_eval, x, axis: int, h: float = 1e-4) -> Quaternion:
    """Central difference for d f / d x_axis (axis 0..3)."""
    x = as_quaternion(x)
    step = [0.0, 0.0, 0.0, 0.0]
    step[axis] = h
    e = Quaternion(*step)
    return (f_eval(x + e) - f_eval(x - e)) / (2.0 * h)


def fd_crf(f_eval, x, h: float = 1e-4):
    """Both Cauchy-Riemann-Fueter operators by central differences.

    Returns (d_cf, dbar_cf) with
        d_cf    = (d0 f + i d1 f + j d2 f + k d3 f) / 2
        dbar_cf = (d0 f - i d1 f - j d2 f - k d3 f) / 2.
    Axially monogenic functions satisfy d_cf f = 0; slice-regular
    functions satisfy d_cf f = -f'_s off the real axis.
    """
    parts = [fd_partial(f_eval, x, a, h) for a in range(4)]
    half = 0.5
    d_cf = half * (parts[0] + I * parts[1] + J * parts[2] + K * parts[3])
    dbar_cf = half * (parts[0] - I * parts[1] - J * parts[2] - K * parts[3])
    return d_cf, dbar_cf


def fd_laplacian(f_eval, x, h: float = 1e-4) -> Quaternion:
    """Four-dimensional Laplacian by the 9-point central stencil."""
    x = as_quaternion(x)
    fx = f_eval(x)
    acc = ZERO
    for axis in range(4):
        step = [0.0, 0.0, 0.0, 0.0]
        step[axis] = h
        e = Quaternion(*step)
        acc = acc + (f_eval(x + e) - 2.0 * fx + f_eval(x - e))
    return acc / (h * h)


def richardson_order(residual_fn, h: float, floor: float = 1e-12):
    """Convergence order estimate from residuals at h and h/2.

    Returns (r_h, r_half, order) with order = log2(r_h / r_half); if both
    residuals sit below ``floor`` the scheme is considered converged to
    roundoff and order is reported as inf.
    """
    r1 = float(residual_fn(h))
    r2 = float(residual_fn(h / 2.0))
    if r1 <= floor and r2 <= floor:
        return r1, r2, math.inf
    if r2 == 0.0:
        return r1, r2, math.inf
    return r1, r2, math.log2(r1 / r2)
