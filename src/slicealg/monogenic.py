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
and the intertwining identities; :class:`FdCheck` judges each such check.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

from .errors import DomainError, ParseError
from .fmtio import array_from_json, record_fields
from .quaternion import (Quaternion, ZERO, ONE, I, J, K, as_quaternion,
                         axial_combine, decompose, flat_points, in_blocks,
                         quaternion_from_json)
from .series import PowerSeries, slice_derivative, spherical_derivative_eval

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
    "fd_crf",
    "fd_laplacian",
    "richardson_order",
]

_UNITS = (ONE, I, J, K)


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


# An odd multiplier (a bijection of uint64) that mixes the bits of x0 into
# the sort key of _distinct_pairs.
_MIX = 0x9E3779B97F4A7C15


def _distinct_pairs(x0, b2):
    """The distinct pairs of the 1-D arrays (x0, b2), matched by their bit
    patterns: returns (x0 of the pairs, b2 of the pairs, inv), where point
    n has the pair inv[n]."""
    import numpy as np
    k0, k2 = x0.view(np.uint64), b2.view(np.uint64)
    # A 1-D sort key.  Equal pairs have equal keys, so each pair's points
    # are contiguous once sorted, unless another pair has the same key;
    # that can only split a run of equal pairs below, never merge two.
    order = np.argsort(k2 ^ (k0 * np.uint64(_MIX)))
    k0, k2 = k0.take(order), k2.take(order)
    first = np.empty(order.size, dtype=bool)
    first[:1] = True
    np.not_equal(k0[1:], k0[:-1], out=first[1:])
    first[1:] |= k2[1:] != k2[:-1]
    ids = first.astype(np.intp)
    np.cumsum(ids, out=ids)
    ids -= 1
    inv = np.empty_like(ids)
    inv[order] = ids
    return k0[first].view(float), k2[first].view(float), inv


class MonogenicSeries:
    """A finite expansion g(x) = Sum_n P_n(x) m_n in the P-basis.

    The algebra happens on the slice side: a P-series is its Laplace image
    (:func:`fueter_laplacian`), evaluated and written, never added."""

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

    @classmethod
    def from_record(cls, data, what: str) -> "MonogenicSeries":
        """The series of a :meth:`to_record` object; ``what`` names the
        data in a :class:`ParseError`."""
        keys = ("basis", "coeffs")
        basis, coeffs = record_fields(data, {key: (key, lambda v: v) for key in keys},
                                      what, required=keys).values()
        if basis != "P":
            raise ParseError(f"{what}: expected a P-basis monogenic series")
        return cls(array_from_json(coeffs, f"{what} coeffs", quaternion_from_json))

    def to_record(self) -> dict:
        """The JSON form {"basis": "P", "coeffs": [[w, x1, x2, x3], ...]}."""
        return {"basis": "P", "coeffs": [c.as_list() for c in self.coeffs]}

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Quaternion:
        return self.coeffs[n] if n <= self.degree_bound else ZERO

    def __eq__(self, other):
        if not isinstance(other, MonogenicSeries):
            return NotImplemented
        top = max(self.degree_bound, other.degree_bound)
        return all(self.coeff(n) == other.coeff(n) for n in range(top + 1))

    def eval_components(self, x0, x1, x2, x3):
        """Sum_n P_n(x) m_n at the points (x0, x1, x2, x3); an (..., 4) array.

        On the slice of x, P_n(x) is the complex value P_n(z) at
        z = x0 + i beta (beta = |Im x|), and the O(n) recurrence
        P_0 = Z_0 = 1, Z_n = z Z_{n-1} + zbar^n, P_n = z P_{n-1} + Z_n
        builds it.  Z_n is real, so it obeys Z_n = 2 x0 Z_{n-1} - |x|^2
        Z_{n-2}; P_n(z) is carried as A_n + i beta B_n, which gives
        P_n(x) = A_n + Im(x) B_n.  Only beta^2 enters: nothing divides by
        beta and real points need no special case.

        This is the axial form f(x) = A(x0, beta) + omega B(x0, beta) with
        omega = Im x / beta: the recurrence and the sums Sum A_n m_n,
        Sum B_n m_n (the radial step) depend on (x0, beta^2) alone, so
        they run once per distinct pair of the call, into an (8, pairs)
        array; only re + Im(x) im (the angular step) runs per point, on
        rows gathered from it.  :func:`quaternion.in_blocks` runs both
        passes in blocks.  Pairs are matched by their bit patterns, so
        -0.0 never merges with +0.0, and both steps are elementwise: each
        value has the bits of :meth:`__call__` at that point.
        """
        import numpy as np
        (x0, x1, x2, x3), shape = flat_points(x0, x1, x2, x3)
        u0, ub2, inv = _distinct_pairs(x0, x1 * x1 + x2 * x2 + x3 * x3)
        sums = in_blocks(self._sums, (u0, ub2), np.empty((8, u0.size)).T).T
        return in_blocks(lambda i, *im: axial_combine(sums.take(i, axis=1), *im),
                         (inv, x1, x2, x3), np.empty(shape))

    def _sums(self, x0, b2):
        # The radial kernel, on floats (one point) or on 1-D arrays (the
        # distinct pairs of a call): the components of Sum A_n m_n, then of
        # Sum B_n m_n, at (x0, b2 = beta^2).  Zero components of m_n are
        # skipped; the arithmetic is otherwise that of the docstring of
        # eval_components, operation for operation.
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
        return re + im

    def __call__(self, x) -> Quaternion:
        """Evaluate Sum_n P_n(x) m_n at one point, by the two steps of
        :meth:`eval_components` on floats (the same values, bit for bit)."""
        x0, x1, x2, x3 = as_quaternion(x).as_list()
        return Quaternion(*axial_combine(
            self._sums(x0, x1 * x1 + x2 * x2 + x3 * x3), x1, x2, x3))

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


def laplacian_pointwise(f, x) -> Quaternion:
    """Delta f at x from the slice decomposition (x not real).

    Uses Delta f = -2 (Im x / |Im x|^2) (f'_s - df/dx).  Accepts a
    PowerSeries (f'_s by :func:`series.spherical_derivative_eval`) or a
    SliceExpr (f'_s = F_2 / beta from its stems); df/dx is exact in both.
    """
    x = as_quaternion(x)
    sp = decompose(x)
    if sp.j is None:
        raise DomainError("the pointwise Laplacian formula needs Im x != 0")
    if isinstance(f, PowerSeries):
        sph = spherical_derivative_eval(f, x)
        dfdx = slice_derivative(f)(x)
    else:
        _, f2 = f.stems(sp.alpha, sp.beta)
        sph = f2 / sp.beta
        dfdx = f.derivative()(x)
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


# --- finite-difference verification helpers ---------------------------------

def _fd_partial(f_eval, x, axis: int, h: float) -> Quaternion:
    """Central difference for d f / d x_axis (axis 0..3)."""
    x = as_quaternion(x)
    e = _UNITS[axis] * h
    return (f_eval(x + e) - f_eval(x - e)) / (2.0 * h)


def fd_crf(f_eval, x, h: float = 1e-4):
    """Both Cauchy-Riemann-Fueter operators by central differences.

    Returns (d_cf, dbar_cf) with
        d_cf    = (d0 f + i d1 f + j d2 f + k d3 f) / 2
        dbar_cf = (d0 f - i d1 f - j d2 f - k d3 f) / 2.
    Axially monogenic functions satisfy d_cf f = 0; slice-regular
    functions satisfy d_cf f = -f'_s off the real axis.
    """
    parts = [_fd_partial(f_eval, x, a, h) for a in range(4)]
    half = 0.5
    d_cf = half * (parts[0] + I * parts[1] + J * parts[2] + K * parts[3])
    dbar_cf = half * (parts[0] - I * parts[1] - J * parts[2] - K * parts[3])
    return d_cf, dbar_cf


def fd_laplacian(f_eval, x, h: float = 1e-4) -> Quaternion:
    """Four-dimensional Laplacian by the 9-point central stencil."""
    x = as_quaternion(x)
    fx = f_eval(x)
    acc = ZERO
    for unit in _UNITS:
        e = unit * h
        acc = acc + (f_eval(x + e) - 2.0 * fx + f_eval(x - e))
    return acc / (h * h)


# The rule of every residual checked at steps h and h/2 (relative to max|f|).
# FD error alone puts raw residuals of correct runs at 0.128 (Delta_3,
# helmholtz lambda = 8) and 0.024 (CRF, klein-gordon lambda = 60), so a check
# is judged by its extrapolation, free of the h^2 term, and by its order.
ROUNDOFF = 1e-9                 # both residuals at or below: no order
ORDER_TOLERANCE = 0.1           # on |richardson_order - 2|
MAX_EXTRAPOLATED_RESIDUAL = 1e-3
MIN_CONTROL_RATIO = 100.0       # control / extrapolated residual
CRF_STEP = 1e-3                 # a CRF probe's step h (and h/2 = 5e-4)


def richardson_order(r_h, r_half):
    """The order log2(r_h / r_half) of residuals at steps h and h/2: None
    when both sit at roundoff (at or below :data:`ROUNDOFF`), where their
    ratio says nothing, inf when r_half = 0 < r_h, and -inf when
    r_h = 0 < r_half."""
    if max(r_h, r_half) <= ROUNDOFF:
        return None
    if r_half == 0.0:
        return math.inf
    if r_h == 0.0:
        return -math.inf
    return math.log2(r_h / r_half)


class FdCheck(NamedTuple):
    """An equation checked by finite differences at steps h and h/2: its
    residuals ``at_h``, ``at_half`` and ``extrapolated``, max|(4 R(h/2) -
    R(h)) / 3| of the residual vectors R, and ``control``, the residual
    with lambda -> 2 lambda (None when there is no lambda to scale)."""

    at_h: float
    at_half: float
    extrapolated: float
    control: Optional[float] = None

    @property
    def order(self) -> Optional[float]:
        return richardson_order(self.at_h, self.at_half)

    def failures(self, name: str = "") -> Tuple[str, ...]:
        """The failed bounds of this check, one line each led by ``name``:
        the extrapolated residual, the order (None, at roundoff, passes),
        then the control; empty when the check passes."""
        lines = []
        extrap, order, control = self.extrapolated, self.order, self.control
        if not extrap <= MAX_EXTRAPOLATED_RESIDUAL:
            lines.append(f"{name}extrapolated residual {extrap:.3e} > "
                         f"{MAX_EXTRAPOLATED_RESIDUAL:g}")
        if order is not None and not abs(order - 2.0) <= ORDER_TOLERANCE:
            lines.append(f"{name or 'richardson '}order {order:.3f} "
                         f"not within {ORDER_TOLERANCE:g} of 2")
        if control is not None and not control > MIN_CONTROL_RATIO * extrap:
            lines.append(f"{name}negative control {control:.3e} <= "
                         f"{MIN_CONTROL_RATIO:g} x extrapolated residual "
                         f"{extrap:.3e}")
        return tuple(lines)
