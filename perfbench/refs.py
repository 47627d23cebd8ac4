"""Reference computations the benchmark checks slicealg's outputs against.

Everything here is written in numpy on (..., 4) component arrays
[w, x1, x2, x3] and shares no code with slicealg, so a defect in the
library cannot hide in its own reference.  Each ``*_err`` helper returns
a relative error measured against the natural size of the quantity
(the largest reference value, or the size of the terms that cancel).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def qmul(a, b):
    """Hamilton product of component arrays, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def norms(a):
    """|q| along the last axis, scaled so that huge or tiny values neither
    overflow nor underflow when squared."""
    a = np.asarray(a, dtype=float)
    top = np.abs(a).max(axis=-1)
    safe = np.where(top > 0.0, top, 1.0)
    return top * np.sqrt(((a / safe[..., None]) ** 2).sum(axis=-1))


def rel_err(got, ref, scale=None):
    """max |got - ref| over the largest |ref| (or an explicit scale)."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return math.inf
    if not np.all(np.isfinite(got)):
        return math.nan
    if scale is None:
        scale = float(norms(ref).max()) if ref.size else 0.0
    diff = float(norms(got - ref).max()) if ref.size else 0.0
    return diff / scale if scale > 0.0 else diff


# -- series -------------------------------------------------------------------

def apply_D(lam, a):
    """D_lambda on a truncated series: (n+1) a_{n+1} - a_n lambda.

    Returns the result and, per coefficient, the size of the two terms
    that cancel, which is the scale a round-trip error is relative to.
    """
    a = np.asarray(a, dtype=float)
    n = np.arange(1, len(a), dtype=float)[:, None]
    first = n * a[1:]
    second = qmul(a[:-1], lam)
    return first - second, np.maximum(norms(first), norms(second))


def inverse_factorial(n: int) -> float:
    """1/n! correctly rounded, 0.0 once it underflows."""
    return float(Fraction(1, math.factorial(n)))


def gen_exp_ref(lams, degree: int):
    """E_Lambda coefficients e_n = (1/n!) Sum_{|K|=n-m+1} lam_1^k1 ... lam_m^km.

    The ordered complete sums obey S^(l)_j = S^(l-1)_j + S^(l)_{j-1} lam_l;
    the same recursion on norms gives the scale each coefficient's
    rounding error is relative to.  Returns (coeffs, scales).
    """
    lams = [np.asarray(l, dtype=float) for l in lams]
    m = len(lams)
    top = degree - m + 1
    sums = np.zeros((top + 1, 4))
    sizes = np.zeros(top + 1)
    sums[0, 0] = 1.0
    sizes[0] = 1.0
    for j in range(1, top + 1):
        sums[j] = qmul(sums[j - 1], lams[0])
        sizes[j] = sizes[j - 1] * norms(lams[0])
    for lam in lams[1:]:
        size = float(norms(lam))
        for j in range(1, top + 1):
            sums[j] = sums[j] + qmul(sums[j - 1], lam)
            sizes[j] = sizes[j] + sizes[j - 1] * size
    coeffs = np.zeros((degree + 1, 4))
    scales = np.zeros(degree + 1)
    for n in range(m - 1, degree + 1):
        f = inverse_factorial(n)
        coeffs[n] = sums[n - m + 1] * f
        scales[n] = sizes[n - m + 1] * f
    return coeffs, scales


def scaled_err(got, ref, scales):
    """max |got_n - ref_n| / scale_n over coefficients with a normal scale.

    Coefficients whose scale is zero or underflows (the leading zeros of
    E_Lambda, the far tail) must match to within the underflow level.
    """
    got = np.asarray(got, dtype=float)
    if got.shape != np.shape(ref):
        return math.inf
    if not np.all(np.isfinite(got)):
        return math.nan
    diff = norms(got - ref)
    live = scales > 1e-290
    if np.any(diff[~live] > 1e-290):
        return math.inf
    return float((diff[live] / scales[live]).max())


def horner(coeffs, points):
    """Sum_n x^n a_n at each point (powers on the left), by Horner's rule.

    Returns the values and the scale Sum_n |x|^n |a_n| of each point.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.asarray(points, dtype=float)
    acc = np.broadcast_to(coeffs[-1], x.shape).copy()
    r = norms(x)
    scale = np.full(len(x), norms(coeffs[-1]))
    for c in coeffs[-2::-1]:
        acc = qmul(x, acc) + c
        scale = scale * r + norms(c)
    return acc, scale


# -- axially monogenic functions ----------------------------------------------

def _slice_coords(x0, x1, x2, x3):
    """alpha, beta and the unit J (zero where beta = 0) of each point."""
    beta = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    safe = np.where(beta == 0.0, 1.0, beta)
    jv = np.stack([np.zeros_like(beta), x1, x2, x3], axis=-1) / safe[..., None]
    return np.asarray(x0, dtype=float) + 0.0 * beta, beta, jv


def laplacian_of_exp(lam: float, h1, h2, x0, x1, x2, x3):
    """Delta_4 (h . e^{lam x}) in closed form, for a slice constant h.

    h has the stems (h1, h2): the value h1 + J h2 on the half-slice of J.
    With z = alpha + i beta the product has stems
    P1 = h1 Re e^{lam z} - h2 Im e^{lam z}, P2 = h1 Im e^{lam z} + h2 Re e^{lam z},
    and for slice-regular f,  Delta_4 f = -(2/beta)(lam P2 + J (P2/beta - lam P1)).
    Uniform h (h2 = 0) is continued to beta = 0 by its limit -2 lam^2 e^{lam x0} h1.
    """
    alpha, beta, jv = _slice_coords(x0, x1, x2, x3)
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    real = beta == 0.0
    b = np.where(real, 1.0, beta)
    grow = np.exp(lam * alpha)
    e1 = (grow * np.cos(lam * b))[..., None]
    e2 = (grow * np.sin(lam * b))[..., None]
    p1 = h1 * e1 - h2 * e2
    p2 = h1 * e2 + h2 * e1
    inner = lam * p2 + qmul(jv, p2 / b[..., None] - lam * p1)
    out = (-2.0 / b)[..., None] * inner
    if real.any():
        if np.any(h2):
            raise ValueError("a two-valued slice constant is undefined on the real axis")
        out[real] = -2.0 * lam * lam * np.exp(lam * alpha[real])[:, None] * h1
    return out


def p_basis_eval(coeffs, x0, x1, x2, x3):
    """Sum_n P_n(x) m_n from the stem form of P_n (points off the real axis).

    Delta(x^{n+2}) = -4 P_n and the slice Laplacian formula give, with
    z = alpha + i beta,
    P_n = ((n+2) Im z^{n+1} + J (Im z^{n+2}/beta - (n+2) Re z^{n+1})) / (2 beta).
    """
    alpha, beta, jv = _slice_coords(x0, x1, x2, x3)
    z = alpha + 1j * beta
    zp = z.copy()                          # z^{n+1} at n = 0
    acc_a = np.zeros(beta.shape + (4,))
    acc_b = np.zeros(beta.shape + (4,))
    for n, m in enumerate(np.asarray(coeffs, dtype=float)):
        zn2 = zp * z
        a = (n + 2) * zp.imag / (2.0 * beta)
        b = (zn2.imag / beta - (n + 2) * zp.real) / (2.0 * beta)
        acc_a += a[..., None] * m
        acc_b += b[..., None] * m
        zp = zn2
    return acc_a + qmul(jv, acc_b)
