"""Truncated power series Sum_n x^n a_n with right quaternion coefficients.

These series represent slice-regular entire functions: the powers of the
variable stand on the left, the coefficients on the right, and the slice
product is plain coefficient convolution.  A :class:`PowerSeries` is either

* ``exact`` -- a polynomial: every coefficient beyond the stored ones is
  known to be zero, so products may grow the degree; or
* a truncation of an infinite series: coefficients beyond ``degree_bound``
  are unknown, so operations truncate results at the smallest bound that
  is still fully determined by the stored data.

The distinction only affects bookkeeping of result lengths; the stored
coefficients are always the mathematically exact ones (up to rounding).

Evaluation has one kernel, :meth:`PowerSeries._horner`, a Horner sweep on
the four components that runs on Python floats (one point,
``PowerSeries.__call__``) and, by the block driver of every point
evaluator, :func:`quaternion.in_blocks`, on 1-D blocks of points
(:meth:`PowerSeries.eval_components`), with the bits of the Quaternion
loop.  :func:`slice_product` reads each quaternion as a complex pair and
convolves the pair arrays of the two coefficient lists (four complex
``np.convolve`` calls), so neither path builds a Quaternion per term.
"""

from __future__ import annotations

import math
import sys

from .errors import RangeError
from .fmtio import array_from_json, load_json
from .quaternion import (Quaternion, ZERO, ONE, as_quaternion, decompose,
                         flat_points, in_blocks, quaternion_from_json)

__all__ = [
    "PowerSeries",
    "slice_product",
    "slice_conjugate",
    "normal",
    "slice_derivative",
    "spherical_derivative_eval",
    "exp_series",
    "exp_tail_bound",
    "exp_truncation",
    "load_coeffs",
]

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class PowerSeries:
    """Coefficients a_0 ... a_N of f(x) = Sum x^n a_n.

    >>> f = PowerSeries([1, Quaternion(0, 1)])    # 1 + x*i
    >>> f(Quaternion(0, 0, 1))                    # 1 + ji = 1 - k
    Quaternion(1.0, 0.0, 0.0, -1.0)
    """

    __slots__ = ("coeffs", "exact")

    def __init__(self, coeffs, exact=True):
        coeffs = tuple(as_quaternion(c) for c in coeffs)
        if not coeffs:
            coeffs = (ZERO,)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "exact", bool(exact))

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_record(cls, data, what: str) -> "PowerSeries":
        """The series of a :meth:`to_record` list, read as a truncation
        (the list carries no exactness marker); ``what`` names the data
        in a :class:`ParseError`."""
        return cls(array_from_json(data, what, quaternion_from_json), exact=False)

    def to_record(self) -> list:
        """The JSON form: a list of [w, x1, x2, x3] coefficient quadruples."""
        return [c.as_list() for c in self.coeffs]

    @classmethod
    def one(cls) -> "PowerSeries":
        return cls((ONE,))

    @classmethod
    def monomial(cls, n: int, c=ONE) -> "PowerSeries":
        """x^n * c as an exact polynomial."""
        return cls((ZERO,) * n + (as_quaternion(c),))

    # -- inspection -----------------------------------------------------------

    @property
    def degree_bound(self) -> int:
        """Index of the last stored coefficient."""
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Quaternion:
        if n < 0:
            raise IndexError("negative coefficient index")
        if n < len(self.coeffs):
            return self.coeffs[n]
        if self.exact:
            return ZERO
        raise IndexError(
            f"coefficient {n} beyond truncation bound {self.degree_bound}")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.exact == other.exact and self.coeffs == other.coeffs

    def __repr__(self):
        kind = "exact" if self.exact else "truncated"
        return f"PowerSeries({list(map(str, self.coeffs))!r}, {kind})"

    # -- evaluation -----------------------------------------------------------

    def __call__(self, x) -> Quaternion:
        """f(x) at one point: Horner evaluation with left powers, right
        coefficients, by the kernel of :meth:`eval_components` on floats
        (the same values, bit for bit)."""
        return Quaternion(*self._horner(*as_quaternion(x).as_list()))

    def eval_components(self, x0, x1, x2, x3):
        """f(x) = Sum x^n a_n at the points (x0, x1, x2, x3); an (..., 4) array.

        :func:`quaternion.in_blocks` runs the kernel on blocks of points,
        so its working memory stays bounded.  Each value has the bits of
        ``self(x)``; like it, an overflow gives inf or NaN components
        (numpy warns unless its error state says otherwise).
        """
        import numpy as np
        xs, shape = flat_points(x0, x1, x2, x3)
        return in_blocks(self._horner, xs, np.empty(shape))

    def _horner(self, x0, x1, x2, x3):
        # The one evaluation kernel, on floats (one point) or on 1-D arrays
        # (a block): acc <- x * acc + a_n from the top coefficient down, in
        # the operation order of Quaternion.__mul__ followed by __add__.
        top = self.coeffs[-1]
        w, i, j, k = top.w, top.x1, top.x2, top.x3
        for a in self.coeffs[-2::-1]:
            w, i, j, k = (x0 * w - x1 * i - x2 * j - x3 * k + a.w,
                          x0 * i + x1 * w + x2 * k - x3 * j + a.x1,
                          x0 * j - x1 * k + x2 * w + x3 * i + a.x2,
                          x0 * k + x1 * j - x2 * i + x3 * w + a.x3)
        return w, i, j, k

    # -- linear structure -----------------------------------------------------

    def _bounds_with(self, other: "PowerSeries"):
        if self.exact and other.exact:
            return True, max(self.degree_bound, other.degree_bound)
        return False, min(f.degree_bound for f in (self, other) if not f.exact)

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        exact, bound = self._bounds_with(other)
        coeffs = [self.coeff(n) + other.coeff(n) for n in range(bound + 1)]
        return PowerSeries(coeffs, exact=exact)

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        exact, bound = self._bounds_with(other)
        coeffs = [self.coeff(n) - other.coeff(n) for n in range(bound + 1)]
        return PowerSeries(coeffs, exact=exact)

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs], exact=self.exact)

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            return slice_product(self, other)
        try:
            c = as_quaternion(other)
        except TypeError:
            return NotImplemented
        return PowerSeries([a * c for a in self.coeffs], exact=self.exact)

    def __rmul__(self, other):
        # constant * series multiplies every coefficient on the left
        try:
            c = as_quaternion(other)
        except TypeError:
            return NotImplemented
        return PowerSeries([c * a for a in self.coeffs], exact=self.exact)


def _pair_product(p: Quaternion, q: Quaternion) -> Quaternion:
    """p q by the complex pairs of :func:`slice_product`, on Python complex."""
    z1, z2 = complex(p.w, p.x1), complex(p.x2, p.x3)
    u1, u2 = complex(q.w, q.x1), complex(q.x2, q.x3)
    c1 = z1 * u1 - z2 * u2.conjugate()
    c2 = z1 * u2 + z2 * u1.conjugate()
    return Quaternion(c1.real, c1.imag, c2.real, c2.imag)


def slice_product(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Slice (stem) product; coefficient convolution c_n = Sum a_k b_{n-k}.

    For two polynomials the full convolution is returned; if either input
    is a truncation the result is truncated at the smallest bound whose
    coefficients are fully determined.  Each quaternion is the complex
    pair z1 + z2 j (z1 = w + x1 i, z2 = x2 + x3 i), and
    (z1 + z2 j)(u1 + u2 j) = (z1 u1 - z2 conj(u2)) + (z1 u2 + z2 conj(u1)) j,
    so the product is four complex ``np.convolve`` calls; their sums run
    in another order than a loop over Quaternion products (they agree to
    rounding).  A factor with one coefficient scales the other without
    numpy, by the same complex products, so with the convolution's bits.
    """
    if f.exact and g.exact:
        bound = f.degree_bound + g.degree_bound
        exact = True
    else:
        exact, bound = f._bounds_with(g)
    a, b = f.coeffs[:bound + 1], g.coeffs[:bound + 1]
    if len(a) == 1 or len(b) == 1:
        return PowerSeries([_pair_product(p, q) for p in a for q in b], exact=exact)
    import numpy as np
    # pairs [z1, z2] as rows; the two slices hold at least bound + 2
    # coefficients together, so the full convolution reaches index bound
    (a1, a2), (b1, b2) = (np.array([c.as_list() for c in x]).view(complex).T
                          for x in (a, b))
    c = np.empty((len(a) + len(b) - 1, 2), complex)
    with np.errstate(over="ignore", invalid="ignore"):
        c[:, 0] = np.convolve(a1, b1) - np.convolve(a2, b2.conj())
        c[:, 1] = np.convolve(a1, b2) + np.convolve(a2, b1.conj())
    return PowerSeries([Quaternion(*row) for row in c[:bound + 1].view(float).tolist()],
                       exact=exact)


def slice_conjugate(f: PowerSeries) -> PowerSeries:
    """f^c, the series with conjugated coefficients."""
    return PowerSeries([c.conjugate() for c in f.coeffs], exact=f.exact)


def normal(f: PowerSeries) -> PowerSeries:
    """N(f) = f . f^c = f^c . f (real coefficients on the real axis)."""
    return slice_product(f, slice_conjugate(f))


def slice_derivative(f: PowerSeries) -> PowerSeries:
    """df/dx: coefficients n*a_n shifted down one index."""
    if len(f.coeffs) == 1:
        return PowerSeries((ZERO,), exact=f.exact)
    coeffs = [f.coeffs[n] * float(n) for n in range(1, len(f.coeffs))]
    return PowerSeries(coeffs, exact=f.exact)


def spherical_derivative_eval(f: PowerSeries, x) -> Quaternion:
    """f'_s(x) = 1/2 Im(x)^{-1} (f(x) - f(conj x)).

    On the real axis the spherical derivative extends continuously as the
    slice derivative; that extension is returned there instead of an error.
    """
    x = as_quaternion(x)
    if decompose(x).j is None:
        return slice_derivative(f)(x)
    im = x.imag()
    return 0.5 * (im.inverse() * (f(x) - f(x.conjugate())))


def exp_series(lam, n_trunc: int = 40) -> PowerSeries:
    """exp_lambda(x) = Sum x^n lambda^n / n!, truncated at degree n_trunc.

    Note exp_lambda is the slice-regular exponential; it differs from the
    pointwise e^{x*lambda} unless x and lambda commute.
    """
    lam = as_quaternion(lam)
    coeffs = [ONE]
    for n in range(n_trunc):
        coeffs.append(coeffs[-1] * lam / float(n + 1))
    return PowerSeries(coeffs, exact=False)


def _tail_t(radius: float, lam_norm: float) -> float:
    t = radius * lam_norm           # |x*lam|; refused if NaN or negative
    if not t >= 0.0:
        raise RangeError(f"the exp tail bound needs radius * |lambda| >= 0, "
                         f"got radius {radius!r}, |lambda| {lam_norm!r}")
    return t


def _log_tail(t: float, n: int) -> float:
    """log of the bound t^{N+1} e^t / (N+1)!, finite where the bound is not."""
    return (n + 1) * math.log(t) + t - math.lgamma(n + 2)


def exp_tail_bound(radius: float, lam_norm: float, n_trunc: int) -> float:
    """Bound on |exp tail| past degree N: |x*lam|^{N+1} e^{|x*lam|} / (N+1)!.

    N = -1 (no term kept) gives e^{|x*lam|}; a degree below -1 raises
    :class:`RangeError`.
    """
    if n_trunc < -1:
        raise RangeError(f"the exp tail bound needs a degree >= -1, "
                         f"got {n_trunc!r}")
    t = _tail_t(radius, lam_norm)
    try:
        return t ** (n_trunc + 1) / math.factorial(n_trunc + 1) * math.exp(t)
    except OverflowError:           # a factor leaves the float range
        log_bound = _log_tail(t, n_trunc)
        return math.exp(log_bound) if log_bound < _LOG_FLOAT_MAX else math.inf


def exp_truncation(radius: float, lam_norm: float, tol: float = 1e-25,
                   max_degree: int = 400) -> int:
    """Smallest truncation degree with exp_tail_bound below ``tol``.

    Raises :class:`RangeError` when no degree up to ``max_degree`` is
    small enough.
    """
    n = 0
    while exp_tail_bound(radius, lam_norm, n) > tol:
        if n == max_degree:
            raise RangeError(
                f"the exp tail bound at radius {radius!r} (|lambda| = "
                f"{lam_norm!r}) stays above {tol!r} up to degree {max_degree}")
        n += 1
    return n


# -- coefficient files ---------------------------------------------------------

def load_coeffs(path) -> PowerSeries:
    """Read a JSON file of :meth:`PowerSeries.to_record` quadruples, as a
    truncated series (:meth:`PowerSeries.from_record`)."""
    return PowerSeries.from_record(load_json(path), path)
