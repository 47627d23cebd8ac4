"""Quaternion arithmetic and the slice decomposition of H.

Elements of the skew field H are written x = w + x1*i + x2*j + x3*k with
the usual rules i**2 = j**2 = k**2 = -1, ij = k, jk = i, ki = j.  Every
quaternion splits as x = alpha + J*beta where alpha = w is the real part,
beta = |Im(x)| and J = Im(x)/beta is a unit imaginary quaternion
(J**2 = -1).  The pair (alpha, beta) together with J is the *slice
decomposition*; it is the coordinate system in which slice functions are
defined and evaluated throughout this package.

Real points (beta = 0) have no canonical J.  ``decompose`` gives them
j = None instead of inventing a unit, and callers that genuinely need a
J on the real axis must supply one explicitly.
"""

from __future__ import annotations

import math
import re
import sys
from typing import NamedTuple, Optional

from .errors import ParseError, ZeroEigenvalue
from .fmtio import _json_type, array_from_json, float_from_json

__all__ = [
    "Quaternion",
    "SlicePoint",
    "ZERO",
    "ONE",
    "I",
    "J",
    "K",
    "commutes",
    "decompose",
    "as_quaternion",
    "parse_quaternion",
    "format_quaternion",
]


class Quaternion:
    """An element of H with four 64-bit float components.

    Values are immutable; all arithmetic returns new instances.  Mixed
    arithmetic with ints/floats treats the scalar as a real quaternion.

    >>> I * J == K
    True
    >>> (ONE + I) * (ONE + J)
    Quaternion(1.0, 1.0, 1.0, 1.0)
    """

    __slots__ = ("w", "x1", "x2", "x3")

    def __init__(self, w=0.0, x1=0.0, x2=0.0, x3=0.0):
        object.__setattr__(self, "w", float(w))
        object.__setattr__(self, "x1", float(x1))
        object.__setattr__(self, "x2", float(x2))
        object.__setattr__(self, "x3", float(x3))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    def as_list(self):
        return [self.w, self.x1, self.x2, self.x3]

    # -- basic algebra -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _quat(self.w + other.w, self.x1 + other.x1,
                     self.x2 + other.x2, self.x3 + other.x3)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _quat(self.w - other.w, self.x1 - other.x1,
                     self.x2 - other.x2, self.x3 - other.x3)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _quat(-self.w, -self.x1, -self.x2, -self.x3)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            return _quat(self.w * s, self.x1 * s, self.x2 * s, self.x3 * s)
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, b = self, other
        return _quat(
            a.w * b.w - a.x1 * b.x1 - a.x2 * b.x2 - a.x3 * b.x3,
            a.w * b.x1 + a.x1 * b.w + a.x2 * b.x3 - a.x3 * b.x2,
            a.w * b.x2 - a.x1 * b.x3 + a.x2 * b.w + a.x3 * b.x1,
            a.w * b.x3 + a.x1 * b.x2 - a.x2 * b.x1 + a.x3 * b.w,
        )

    __rmul__ = __mul__      # a real scalar commutes with every quaternion

    def __truediv__(self, other):
        # Division is only defined for real divisors; quaternion division
        # is ambiguous (left vs right), use q * p.inverse() explicitly.
        if isinstance(other, (int, float)):
            s = float(other)
            return _quat(self.w / s, self.x1 / s, self.x2 / s, self.x3 / s)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x1, -self.x2, -self.x3)

    def norm2(self) -> float:
        """Squared norm |q|^2 = q * conj(q)."""
        return self.w * self.w + self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    __abs__ = norm

    def inverse(self) -> "Quaternion":
        # conj(q) / |q|^2 is accurate only while |q|^2 is a normal float
        n2 = self.norm2()
        if not sys.float_info.min <= n2 < math.inf:
            raise ZeroDivisionError(
                f"{self} has no accurate inverse: |q|^2 = {n2!r} is "
                + ("not finite" if n2 > 1.0 else "not a normal float"))
        return Quaternion(self.w / n2, -self.x1 / n2, -self.x2 / n2, -self.x3 / n2)

    def imag(self) -> "Quaternion":
        return Quaternion(0.0, self.x1, self.x2, self.x3)

    def imag_norm(self) -> float:
        """beta = |Im(q)|; exactly 0.0 iff the point is real."""
        return math.hypot(self.x1, self.x2, self.x3)

    def is_real(self) -> bool:
        return self.x1 == 0.0 and self.x2 == 0.0 and self.x3 == 0.0

    def is_zero(self) -> bool:
        return self.w == 0.0 and self.is_real()

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.w == other.w and self.x1 == other.x1
                and self.x2 == other.x2 and self.x3 == other.x3)

    def __hash__(self):
        return hash((self.w, self.x1, self.x2, self.x3))

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x1!r}, {self.x2!r}, {self.x3!r})"

    def __str__(self):
        return format_quaternion(self)


# The arithmetic above builds its results by setting the four slots
# directly, which skips __init__ and its float() calls: every value it
# passes is already a Python float, as scalar operands go through float()
# first (an np.float64 would otherwise leak into the components).
_new = object.__new__
_set_w, _set_x1, _set_x2, _set_x3 = (Quaternion.__dict__[name].__set__
                                     for name in Quaternion.__slots__)


def _quat(w, x1, x2, x3):
    q = _new(Quaternion)
    _set_w(q, w)
    _set_x1(q, x1)
    _set_x2(q, x2)
    _set_x3(q, x3)
    return q


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return _quat(float(value), 0.0, 0.0, 0.0)
    return NotImplemented


def quaternion_from_json(item, what: str) -> "Quaternion":
    """A JSON quadruple [w, x1, x2, x3] of finite numbers as a Quaternion;
    anything else raises :class:`ParseError` naming ``what`` or its entry."""
    values = array_from_json(item, what, float_from_json, 4)
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{what} is not a quadruple [w, x1, x2, x3] of "
                         f"finite numbers")
    return Quaternion(*values)


def as_quaternion(value) -> "Quaternion":
    """Coerce a Quaternion, int or float to Quaternion (raising TypeError)."""
    q = _coerce(value)
    if q is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a quaternion")
    return q


def _require_unit_imag(u, what="unit") -> "Quaternion":
    """``u`` as a Quaternion, refused with :class:`ParseError` naming
    ``what`` unless it is a unit imaginary quaternion (to 1e-12)."""
    u = as_quaternion(u)
    if abs(u.w) > 1e-12 or abs(u.norm() - 1.0) > 1e-12:
        raise ParseError(f"{what} must be a unit imaginary quaternion, got "
                         f"{format_quaternion(u)}")
    return u


def _require_invertible(q, what="lambda") -> "Quaternion":
    """``q`` as a Quaternion, refused with :class:`ZeroEigenvalue` naming
    ``what`` where :meth:`Quaternion.inverse` refuses it."""
    q = as_quaternion(q)
    try:
        q.inverse()
    except ZeroDivisionError as exc:
        raise ZeroEigenvalue(f"{what} must be nonzero" if q.is_zero()
                             else f"{what} = {exc}") from None
    return q


ZERO = Quaternion(0.0)
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


# Points per block of an array evaluation: a block's buffers stay in cache.
BLOCK = 8192


def flat_points(x0, x1, x2, x3):
    """The coordinates broadcast to one float shape, as four 1-D arrays,
    and the shape (..., 4) of their values."""
    import numpy as np
    xs = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x0, x1, x2, x3)))
    return [v.reshape(-1) for v in xs], xs[0].shape + (4,)


def in_blocks(kernel, columns, out):
    """``out`` (C-ordered, or the transpose of a (width, n) array) filled by
    ``kernel`` run on slices of :data:`BLOCK` entries of the 1-D arrays
    ``columns``: output c of the kernel goes to out[..., c]."""
    rows = out.reshape(-1, out.shape[-1])       # a view of out, in either layout
    for start in range(0, len(rows), BLOCK):
        block = slice(start, start + BLOCK)
        for c, v in enumerate(kernel(*(x[block] for x in columns))):
            rows[block, c] = v
    return out


def axial_combine(sums, x1, x2, x3):
    """The four components of re + Im(x) im, where ``sums`` holds the
    components of re, then of im, and Im(x) = x1 i + x2 j + x3 k."""
    re, im = sums[:4], sums[4:8]
    return (re[0] + (-x1 * im[1] - x2 * im[2] - x3 * im[3]),
            re[1] + (x1 * im[0] + x2 * im[3] - x3 * im[2]),
            re[2] + (-x1 * im[3] + x2 * im[0] + x3 * im[1]),
            re[3] + (x1 * im[2] - x2 * im[1] + x3 * im[0]))


def qmul(a, b):
    """Hamilton product of (..., 4) component arrays [w, x1, x2, x3],
    broadcasting over the leading axes (the array form of ``a * b``)."""
    import numpy as np
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def commutes(a: Quaternion, b: Quaternion) -> bool:
    """True iff |ab - ba| <= 1e-12 * (|a||b| + 1).

    Two quaternions commute exactly when they lie in a common slice
    C_J (or one of them is real).
    """
    a = _coerce(a)
    b = _coerce(b)
    return abs(a * b - b * a) <= 1e-12 * (abs(a) * abs(b) + 1.0)


class SlicePoint(NamedTuple):
    """Slice coordinates of a point x = alpha + J*beta.

    ``j`` is None exactly when beta = 0: a real point has no J.
    """

    alpha: float
    beta: float
    j: Optional[Quaternion]

    def to_quaternion(self) -> Quaternion:
        if self.beta == 0.0:
            return Quaternion(self.alpha)
        if self.j is None:
            raise ValueError("SlicePoint with beta > 0 has no unit J")
        return Quaternion(self.alpha) + self.j * self.beta


def decompose(x: Quaternion) -> SlicePoint:
    """Slice decomposition x = alpha + J*beta.

    For non-real x returns (alpha, beta, J) with beta > 0 and
    J = Im(x)/beta.  For real x no J exists, and ``j`` is None.

    >>> decompose(Quaternion(1, 2))
    SlicePoint(alpha=1.0, beta=2.0, j=Quaternion(0.0, 1.0, 0.0, 0.0))
    >>> decompose(Quaternion(3)).j is None
    True
    """
    x = _coerce(x)
    beta = x.imag_norm()
    if beta == 0.0:
        return SlicePoint(x.w, 0.0, None)
    j = Quaternion(0.0, x.x1 / beta, x.x2 / beta, x.x3 / beta)
    return SlicePoint(x.w, beta, j)


# -- textual literals ---------------------------------------------------------

_TERM_RE = re.compile(
    r"""\s*([+-]?)\s*
        (?:
            ((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([ijk]?)
          | ([ijk])
        )\s*""",
    re.VERBOSE,
)

_UNIT_INDEX = {"": 0, "i": 1, "j": 2, "k": 3}


def parse_quaternion(text: str, what: Optional[str] = None) -> Quaternion:
    """Parse a literal like ``1+2i-0.5j+k`` (any subset of terms); a
    refusal names ``what``, the literal's key or entry, when given.

    >>> parse_quaternion("1+2i")
    Quaternion(1.0, 2.0, 0.0, 0.0)
    >>> parse_quaternion("-k")
    Quaternion(0.0, 0.0, 0.0, -1.0)
    """
    named = "" if what is None else f"{what}: "
    if not isinstance(text, str):
        raise ParseError(f"{named}quaternion literal must be a string, got "
                         f"{_json_type(text)}")
    if not text.strip():
        raise ParseError(f"{named}empty quaternion literal: {text!r}")
    comps = [0.0, 0.0, 0.0, 0.0]
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"{named}bad quaternion literal {text!r} at position {pos}")
        sign, number, unit, bare = m.groups()
        if pos > 0 and not sign:
            raise ParseError(f"{named}missing +/- between terms in {text!r} at "
                             f"position {pos}")
        value = 1.0 if number is None else float(number)
        if sign == "-":
            value = -value
        comps[_UNIT_INDEX[bare if bare is not None else unit]] += value
        pos = m.end()
    if not all(map(math.isfinite, comps)):
        raise ParseError(f"{named}quaternion literal {text!r} is not finite")
    return Quaternion(*comps)


def format_quaternion(q: Quaternion) -> str:
    """Canonical literal for q, inverse of :func:`parse_quaternion`."""
    q = _coerce(q)
    parts = []
    for value, unit in zip(q.as_list(), ("", "i", "j", "k")):
        if value == 0.0:
            continue
        mag = abs(value)
        body = unit if (mag == 1.0 and unit) else f"{mag!r}{unit}"
        if not parts:
            parts.append(body if value > 0 else "-" + body)
        else:
            parts.append(("+" if value > 0 else "-") + body)
    return "".join(parts) if parts else "0"
