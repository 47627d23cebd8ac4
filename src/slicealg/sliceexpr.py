"""Slice functions beyond power series, as pairs of power series.

A slice function is determined by its stems: f(alpha + J beta) =
F1(alpha, beta) + J F2(alpha, beta), the same (F1, F2) for every unit
imaginary J.  A :class:`SliceExpr` is a pair (u, w) of power series with
f(x) = u(x) + J w(x), J = Im x / |Im x|; its stems are (U1 - W2, U2 + W1),
with U1 + i U2 = Sum z^n u_n at z = alpha + i beta and W alike.  J is a
slice function with stems (0, 1) that commutes under the slice product, so
the operations are exact algebra on pairs: the product ``*`` is
(u1 u2 - w1 w2, u1 w2 + w1 u2), the slice derivative (u', w'), a power
series f the pair (f, 0), and mu_I and the two-value slice constants are
pairs of degree 0.

A pair with w = 0 lives on a *slice domain*, all of H; otherwise on the
*product domain* H \\ R (as mu_I does), where evaluating it at a real
point raises :class:`DomainError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import DegenerateUnits, DomainError, ParseError, StemSymmetryError
from .fmtio import record_fields
from .quaternion import (Quaternion, ZERO, _require_unit_imag, as_quaternion,
                         decompose, format_quaternion, parse_quaternion)
from .series import PowerSeries, exp_series, exp_truncation, slice_derivative

__all__ = [
    "SliceExpr",
    "SliceConstant",
    "lift",
    "mu",
    "slice_constant_from_two_values",
    "recover_constants",
    "verify_stem_symmetry",
]


_OFF_AXIS = "a product-domain slice expression is undefined on the real axis"


def _stems_of(f: PowerSeries, alpha: float, beta: float):
    # (F1, F2) with F1 + i F2 = Sum z^n a_n at z = alpha + i beta: a complex
    # Horner sweep per component of the coefficients
    z = complex(alpha, beta)
    acc = [0j] * 4
    for a in reversed(f.coeffs):
        acc = [s * z + c for s, c in zip(acc, a.as_list())]
    return Quaternion(*(s.real for s in acc)), Quaternion(*(s.imag for s in acc))


@dataclass(frozen=True)
class SliceExpr:
    """The slice function f(x) = u(x) + J w(x), J = Im x / |Im x|.

    ``domain`` is ``"slice"`` when w = 0, so that f is the series u on all
    of H, and ``"product"`` otherwise: f is then undefined on the real axis.
    """

    u: PowerSeries
    w: PowerSeries

    @property
    def domain(self) -> str:
        return "slice" if self.w.is_zero() else "product"

    def stems(self, alpha: float, beta: float):
        """Stem components (F1, F2) at z = alpha + i*beta (beta >= 0); they
        do not depend on the unit J."""
        if beta < 0.0:
            raise ValueError("beta must be non-negative")
        if beta == 0.0 and self.domain == "product":
            raise DomainError(_OFF_AXIS)
        u1, u2 = _stems_of(self.u, alpha, beta)
        w1, w2 = _stems_of(self.w, alpha, beta)
        return u1 - w2, u2 + w1

    def __call__(self, x) -> Quaternion:
        x = as_quaternion(x)
        if self.domain == "slice":
            return self.u(x)
        j = decompose(x).j
        if j is None:
            raise DomainError(_OFF_AXIS)
        return self.u(x) + j * self.w(x)

    def __mul__(self, other: "SliceExpr") -> "SliceExpr":
        """The slice product, (u1 u2 - w1 w2, u1 w2 + w1 u2)."""
        if not isinstance(other, SliceExpr):
            return NotImplemented
        (u1, w1), (u2, w2) = (self.u, self.w), (other.u, other.w)
        return SliceExpr(u1 * u2 - w1 * w2, u1 * w2 + w1 * u2)

    def derivative(self) -> "SliceExpr":
        """The slice derivative, (u', w')."""
        return SliceExpr(slice_derivative(self.u), slice_derivative(self.w))


def lift(f: PowerSeries) -> SliceExpr:
    """The power series f as a SliceExpr: the pair (f, 0)."""
    return SliceExpr(f, PowerSeries((ZERO,)))


def _constant(g1, g2) -> SliceExpr:
    """The SliceExpr whose stems are (g1, g2) everywhere: a pair of degree 0."""
    return SliceExpr(PowerSeries((g1,)), PowerSeries((g2,)))


def mu(unit_i) -> SliceExpr:
    """The slice constant mu_I(x) = 1/2 (1 + Im(x)/|Im(x)| * I) on H \\ R.

    Constant stems F1 = 1/2, F2 = I/2; identically 0 on the half slice
    C_I+ and identically 1 on C_I-.
    """
    unit_i = _require_unit_imag(unit_i, "I")
    return _constant(Quaternion(0.5), unit_i * 0.5)


def slice_constant_from_two_values(unit_j, unit_k, a1, a2) -> SliceExpr:
    """The slice constant with value a1 on C_J+ and a2 on C_K+.

    Built from the representation formula
    g(x) = 2 mu_J(x) J (J-K)^{-1} a2 - 2 mu_K(x) K (J-K)^{-1} a1,
    which reduces to constant stems: G1 = J(J-K)^{-1} a2 - K(J-K)^{-1} a1
    and G2 = (J-K)^{-1}(a1 - a2).
    """
    unit_j = _require_unit_imag(unit_j, "J")
    unit_k = _require_unit_imag(unit_k, "K")
    a1 = as_quaternion(a1)
    a2 = as_quaternion(a2)
    diff = unit_j - unit_k
    if diff.norm() <= 1e-12:
        raise DegenerateUnits(
            f"units J = {format_quaternion(unit_j)} and K = "
            f"{format_quaternion(unit_k)} are degenerate (|J - K| <= 1e-12)")
    inv = diff.inverse()
    g1 = unit_j * (inv * a2) - unit_k * (inv * a1)
    g2 = inv * (a1 - a2)
    return _constant(g1, g2)


@dataclass(frozen=True)
class SliceConstant:
    """Normal form of a slice constant: g = mu_I a2 + mu_{-I} a1.

    ``i`` is None for a uniform (single-quaternion) constant, which is the
    degenerate case defined on all of H.  Otherwise g takes the value a1 on
    the half slice C_I+ and a2 on C_I-; a1 == a2 makes it uniform, whatever i.
    """

    i: Optional[Quaternion]
    a1: Quaternion
    a2: Quaternion

    def __post_init__(self):
        a1, a2 = as_quaternion(self.a1), as_quaternion(self.a2)
        if a1 != a2 and self.i is None:
            raise ParseError("a slice constant with two values needs a unit I")
        i = None if a1 == a2 else _require_unit_imag(self.i, "I")
        for name, value in (("i", i), ("a1", a1), ("a2", a2)):
            object.__setattr__(self, name, value)

    @classmethod
    def uniform(cls, c) -> "SliceConstant":
        return cls(None, c, c)

    @property
    def is_uniform(self) -> bool:
        return self.i is None

    def stems(self) -> Tuple[Quaternion, Quaternion]:
        """Constant stem pair (G1, G2)."""
        if self.is_uniform:
            return self.a1, ZERO
        return 0.5 * (self.a1 + self.a2), self.i * (0.5 * (self.a2 - self.a1))

    def expr(self) -> SliceExpr:
        """g as a pair of degree 0."""
        return _constant(*self.stems())

    @classmethod
    def from_record(cls, record: dict, what: str) -> "SliceConstant":
        """The constant of a record {"I": ..., "a1": ..., "a2": ...} of
        literals; ``what`` names the record in a :class:`ParseError`."""
        keys = ("I", "a1", "a2")
        return cls(*record_fields(record, {
            key: (key, lambda v, key=key: parse_quaternion(v, f"{what} {key}"))
            for key in keys}, what, required=keys).values())


def recover_constants(f: SliceExpr, lam, unit_i, n_trunc: Optional[int] = None):
    """Recover (a1, a2) of the slice constant g from f = g . exp_lambda.

    A kernel element of D_lambda on a product domain is determined by its
    values at two points; with v1 = f(I), v2 = f(-I):
    a1 = v1 * exp_{-lambda}(v1^{-1} I v1)   (0 when v1 = 0),
    a2 = v2 * exp_{ lambda}(v2^{-1} I v2)   (0 when v2 = 0).
    The exponentials are evaluated at unit points, truncated at degree
    ``n_trunc``; by default the larger of 40 and the degree whose tail
    bound at radius 1 is below 1e-25 (:func:`series.exp_truncation`).
    """
    lam = as_quaternion(lam)
    unit_i = _require_unit_imag(unit_i, "I")
    if n_trunc is None:
        n_trunc = max(40, exp_truncation(1.0, lam.norm()))
    v1 = f(unit_i)
    v2 = f(-unit_i)
    if v1.is_zero():
        a1 = ZERO
    else:
        a1 = v1 * exp_series(-lam, n_trunc)(v1.inverse() * unit_i * v1)
    if v2.is_zero():
        a2 = ZERO
    else:
        a2 = v2 * exp_series(lam, n_trunc)(v2.inverse() * unit_i * v2)
    return a1, a2


_PROBE_UNITS = (Quaternion(0, 1), Quaternion(0, 0, 1), Quaternion(0, 0, 0, 1))


def _independent_unit(j: Quaternion) -> Quaternion:
    # unit imaginary orthogonal to j: take the basis unit least aligned
    # with j and project out the j component
    comps = [abs(j.x1), abs(j.x2), abs(j.x3)]
    e = _PROBE_UNITS[comps.index(min(comps))]
    dot = e.x1 * j.x1 + e.x2 * j.x2 + e.x3 * j.x3
    k = e - j * dot
    return k / k.norm()


def verify_stem_symmetry(f, samples) -> float:
    """Check that f's values are the slice function of its stems.

    ``samples`` is a sequence of non-real quaternions alpha + J beta.  At
    each, the value f(alpha + K beta) must equal F1 + K F2, with
    (F1, F2) = ``f.stems(alpha, beta)``, for K = J, -J and a unit
    orthogonal to J: the two evaluation routes of f, by values and by
    stems, checked against each other on three points of the sphere.
    Returns the worst deviation relative to |F1| + |F2| + 1, raising
    :class:`StemSymmetryError` beyond 1e-8.
    """
    worst = 0.0
    for x in samples:
        sp = decompose(as_quaternion(x))
        if sp.j is None:
            raise ValueError("stem symmetry is probed at non-real points")
        f1, f2 = f.stems(sp.alpha, sp.beta)
        scale = f1.norm() + f2.norm() + 1.0
        for unit in (sp.j, -sp.j, _independent_unit(sp.j)):
            got = f(Quaternion(sp.alpha) + unit * sp.beta)
            dev = (got - (f1 + unit * f2)).norm() / scale
            worst = max(worst, dev)
            if dev > 1e-8:
                raise StemSymmetryError(
                    f"values at alpha={sp.alpha!r}, beta={sp.beta!r} are not "
                    f"F1 + K F2 of the stems (deviation {dev:.3e} > "
                    "1.0e-08); the evaluator is not a slice function")
    return worst
