"""Evaluation layer for slice functions that are not power series.

A slice function on an axially symmetric domain is determined by its stem
components: f(alpha + J*beta) = F1(alpha, beta) + J * F2(alpha, beta), the
same (F1, F2) for every unit imaginary J on the sphere.  This module
represents such functions by on-demand stem evaluators (:class:`SliceExpr`)
and implements the pieces that have no global power series: the
slice-constant building blocks mu_I, two-value slice constants via the
representation formula, and pointwise slice products.

Domains come in two kinds.  A *slice domain* meets the real axis; a
*product domain* does not (mu_I lives on H \\ R).  Evaluating a
product-domain expression at a real point raises :class:`DomainError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .errors import DegenerateUnits, DomainError, ParseError, StemSymmetryError
from .quaternion import (Quaternion, ZERO, _require_unit_imag, as_quaternion,
                         decompose, format_quaternion, parse_quaternion)
from .series import PowerSeries, exp_series

__all__ = [
    "SliceExpr",
    "SliceConstant",
    "lift",
    "mu",
    "constant_expr",
    "slice_constant_from_two_values",
    "product_expr",
    "pointwise_slice_product",
    "recover_constants",
    "slice_derivative_pointwise",
    "verify_stem_symmetry",
]

StemFn = Callable[[float, float, Optional[Quaternion]], Tuple[Quaternion, Quaternion]]


class SliceExpr:
    """A slice function given by a stem evaluator.

    The evaluator maps (alpha, beta, J) with beta >= 0 to the stem pair
    (F1, F2); J is only a probe hint (needed by probe-based evaluators such
    as :func:`lift`) and the result must not depend on it.  ``domain`` is
    ``"slice"`` when the function extends across the real axis and
    ``"product"`` when it does not.
    """

    __slots__ = ("_stem_fn", "domain", "name")

    def __init__(self, stem_fn: StemFn, domain: str = "slice", name: str = ""):
        if domain not in ("slice", "product"):
            raise ValueError(f"unknown domain kind {domain!r}")
        self._stem_fn = stem_fn
        self.domain = domain
        self.name = name

    def stems(self, alpha: float, beta: float, j: Optional[Quaternion] = None):
        """Stem components (F1, F2) at z = alpha + i*beta (beta >= 0)."""
        if beta < 0.0:
            raise ValueError("beta must be non-negative")
        if beta == 0.0 and self.domain == "product":
            raise DomainError(
                f"{self.name or 'slice expression'} is undefined on the real axis")
        return self._stem_fn(alpha, beta, j)

    def __call__(self, x, default_j: Optional[Quaternion] = None) -> Quaternion:
        sp = decompose(as_quaternion(x), default_j)
        f1, f2 = self.stems(sp.alpha, sp.beta, sp.j)
        if sp.real:
            return f1  # F2 vanishes on the real axis
        return f1 + sp.j * f2

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<SliceExpr{label} on {self.domain} domain>"


def lift(f: PowerSeries) -> SliceExpr:
    """View a power series as a SliceExpr by probing on the given slice.

    Stems are recovered from two point values:
    F1 = 1/2 (f(alpha + J beta) + f(alpha - J beta)),
    F2 = -J * 1/2 (f(alpha + J beta) - f(alpha - J beta));
    the outcome is independent of which unit J is used to probe.
    """

    def stem_fn(alpha, beta, j):
        if beta == 0.0:
            return f(Quaternion(alpha)), ZERO
        if j is None:
            raise ValueError("probing a non-real point requires a unit J")
        fp = f(Quaternion(alpha) + j * beta)
        fm = f(Quaternion(alpha) - j * beta)
        return 0.5 * (fp + fm), -0.5 * (j * (fp - fm))

    return SliceExpr(stem_fn, domain="slice", name="lift")


def _constant_stems(g1, g2, domain: str, name: str) -> SliceExpr:
    """The SliceExpr whose stems are (g1, g2) everywhere."""
    return SliceExpr(lambda alpha, beta, j: (g1, g2), domain=domain, name=name)


def constant_expr(c) -> SliceExpr:
    """The constant function c as a SliceExpr on all of H."""
    c = as_quaternion(c)
    return _constant_stems(c, ZERO, "slice", f"const {format_quaternion(c)}")


def mu(unit_i) -> SliceExpr:
    """The slice constant mu_I(x) = 1/2 (1 + Im(x)/|Im(x)| * I) on H \\ R.

    Constant stems F1 = 1/2, F2 = I/2; identically 0 on the half slice
    C_I+ and identically 1 on C_I-.
    """
    unit_i = _require_unit_imag(unit_i, "I")
    return _constant_stems(Quaternion(0.5), unit_i * 0.5, "product",
                           f"mu_{format_quaternion(unit_i)}")


def slice_constant_from_two_values(unit_j, unit_k, a1, a2,
                                   tol: float = 1e-12) -> SliceExpr:
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
    if diff.norm() <= tol:
        raise DegenerateUnits(
            f"units J = {format_quaternion(unit_j)} and K = "
            f"{format_quaternion(unit_k)} are degenerate (|J - K| <= {tol})")
    inv = diff.inverse()
    g1 = unit_j * (inv * a2) - unit_k * (inv * a1)
    g2 = inv * (a1 - a2)
    domain = "slice" if a1 == a2 else "product"
    return _constant_stems(g1, g2, domain, "slice constant")


@dataclass(frozen=True)
class SliceConstant:
    """Normal form of a slice constant: g = mu_I a2 + mu_{-I} a1.

    ``i`` is None for a uniform (single-quaternion) constant, which is the
    degenerate case defined on all of H.  Otherwise g takes the value a1 on
    the half slice C_I+ and a2 on C_I-.
    """

    i: Optional[Quaternion]
    a1: Quaternion
    a2: Quaternion

    @classmethod
    def uniform(cls, c) -> "SliceConstant":
        c = as_quaternion(c)
        return cls(None, c, c)

    @classmethod
    def on_halves(cls, unit_i, a1, a2) -> "SliceConstant":
        a1 = as_quaternion(a1)
        a2 = as_quaternion(a2)
        if a1 == a2:
            return cls.uniform(a1)
        return cls(_require_unit_imag(unit_i, "I"), a1, a2)

    @property
    def is_uniform(self) -> bool:
        return self.i is None

    def stems(self) -> Tuple[Quaternion, Quaternion]:
        """Constant stem pair (G1, G2)."""
        if self.is_uniform:
            return self.a1, ZERO
        return 0.5 * (self.a1 + self.a2), self.i * (0.5 * (self.a2 - self.a1))

    def expr(self) -> SliceExpr:
        if self.is_uniform:
            return constant_expr(self.a1)
        return _constant_stems(*self.stems(), "product", "slice constant")

    def to_record(self) -> dict:
        return {
            "I": format_quaternion(self.i if self.i is not None else Quaternion(0, 1)),
            "a1": format_quaternion(self.a1),
            "a2": format_quaternion(self.a2),
        }

    @classmethod
    def from_record(cls, record: dict) -> "SliceConstant":
        if not isinstance(record, dict):
            raise ParseError("slice-constant record must be an object with "
                             "keys I, a1, a2")
        try:
            unit, a1, a2 = record["I"], record["a1"], record["a2"]
        except KeyError as exc:
            raise ParseError("slice-constant record is missing key "
                             f"{exc.args[0]!r} (expected I, a1, a2)") from exc
        return cls.on_halves(parse_quaternion(unit),
                             parse_quaternion(a1),
                             parse_quaternion(a2))

    @classmethod
    def from_records(cls, data, what: str) -> Tuple["SliceConstant", ...]:
        """The constants of a JSON list of :meth:`to_record` objects;
        ``what`` names the list in a :class:`ParseError`."""
        if not isinstance(data, list):
            raise ParseError(f"{what}: expected a JSON array of "
                             "slice-constant records")
        return tuple(cls.from_record(rec) for rec in data)


def product_expr(f: SliceExpr, g: SliceExpr, name: str = "") -> SliceExpr:
    """The slice product f . g as a SliceExpr (pointwise stem product)."""

    def stem_fn(alpha, beta, j):
        f1, f2 = f.stems(alpha, beta, j)
        g1, g2 = g.stems(alpha, beta, j)
        return f1 * g1 - f2 * g2, f1 * g2 + f2 * g1

    domain = "slice" if (f.domain == "slice" and g.domain == "slice") else "product"
    return SliceExpr(stem_fn, domain=domain, name=name or "slice product")


def pointwise_slice_product(f: SliceExpr, g: SliceExpr, x) -> Quaternion:
    """(f . g)(x) from the stem product at the slice coordinates of x."""
    return product_expr(f, g)(x)


def recover_constants(f: SliceExpr, lam, unit_i, n_trunc: int = 40):
    """Recover (a1, a2) of the slice constant g from f = g . exp_lambda.

    A kernel element of D_lambda on a product domain is determined by its
    values at two points; with v1 = f(I), v2 = f(-I):
    a1 = v1 * exp_{-lambda}(v1^{-1} I v1)   (0 when v1 = 0),
    a2 = v2 * exp_{ lambda}(v2^{-1} I v2)   (0 when v2 = 0).
    """
    lam = as_quaternion(lam)
    unit_i = _require_unit_imag(unit_i, "I")
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


def slice_derivative_pointwise(f: SliceExpr, x, h: float = 1e-5) -> Quaternion:
    """Slice derivative of f at x from stem data.

    The stem of a slice-regular f is holomorphic, so dF/dz equals the
    partial derivative in alpha; a central difference of the stems in
    alpha gives (df/dx)(x) = D1 + J D2 without any symbolic form of f.
    """
    sp = decompose(as_quaternion(x))
    f1p, f2p = f.stems(sp.alpha + h, sp.beta, sp.j)
    f1m, f2m = f.stems(sp.alpha - h, sp.beta, sp.j)
    d1 = (f1p - f1m) / (2.0 * h)
    d2 = (f2p - f2m) / (2.0 * h)
    if sp.real:
        return d1
    return d1 + sp.j * d2


_PROBE_UNITS = (Quaternion(0, 1), Quaternion(0, 0, 1), Quaternion(0, 0, 0, 1))


def _independent_unit(j: Quaternion) -> Quaternion:
    # unit imaginary orthogonal to j: take the basis unit least aligned
    # with j and project out the j component
    comps = [abs(j.x1), abs(j.x2), abs(j.x3)]
    e = _PROBE_UNITS[comps.index(min(comps))]
    dot = e.x1 * j.x1 + e.x2 * j.x2 + e.x3 * j.x3
    k = e - j * dot
    return k / k.norm()


def verify_stem_symmetry(f: SliceExpr, samples, tol: float = 1e-8) -> float:
    """Check that f's stems do not depend on the probe unit.

    ``samples`` is a sequence of non-real quaternions.  At each point the
    stems are evaluated with the point's own J, with -J and with an
    orthogonal unit K; a genuine slice function gives identical stem pairs
    (equivalently F2 flips sign together with J: F(conj z) = conj2 F(z)).
    Returns the worst relative deviation, raising
    :class:`StemSymmetryError` beyond ``tol``.
    """
    worst = 0.0
    for x in samples:
        sp = decompose(as_quaternion(x))
        if sp.real:
            raise ValueError("stem symmetry is probed at non-real points")
        ref = f.stems(sp.alpha, sp.beta, sp.j)
        scale = ref[0].norm() + ref[1].norm() + 1.0
        for probe in (-sp.j, _independent_unit(sp.j)):
            got = f.stems(sp.alpha, sp.beta, probe)
            dev = max((got[0] - ref[0]).norm(), (got[1] - ref[1]).norm()) / scale
            worst = max(worst, dev)
            if dev > tol:
                raise StemSymmetryError(
                    f"stems at alpha={sp.alpha!r}, beta={sp.beta!r} depend on "
                    f"the probe unit (deviation {dev:.3e} > {tol:.1e}); "
                    "the evaluator is not a slice function")
    return worst
