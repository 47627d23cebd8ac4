"""Closed-form solvers for the slice-derivative eigenvalue operator.

The operator under study is D_lambda f = df/dx - f*lambda acting on
slice-regular entire functions (coefficient form: b_n = (n+1) a_{n+1}
- a_n lambda).  This module provides

* ``apply_D`` -- the operator itself;
* ``S_lambda`` -- a right inverse on polynomials (lambda != 0);
* ``E_lambda_op`` -- a right inverse on the coefficient-growth class
  A_lambda, certified by :class:`CoeffBoundCert`;
* ``gen_exp`` -- generalized exponentials E_Lambda spanning the kernel of
  the order-m product D_{lambda_1} ... D_{lambda_m};
* ``f_mu_lambda`` -- the particular solution of D_lambda f = exp_mu for
  0 < |mu| < |lambda|;
* ``kernel_basis`` / ``solve_with_initial`` -- order-m kernel bases and
  the unique entire solution matching m initial values at 0.

Everything works on exact coefficients; no quadrature or iteration is
involved beyond geometrically convergent coefficient sums.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CertificateViolation, ParseError, RangeError
from .quaternion import Quaternion, ZERO, ONE, _require_invertible, as_quaternion
from .series import PowerSeries, exp_series

__all__ = [
    "CoeffBoundCert",
    "apply_D",
    "S_lambda",
    "E_lambda_op",
    "gen_exp",
    "f_mu_lambda",
    "kernel_basis",
    "solve_with_initial",
]


def _eigenvalues(lambdas) -> tuple:
    """The tuple (lambda_1, ..., lambda_m) as quaternions, m >= 1."""
    lams = tuple(as_quaternion(l) for l in lambdas)
    if not lams:
        raise ParseError("need at least one eigenvalue")
    return lams


def _growth(f: PowerSeries, d: int, lam_norm: float):
    """(n, n!|a_n|, (n+1)^d, |lam|^n) for each stored coefficient a_n of f."""
    fact = lam_pow = 1.0
    for n, a in enumerate(f.coeffs):
        yield n, fact * a.norm(), (n + 1) ** d, lam_pow
        fact *= n + 1
        lam_pow *= lam_norm


class CoeffBoundCert(NamedTuple):
    """Certificate n! |a_n| <= c (n+1)^d |lam|^n for membership in A_lam."""

    c: float
    d: int
    lam: Quaternion

    def verify(self, f: PowerSeries) -> None:
        """Check the bound on every stored coefficient of f, to a relative
        slack of 1e-9.

        Raises :class:`CertificateViolation` at the first failing index.
        Only the available (truncated) coefficients can be checked.
        """
        for n, size, grow, lam_pow in _growth(f, self.d, abs(self.lam)):
            allowed = self.c * grow * lam_pow
            if size > allowed * (1.0 + 1e-9):
                raise CertificateViolation(
                    f"coefficient {n}: n!|a_n| = {size:.6e} exceeds "
                    f"C(n+1)^d|lam|^n = {allowed:.6e}")

    @classmethod
    def fit(cls, f: PowerSeries, d: int, lam) -> "CoeffBoundCert":
        """Smallest C certifying f's stored coefficients for degree d."""
        lam = _require_invertible(lam)
        ratios = [size / (grow * lam_pow)
                  for _, size, grow, lam_pow in _growth(f, d, abs(lam))]
        return cls(max([0.0] + ratios), d, lam)


def apply_D(lam, f: PowerSeries) -> PowerSeries:
    """D_lambda f = df/dx - f*lambda; coefficients (n+1)a_{n+1} - a_n*lambda.

    A polynomial keeps its degree; a truncation loses its last coefficient.
    """
    lam = as_quaternion(lam)
    if not f.exact and f.degree_bound == 0:
        raise ValueError("cannot apply D to a degree-0 truncated series "
                         "(no derivative coefficient is determined)")
    top = f.degree_bound + 1 if f.exact else f.degree_bound
    return PowerSeries([f.coeff(n + 1) * float(n + 1) - f.coeffs[n] * lam
                        for n in range(top)], exact=f.exact)


def S_lambda(lam, p: PowerSeries) -> PowerSeries:
    """Right inverse of D_lambda on polynomials (lambda != 0).

    b_k = -Sum_{n=k}^{d} a_n lambda^{k-n-1} n!/k!, summed by the backward
    recurrence b_{d+1} = 0, b_k = ((k+1) b_{k+1} - a_k) lambda^{-1}, so
    that apply_D(lam, S_lambda(lam, p)) = p exactly.
    """
    lam = _require_invertible(lam)
    if not p.exact:
        raise ValueError("S_lambda is defined for polynomials; integrate "
                         "truncated series with E_lambda_op instead")
    lam_inv = lam.inverse()
    out = [ZERO] * (p.degree_bound + 1)
    nxt = ZERO                                   # b_{k+1}, with b_{d+1} = 0
    for k in range(p.degree_bound, -1, -1):
        nxt = out[k] = (nxt * float(k + 1) - p.coeffs[k]) * lam_inv
    return PowerSeries(out, exact=True)


def E_lambda_op(lam, h: PowerSeries, n_trunc: int = 40,
                cert: CoeffBoundCert | None = None) -> PowerSeries:
    """The right inverse E_lambda of D_lambda, vanishing at 0.

    Coefficients c_n = (1/n!) Sum_{k<n} k! a_k lambda^{n-k-1}, computed by
    the stable recurrence c_{n+1} = (c_n lambda + a_n)/(n+1), c_0 = 0.

    For lambda != 0 a truncated (non-polynomial) input must carry a
    :class:`CoeffBoundCert`, which is checked on the available
    coefficients; polynomials always lie in A_lambda and need none.
    E_0(h) = Sum_{n>=1} x^n a_{n-1}/n needs no certificate either.
    """
    lam = as_quaternion(lam)
    if not lam.is_zero():
        if cert is not None:
            if abs(abs(cert.lam) - abs(lam)) > 1e-12 * (abs(lam) + 1.0):
                raise CertificateViolation(
                    "certificate was issued for a different |lambda|")
            cert.verify(h)
        elif not h.exact:
            raise CertificateViolation(
                "truncated input to E_lambda_op requires a CoeffBoundCert "
                "(membership in A_lambda is undecidable from a finite tail)")
    # furthest coefficient determined by the data
    bound = n_trunc if h.exact else min(n_trunc, h.degree_bound + 1)
    coeffs = [ZERO]
    for n in range(bound):
        coeffs.append((coeffs[n] * lam + h.coeff(n)) / float(n + 1))
    exact = lam.is_zero() and h.exact and bound >= h.degree_bound + 1
    return PowerSeries(coeffs, exact=exact)


def gen_exp(lambdas, n_trunc: int = 40) -> PowerSeries:
    """Generalized exponential E_Lambda for Lambda = (lambda_1..lambda_m).

    Coefficients e_n = (1/n!) Sum_{|K| = n-m+1} lambda_1^{k_1} ...
    lambda_m^{k_m}: the head of :func:`kernel_basis`.  For a single
    eigenvalue this is exp_lambda; E_Lambda(0) = 1 iff m = 1.
    """
    return kernel_basis(lambdas, n_trunc)[0]


def f_mu_lambda(mu, lam, n_trunc: int = 40) -> PowerSeries:
    """The particular solution f^{mu,lambda} of D_lambda f = exp_mu.

    Requires 0 < |mu| < |lambda| < inf (strict).  Coefficient of x^k is
    -(1/k!) Sum_{n>=k} mu^n lambda^{k-n-1} = -mu^k T / k!, where
    T = Sum_j mu^j lambda^{-1-j} solves the Sylvester equation
    T lambda - mu T = 1 in closed form:
    T = (mu^2 - 2 Re(lambda) mu + |lambda|^2)^{-1} (conj(lambda) - mu).
    When mu and lambda commute the result equals exp_mu(x) (mu - lambda)^{-1}.
    """
    mu = as_quaternion(mu)
    lam = as_quaternion(lam)
    # the moduli by hypot, which stays finite where |q|^2 overflows
    mu_norm, lam_norm = math.hypot(*mu.as_list()), math.hypot(*lam.as_list())
    if not 0.0 < mu_norm < lam_norm < math.inf:     # NaN fails it too
        raise RangeError(
            f"f_mu_lambda requires 0 < |mu| < |lambda| < inf, got |mu| = "
            f"{mu_norm!r}, |lambda| = {lam_norm!r}")
    quad = mu * mu - (2.0 * lam.w) * mu + lam.norm2()
    try:
        t = quad.inverse() * (lam.conjugate() - mu)
    except ZeroDivisionError as exc:
        # the moduli are finite, so a NaN denominator is an overflow (inf - inf)
        why = "overflows the float range" if math.isnan(quad.norm2()) \
            else f"= {exc}"
        raise RangeError(f"f_mu_lambda at |mu| = {mu_norm!r}, "
                         f"|lambda| = {lam_norm!r}: mu^2 - "
                         f"2 Re(lambda) mu + |lambda|^2 {why}") from None
    mu_pow = ONE
    out = []
    fact = 1.0
    for k in range(n_trunc + 1):
        out.append(-(mu_pow * t) / fact)
        mu_pow = mu_pow * mu
        fact *= k + 1
    return PowerSeries(out, exact=False)


def kernel_basis(lambdas, n_trunc: int = 40):
    """Basis [E_{(lambda_1..lambda_m)}, E_{(lambda_2..lambda_m)}, ..., E_{(lambda_m)}].

    Every right-H-linear combination (with slice-constant coefficients)
    is annihilated by D_{lambda_1} ... D_{lambda_m}.  Split on k_1 >= 1,
    e_{n+1}(Lambda) = (lambda_1 e_n(Lambda) + e_n(Lambda+))/(n+1) with
    Lambda+ = (lambda_2..lambda_m), so each element is one pass over the
    next, from exp_{lambda_m}: m passes in all.
    """
    lams = _eigenvalues(lambdas)
    if n_trunc < len(lams) - 1:     # the first nonzero coefficient is x^(m-1)
        raise ParseError(f"degree {n_trunc} too small for a tuple of length {len(lams)}")
    basis = [exp_series(lams[-1], n_trunc)]
    for lam in lams[-2::-1]:
        prev, cur = basis[0].coeffs, [ZERO]
        for n in range(n_trunc):
            cur.append((lam * cur[n] + prev[n]) / float(n + 1))
        basis.insert(0, PowerSeries(cur, exact=False))
    return basis


def solve_with_initial(lambdas, initial, n_trunc: int = 40) -> PowerSeries:
    """Unique entire solution with prescribed values at 0.

    f = Sum_i c_i . E_{(lambda_i..lambda_m)} satisfies
    D_{lambda_{i+1}} ... D_{lambda_m} f(0) = c_i for i < m and f(0) = c_m,
    where ``initial`` supplies (c_1, ..., c_m).
    """
    lams = _eigenvalues(lambdas)
    cs = [as_quaternion(c) for c in initial]
    if len(cs) != len(lams):
        raise ParseError("need as many initial values as eigenvalues")
    total = PowerSeries([ZERO] * (n_trunc + 1), exact=False)
    for c, e in zip(cs, kernel_basis(lams, n_trunc)):
        total = total + c * e
    return total
