"""Seeded self-check suites, used by the ``verify`` CLI subcommand.

Each suite is a function taking a :class:`random.Random` and returning a
one-line summary on success; a failed check raises an exception with a
diagnostic, which :func:`run_suites` reports.  The checks are calls, not
``assert`` statements, so ``python -O`` does not strip them.  The suites
re-derive the library's core identities at runtime on randomized inputs,
so a passing run certifies the build on the host's floating-point stack.
"""

from __future__ import annotations

import itertools
import math
import random

from .quaternion import Quaternion, ZERO, ONE, I, J, commutes, decompose, \
    format_quaternion, parse_quaternion
from .series import PowerSeries, exp_series, normal, slice_conjugate, \
    slice_derivative, spherical_derivative_eval

# sliceexpr, eigensolve, monogenic and pde are imported by the suites that
# check them, so that a run of the other suites loads neither them nor numpy

__all__ = ["SUITES", "run_suites", "random_quaternion", "random_unit_imag",
           "random_polynomial"]


def random_quaternion(rng: random.Random, scale: float = 1.0) -> Quaternion:
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


def random_unit_imag(rng: random.Random) -> Quaternion:
    while True:
        v = Quaternion(0.0, *(rng.uniform(-1.0, 1.0) for _ in range(3)))
        n = v.imag_norm()
        if n > 1e-3:
            return v / n


def random_polynomial(rng: random.Random, degree: int) -> PowerSeries:
    return PowerSeries([random_quaternion(rng) for _ in range(degree + 1)])


class _CheckFailed(Exception):
    """A suite's identity does not hold; the message says which."""


def _check(ok: bool, message: str) -> None:
    # a check that holds under any interpreter flag, unlike ``assert``
    if not ok:
        raise _CheckFailed(message)


def _max_coeff_diff(f: PowerSeries, g: PowerSeries, top: int) -> float:
    return max((f.coeff(n) - g.coeff(n)).norm() for n in range(top + 1))


def check_quaternion(rng: random.Random) -> str:
    n_cases = 200
    for _ in range(n_cases):
        a = random_quaternion(rng, 2.0)
        b = random_quaternion(rng, 2.0)
        c = random_quaternion(rng, 2.0)
        _check(((a * b) * c - a * (b * c)).norm() < 1e-12, "associativity")
        _check(abs((a * b).norm() - a.norm() * b.norm()) < 1e-12, "norm mult")
        _check(((a * b).conjugate() - b.conjugate() * a.conjugate()).norm()
               < 1e-12, "conjugate anti-automorphism")
        if not a.is_zero():
            _check((a * a.inverse() - ONE).norm() < 1e-12, "inverse")
        sp = decompose(a)
        _check((sp.to_quaternion() - a).norm() < 1e-12, "decompose roundtrip")
        txt = format_quaternion(a)
        _check(parse_quaternion(txt) == a, f"parse/format roundtrip {txt}")
    return f"{n_cases} random algebra/decompose/parse checks"


def check_series(rng: random.Random) -> str:
    for _ in range(40):
        f = random_polynomial(rng, rng.randint(0, 6))
        g = random_polynomial(rng, rng.randint(0, 6))
        h = random_polynomial(rng, rng.randint(0, 6))
        top = f.degree_bound + g.degree_bound + h.degree_bound
        _check(_max_coeff_diff((f * g) * h, f * (g * h), top) < 1e-12,
               "product associativity")
        _check(_max_coeff_diff(f * (g + h), f * g + f * h, top) < 1e-12,
               "distributivity")
        # normal series is intrinsic: real coefficients
        nf = normal(f)
        _check(all(c.imag().norm() < 1e-12 for c in nf.coeffs),
               "normal series not real")
        # conjugate is an anti-homomorphism for the slice product
        lhs = slice_conjugate(f * g)
        rhs = slice_conjugate(g) * slice_conjugate(f)
        _check(_max_coeff_diff(lhs, rhs, top) < 1e-12, "conjugate of product")
    for _ in range(20):
        lam = random_quaternion(rng)
        e = exp_series(lam, 40)
        em = exp_series(-lam, 40)
        _check(_max_coeff_diff(e * em, PowerSeries.one(), 35) < 1e-12,
               "exp(lam) . exp(-lam) != 1")
        d = slice_derivative(e) - e * lam
        _check(max(d.coeff(n).norm() for n in range(36)) < 1e-12,
               "exp derivative")
        x = random_quaternion(rng)
        _check((em(-x) - e(x)).norm() < 1e-10, "exp parity")
    return "60 product/normal/exponential identities"


def check_sliceexpr(rng: random.Random) -> str:
    from .sliceexpr import SliceConstant, lift, mu, recover_constants, \
        slice_constant_from_two_values, verify_stem_symmetry
    for _ in range(25):
        p = random_polynomial(rng, 5)
        f = lift(p)
        samples = [random_quaternion(rng, 1.5) for _ in range(6)]
        worst = verify_stem_symmetry(f, samples)
        _check(worst < 1e-9, f"stem symmetry violated: {worst}")
        x = random_quaternion(rng, 1.5)
        _check((f(x) - p(x)).norm() < 1e-10, "lift disagrees with series")
    for _ in range(25):
        unit = random_unit_imag(rng)
        a1 = random_quaternion(rng)
        a2 = random_quaternion(rng)
        g = SliceConstant(unit, a1, a2).expr()
        alpha, beta = rng.uniform(-1, 1), rng.uniform(0.1, 1.5)
        up = Quaternion(alpha) + unit * beta
        dn = Quaternion(alpha) - unit * beta
        _check((g(up) - a1).norm() < 1e-12, "value on C_I+")
        _check((g(dn) - a2).norm() < 1e-12, "value on C_I-")
        # representation from two probe units
        ju, ku = random_unit_imag(rng), random_unit_imag(rng)
        if (ju - ku).norm() < 1e-2:
            continue
        rebuilt = slice_constant_from_two_values(
            ju, ku, g(Quaternion(alpha) + ju * beta),
            g(Quaternion(alpha) + ku * beta))
        _check((rebuilt(up) - a1).norm() < 1e-9, "two-value representation")
    m = mu(I)
    _check(m(Quaternion(0.3, 0.9, 0, 0)).norm() < 1e-14, "")
    _check((m(Quaternion(0.3, -0.9, 0, 0)) - ONE).norm() < 1e-14, "")
    # recover the two constants of g . exp_lambda from point values
    lam = random_quaternion(rng)
    unit = random_unit_imag(rng)
    a1, a2 = random_quaternion(rng), random_quaternion(rng)
    f = SliceConstant(unit, a1, a2).expr() * lift(exp_series(lam, 60))
    b1, b2 = recover_constants(f, lam, unit, n_trunc=60)
    _check((b1 - a1).norm() < 1e-8 and (b2 - a2).norm() < 1e-8,
           "recover_constants roundtrip")
    return "51 stem-symmetry/slice-constant reconstructions"


def check_eigensolve(rng: random.Random) -> str:
    from .eigensolve import CoeffBoundCert, E_lambda_op, S_lambda, apply_D, \
        f_mu_lambda, gen_exp, kernel_basis, solve_with_initial
    for _ in range(30):
        lam = random_quaternion(rng)
        if lam.norm() < 1e-3:
            continue
        # keep |lam| away from 0: S_lambda is conditioned by |lam|^-(d+1)
        lam = lam * (rng.uniform(0.5, 2.5) / lam.norm())
        p = random_polynomial(rng, rng.randint(0, 8))
        b = S_lambda(lam, p)
        # coefficient k of D(S(p)) is (k+1) b_{k+1} - b_k lam: rounding
        # moves it by a few units of 2^-53 in its terms' size (at most 4.6)
        scale = max((k + 1) * b.coeff(k + 1).norm() + b.coeff(k).norm() * lam.norm()
                    for k in range(p.degree_bound + 1))
        _check(_max_coeff_diff(apply_D(lam, b), p, p.degree_bound)
               <= 16 * 2.0 ** -53 * scale, "D(S(p)) != p")
        ep = E_lambda_op(lam, p, 30)
        rt2 = apply_D(lam, ep)
        _check(_max_coeff_diff(rt2, p, p.degree_bound) < 1e-10, "D(E(p)) != p")
        _check(ep.coeff(0).is_zero(), "E(p)(0) != 0")
    # gen_exp against the brute-force multi-index sums
    for _ in range(10):
        m = rng.randint(1, 3)
        lams = [random_quaternion(rng) for _ in range(m)]
        g = gen_exp(lams, 8)
        for n in range(9):
            acc = ZERO
            if n >= m - 1:
                for ks in itertools.product(range(n - m + 2), repeat=m):
                    if sum(ks) != n - m + 1:
                        continue
                    term = ONE
                    for lamq, k in zip(lams, ks):
                        for _ in range(k):
                            term = term * lamq
                    acc = acc + term
            acc = acc / math.factorial(n)
            _check((g.coeff(n) - acc).norm() <= 1e-12 * (1.0 + acc.norm()),
                   f"gen_exp coefficient {n} mismatch")
    # telescoping and initial values
    for _ in range(10):
        m = rng.randint(2, 5)
        lams = [random_quaternion(rng) for _ in range(m)]
        g = gen_exp(lams, 25)
        tele = apply_D(lams[-1], g)
        ref = gen_exp(lams[:-1], 25)
        _check(_max_coeff_diff(tele, ref, 20) < 1e-10, "telescoping")
        cs = [random_quaternion(rng) for _ in range(m)]
        sol = solve_with_initial(lams, cs, 25)
        cur = sol
        for i in range(m - 1, -1, -1):
            _check((cur.coeff(0) - cs[i]).norm() < 1e-10,
                   f"initial value {i} mismatch")
            if i > 0:
                cur = apply_D(lams[i], cur)
    # certified right inverse on an inexact series
    lam = random_unit_imag(rng)
    h = exp_series(lam, 30)
    cert = CoeffBoundCert.fit(h, 0, lam)
    u = E_lambda_op(J, h, 30, cert=cert)
    _check(_max_coeff_diff(apply_D(J, u), h, 25) < 1e-10, "certified E(h)")
    # each kernel-basis element is annihilated by its suffix D-chain
    lams = [random_quaternion(rng) for _ in range(3)]
    for i, b in enumerate(kernel_basis(lams, 25)):
        cur = b
        for lamq in reversed(lams[i:]):
            cur = apply_D(lamq, cur)
        _check(max(cur.coeff(n).norm() for n in range(19)) < 1e-9,
               "kernel basis element not annihilated")
    # commuting f^{mu,lambda} collapses to exp_mu (mu - lambda)^{-1}
    mu_q = random_unit_imag(rng) * 0.4
    lam_q = mu_q * rng.uniform(1.5, 3.0)
    _check(commutes(mu_q, lam_q), "")
    fml = f_mu_lambda(mu_q, lam_q, 40)
    want = exp_series(mu_q, 40) * (mu_q - lam_q).inverse()
    _check(_max_coeff_diff(fml, want, 35) < 1e-10, "f_mu_lambda closed form")
    # a pair that does not commute, where the order of the factors of the
    # Sylvester solution T matters: D_lambda f^{mu,lambda} = exp_mu
    mu_q = random_quaternion(rng, 0.4)
    lam_q = rng.uniform(-1.0, 1.0) + random_unit_imag(rng) * rng.uniform(1.0, 2.0)
    fml = apply_D(lam_q, f_mu_lambda(mu_q, lam_q, 40))
    _check(_max_coeff_diff(fml, exp_series(mu_q, 40), 35) < 1e-10,
           "D_lambda f^{mu,lambda} != exp_mu")
    return "66 right-inverse/brute-force/telescoping/kernel checks"


def check_monogenic(rng: random.Random) -> str:
    from .eigensolve import apply_D
    from .monogenic import CRF_STEP, FdCheck, apply_L, delta_exp, eval_P, \
        eval_Z, fd_crf, fueter_laplacian, inv_laplacian, laplacian_pointwise, \
        laplacian_via_partials
    t = rng.uniform(-1.5, 1.5)
    for n in range(7):
        got = eval_P(n, Quaternion(t))
        _check(abs(got.w - math.comb(n + 2, 2) * t ** n) < 1e-10 and
               got.imag().norm() < 1e-14, "P_n real-axis values")
        x = random_quaternion(rng, 1.2)
        gotz = eval_Z(n, x)
        sd = spherical_derivative_eval(PowerSeries.monomial(n + 1), x)
        _check((gotz - sd).norm() < 1e-10, "Z_n vs spherical derivative")
    for _ in range(20):
        f = random_polynomial(rng, rng.randint(2, 7))
        g = fueter_laplacian(f)
        x = random_quaternion(rng, 1.2)
        if x.imag_norm() < 0.2:
            x = x + J
        l1 = laplacian_pointwise(f, x)
        l2 = laplacian_via_partials(f, x)
        _check((l1 - l2).norm() < 1e-9 * (1 + l1.norm()), "laplacian formulas")
        _check((g(x) - l1).norm() < 1e-9 * (1 + l1.norm()), "P-basis laplacian")
        back = fueter_laplacian(inv_laplacian(g))
        _check(back == g, "fueter o inv != id")
        lam = random_quaternion(rng)
        lhs = apply_L(lam, g)
        rhs = fueter_laplacian(apply_D(lam, f))
        top = max(lhs.degree_bound, rhs.degree_bound)
        _check(max((lhs.coeff(n) - rhs.coeff(n)).norm()
                   for n in range(top + 1)) < 1e-10, "intertwining")
    # monogenicity of delta_exp with Richardson certification
    lams = [random_quaternion(rng), random_unit_imag(rng)]
    d = delta_exp(lams, 45)
    x = Quaternion(0.2, 0.4, -0.5, 0.3)
    d1, d2 = (fd_crf(d, x, h)[0] for h in (CRF_STEP, CRF_STEP / 2.0))
    check = FdCheck(d1.norm(), d2.norm(), ((4.0 * d2 - d1) / 3.0).norm())
    _check(check.at_half < 1e-5 and not check.failures(),
           f"delta_exp monogenicity: {check.at_h}, {check.at_half}, "
           f"{check.order}")
    return "27 P-basis/Laplacian/intertwining checks + CRF certification"


def check_pde(rng: random.Random) -> str:
    from .monogenic import MonogenicSeries
    from .pde import GridSpec, PdeProblem, verify_pde
    grid = GridSpec(counts=(7, 7, 7), fd_step=0.025)
    unit = random_unit_imag(rng)
    h = MonogenicSeries([random_quaternion(rng) for _ in range(3)])
    problems = (PdeProblem(kind="helmholtz", lam=1.0, grid=grid),
                PdeProblem(kind="klein-gordon", lam=1.0, unit_i=unit, grid=grid),
                # Yukawa with a random degree-2 source
                PdeProblem(kind="yukawa", lam=2.0, unit_i=random_unit_imag(rng),
                           rhs=h, grid=grid))
    for problem in problems:
        failures = verify_pde(problem.solve(), problem).verdict()
        _check(not failures, f"{problem.kind}: {'; '.join(failures)}")
    return "helmholtz/klein-gordon/yukawa residuals on 7^3 grids"


SUITES = (
    ("quaternion", check_quaternion),
    ("series", check_series),
    ("sliceexpr", check_sliceexpr),
    ("eigensolve", check_eigensolve),
    ("monogenic", check_monogenic),
    ("pde", check_pde),
)


def run_suites(names, seed: int, out=None) -> int:
    """Run the named suites; print one line per suite; return exit code."""
    import sys
    out = out if out is not None else sys.stdout
    table = dict(SUITES)
    failures = 0
    for name in names:
        if name not in table:
            print(f"FAIL {name}: unknown suite", file=out)
            failures += 1
            continue
        rng = random.Random(seed)
        try:
            detail = table[name](rng)
        except _CheckFailed as exc:
            print(f"FAIL {name}: {exc}", file=out)
            failures += 1
        else:
            print(f"ok {name}: {detail}", file=out)
    status = "all suites passed" if failures == 0 else f"{failures} suite(s) failed"
    print(f"{status} (seed {seed})", file=out)
    return 0 if failures == 0 else 1
