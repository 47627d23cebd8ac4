"""The Laplacian bridge from slice-regular to axially monogenic functions.

Delta applied to x^{n+2} lands on the monogenic polynomial P_n (up to
-1/4), so Delta of a power series is a series in the P_n; apply_L is the
operator that makes the square commute with D_lambda.
"""

import math
import random

import pytest

from slicealg import (
    DomainError,
    MonogenicSeries,
    ParseError,
    PowerSeries,
    Quaternion,
    I,
    J,
    ONE,
    ZERO,
    apply_D,
    apply_L,
    decompose,
    delta_exp,
    eval_P,
    eval_Z,
    fd_crf,
    fd_laplacian,
    fueter_laplacian,
    gen_exp,
    inv_laplacian,
    laplacian_pointwise,
    laplacian_via_partials,
    richardson_order,
    spherical_derivative_eval,
)
from slicealg.fmtio import dump_json, load_json

TOL = 1e-12


def rand_q(rng, scale=1.5):
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


def rand_nonreal(rng, scale=1.2):
    while True:
        x = rand_q(rng, scale)
        if x.imag_norm() > 0.3:
            return x


def qpow(x, n):
    p = ONE
    for _ in range(n):
        p = p * x
    return p


def test_P_explicit_sum():
    # P_n(x) = sum_{k=1}^{n+1} k x^{k-1} xbar^{n-k+1}
    rng = random.Random(401)
    for n in range(7):
        for _ in range(10):
            x = rand_q(rng)
            want = ZERO
            for k in range(1, n + 2):
                want = want + qpow(x, k - 1) * qpow(x.conjugate(), n - k + 1) * float(k)
            assert (eval_P(n, x) - want).norm() < 1e-10


def test_P_on_real_axis():
    # at real points P_n(t) = (n+1)(n+2)/2 t^n
    for n in range(8):
        for t in (-1.5, -0.5, 0.3, 1.0, 2.0):
            want = 0.5 * (n + 1) * (n + 2) * t ** n
            got = eval_P(n, Quaternion(t))
            assert got.w == pytest.approx(want, rel=1e-12)
            assert abs(got.x1) + abs(got.x2) + abs(got.x3) < TOL


def test_Z_is_spherical_derivative_of_power():
    rng = random.Random(403)
    for n in range(6):
        f = PowerSeries.monomial(n + 1)
        for _ in range(10):
            x = rand_nonreal(rng)
            assert (eval_Z(n, x) - spherical_derivative_eval(f, x)).norm() < 1e-10


def test_fueter_laplacian_coefficients():
    # Delta x^{n+2} = -4 P_n, so coefficient k of Delta f is -4 a_{k+2}
    rng = random.Random(405)
    f = PowerSeries([rand_q(rng) for _ in range(7)])
    g = fueter_laplacian(f)
    assert g.degree_bound == 4
    for k in range(5):
        assert (g.coeff(k) + 4.0 * f.coeff(k + 2)).norm() < TOL
    # constants and linear terms are annihilated
    assert fueter_laplacian(PowerSeries([I, J])) == MonogenicSeries([ZERO])


def test_fueter_laplacian_matches_fd_laplacian():
    rng = random.Random(407)
    f = PowerSeries([rand_q(rng) for _ in range(6)])
    g = fueter_laplacian(f)
    for _ in range(10):
        x = rand_q(rng, 1.0)
        got = g(x)
        want = fd_laplacian(f, x, h=1e-4)
        assert (got - want).norm() < 1e-6 * max(1.0, want.norm())


def test_laplacian_pointwise_stem_formula():
    # (Delta f)(x) = -2/beta * J * (f'_s - d f/dx_0)(x) written via stems;
    # cross-check against the exact coefficient image
    rng = random.Random(409)
    f = PowerSeries([rand_q(rng) for _ in range(6)])
    g = fueter_laplacian(f)
    for _ in range(20):
        x = rand_nonreal(rng)
        got = laplacian_pointwise(f, x)
        assert (got - g(x)).norm() < 1e-8


def test_laplacian_via_partials_agrees():
    rng = random.Random(411)
    f = PowerSeries([rand_q(rng) for _ in range(6)])
    for _ in range(100):
        x = rand_nonreal(rng)
        a = laplacian_pointwise(f, x)
        b = laplacian_via_partials(f, x)
        assert (a - b).norm() < 1e-9 * max(1.0, b.norm())


def test_laplacian_pointwise_rejects_real_points():
    f = PowerSeries([ONE, ONE, ONE])
    with pytest.raises(DomainError):
        laplacian_pointwise(f, Quaternion(0.5))


def test_inv_laplacian_roundtrip():
    rng = random.Random(413)
    for _ in range(10):
        g = MonogenicSeries([rand_q(rng) for _ in range(5)])
        back = fueter_laplacian(inv_laplacian(g))
        assert back.degree_bound >= g.degree_bound
        for k in range(g.degree_bound + 1):
            assert (back.coeff(k) - g.coeff(k)).norm() < TOL
        # and the other way around, modulo the affine kernel of Delta
        f = PowerSeries([rand_q(rng) for _ in range(6)])
        f2 = inv_laplacian(fueter_laplacian(f))
        for k in range(2, 6):
            assert (f2.coeff(k) - f.coeff(k)).norm() < TOL
        assert f2.coeff(0) == ZERO and f2.coeff(1) == ZERO


def test_L_intertwines_D():
    rng = random.Random(417)
    for _ in range(20):
        lam = rand_q(rng)
        f = PowerSeries([rand_q(rng) for _ in range(8)])
        lhs = apply_L(lam, fueter_laplacian(f))
        rhs = fueter_laplacian(apply_D(lam, f))
        n = min(lhs.degree_bound, rhs.degree_bound)
        for k in range(n + 1):
            assert (lhs.coeff(k) - rhs.coeff(k)).norm() < TOL


def test_L0_shifts_P_basis():
    # L_0 P_n = (n+2) P_{n-1}
    for n in range(1, 7):
        g = MonogenicSeries([ZERO] * n + [ONE])
        lg = apply_L(ZERO, g)
        for k in range(lg.degree_bound + 1):
            want = Quaternion(float(n + 2)) if k == n - 1 else ZERO
            assert (lg.coeff(k) - want).norm() < TOL


def test_delta_exp_is_delta_of_gen_exp():
    rng = random.Random(419)
    lams = [rand_q(rng) for _ in range(3)]
    g = delta_exp(lams, 30)
    h = fueter_laplacian(gen_exp(lams, 30))
    for k in range(h.degree_bound + 1):
        assert (g.coeff(k) - h.coeff(k)).norm() < TOL


def test_delta_exp_real_eigenvalue_closed_form():
    # Delta e^{lam x} = -2 lam^2 e^{lam x0} (sinc(lam b) - J sinc'(lam b))
    def sinc(t):
        return math.sin(t) / t if t else 1.0

    def dsinc(t):
        return (t * math.cos(t) - math.sin(t)) / t ** 2 if t else 0.0

    rng = random.Random(421)
    for lam in (1.0, 2.0, 0.7):
        g = delta_exp([Quaternion(lam)], 60)
        for _ in range(10):
            x = rand_nonreal(rng)
            sp = decompose(x)
            pref = -2.0 * lam * lam * math.exp(lam * sp.alpha)
            want = (Quaternion(sinc(lam * sp.beta))
                    - sp.j * dsinc(lam * sp.beta)) * pref
            assert (g(x) - want).norm() < 1e-9


def test_monogenic_series_is_monogenic():
    # FD Cauchy-Riemann-Fueter derivative vanishes at order 2
    rng = random.Random(423)
    g = MonogenicSeries([rand_q(rng) for _ in range(5)])
    x = Quaternion(0.4, 0.3, -0.5, 0.2)

    def resid(h):
        d_cf, _ = fd_crf(g, x, h)
        return d_cf.norm()

    r1, r2 = resid(1e-3), resid(5e-4)
    assert r2 < 1e-4
    assert r2 < 1e-11 or richardson_order(r1, r2) > 1.9


def test_crf_conjugate_shifts_P():
    # dbar_CF P_n = (n+2) P_{n-1}
    rng = random.Random(427)
    for n in range(1, 7):
        x = rand_q(rng, 0.8)
        _, dbar = fd_crf(lambda y: eval_P(n, y), x, h=1e-4)
        want = eval_P(n - 1, x) * float(n + 2)
        assert (dbar - want).norm() < 1e-5 * max(1.0, want.norm())


def test_crf_of_slice_regular_is_minus_spherical_derivative():
    rng = random.Random(429)
    f = PowerSeries([rand_q(rng) for _ in range(5)])
    for _ in range(10):
        x = rand_nonreal(rng)
        d_cf, _ = fd_crf(f, x, h=1e-4)
        want = -spherical_derivative_eval(f, x)
        assert (d_cf - want).norm() < 1e-6 * max(1.0, want.norm())


def test_vekua_equation_for_P_stems():
    # the complex stem p_n(z) = sum_{k=1}^{n+1} k z^{k-1} zbar^{n-k+1}
    # satisfies dp/dzbar = (p - pbar)/(z - zbar); both sides exactly
    def p(n, z):
        return sum(k * z ** (k - 1) * z.conjugate() ** (n - k + 1)
                   for k in range(1, n + 2))

    def dp_dzbar(n, z):
        return sum(k * (n - k + 1) * z ** (k - 1) * z.conjugate() ** (n - k)
                   for k in range(1, n + 2))

    rng = random.Random(431)
    for n in range(9):
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            lhs = dp_dzbar(n, z)
            rhs = (p(n, z) - p(n, z).conjugate()) / (z - z.conjugate())
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
            # and p_n really is the stem of P_n on each slice
            x = Quaternion(z.real, 0.0, z.imag, 0.0)   # slice C_j
            w = p(n, z)
            want = Quaternion(w.real) + J * w.imag
            assert (eval_P(n, x) - want).norm() < 1e-10


def test_spherical_derivative_components_are_harmonic():
    rng = random.Random(433)
    f = PowerSeries([rand_q(rng) for _ in range(6)])

    def sd(x):
        return spherical_derivative_eval(f, x)

    for _ in range(5):
        x = rand_nonreal(rng)

        def resid(h):
            return fd_laplacian(sd, x, h).norm()

        r1, r2 = resid(1e-3), resid(5e-4)
        assert r2 < 1e-5
        assert r2 < 1e-11 or richardson_order(r1, r2) > 1.9


def test_monogenic_save_load_roundtrip(tmp_path):
    rng = random.Random(437)
    g = MonogenicSeries([rand_q(rng) for _ in range(6)])
    path = tmp_path / "mono.json"
    dump_json(g.to_record(), path)
    back = MonogenicSeries.from_record(load_json(path), path)
    assert back.degree_bound == g.degree_bound
    for k in range(g.degree_bound + 1):
        assert back.coeff(k) == g.coeff(k)


def test_load_monogenic_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"basis": "Q", "coeffs": []}')
    with pytest.raises(ParseError):
        MonogenicSeries.from_record(load_json(path), path)
    path.write_text('{"coeffs": [[0, 1, 2]]}')
    with pytest.raises(ParseError):
        MonogenicSeries.from_record(load_json(path), path)


def test_monogenic_arithmetic():
    # P-series are not added or negated: the algebra happens on the
    # coefficients, and evaluation is linear in them
    a = MonogenicSeries([ONE, I])
    b = MonogenicSeries([J])
    s = MonogenicSeries.from_record(
        {"basis": "P", "coeffs": [[1, 0, 1, 0], [0, 1, 0, 0]]}, "s")
    assert s.coeff(0) == ONE + J and s.coeff(1) == I
    x = Quaternion(0.2, 0.5, -0.3, 0.1)
    assert (s(x) - (a(x) + b(x))).norm() < TOL
    # negating the coefficients negates every value exactly
    neg = MonogenicSeries.from_record(
        {"basis": "P", "coeffs": [[-1, 0, 0, 0], [0, -1, 0, 0]]}, "neg")
    assert neg.coeff(1) == -I
    assert neg(x) == -a(x)
