"""Truncated power series with quaternion coefficients.

The slice product of two power series is coefficient convolution; on
exact (polynomial) inputs it is computed in full, otherwise the degree
bound is the min over the inexact operands.
"""

import math
import random

import pytest

from slicealg import (
    PowerSeries,
    Quaternion,
    I,
    J,
    K,
    ONE,
    decompose,
    exp_series,
    exp_tail_bound,
    exp_truncation,
    load_coeffs,
    normal,
    slice_conjugate,
    slice_derivative,
    slice_product,
    spherical_derivative_eval,
)
from slicealg.fmtio import dump_json, load_json

TOL = 1e-12


def rand_q(rng, scale=1.0):
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


def rand_poly(rng, deg, scale=1.0):
    return PowerSeries([rand_q(rng, scale) for _ in range(deg + 1)])


def max_coeff_diff(f, g):
    n = max(f.degree_bound, g.degree_bound)
    return max((f.coeff(k) - g.coeff(k)).norm() for k in range(n + 1))


def test_convolution_small_case():
    # (1 + i x) * (j + 2 x) has coefficients j, 2 + ij, 2i
    f = PowerSeries([ONE, I])
    g = PowerSeries([J, Quaternion(2.0)])
    p = slice_product(f, g)
    assert p.coeffs == (J, Quaternion(2.0, 0.0, 0.0, 1.0), 2.0 * I)
    assert p.exact


def test_product_ring_axioms():
    rng = random.Random(101)
    for _ in range(40):
        f = rand_poly(rng, rng.randint(0, 6))
        g = rand_poly(rng, rng.randint(0, 6))
        h = rand_poly(rng, rng.randint(0, 6))
        assert max_coeff_diff((f * g) * h, f * (g * h)) < TOL
        assert max_coeff_diff(f * (g + h), f * g + f * h) < TOL
        one = PowerSeries.one()
        assert max_coeff_diff(f * one, f) == 0
        assert max_coeff_diff(one * f, f) == 0


def test_product_not_commutative_but_real_center():
    f = PowerSeries([I])
    g = PowerSeries([J])
    assert (f * g).coeff(0) == K
    assert (g * f).coeff(0) == -K
    rng = random.Random(103)
    for _ in range(20):
        f = rand_poly(rng, 4)
        # real-coefficient series commute with everything
        r = PowerSeries([Quaternion(rng.uniform(-2, 2)) for _ in range(4)])
        assert max_coeff_diff(f * r, r * f) < TOL


def test_truncation_semantics():
    f = PowerSeries([ONE] * 5, exact=False)      # degree bound 4
    g = PowerSeries([ONE] * 9, exact=False)      # degree bound 8
    p = f * g
    assert not p.exact
    assert p.degree_bound == 4
    # exact x exact keeps the full convolution
    q = PowerSeries([ONE] * 5) * PowerSeries([ONE] * 9)
    assert q.exact and q.degree_bound == 12
    # exact x inexact: bound comes from the inexact factor
    r = PowerSeries([ONE] * 5) * g
    assert not r.exact and r.degree_bound == 8


def test_evaluation_matches_horner_on_slice():
    # on a fixed slice the series restricts to a complex polynomial
    rng = random.Random(107)
    for _ in range(50):
        deg = rng.randint(0, 8)
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(deg + 1)]
        f = PowerSeries([Quaternion(c.real, c.imag, 0.0, 0.0) for c in coeffs])
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        want = 0j
        for c in reversed(coeffs):
            want = want * z + c
        got = f(Quaternion(z.real, z.imag, 0.0, 0.0))
        assert got.w == pytest.approx(want.real, abs=1e-10)
        assert got.x1 == pytest.approx(want.imag, abs=1e-10)
        assert abs(got.x2) < TOL and abs(got.x3) < TOL


def test_left_evaluation_convention():
    # coefficients act on the right: f(x) = sum x^n a_n
    f = PowerSeries([Quaternion(0.0), J])
    x = Quaternion(0.0, 1.0, 0.0, 0.0)
    assert f(x) == I * J  # = k, not J*I


def test_slice_derivative():
    rng = random.Random(109)
    for _ in range(30):
        f = rand_poly(rng, rng.randint(1, 8))
        df = slice_derivative(f)
        for n in range(df.degree_bound + 1):
            assert (df.coeff(n) - (n + 1.0) * f.coeff(n + 1)).norm() < TOL
        # Leibniz fails in general, but holds when g has real coefficients
        r = PowerSeries([Quaternion(rng.uniform(-1, 1)) for _ in range(3)])
        lhs = slice_derivative(f * r)
        rhs = slice_derivative(f) * r + f * slice_derivative(r)
        assert max_coeff_diff(lhs, rhs) < TOL


def test_slice_conjugate_and_normal():
    rng = random.Random(113)
    for _ in range(30):
        f = rand_poly(rng, rng.randint(0, 6))
        fc = slice_conjugate(f)
        for n in range(f.degree_bound + 1):
            assert fc.coeff(n) == f.coeff(n).conjugate()
        nf = normal(f)
        # the normal has real coefficients and equals f * f^c
        assert max_coeff_diff(nf, f * fc) < TOL
        for n in range(nf.degree_bound + 1):
            c = nf.coeff(n)
            assert abs(c.x1) < TOL and abs(c.x2) < TOL and abs(c.x3) < TOL
        # anti-homomorphism: (f g)^c = g^c f^c
        g = rand_poly(rng, rng.randint(0, 6))
        assert max_coeff_diff(slice_conjugate(f * g),
                              slice_conjugate(g) * slice_conjugate(f)) < TOL


def test_exp_series_recurrence():
    lam = Quaternion(0.3, -0.2, 0.7, 0.1)
    f = exp_series(lam, 25)
    assert not f.exact
    assert f.coeff(0) == ONE
    for n in range(25):
        want = f.coeff(n) * lam * (1.0 / (n + 1))
        assert (f.coeff(n + 1) - want).norm() < TOL


def test_exp_functional_identities():
    rng = random.Random(127)
    for _ in range(20):
        lam = rand_q(rng, 1.5)
        e = exp_series(lam, 40)
        em = exp_series(-lam, 40)
        prod = e * em
        assert (prod.coeff(0) - ONE).norm() < 1e-14
        for n in range(1, prod.degree_bound + 1):
            assert prod.coeff(n).norm() < 1e-12
        # d/dx exp_lam = exp_lam * lam (coefficientwise)
        de = slice_derivative(e)
        el = e * PowerSeries([lam])
        for n in range(de.degree_bound):
            assert (de.coeff(n) - el.coeff(n)).norm() < TOL


def test_exp_unit_eigenvalue_is_trig():
    # exp_j(x) = cos x + (sin x) j on the j-slice through real x
    f = exp_series(J, 40)
    for t in (-1.5, -0.3, 0.0, 0.8, 2.0):
        v = f(Quaternion(t))
        assert v.w == pytest.approx(math.cos(t), abs=1e-12)
        assert v.x2 == pytest.approx(math.sin(t), abs=1e-12)
        assert abs(v.x1) < TOL and abs(v.x3) < TOL


def test_exp_tail_bound_controls_truncation_error():
    lam = Quaternion(0.0, 1.0, 1.0, 0.0)
    radius = 2.0
    n = exp_truncation(radius, lam.norm(), tol=1e-16)
    bound = exp_tail_bound(radius, lam.norm(), n)
    assert bound <= 1e-16
    f_n = exp_series(lam, n)
    f_big = exp_series(lam, n + 25)
    x = Quaternion(1.1, 0.9, -0.7, 1.0)
    assert x.norm() <= radius
    assert (f_n(x) - f_big(x)).norm() <= max(bound, 1e-15) * 10


def test_spherical_derivative_eval():
    # f'_s(x) = (x - xbar)^{-1} (f(x) - f(xbar)); for x^2 it equals 2 alpha
    f = PowerSeries([Quaternion(0.0), Quaternion(0.0), ONE])
    rng = random.Random(131)
    for _ in range(20):
        x = rand_q(rng, 2.0)
        if x.imag_norm() < 0.1:
            continue
        sd = spherical_derivative_eval(f, x)
        sp = decompose(x)
        assert (sd - Quaternion(2.0 * sp.alpha)).norm() < 1e-10
    # constants have vanishing spherical derivative
    c = PowerSeries([Quaternion(3.0, 1.0, 0.0, 2.0)])
    assert spherical_derivative_eval(c, Quaternion(1.0, 2.0, 0.0, 0.0)).norm() < TOL


def test_save_load_roundtrip(tmp_path):
    rng = random.Random(137)
    f = rand_poly(rng, 7, scale=3.0)
    path = tmp_path / "coeffs.json"
    dump_json(f.to_record(), path)
    g = PowerSeries.from_record(load_json(path), path)
    assert load_coeffs(path) == g
    assert g.degree_bound == f.degree_bound
    assert max_coeff_diff(f, g) == 0
    # a file loaded back makes no exactness promise
    assert not g.exact


def test_series_scalar_operators():
    f = PowerSeries([ONE, I])
    g = 2.0 * f
    assert g.coeffs == (Quaternion(2.0), 2.0 * I)
    h = f * J  # right scalar multiple
    assert h.coeffs == (J, I * J)
    k = J * f  # left scalar multiple
    assert k.coeffs == (J, J * I)
    assert (-f).coeffs == (-ONE, -I)
    assert (f - f).is_zero()


def test_exp_truncation_refuses_at_its_cap():
    # at |x lambda| = 400 no degree up to 400 meets the tail bound (the
    # bound at degree 400 is about 1e345): an error, not the cap
    from slicealg import RangeError
    with pytest.raises(RangeError, match=r"radius 50\b.*above 1e-25.*400"):
        exp_truncation(50, 8)
    with pytest.raises(RangeError, match="up to degree 10"):
        exp_truncation(1.0, 2.0, tol=1e-16, max_degree=10)
    # a cap that is just reached with the bound met is no error
    n = exp_truncation(1.0, 2.0, tol=1e-16)
    assert exp_truncation(1.0, 2.0, tol=1e-16, max_degree=n) == n
    assert exp_tail_bound(1.0, 2.0, n) <= 1e-16 < exp_tail_bound(1.0, 2.0, n - 1)


# degrees from the float recurrence of exp_truncation (default tol 1e-25,
# cap 400); None marks the RangeError of the cap
_EXP_TRUNCATION = {
    (0.1, 0.25): 10, (0.1, 8.0): 23, (0.1, 30.0): 37,
    (0.5, 0.25): 14, (0.5, 2.0): 25, (0.5, 16.0): 60, (0.5, 30.0): 88,
    (1.0, 1.0): 25, (1.0, 8.0): 60, (1.0, 30.0): 145,
    (1.8, 1.0): 30, (1.8, 8.0): 86, (1.8, 30.0): 233,
    (3.0, 0.25): 23, (3.0, 8.0): 123, (3.0, 30.0): 363,
    (5.0, 2.0): 69, (5.0, 16.0): 327, (5.0, 30.0): None,
    (8.0, 8.0): 269, (8.0, 16.0): None,
    (12.5, 1.0): 79, (12.5, 8.0): 399, (12.5, 16.0): None,
    (50, 8): None, (100, 8): None, (700, 1): None, (1e300, 1e300): None,
    (math.inf, 1.0): None,
}


@pytest.mark.parametrize("radius, lam_norm", list(_EXP_TRUNCATION))
def test_exp_truncation_sweep_ends_in_a_degree_or_range_error(radius,
                                                               lam_norm):
    # past |x lambda| ~ 709 the first bound t e^t overflows a float; that
    # must end in the cap's RangeError too, not in an OverflowError
    from slicealg import RangeError
    want = _EXP_TRUNCATION[radius, lam_norm]
    if want is None:
        with pytest.raises(RangeError, match="up to degree 400"):
            exp_truncation(radius, lam_norm)
    else:
        assert exp_truncation(radius, lam_norm) == want


def test_exp_truncation_past_float_range_uses_the_log_bound():
    # with a cap high enough, t = 800 has a degree; it is the first N
    # whose log bound (N+1) log t + t - log (N+1)! is below log tol
    n = exp_truncation(100, 8, max_degree=10_000)

    def log_bound(k):
        return (k + 1) * math.log(800) + 800 - math.lgamma(k + 2)
    assert log_bound(n) <= math.log(1e-25) < log_bound(n - 1)


def test_exp_tail_bound_past_float_range_uses_the_log_bound():
    # 800^2914 / 2914! and e^800 leave the float range, the bound does not;
    # it agrees with the degree exp_truncation finds
    assert exp_tail_bound(100, 8, 2913) <= 1e-25 < exp_tail_bound(100, 8, 2912)
    assert exp_truncation(100, 8, max_degree=10_000) == 2913
    assert 0.0 <= exp_tail_bound(1.0, 8.0, 300) < 1e-300
    assert exp_tail_bound(100, 8, 10) == math.inf
    # where the direct form is finite, it is the value
    assert exp_tail_bound(2.0, 3.0, 4) == 6.0 ** 5 / 120 * math.exp(6.0)


def test_exp_tail_bound_refuses_a_degree_below_minus_one():
    # N = -1 keeps no term, so the whole of e^t is tail; a lower degree
    # means nothing and is refused, naming it
    from slicealg import RangeError
    assert exp_tail_bound(1.0, 1.0, -1) == math.exp(1.0)
    assert exp_tail_bound(0.0, 1.0, -1) == 1.0
    for radius, n in ((1.0, -5), (0.0, -3), (1.0, -2)):
        with pytest.raises(RangeError, match=f"degree >= -1, got {n}$"):
            exp_tail_bound(radius, 1.0, n)


@pytest.mark.parametrize("radius, lam_norm",
                         [(float("nan"), 8.0), (-1.0, 8.0), (1.0, -0.5)])
def test_exp_tail_bound_refuses_nan_and_negative_arguments(radius, lam_norm):
    from slicealg import RangeError
    with pytest.raises(RangeError, match=r"radius \* \|lambda\| >= 0"):
        exp_truncation(radius, lam_norm)
    with pytest.raises(RangeError, match=r"radius \* \|lambda\| >= 0"):
        exp_tail_bound(radius, lam_norm, 10)
