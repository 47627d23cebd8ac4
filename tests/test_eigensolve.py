"""Closed-form solvers for the slice-derivative eigenvalue operator.

D_lambda f = f' - f lambda on entire slice-regular functions; S_lambda
and E_lambda are its right inverses on polynomials and on certified
series, gen_exp builds the canonical kernel elements of D-products.
"""

import hashlib
import math
import random
import re

import pytest

from slicealg import (
    CertificateViolation,
    CoeffBoundCert,
    E_lambda_op,
    ParseError,
    PowerSeries,
    Quaternion,
    RangeError,
    I,
    J,
    K,
    ONE,
    ZERO,
    ZeroEigenvalue,
    apply_D,
    exp_series,
    f_mu_lambda,
    gen_exp,
    kernel_basis,
    slice_derivative,
    solve_with_initial,
)

TOL = 1e-12


def rand_q(rng, scale=1.5):
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


def rand_poly(rng, deg, scale=1.0):
    return PowerSeries([rand_q(rng, scale) for _ in range(deg + 1)])


def max_coeff_diff(f, g):
    n = min(f.degree_bound, g.degree_bound)
    return max((f.coeff(k) - g.coeff(k)).norm() for k in range(n + 1))


def test_apply_D_coefficients():
    lam = Quaternion(0.5, 1.0, 0.0, -0.5)
    f = PowerSeries([ONE, I, J])
    df = apply_D(lam, f)
    # b_n = (n+1) a_{n+1} - a_n lam
    assert (df.coeff(0) - (I - lam)).norm() < TOL
    assert (df.coeff(1) - (2.0 * J - I * lam)).norm() < TOL
    assert (df.coeff(2) - (-(J * lam))).norm() < TOL
    assert df.exact and df.degree_bound == 2


def test_apply_D_matches_the_coefficient_formula_bitwise():
    # b_n = (n+1) a_{n+1} - a_n lam: a polynomial keeps its degree (a_{d+1}
    # = 0), a truncation loses its last coefficient, which it cannot determine
    rng = random.Random(601)
    lam = rand_q(rng)
    coeffs = [rand_q(rng) for _ in range(9)]
    a = coeffs + [ZERO]

    def bits(qs):
        return [[v.hex() for v in q.as_list()] for q in qs]
    for exact, top in ((True, 9), (False, 8)):
        df = apply_D(lam, PowerSeries(coeffs, exact=exact))
        want = [a[n + 1] * float(n + 1) - a[n] * lam for n in range(top)]
        assert df.exact == exact and bits(df.coeffs) == bits(want)
    with pytest.raises(ValueError, match="degree-0 truncated"):
        apply_D(lam, PowerSeries([ONE], exact=False))


@pytest.mark.parametrize("zero", [0, ZERO], ids=["int", "ZERO"])
def test_apply_D_at_lambda_zero_is_the_slice_derivative(zero):
    # D_0 f = f' by the general formula, with the stored length that every
    # lambda gives: a polynomial keeps it, a truncation loses one
    rng = random.Random(607)
    coeffs = [rand_q(rng) for _ in range(7)]
    for exact in (True, False):
        f = PowerSeries(coeffs, exact=exact)
        df, want = apply_D(zero, f), slice_derivative(f)
        assert df.exact == exact
        assert len(df.coeffs) == len(apply_D(I, f).coeffs) == 7 - (not exact)
        assert all(df.coeff(n) == want.coeff(n) for n in range(len(df.coeffs)))
    with pytest.raises(ValueError, match="degree-0 truncated"):
        apply_D(zero, PowerSeries([ONE], exact=False))


def test_D_exp_is_eigenfunction():
    rng = random.Random(301)
    for _ in range(25):
        lam = rand_q(rng)
        e = exp_series(lam, 40)
        d = apply_D(lam, e)
        for n in range(d.degree_bound + 1):
            assert d.coeff(n).norm() < TOL


def test_S_lambda_right_inverse():
    # the formula uses powers of lam^{-1} up to degree+1, so the float
    # roundtrip is conditioned by |lam|^-(d+1): keep |lam| >= 1/2
    rng = random.Random(303)
    for _ in range(50):
        lam = rand_q(rng, 2.0)
        n = lam.norm()
        if n < 1e-9:
            continue
        lam = lam * (rng.uniform(0.5, 2.5) / n)
        p = rand_poly(rng, rng.randint(0, 12))
        s = S_lambda_checked(lam, p)
        back = apply_D(lam, s)
        # roundoff is proportional to the intermediate coefficient size
        # (terms up to n! |lam|^{-n-1}), not to |p|
        assert max_coeff_diff(back, p) < 1e-13 * max(1.0, _max_norm(s))


def _max_norm(f):
    return max(c.norm() for c in f.coeffs) or 1.0


def S_lambda_checked(lam, p):
    from slicealg import S_lambda
    s = S_lambda(lam, p)
    assert s.exact
    assert s.degree_bound == p.degree_bound
    return s


def test_S_lambda_high_degree_is_finite():
    # n!/k! overflows past degree 170; the backward recurrence never forms it
    rng = random.Random(309)
    lam = rand_q(rng)
    lam = lam * (90.0 / lam.norm())
    p = rand_poly(rng, 199)
    s = S_lambda_checked(lam, p)
    assert all(math.isfinite(c.norm()) for c in s.coeffs)
    back = apply_D(lam, s)
    assert max_coeff_diff(back, p) < 1e-13 * max(1.0, _max_norm(s))


def test_S_lambda_rejects_zero_and_inexact():
    from slicealg import S_lambda
    p = PowerSeries([ONE, I])
    with pytest.raises(ZeroEigenvalue):
        S_lambda(ZERO, p)
    with pytest.raises(ValueError):
        S_lambda(I, PowerSeries([ONE, I], exact=False))
    # |lambda|^2 overflows at 1e200 (the inverse was 0, so S_lambda
    # returned zeros) and underflows at 1e-170 i (ZeroDivisionError)
    for lam in (Quaternion(1e200), Quaternion(0, 1e-170)):
        with pytest.raises(ZeroEigenvalue, match="no accurate inverse"):
            S_lambda(lam, p)
        with pytest.raises(ZeroEigenvalue, match="no accurate inverse"):
            CoeffBoundCert.fit(p, 0, lam)


def test_E_lambda_right_inverse_on_polynomials():
    rng = random.Random(307)
    for _ in range(25):
        lam = rand_q(rng)
        p = rand_poly(rng, rng.randint(0, 8))
        u = E_lambda_op(lam, p, n_trunc=40)
        d = apply_D(lam, u)
        assert max_coeff_diff(d, p) < 1e-10
        # the image vanishes at the origin
        assert u.coeff(0).norm() == 0.0


def test_E_zero_is_plain_integration():
    p = PowerSeries([Quaternion(2.0), ONE])
    u = E_lambda_op(ZERO, p, n_trunc=10)
    assert u.exact
    assert (u.coeff(1) - Quaternion(2.0)).norm() < TOL
    assert (u.coeff(2) - Quaternion(0.5)).norm() < TOL


def test_E_lambda_certificate_gate():
    # inexact input with nonzero eigenvalue needs a growth certificate
    h = exp_series(I, 30)          # inexact series
    with pytest.raises(CertificateViolation):
        E_lambda_op(J, h, n_trunc=30)
    cert = CoeffBoundCert.fit(h, 0, I)
    u = E_lambda_op(J, h, n_trunc=30, cert=cert)
    d = apply_D(J, u)
    assert max_coeff_diff(d, h) < 1e-10
    # a certificate whose |lambda| does not match the operator is refused
    bad = CoeffBoundCert(c=1.0, d=0, lam=2.0 * I)
    with pytest.raises(CertificateViolation):
        E_lambda_op(J, h, n_trunc=30, cert=bad)


def test_cert_verify_rejects_fast_growth():
    # coefficients n! a_n ~ 2^n cannot satisfy a class-A_1 certificate
    f = PowerSeries([Quaternion(2.0 ** n / math.factorial(n))
                     for n in range(12)], exact=False)
    cert = CoeffBoundCert(c=1.0, d=2, lam=I)
    with pytest.raises(CertificateViolation):
        cert.verify(f)


def test_cert_is_an_immutable_record_with_a_stable_repr():
    # a certificate prints, compares and hashes by its three fields, and
    # none of them can be set after it is made
    cert = CoeffBoundCert(c=1.0, d=2, lam=I)
    assert repr(cert) == \
        "CoeffBoundCert(c=1.0, d=2, lam=Quaternion(0.0, 1.0, 0.0, 0.0))"
    for field, value in (("c", 2.0), ("d", 3), ("lam", J)):
        with pytest.raises(AttributeError):
            setattr(cert, field, value)
    twin = CoeffBoundCert(1.0, 2, Quaternion(0, 1))
    assert twin == cert and hash(twin) == hash(cert)
    assert CoeffBoundCert(c=1.0, d=3, lam=I) != cert


def test_fitted_cert_gives_the_pinned_coefficients():
    # fit -> E_lambda_op(cert=...) on exp_i to degree 30: the constant and
    # every coefficient bit of the result are pinned
    h = exp_series(I, 30)
    cert = CoeffBoundCert.fit(h, 0, I)
    assert (cert.c.hex(), cert.d, cert.lam) == ("0x1.0000000000001p+0", 0, I)
    u = E_lambda_op(J, h, n_trunc=30, cert=cert)
    assert len(u.coeffs) == 31 and not u.exact
    bits = " ".join(float.hex(getattr(q, s)) for q in u.coeffs
                    for s in Quaternion.__slots__)
    assert hashlib.sha256(bits.encode()).hexdigest() == \
        "c6e4a05f1f7c2e94f3f248bb63e4774db0216616baf00e01cef3b0c77b1428ba"


def test_empty_eigenvalue_tuple_is_refused():
    # an order-0 product D_{lambda_1}...D_{lambda_m} has no kernel basis
    for call in (lambda: gen_exp([]), lambda: kernel_basis([]),
                 lambda: solve_with_initial([], [])):
        with pytest.raises(ValueError, match="at least one eigenvalue"):
            call()


def test_solvers_refuse_their_inputs_in_the_cli_words():
    # the solvers are the one home of these rules: a ParseError, which the
    # CLI prints as one line with exit status 2
    for call, message in (
            (lambda: gen_exp([I, J, K], 1), "degree 1 too small for a tuple of length 3"),
            (lambda: gen_exp([I], -1), "degree -1 too small for a tuple of length 1"),
            (lambda: kernel_basis([]), "need at least one eigenvalue"),
            (lambda: solve_with_initial([I], [I, J]),
             "need as many initial values as eigenvalues"),
            (lambda: solve_with_initial([I, J], [ONE], 0),
             "need as many initial values as eigenvalues"),
            (lambda: solve_with_initial([I, J], [ONE, K], -3),
             "degree -3 too small for a tuple of length 2")):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            call()
    # degree m - 1 holds E_Lambda: its one stored nonzero coefficient is x^(m-1)
    assert len(gen_exp([I, J, K], 2).coeffs) == 3


def test_gen_exp_matches_brute_force():
    # E_Lambda coefficient n: sum over compositions n = n_1+..+n_m of
    # products prod_l lam_l^{n_l} / (n_l + chi)!, built here directly from
    # the defining iterated integrals; see the recurrence check below.
    rng = random.Random(311)
    for _ in range(20):
        m = rng.randint(1, 3)
        lams = [rand_q(rng) for _ in range(m)]
        f = gen_exp(lams, 8)
        g = brute_force_gen_exp(lams, 8)
        for n in range(9):
            diff = (f.coeff(n) - g[n]).norm()
            scale = max(1.0, g[n].norm())
            assert diff / scale < 1e-12


def brute_force_gen_exp(lams, n_max):
    """Multi-index series for E_Lambda, independent of the recurrence.

    E_(lam1..lam_m) = sum_{k1>=...>=km>=0, k1<=n} x^{k1+m-1}/(k1+m-1)! *
    ... generated instead by repeated exact antiderivative-with-shift on
    truncated polynomials: A_lam(f) = integral with right eigen-shift,
    c_{n+1} = (c_n lam + a_n)/(n+1), c_0 = 0 -- applied to 1.
    """
    coeffs = [ONE] + [ZERO] * n_max
    first = lams[0]
    out = [ZERO] * (n_max + 1)
    # exp_{lam1} by explicit powers
    for n in range(n_max + 1):
        p = ONE
        for _ in range(n):
            p = p * first
        out[n] = p * (1.0 / math.factorial(n))
    for lam in lams[1:]:
        nxt = [ZERO] * (n_max + 1)
        # iterated integral: coefficient by explicit multi-index sums
        # nxt_n = sum_{k=0}^{n-1} out_k lam^{n-1-k} (k)!/(n)!  ... derived by
        # unrolling c_{j+1} = (c_j lam + out_j)/(j+1)
        for n in range(1, n_max + 1):
            acc = ZERO
            for k in range(n):
                p = out[k]
                for _ in range(n - 1 - k):
                    p = p * lam
                acc = acc + p * (math.factorial(k) / math.factorial(n))
            nxt[n] = acc
        out = nxt
    return out


def test_gen_exp_multi_index_closed_form_commuting():
    # for m = 2 with commuting eigenvalues the double sum collapses:
    # E_(a,b) coeff_n = sum_{k=0}^{n-1} a^k b^{n-1-k} / n! * (something
    # independent of order) -- cross-check against itertools enumeration
    rng = random.Random(313)
    for _ in range(10):
        lam = rand_q(rng)
        f = gen_exp([lam, lam], 10)
        for n in range(1, 11):
            # E_(lam,lam) = x exp_lam: coeff_n = lam^{n-1} n / n!
            p = ONE
            for _ in range(n - 1):
                p = p * lam
            want = p * (n / math.factorial(n))
            assert (f.coeff(n) - want).norm() < 1e-12


def test_gen_exp_telescoping():
    rng = random.Random(317)
    for _ in range(20):
        m = rng.randint(2, 5)
        lams = [rand_q(rng) for _ in range(m)]
        f = gen_exp(lams, 30)
        d = apply_D(lams[-1], f)
        g = gen_exp(lams[:-1], 30)
        assert max_coeff_diff(d, g) < 1e-10


def test_gen_exp_repeated_eigenvalue():
    rng = random.Random(319)
    for m in range(1, 6):
        lam = rand_q(rng)
        f = gen_exp([lam] * m, 30)
        e = exp_series(lam, 30)
        mono = PowerSeries.monomial(m - 1, 1.0 / math.factorial(m - 1))
        want = mono * e
        assert max_coeff_diff(f, want) < TOL


def test_gen_exp_first_coefficients():
    f = gen_exp([I, J], 6)
    assert f.coeff(0) == ZERO
    assert f.coeff(1) == ONE            # x + O(x^2)
    assert (f.coeff(2) - 0.5 * (I + J)).norm() < TOL


def test_gen_exp_degree_guard():
    with pytest.raises(ValueError):
        gen_exp([I, J, K], 1)


def test_gen_exp_iij_closed_form():
    # E_(i,i,j) = 1/4 (x^2 cos x + x sin x) + 1/4 (-x cos x + (x^2+1) sin x) i
    #           + 1/4 (x cos x + (x^2-1) sin x) j + 1/4 (x sin x - x^2 cos x) k
    # (scalar factors evaluated on the slice of x, constants on the right)
    import cmath
    from slicealg import decompose

    f = gen_exp([I, I, J], 40)
    rng = random.Random(341)
    pts = [Quaternion(0.7), Quaternion(-1.2)] + \
        [rand_q(rng, 0.9) for _ in range(10)]
    for x in pts:
        sp = decompose(x)
        z = complex(sp.alpha, sp.beta)
        jq = sp.j if sp.j is not None else I

        def cval(w):
            return Quaternion(w.real) + jq * w.imag

        s, c = cmath.sin(z), cmath.cos(z)
        want = (cval(z * z * c + z * s)
                + cval(-z * c + (z * z + 1) * s) * I
                + cval(z * c + (z * z - 1) * s) * J
                + cval(z * s - z * z * c) * K) * 0.25
        assert (f(x) - want).norm() < 1e-9 * max(1.0, want.norm())


def test_kernel_basis_spans_suffixes():
    lams = [I, J, Quaternion(1.0, 0.0, 0.0, 1.0)]
    basis = kernel_basis(lams, 25)
    assert len(basis) == 3
    # element i solves D_{lam_m}...D_{lam_i} = 0 chain: applying the
    # operators right-to-left annihilates it
    for i, f in enumerate(basis):
        g = f
        for lam in reversed(lams[i:]):
            g = apply_D(lam, g)
        assert all(g.coeff(n).norm() < 1e-9 for n in range(g.degree_bound - 2))


def _coeff_bits(f):
    return [[float.hex(v) for v in c.as_list()] for c in f.coeffs]


def test_kernel_basis_elements_have_the_bits_of_gen_exp():
    # both read one suffix chain, each element built from the next
    rng = random.Random(335)
    for lams in ([I, J, K],
                 [Quaternion(0.7, 0.4, -0.3, 0.0), Quaternion(-0.2, 0.0, 0.0, 0.5)],
                 [rand_q(rng) for _ in range(5)]):
        basis = kernel_basis(lams, 30)
        assert len(basis) == len(lams)
        for i, f in enumerate(basis):
            assert _coeff_bits(f) == _coeff_bits(gen_exp(lams[i:], 30)), i


def test_kernel_basis_makes_m_times_n_quaternion_products(monkeypatch):
    # one pass of n products per eigenvalue, not one chain per suffix
    rng = random.Random(336)
    lams = [rand_q(rng) for _ in range(4)]
    calls = []
    mul = Quaternion.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)
    monkeypatch.setattr(Quaternion, "__mul__", counted)
    kernel_basis(lams, 25)
    assert len(calls) == 4 * 25


def test_solve_with_initial_reproduces_data():
    rng = random.Random(331)
    for _ in range(15):
        m = rng.randint(1, 4)
        lams = [rand_q(rng) for _ in range(m)]
        vals = [rand_q(rng) for _ in range(m)]
        f = solve_with_initial(lams, vals, 40)
        # initial data are the values at 0 of f, D_{lam_m}f,
        # D_{lam_{m-1}}D_{lam_m}f, ... -- walk the chain explicitly
        g = f
        got = [g.coeff(0)]
        for lam in reversed(lams[1:]):
            g = apply_D(lam, g)
            got.append(g.coeff(0))
        for want, have in zip(reversed(vals), got):
            assert (want - have).norm() < 1e-9


def test_solve_with_initial_guards():
    with pytest.raises(ValueError):
        solve_with_initial([I, J], [ONE], 20)


def test_f_mu_lambda_is_solution():
    # D_lambda f = exp_mu requires 0 < |mu| < |lambda|
    rng = random.Random(337)
    for _ in range(10):
        mu_ = rand_q(rng, 0.5)
        lam = rand_q(rng, 1.0)
        lam = lam * ((mu_.norm() + 1.2) / max(lam.norm(), 1e-9))
        if mu_.norm() < 0.05:
            continue
        f = f_mu_lambda(mu_, lam, 50)
        d = apply_D(lam, f)
        e = exp_series(mu_, 50)
        assert max_coeff_diff(d, e) < 1e-9


def test_f_mu_lambda_commuting_closed_form():
    # when mu and lambda commute, f = exp_mu (mu - lambda)^{-1}
    mu_ = 0.5 * I
    lam = 2.0 * I
    f = f_mu_lambda(mu_, lam, 45)
    want = exp_series(mu_, 45) * (mu_ - lam).inverse()
    assert max_coeff_diff(f, want) < 1e-12


def test_f_mu_lambda_near_the_radius():
    # |mu|/|lambda| = 0.999: the geometric sum behind each coefficient
    # converges too slowly to sum term by term
    rng = random.Random(341)
    lam = rand_q(rng, 1.0)
    lam = lam * (1.3 / lam.norm())
    mu_ = rand_q(rng, 1.0)
    mu_ = mu_ * (0.999 * 1.3 / mu_.norm())
    d = apply_D(lam, f_mu_lambda(mu_, lam, 40))
    e = exp_series(mu_, 40)
    for n in range(d.degree_bound + 1):
        assert (d.coeff(n) - e.coeff(n)).norm() <= 1e-12 * e.coeff(n).norm()


def test_f_mu_lambda_range_guards():
    with pytest.raises(RangeError):
        f_mu_lambda(ZERO, I)
    with pytest.raises(RangeError):
        f_mu_lambda(I, I)           # |mu| = |lambda|
    with pytest.raises(RangeError):
        f_mu_lambda(2.0 * I, J)     # |mu| > |lambda|
    with pytest.raises(RangeError, match=r"got \|mu\| = 1e\+200, "
                                         r"\|lambda\| = 1e\+199$"):
        f_mu_lambda(1e200, 1e199)


def test_f_mu_lambda_range_guard_refuses_nan_and_inf_moduli():
    # a NaN or infinite modulus fails the one rule 0 < |mu| < |lambda| <
    # inf, so the refusal names both moduli, not a NaN denominator
    for mu_, lam in ((1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(RangeError) as exc:
            f_mu_lambda(mu_, lam)
        assert str(exc.value) == (
            f"f_mu_lambda requires 0 < |mu| < |lambda| < inf, got "
            f"|mu| = {mu_!r}, |lambda| = {lam!r}")
        assert "nani" not in str(exc.value)


def test_f_mu_lambda_refuses_a_denominator_without_an_accurate_inverse():
    # mu^2 - 2 Re(lambda) mu + |lambda|^2 has |q|^2 = inf, NaN (from
    # inf - inf, named as the overflow it is), then |q|^2 below the normal
    # floats: a RangeError names |mu| and |lambda|, finite although |mu|^2
    # and |lambda|^2 overflow
    for mu_, lam, got in ((1e150, 1e155, "not finite"),
                          (1e199, 1e200, "|lambda|^2 overflows the float range"),
                          (1e-150, 1e-149, "not a normal float")):
        with pytest.raises(RangeError) as exc:
            f_mu_lambda(mu_, lam)
        assert str(exc.value).startswith(
            f"f_mu_lambda at |mu| = {mu_!r}, |lambda| = {lam!r}: ")
        assert str(exc.value).endswith(got)
        assert "nan" not in str(exc.value)


def test_verify_roundtrip_bound_passes_the_seeds_it_failed():
    # an absolute 1e-9 on D(S(p)) - p failed these seeds by rounding alone
    import io
    from slicealg.verify import run_suites
    for seed in (5, 9, 10):
        out = io.StringIO()
        assert run_suites(["eigensolve"], seed, out) == 0, out.getvalue()


def test_verify_roundtrip_bound_catches_a_left_inverse(monkeypatch):
    # lambda^-1 on the left solves the wrong recurrence for a
    # noncommuting lambda; the rounding bound refuses it
    import io
    import slicealg.eigensolve as eigensolve
    import slicealg.verify as verify
    from slicealg.series import PowerSeries

    def s_left(lam, p):
        lam_inv, nxt, out = lam.inverse(), ZERO, [ZERO] * len(p.coeffs)
        for k in range(p.degree_bound, -1, -1):
            nxt = out[k] = lam_inv * (nxt * float(k + 1) - p.coeffs[k])
        return PowerSeries(out, exact=True)
    # the suite imports S_lambda when it runs, so the patch goes to its home
    monkeypatch.setattr(eigensolve, "S_lambda", s_left)
    out = io.StringIO()
    assert verify.run_suites(["eigensolve"], 1729, out) == 1
    assert "FAIL eigensolve: D(S(p)) != p" in out.getvalue()


@pytest.mark.parametrize("seed", [1, 2, 3, 1729])
def test_verify_catches_the_sylvester_factors_swapped(monkeypatch, seed):
    # T = quad^-1 (conj(lambda) - mu) with its two factors swapped is still
    # right for a commuting pair; the suite's noncommuting pair refuses it
    import io
    import slicealg.eigensolve as eigensolve
    import slicealg.verify as verify
    from slicealg.series import PowerSeries

    def f_swapped(mu, lam, n_trunc=40):
        quad = mu * mu - (2.0 * lam.w) * mu + lam.norm2()
        t = (lam.conjugate() - mu) * quad.inverse()
        out, mu_pow = [], ONE
        for k in range(n_trunc + 1):
            out.append(-(mu_pow * t) / math.factorial(k))
            mu_pow = mu_pow * mu
        return PowerSeries(out, exact=False)
    monkeypatch.setattr(eigensolve, "f_mu_lambda", f_swapped)
    out = io.StringIO()
    assert verify.run_suites(["eigensolve"], seed, out) == 1
    assert out.getvalue().startswith(
        "FAIL eigensolve: D_lambda f^{mu,lambda} != exp_mu\n")
