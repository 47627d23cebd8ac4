"""Slice functions beyond power series: stems, mu_I, slice constants."""

import random

import pytest

from slicealg import (
    DegenerateUnits,
    DomainError,
    ParseError,
    PowerSeries,
    Quaternion,
    SliceConstant,
    SliceExpr,
    StemSymmetryError,
    I,
    J,
    K,
    ONE,
    ZERO,
    decompose,
    exp_series,
    helmholtz_solution,
    lift,
    mu,
    recover_constants,
    slice_constant_from_two_values,
    slice_product,
    verify_stem_symmetry,
)

TOL = 1e-10


def rand_q(rng, scale=1.5):
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


def rand_nonreal(rng, scale=1.5):
    while True:
        x = rand_q(rng, scale)
        if x.imag_norm() > 0.2:
            return x


def rand_unit(rng):
    while True:
        v = Quaternion(0.0, *(rng.uniform(-1, 1) for _ in range(3)))
        n = v.norm()
        if n > 1e-3:
            return v * (1.0 / n)


def test_lift_agrees_with_series():
    rng = random.Random(201)
    f = PowerSeries([rand_q(rng) for _ in range(6)])
    lf = lift(f)
    assert lf.domain == "slice"
    for _ in range(40):
        x = rand_q(rng, 2.0)
        assert (lf(x) - f(x)).norm() < TOL


def test_lift_stems_independent_of_probe_unit():
    rng = random.Random(203)
    f = PowerSeries([rand_q(rng) for _ in range(5)])
    lf = lift(f)
    pts = [rand_nonreal(rng) for _ in range(25)]
    worst = verify_stem_symmetry(lf, pts)
    assert worst < 1e-10


def test_stem_symmetry_detects_fakes():
    # a "function" whose values secretly depend on the unit J of the point,
    # so that they are not F1 + J F2 of its stems
    class Fake:
        def stems(self, alpha, beta):
            return Quaternion(alpha), Quaternion(beta)

        def __call__(self, x):
            return x + x.x1 / x.imag_norm()

    fake = Fake()
    pts = [Quaternion(0.3, 1.0, 0.2, 0.0), Quaternion(-0.5, 0.0, 1.5, 0.4)]
    with pytest.raises(StemSymmetryError):
        verify_stem_symmetry(fake, pts)


def test_stem_symmetry_probes_beyond_the_sample_slice():
    # values that are F1 + J F2 on the slice of i alone: the sample
    # 0.3 + 0.8i is right, its mirror 0.3 - 0.8i and the orthogonal slice
    # are not
    class OneSlice:
        def stems(self, alpha, beta):
            return Quaternion(alpha), Quaternion(beta)

        def __call__(self, x):
            return x + (x.x1 / x.imag_norm() - 1.0)

    with pytest.raises(StemSymmetryError):
        verify_stem_symmetry(OneSlice(), [Quaternion(0.3, 0.8, 0.0, 0.0)])


def test_mu_two_sided_values():
    m = mu(I)
    rng = random.Random(207)
    for _ in range(20):
        a = rng.uniform(-2, 2)
        b = rng.uniform(0.1, 2)
        up = Quaternion(a, b, 0.0, 0.0)     # C_I+
        dn = Quaternion(a, -b, 0.0, 0.0)    # C_I-
        assert m(up).norm() < TOL
        assert (m(dn) - ONE).norm() < TOL
    # constant stems (1/2, I/2)
    f1, f2 = m.stems(0.1, 0.7)
    assert (f1 - Quaternion(0.5)).norm() < TOL
    assert (f2 - 0.5 * I).norm() < TOL


def test_mu_undefined_on_real_axis():
    m = mu(I)
    assert m.domain == "product"
    with pytest.raises(DomainError):
        m(Quaternion(1.0))


def test_mu_is_idempotent_under_slice_product():
    # mu . mu = mu (stems (1/2, I/2) square to themselves)
    m = mu(K)
    rng = random.Random(211)
    for _ in range(20):
        x = rand_nonreal(rng)
        v = (m * m)(x)
        assert (v - m(x)).norm() < TOL


def test_slice_constant_two_value_representation():
    rng = random.Random(213)
    for _ in range(25):
        uj, uk = rand_unit(rng), rand_unit(rng)
        if (uj - uk).norm() < 0.3 or (uj + uk).norm() < 0.3:
            continue
        a1, a2 = rand_q(rng), rand_q(rng)
        g = slice_constant_from_two_values(uj, uk, a1, a2)
        assert (g(uj * 1.7) - a1).norm() < TOL      # on C_J+
        assert (g(uk * 0.4) - a2).norm() < TOL      # on C_K+
        # slice constants have zero slice derivative
        x = rand_nonreal(rng)
        assert g.derivative()(x).norm() < 1e-6


def test_slice_constant_degenerate_units():
    with pytest.raises(DegenerateUnits):
        slice_constant_from_two_values(I, I, ONE, ZERO)
    # antipodal units are fine: the two half slices C_I+ and C_{-I}+ are
    # the two halves of one slice
    g = slice_constant_from_two_values(I, -I, ONE, ZERO)
    assert (g(Quaternion(0.0, 2.0, 0.0, 0.0)) - ONE).norm() < TOL
    assert g(Quaternion(0.0, -2.0, 0.0, 0.0)).norm() < TOL


def test_slice_constant_record_roundtrip():
    h = SliceConstant(I, Quaternion(1.0, 0.0, 2.0, 0.0), Quaternion(-3.0))
    rec = {"I": "i", "a1": "1+2j", "a2": "-3"}
    back = SliceConstant.from_record(rec, "h")
    assert back == h
    u = SliceConstant.uniform(Quaternion(2.0, 1.0, 0.0, 0.0))
    assert u.is_uniform
    assert SliceConstant.from_record({"I": "i", "a1": "2+i", "a2": "2+i"},
                                     "u") == u
    # collapsing case: equal half-values give a uniform constant
    c = SliceConstant(J, Quaternion(5.0), Quaternion(5.0))
    assert c.is_uniform and c == SliceConstant.uniform(5)
    assert SliceConstant(I, 1, 0) == SliceConstant(I, ONE, ZERO)
    # the constructor checks what it is given: a non-unit I gave wrong
    # values on the half slices, and a missing I a uniform constant
    with pytest.raises(ParseError, match="I must be a unit imaginary"):
        SliceConstant(Quaternion(0.0, 2.0), ONE, Quaternion(2.0))
    with pytest.raises(ParseError, match="two values needs a unit I"):
        SliceConstant(None, ONE, Quaternion(2.0))
    assert not helmholtz_solution(1.0, SliceConstant(I, ONE, ONE)).product_domain
    # malformed records are a ParseError, not a KeyError, naming the record
    with pytest.raises(ParseError, match="^h: expected a JSON object with keys"):
        SliceConstant.from_record({"i": "i", "a1": "1", "a2": "2"}, "h")
    with pytest.raises(ParseError, match="^h: expected a JSON object with keys"):
        SliceConstant.from_record(["I", "a1", "a2"], "h")
    with pytest.raises(ParseError, match="^h: unknown key 'a3'"):
        SliceConstant.from_record(dict(rec, a3="1"), "h")


def test_slice_constant_expr_values():
    h = SliceConstant(I, Quaternion(2.0), Quaternion(0.0, 0.0, 1.0, 0.0))
    g = h.expr()
    assert (g(Quaternion(0.3, 1.2, 0.0, 0.0)) - Quaternion(2.0)).norm() < TOL
    assert (g(Quaternion(0.3, -1.2, 0.0, 0.0)) - J).norm() < TOL
    # stems reproduce ((a1+a2)/2, I(a2-a1)/2)
    g1, g2 = h.stems()
    assert (g1 - 0.5 * (Quaternion(2.0) + J)).norm() < TOL
    assert (g2 - 0.5 * (I * (J - Quaternion(2.0)))).norm() < TOL


def test_pointwise_product_matches_series_convolution():
    rng = random.Random(217)
    for _ in range(20):
        f = PowerSeries([rand_q(rng) for _ in range(4)])
        g = PowerSeries([rand_q(rng) for _ in range(4)])
        x = rand_nonreal(rng)
        v1 = (lift(f) * lift(g))(x)
        v2 = slice_product(f, g)(x)
        assert (v1 - v2).norm() < TOL


def test_product_expr_and_constant_expr():
    # a uniform constant is a slice function on all of H, and multiplying
    # by it on the left is plain scaling, on the real axis too
    k = Quaternion(0.0, 0.0, 0.0, 2.0)
    c = SliceConstant.uniform(k).expr()
    assert c.domain == "slice"
    f = lift(exp_series(I, 30))
    p = c * f
    assert p.domain == "slice"
    for x in (Quaternion(0.4, 0.0, 1.1, 0.0), Quaternion(-0.7)):
        assert (p(x) - (k * exp_series(I, 30))(x)).norm() < TOL


def test_recover_constants_roundtrip():
    rng = random.Random(219)
    for _ in range(15):
        lam = rand_q(rng, 1.0)
        unit = rand_unit(rng)
        a1, a2 = rand_q(rng), rand_q(rng)
        g = SliceConstant(unit, a1, a2)
        f = g.expr() * lift(exp_series(lam, 60))
        b1, b2 = recover_constants(f, lam, unit, n_trunc=60)
        assert (b1 - a1).norm() < 1e-8
        assert (b2 - a2).norm() < 1e-8


def test_slice_derivative_pointwise_on_series():
    rng = random.Random(223)
    f = PowerSeries([rand_q(rng) for _ in range(6)])
    from slicealg import slice_derivative
    df = slice_derivative(f)
    for _ in range(20):
        x = rand_nonreal(rng)
        got = lift(f).derivative()(x)
        assert (got - df(x)).norm() < 1e-6


def _stem_product(f, g, alpha, beta):
    f1, f2 = f.stems(alpha, beta)
    g1, g2 = g.stems(alpha, beta)
    return f1 * g1 - f2 * g2, f1 * g2 + f2 * g1


def test_pair_products_match_the_stem_product():
    # constant x series and series x series of positive degree: the pair
    # product has the stems (F1 G1 - F2 G2, F1 G2 + F2 G1) of its factors
    rng = random.Random(227)
    for _ in range(20):
        g = SliceConstant(rand_unit(rng), rand_q(rng), rand_q(rng))
        f = SliceExpr(PowerSeries([rand_q(rng) for _ in range(5)]),
                      PowerSeries([rand_q(rng) for _ in range(4)]))
        e = lift(exp_series(rand_q(rng, 1.0), 30))
        for a, b in ((g.expr(), e), (e, g.expr()), (f, e), (e, f), (f, f)):
            x = rand_nonreal(rng)
            sp = decompose(x)
            want = _stem_product(a, b, sp.alpha, sp.beta)
            got = (a * b).stems(sp.alpha, sp.beta)
            scale = sum(v.norm() for v in a.stems(sp.alpha, sp.beta)) \
                * sum(v.norm() for v in b.stems(sp.alpha, sp.beta))
            for v, w in zip(got, want):
                assert (v - w).norm() < 1e-12 * scale
            assert ((a * b)(x) - (want[0] + sp.j * want[1])).norm() \
                < 1e-12 * scale


def test_slice_derivative_pointwise_is_exact_on_series():
    rng = random.Random(229)
    f = PowerSeries([rand_q(rng) for _ in range(6)])
    from slicealg import slice_derivative
    df = slice_derivative(f)
    for _ in range(20):
        x = rand_nonreal(rng)
        assert (lift(f).derivative()(x) - df(x)).norm() \
            < 1e-13


def test_recover_constants_degree_follows_the_tail_bound():
    # |lambda| = 10: the tail bound of exp_{+-lambda} at unit points asks
    # for degree 69; degree 40 leaves errors of about 1e-4
    rng = random.Random(233)
    for _ in range(20):
        lam = rand_unit(rng) * 10.0
        unit = rand_unit(rng)
        a1, a2 = rand_q(rng), rand_q(rng)
        g = SliceConstant(unit, a1, a2)
        f = g.expr() * lift(exp_series(lam, 120))
        b1, b2 = recover_constants(f, lam, unit)
        assert (b1 - a1).norm() < 1e-5
        assert (b2 - a2).norm() < 1e-5
