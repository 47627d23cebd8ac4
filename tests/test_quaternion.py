"""Quaternion arithmetic and slice decomposition."""

import math
import random

import numpy as np
import pytest

from slicealg import (
    ParseError,
    Quaternion,
    I,
    J,
    K,
    ONE,
    ZERO,
    as_quaternion,
    commutes,
    decompose,
    format_quaternion,
    parse_quaternion,
)

TOL = 1e-12


def rand_q(rng, scale=2.0):
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


def qdist(a, b):
    return (a - b).norm()


def test_multiplication_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert K * J == -I
    assert I * K == -J
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = rand_q(rng), rand_q(rng), rand_q(rng)
        assert qdist((a * b) * c, a * (b * c)) < TOL
        assert qdist(a * (b + c), a * b + a * c) < TOL
        assert qdist((a + b) * c, a * c + b * c) < TOL
        assert qdist(a * ONE, a) == 0
        assert qdist(ONE * a, a) == 0


def test_norm_is_multiplicative():
    rng = random.Random(13)
    for _ in range(100):
        a, b = rand_q(rng), rand_q(rng)
        assert (a * b).norm() == pytest.approx(a.norm() * b.norm(), rel=1e-12)


def test_conjugate_anti_automorphism():
    rng = random.Random(17)
    for _ in range(100):
        a, b = rand_q(rng), rand_q(rng)
        assert qdist((a * b).conjugate(), b.conjugate() * a.conjugate()) < TOL
        assert qdist(a.conjugate().conjugate(), a) == 0
        # q qbar = |q|^2
        n2 = a * a.conjugate()
        assert n2.w == pytest.approx(a.norm2(), rel=1e-12)
        assert abs(n2.x1) < TOL and abs(n2.x2) < TOL and abs(n2.x3) < TOL


def test_inverse():
    rng = random.Random(19)
    for _ in range(100):
        a = rand_q(rng)
        if a.norm() < 1e-6:
            continue
        assert qdist(a * a.inverse(), ONE) < 1e-10
        assert qdist(a.inverse() * a, ONE) < 1e-10
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    # conj(q) / |q|^2 was 1.2% off at 1e-161 i (|q|^2 subnormal), 19% off
    # at 2e-162 i, and 0 at 1e200 (|q|^2 infinite)
    for q in (Quaternion(1e200), Quaternion(0, 1e-161), Quaternion(0, 2e-162),
              Quaternion(0, 1e-170)):
        with pytest.raises(ZeroDivisionError, match="no accurate inverse"):
            q.inverse()
    # at either end of the normal range the inverse is accurate
    for q in (Quaternion(0, 1.5e-154), Quaternion(1e154), Quaternion(0, 0, 1e154)):
        assert qdist(q * q.inverse(), ONE) < 1e-15


def test_real_and_imag_parts():
    q = Quaternion(1.5, -2.0, 0.25, 3.0)
    assert q.imag() == Quaternion(0.0, -2.0, 0.25, 3.0)
    assert q.imag_norm() == pytest.approx(math.sqrt(4.0 + 0.0625 + 9.0))
    assert not q.is_real()
    assert Quaternion(2.0).is_real()


def test_commutes_predicate():
    assert commutes(I, I)
    assert commutes(I, Quaternion(3.0, 2.0, 0.0, 0.0))
    assert not commutes(I, J)
    # real quaternions commute with everything
    rng = random.Random(23)
    for _ in range(20):
        assert commutes(Quaternion(rng.uniform(-3, 3)), rand_q(rng))


def test_decompose_roundtrip():
    rng = random.Random(29)
    for _ in range(200):
        x = rand_q(rng)
        if x.imag_norm() < 1e-9:
            continue
        sp = decompose(x)
        assert sp.j is not None
        assert sp.beta > 0
        # j is a unit with j^2 = -1
        assert sp.j.norm() == pytest.approx(1.0, rel=1e-12)
        assert qdist(sp.j * sp.j, -ONE) < 1e-12
        back = sp.to_quaternion()
        assert qdist(back, x) < 1e-12


def test_decompose_real_point():
    sp = decompose(Quaternion(2.5))
    assert sp.j is None
    assert sp.alpha == 2.5 and sp.beta == 0.0
    assert sp.to_quaternion() == Quaternion(2.5)


def test_parse_format_roundtrip():
    rng = random.Random(31)
    for _ in range(100):
        q = rand_q(rng, 10.0)
        assert parse_quaternion(format_quaternion(q)) == q
    assert parse_quaternion("i") == I
    assert parse_quaternion("-k") == -K
    assert parse_quaternion("1+2i-3j+0.5k") == Quaternion(1.0, 2.0, -3.0, 0.5)
    assert parse_quaternion("  2.5e-3 ") == Quaternion(0.0025)
    assert format_quaternion(ZERO) == "0"


@pytest.mark.parametrize("bad", ["", "1++i", "2x", "i j", "1 2", "+", "3..5"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_quaternion(bad)


def test_as_quaternion_coercions():
    assert as_quaternion(2) == Quaternion(2.0)
    assert as_quaternion(2.5) == Quaternion(2.5)
    assert as_quaternion(I) is I
    with pytest.raises(TypeError):
        as_quaternion("i")  # strings go through parse_quaternion instead


def test_arithmetic_has_the_bits_of_the_public_constructor():
    # the arithmetic sets the slots directly; a scalar operand goes through
    # float() first, so no np.float64, int or bool lands in a component,
    # and each result has the bits and repr of Quaternion(...) on the
    # same formula
    rng = random.Random(907)
    for _ in range(200):
        a, b = rand_q(rng), rand_q(rng)
        (aw, a1, a2, a3), (bw, b1, b2, b3) = a.as_list(), b.as_list()
        for s in (np.float64(rng.uniform(-3, 3)), rng.randint(1, 9), True,
                  rng.uniform(-3, 3)):
            pairs = [
                (a + b, Quaternion(aw + bw, a1 + b1, a2 + b2, a3 + b3)),
                (a - b, Quaternion(aw - bw, a1 - b1, a2 - b2, a3 - b3)),
                (-a, Quaternion(-aw, -a1, -a2, -a3)),
                (a * b, Quaternion(aw * bw - a1 * b1 - a2 * b2 - a3 * b3,
                                   aw * b1 + a1 * bw + a2 * b3 - a3 * b2,
                                   aw * b2 - a1 * b3 + a2 * bw + a3 * b1,
                                   aw * b3 + a1 * b2 - a2 * b1 + a3 * bw)),
                (a + s, Quaternion(aw + s, a1 + 0.0, a2 + 0.0, a3 + 0.0)),
                (s - a, Quaternion(s - aw, 0.0 - a1, 0.0 - a2, 0.0 - a3)),
                (a * s, Quaternion(aw * s, a1 * s, a2 * s, a3 * s)),
                (s * a, Quaternion(aw * s, a1 * s, a2 * s, a3 * s)),
                (a / s, Quaternion(aw / s, a1 / s, a2 / s, a3 / s)),
            ]
            for got, want in pairs:
                assert all(type(v) is float for v in got.as_list())
                assert [v.hex() for v in got.as_list()] == \
                    [v.hex() for v in want.as_list()]
                assert repr(got) == repr(want)


def test_require_unit_imag_lives_in_quaternion():
    # the unit check is a quaternion predicate; sliceexpr re-exports it
    from slicealg import quaternion, sliceexpr
    assert sliceexpr._require_unit_imag is quaternion._require_unit_imag
    unit = Quaternion(0.0, 0.6, 0.0, 0.8)
    assert quaternion._require_unit_imag(unit, "I") is unit
    for bad in (Quaternion(0.1, 0.6, 0.0, 0.8), 2.0 * J, ONE):
        with pytest.raises(ParseError, match="I must be a unit imaginary"):
            quaternion._require_unit_imag(bad, "I")
