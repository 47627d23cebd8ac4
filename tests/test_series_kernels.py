"""Array kernels of the power-series layer.

``PowerSeries._horner`` is the one evaluation kernel, on floats and on
blocks of points; ``slice_product`` is four complex convolutions of the
coefficients' complex pairs.  The Quaternion loops they replaced are kept
here as references, and three counters pin the work each path does,
without timing.
"""

import math
import random

import numpy as np
import pytest

from slicealg import MonogenicSeries, PowerSeries, Quaternion, ZERO
from slicealg.cli import main
from slicealg.fmtio import dump_json, fmt_float
from slicealg.quaternion import BLOCK
from slicealg.series import slice_product


def rand_q(rng, scale=1.0):
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


def hexbits(q):
    return [float.hex(v) for v in q.as_list()]


def horner_loop(f, x):
    """The Quaternion Horner loop that ``PowerSeries.__call__`` replaced."""
    acc = f.coeffs[-1]
    for n in range(len(f.coeffs) - 2, -1, -1):
        acc = x * acc + f.coeffs[n]
    return acc


def product_loop(f, g):
    """The double loop over Quaternion products that ``slice_product``
    replaced, with its bound bookkeeping, and Sum |a_k| |b_(n-k)|."""
    if f.exact and g.exact:
        bound, exact = f.degree_bound + g.degree_bound, True
    else:
        exact, bound = f._bounds_with(g)
    fa = [f.coeff(n) if n <= f.degree_bound else ZERO for n in range(bound + 1)]
    ga = [g.coeff(n) if n <= g.degree_bound else ZERO for n in range(bound + 1)]
    out, scale = [], []
    for n in range(bound + 1):
        acc, size = ZERO, 0.0
        for k in range(n + 1):
            acc = acc + fa[k] * ga[n - k]
            size += fa[k].norm() * ga[n - k].norm()
        out.append(acc)
        scale.append(size)
    return PowerSeries(out, exact=exact), scale


POINTS = [Quaternion(0.0), Quaternion(0.7), Quaternion(0, 5e-324),
          Quaternion(0, 0, 1e-300), Quaternion(-0.3, 0.2, -0.5, 0.1),
          Quaternion(1.5, -1.0, 0.25, 2.0)]


@pytest.mark.parametrize("degree", [0, 1, 7, 60])
def test_call_is_bit_identical_to_quaternion_horner(degree):
    rng = random.Random(100 + degree)
    f = PowerSeries([rand_q(rng) for _ in range(degree + 1)], exact=False)
    points = POINTS + [rand_q(rng, 0.8) for _ in range(20)]
    for x in points:
        assert hexbits(f(x)) == hexbits(horner_loop(f, x))
    # a float argument is the real quaternion
    assert hexbits(f(0.7)) == hexbits(horner_loop(f, Quaternion(0.7)))


def _series(rng, degree, exact):
    return PowerSeries([rand_q(rng) for _ in range(degree + 1)], exact=exact)


def _check_product(f, g):
    got = slice_product(f, g)
    want, scale = product_loop(f, g)
    assert got.exact == want.exact
    assert got.degree_bound == want.degree_bound
    for n, (c, w) in enumerate(zip(got.coeffs, want.coeffs)):
        assert (c - w).norm() <= 1e-14 * scale[n], n


@pytest.mark.parametrize("kinds", [(True, True), (True, False),
                                   (False, True), (False, False)])
def test_slice_product_matches_the_quaternion_double_loop(kinds):
    rng = random.Random(31 + 2 * kinds[0] + kinds[1])
    for df in range(13):
        for dg in range(13):
            _check_product(_series(rng, df, kinds[0]), _series(rng, dg, kinds[1]))


@pytest.mark.parametrize("kinds", [(True, True), (True, False), (False, False)])
def test_slice_product_at_degree_200(kinds):
    rng = random.Random(57)
    _check_product(_series(rng, 200, kinds[0]), _series(rng, 200, kinds[1]))


@pytest.mark.parametrize("kinds", [(True, True), (True, False),
                                   (False, True), (False, False)])
def test_one_coefficient_factor_has_the_convolution_bits(kinds):
    # a constant factor scales coefficient by coefficient; padded with a
    # zero coefficient, it goes through the four convolutions instead, whose
    # extra terms are exact zeros
    rng = random.Random(59)
    for degree in (0, 1, 7, 40):
        c, g = _series(rng, 0, kinds[0]), _series(rng, degree, kinds[1])
        padded = PowerSeries(c.coeffs + (ZERO,), exact=c.exact)
        for got, want in ((slice_product(c, g), slice_product(padded, g)),
                          (slice_product(g, c), slice_product(g, padded))):
            assert list(map(hexbits, got.coeffs)) \
                == list(map(hexbits, want.coeffs[:len(got.coeffs)]))


# -- work counters: a return to per-point or O(n^2) object loops fails ---------

def test_eval_calls_the_kernel_once_per_block(tmp_path, monkeypatch, capsys):
    rng = random.Random(3)
    coeffs = tmp_path / "f.json"
    dump_json(_series(rng, 10, False).to_record(), coeffs)
    calls = []
    kernel = PowerSeries._horner

    def counted(self, *xs):
        calls.append(np.size(xs[0]))
        return kernel(self, *xs)
    monkeypatch.setattr(PowerSeries, "_horner", counted)
    for n in (0, 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3):
        points = tmp_path / "pts.txt"
        points.write_text("".join(f"{0.1 + k * 1e-5}+0.2i\n" for k in range(n)))
        del calls[:]
        assert main(["eval", "--coeffs", str(coeffs), "--points", str(points)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == n + 1
        assert len(calls) == math.ceil(n / BLOCK)
        assert sum(calls) == n


def test_slice_product_makes_no_quaternion_product(monkeypatch):
    rng = random.Random(4)
    f, g = _series(rng, 40, True), _series(rng, 40, False)
    calls = []
    mul = Quaternion.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)
    monkeypatch.setattr(Quaternion, "__mul__", counted)
    h = slice_product(f, g)
    assert h.degree_bound == 40
    assert calls == []


def test_slice_product_makes_four_convolutions(monkeypatch):
    rng = random.Random(5)
    f, g = _series(rng, 6, True), _series(rng, 6, False)
    calls = []
    convolve = np.convolve

    def counted(a, v, *args):
        calls.append(1)
        return convolve(a, v, *args)
    monkeypatch.setattr(np, "convolve", counted)
    _check_product(f, g)
    assert len(calls) == 4


# -- CLI eval: byte-identical to a per-point reference -------------------------

HEADER = "x0,x1,x2,x3,f_w,f_x1,f_x2,f_x3\n"


def _reference_csv(points, value):
    lines = [HEADER]
    for x in points:
        lines.append(",".join(fmt_float(v)
                              for v in x.as_list() + value(x).as_list()) + "\n")
    return "".join(lines)


def _literal(x):
    return "{!r}{:+.17g}i{:+.17g}j{:+.17g}k".format(*x.as_list())


@pytest.mark.parametrize("kind", ["power", "pbasis"])
def test_cli_eval_bytes_match_a_per_point_reference(kind, tmp_path, capsys):
    rng = random.Random(11)
    coeffs = tmp_path / "c.json"
    if kind == "power":
        f = PowerSeries([rand_q(rng) for _ in range(61)], exact=False)
        dump_json(f.to_record(), coeffs)

        def value(x):
            return horner_loop(f, x)
    else:
        g = MonogenicSeries([rand_q(rng) for _ in range(15)])
        dump_json(g.to_record(), coeffs)
        value = g
    points = [Quaternion(0.0), Quaternion(0.7), Quaternion(0, 5e-324)] \
        + [rand_q(rng, 0.6) for _ in range(40)]
    ptxt = tmp_path / "pts.txt"
    ptxt.write_text("# points\n" + "".join(_literal(x) + "\n" for x in points))
    want = _reference_csv(points, value)

    assert main(["eval", "--coeffs", str(coeffs), "--points", str(ptxt)]) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "sub" / "v.csv"
    assert main(["eval", "--coeffs", str(coeffs), "--points", str(ptxt),
                 "-o", str(out)]) == 0
    assert out.read_bytes() == want.encode()

    empty = tmp_path / "none.txt"
    empty.write_text("# no points\n")
    assert main(["eval", "--coeffs", str(coeffs), "--points", str(empty)]) == 0
    assert capsys.readouterr().out == HEADER

