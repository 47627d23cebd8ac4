"""Construction and grid verification of Helmholtz / Klein-Gordon /
Yukawa solutions."""

import json
import math
import random

import numpy as np
import pytest

from slicealg import (
    DomainError,
    GridSpec,
    GridTooSmall,
    MonogenicSeries,
    PdeProblem,
    Quaternion,
    SliceConstant,
    SolutionEvaluator,
    I,
    J,
    K,
    ONE,
    ZERO,
    ZeroEigenvalue,
    eval_P,
    exp_series,
    gen_exp,
    general_quadratic_kernel,
    helmholtz_solution,
    klein_gordon_solution,
    slice_derivative,
    verify_pde,
    yukawa_solve,
)
from slicealg.monogenic import BLOCK
from slicealg.quaternion import qmul


def rand_q(rng, scale=1.0):
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


SMALL = GridSpec(counts=(7, 7, 7), fd_step=0.02)


def test_grid_spec_validation():
    with pytest.raises(GridTooSmall):
        GridSpec(counts=(2, 7, 7))
    g = GridSpec(counts=(5, 9, 3), lo=(-1, -2, 0), hi=(1, 2, 1))
    assert g.steps == (0.5, 0.5, 0.5)
    assert g.effective_fd_step == 0.125
    assert GridSpec(fd_step=0.01).effective_fd_step == 0.01
    ax = g.axes()
    assert len(ax[0]) == 5 and ax[0][0] == -1.0 and ax[0][-1] == 1.0


def test_grid_spec_record_roundtrip():
    g = GridSpec(counts=(9, 9, 11), lo=(-2, -1, -1), hi=(2, 1, 1),
                 x0=0.25, exclude_radius=0.3, fd_step=0.01)
    assert GridSpec.from_record(g.to_record()) == g


def test_problem_validation_and_roundtrip():
    with pytest.raises(ValueError):
        PdeProblem(kind="heat")
    p = PdeProblem(kind="helmholtz", lam=2.0, grid=SMALL,
                   slice_constants=(SliceConstant.uniform(ONE),
                                    SliceConstant.on_halves(I, ONE, -ONE)))
    q = PdeProblem.from_record(p.to_record())
    assert q.kind == p.kind and q.lam == p.lam
    assert q.grid == p.grid
    assert q.slice_constants == p.slice_constants
    # yukawa problems carry a P-basis right-hand side
    rhs = MonogenicSeries([ONE, I])
    y = PdeProblem(kind="yukawa", lam=1.0, unit_i=I, rhs=rhs, grid=SMALL)
    y2 = PdeProblem.from_record(y.to_record())
    assert y2.rhs.coeffs == rhs.coeffs


def test_helmholtz_entire_solution():
    # f = Delta e^x solves Delta_3 f + f = 0 at x0 = 0
    f = helmholtz_solution(1.0)
    problem = PdeProblem(kind="helmholtz", lam=1.0, grid=SMALL)
    report = verify_pde(f, problem)
    assert report.max_rel_residual < 1e-4
    assert report.richardson_order > 1.9
    assert report.negative_control > 100 * report.max_rel_residual
    assert report.monogenicity_max_rel < 1e-5
    assert report.n_points == 7 ** 3


def test_helmholtz_rejects_zero_or_nonreal_lambda():
    with pytest.raises(ZeroEigenvalue):
        helmholtz_solution(0.0)
    with pytest.raises(ValueError):
        helmholtz_solution(I)


def test_helmholtz_with_mu_constants_needs_exclusion():
    h1 = SliceConstant.on_halves(I, ONE, ZERO)
    f = helmholtz_solution(1.0, h1)
    assert f.product_domain
    problem = PdeProblem(kind="helmholtz", lam=1.0, grid=SMALL,
                         slice_constants=(h1,))
    with pytest.raises(DomainError):
        verify_pde(f, problem)
    with pytest.raises(DomainError):
        f(Quaternion(0.5))        # singular on the real axis


def test_helmholtz_mu_variant_on_excluded_grid():
    # the two-constant solution blows up like beta^-2 at the axis, so the
    # FD truncation error is certified by the order estimate instead of a
    # tight absolute threshold
    h1 = SliceConstant.on_halves(I, ONE, ZERO)
    h2 = SliceConstant.on_halves(J, Quaternion(0.5), ONE)
    f = helmholtz_solution(1.0, h1, h2)
    grid = GridSpec(counts=(9, 9, 9), exclude_radius=0.5, fd_step=0.005)
    problem = PdeProblem(kind="helmholtz", lam=1.0, grid=grid)
    report = verify_pde(f, problem)
    assert report.max_rel_residual < 1e-2
    assert abs(report.richardson_order - 2.0) < 0.2
    assert report.negative_control > 10 * report.max_rel_residual


def test_klein_gordon_solution():
    g = klein_gordon_solution(1.0, [(J, SliceConstant.uniform(ONE))])
    problem = PdeProblem(kind="klein-gordon", lam=1.0, unit_i=J, grid=SMALL)
    report = verify_pde(g, problem)
    assert report.max_rel_residual < 1e-4
    assert report.richardson_order > 1.9
    assert report.negative_control > 100 * report.max_rel_residual


def test_klein_gordon_random_units():
    rng = random.Random(503)
    for _ in range(3):
        v = Quaternion(0.0, *(rng.uniform(-1, 1) for _ in range(3)))
        unit = v * (1.0 / v.norm())
        g = klein_gordon_solution(1.5, [(unit, SliceConstant.uniform(ONE))])
        problem = PdeProblem(kind="klein-gordon", lam=1.5, unit_i=unit,
                             grid=SMALL)
        report = verify_pde(g, problem)
        assert report.max_rel_residual < 2e-4
        assert report.richardson_order > 1.9


def test_general_quadratic_kernel():
    # lam1 = a + bI gives Delta_3 f + (a^2-b^2) f + 2ab f I = 0
    lam1 = Quaternion(1.0, 1.0, 0.0, 0.0)
    f = general_quadratic_kernel(lam1, n_trunc=50)
    problem = PdeProblem(kind="quadratic", lam1=lam1, grid=SMALL, degree=50)
    report = verify_pde(f, problem)
    assert report.max_rel_residual < 5e-4
    assert report.richardson_order > 1.9
    assert report.negative_control > 10 * report.max_rel_residual


def test_yukawa_worked_example():
    # h = 1 + P1 (i-j+k) - P2 (i+j+k) + P3, lam = 1, I = i
    h = MonogenicSeries([
        ONE,
        Quaternion(0.0, 1.0, -1.0, 1.0),
        Quaternion(0.0, -1.0, -1.0, -1.0),
        ONE,
    ])
    f = yukawa_solve(1.0, I, h)
    want = [
        Quaternion(-1.0, -12.0, -12.0, -12.0),
        Quaternion(20.0, -1.0, 1.0, -1.0),
        Quaternion(0.0, 1.0, 1.0, 1.0),
        Quaternion(-1.0),
    ]
    assert f.degree_bound == 3
    for k, c in enumerate(want):
        assert (f.coeff(k) - c).norm() < 1e-12


def test_yukawa_residual_on_grid():
    rng = random.Random(507)
    h = MonogenicSeries([rand_q(rng) for _ in range(3)])
    f = yukawa_solve(2.0, I, h)
    problem = PdeProblem(kind="yukawa", lam=2.0, unit_i=I, rhs=h, grid=SMALL)
    report = verify_pde(f, problem)
    # a polynomial solution: the FD residual is pure roundoff
    assert report.max_rel_residual < 1e-9
    assert report.negative_control > 1e-2


def test_yukawa_is_exact_inverse():
    # Delta_3 f - lam^2 f = h pointwise, via the quaternion evaluator
    rng = random.Random(509)
    h = MonogenicSeries([rand_q(rng) for _ in range(4)])
    lam = 1.5
    f = yukawa_solve(lam, J, h)

    x = Quaternion(0.0, 0.4, 0.3, -0.6)

    def lap3(step):
        # Delta_3 at fixed x0
        acc = -6.0 * f(x)
        for d in range(1, 4):
            e = [0.0] * 4
            e[d] = step
            acc = acc + f(x + Quaternion(*e)) + f(x - Quaternion(*e))
        return acc * (1.0 / step ** 2)

    resid = lap3(1e-3) - f(x) * lam ** 2 - h(x)
    assert resid.norm() < 1e-6


def test_verify_pde_grid_too_small():
    grid = GridSpec(counts=(3, 3, 3), lo=(-0.1, -0.1, -0.1),
                    hi=(0.1, 0.1, 0.1), exclude_radius=2.0, fd_step=0.01)
    f = helmholtz_solution(1.0)
    problem = PdeProblem(kind="helmholtz", lam=1.0, grid=grid)
    with pytest.raises(GridTooSmall):
        verify_pde(f, problem)


def test_report_files(tmp_path):
    f = helmholtz_solution(1.0)
    grid = GridSpec(counts=(5, 5, 5), fd_step=0.02)
    problem = PdeProblem(kind="helmholtz", lam=1.0, grid=grid)
    report = verify_pde(f, problem)
    csv_path = tmp_path / "report.csv"
    sum_path = tmp_path / "report.summary.json"
    report.write_csv(csv_path)
    report.write_summary(sum_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x0,x1,x2,x3,f_w,f_x1,f_x2,f_x3,residual_norm"
    assert len(lines) == 1 + report.n_points
    summary = json.loads(sum_path.read_text())
    assert set(summary) == {"max_rel_residual", "mean_rel_residual",
                            "richardson_order"}
    assert summary["max_rel_residual"] == report.max_rel_residual
    # a roundoff-floor order comes out as null
    h = MonogenicSeries([ONE, I, J])
    fy = yukawa_solve(1.0, I, h)
    problem = PdeProblem(kind="yukawa", lam=1.0, unit_i=I, rhs=h, grid=grid)
    rep = verify_pde(fy, problem)
    assert rep.summary()["richardson_order"] is None


def test_evaluator_matches_componentwise_eval():
    f = helmholtz_solution(1.0)
    assert not f.product_domain
    rng = random.Random(511)
    xs = np.array([rng.uniform(-1, 1) for _ in range(12)]).reshape(3, 4)
    vals = f.eval_components(np.zeros(4), xs[0], xs[1], xs[2])
    assert vals.shape == (4, 4)
    for col in range(4):
        q = f(Quaternion(0.0, xs[0][col], xs[1][col], xs[2][col]))
        assert np.allclose(vals[col], [q.w, q.x1, q.x2, q.x3], atol=1e-12)
    # real points are fine for entire solutions
    v = f(Quaternion(0.3))
    assert math.isfinite(v.w)


@pytest.mark.parametrize("beta", [1e-1, 1e-3, 1e-6, 1e-8, 0.0])
def test_p_series_values_near_the_axis(beta):
    # every P-series value agrees with the definitional Sum eval_P(n, x) m_n,
    # on the real axis and arbitrarily close to it
    x = Quaternion(0.4, beta / 3.0, -2.0 * beta / 3.0, 2.0 * beta / 3.0)
    comps = [np.array([v]) for v in x.as_list()]

    def reference(g):
        acc = ZERO
        for n, m in enumerate(g.coeffs):
            acc = acc + eval_P(n, x) * m
        return acc

    def close(got, want):
        return (got - want).norm() <= 1e-12 * want.norm()

    f = helmholtz_solution(1.0)
    want = reference(f.mono)
    assert close(f(x), want)
    assert close(Quaternion(*f.eval_components(*comps)[0]), want)

    rng = random.Random(521)
    g = MonogenicSeries([rand_q(rng) for _ in range(41)])
    want = reference(g)
    assert close(g(x), want)
    assert close(Quaternion(*g.eval_components(*comps)[0]), want)


def _stems_arrays(coeffs, alpha, beta):
    # reference: the stem components (F1, F2) of Sum x^n a_n at
    # z = alpha + i beta, one power at a time
    z = alpha + 1j * beta
    zp = np.ones_like(z)
    f1 = np.zeros(alpha.shape + (4,))
    f2 = np.zeros_like(f1)
    for a in coeffs:
        if not a.is_zero():
            av = np.array(a.as_list())
            f1 += zp.real[..., None] * av
            f2 += zp.imag[..., None] * av
        zp = zp * z
    return f1, f2


def _per_term_reference(terms, x0, x1, x2, x3):
    # reference: f = Sum_t Delta_4(h_t . e_t) term by term, the uniform
    # terms as one P-series and each product-domain term from its stems,
    # -(2/beta) J (g'_s - dg/dx)
    uniform = [(h, e) for h, e in terms if h.is_uniform]
    out = SolutionEvaluator(uniform).eval_components(x0, x1, x2, x3)
    b = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    jv = np.stack([np.zeros_like(b), x1 / b, x2 / b, x3 / b], axis=-1)
    for h, e in terms:
        if h.is_uniform:
            continue
        h1v, h2v = (np.array(q.as_list()) for q in h.stems())
        f1, f2 = _stems_arrays(e.coeffs, x0, b)
        d1, d2 = _stems_arrays(slice_derivative(e).coeffs, x0, b)
        g2 = qmul(h1v, f2) + qmul(h2v, f1)
        p1 = qmul(h1v, d1) - qmul(h2v, d2)
        p2 = qmul(h1v, d2) + qmul(h2v, d1)
        dval = p1 + qmul(jv, p2)
        out += (-2.0 / b)[..., None] * qmul(jv, g2 / b[..., None] - dval)
    return out


def test_product_domain_evaluator_matches_per_term_loop():
    # all product-domain terms as one linear map agree with the term-by-term
    # stem sums, at random off-axis points and on a grid of several blocks
    rng = random.Random(523)
    lam1 = Quaternion(0.5, 0.3, -0.4, 0.2)
    terms = [
        (SliceConstant.on_halves(I, ONE, ZERO), exp_series(Quaternion(1.0), 40)),
        (SliceConstant.on_halves(J, Quaternion(0.5), ONE),
         exp_series(Quaternion(-1.0), 40)),
        (SliceConstant.on_halves(K, rand_q(rng), rand_q(rng)),
         gen_exp([lam1, -lam1], 30)),
        (SliceConstant.uniform(rand_q(rng)), exp_series(J * 1.5, 35)),
    ]
    f = SolutionEvaluator(terms)
    assert f.product_domain

    pts = np.array([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(40)])
    ax = np.linspace(-1.0, 1.0, 21)
    g1, g2, g3 = (v.ravel() for v in np.meshgrid(ax, ax, ax, indexing="ij"))
    keep = np.sqrt(g1 * g1 + g2 * g2 + g3 * g3) > 0.2
    grid = np.stack([np.full(keep.sum(), 0.1), g1[keep], g2[keep], g3[keep]])
    assert grid.shape[1] > BLOCK
    for x0, x1, x2, x3 in (pts.T, grid):
        got = f.eval_components(x0, x1, x2, x3)
        want = _per_term_reference(terms, x0, x1, x2, x3)
        scale = np.linalg.norm(want, axis=-1).max()
        assert np.abs(got - want).max() <= 1e-13 * scale


def test_p_series_block_boundary():
    # a grid one point longer than a block agrees with the one-point call
    rng = np.random.default_rng(527)
    g = MonogenicSeries([Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(25)])
    x1, x2, x3 = rng.uniform(-1, 1, (3, BLOCK + 1))
    x1[:3] = 0.0
    x2[:3] = 0.0
    x3[:3] = 0.0                  # real points too
    vals = g.eval_components(0.3, x1, x2, x3)
    assert vals.shape == (BLOCK + 1, 4)
    for n in range(BLOCK + 1):
        want = g(Quaternion(0.3, x1[n], x2[n], x3[n]))
        err = (Quaternion(*vals[n]) - want).norm()
        assert err <= 1e-15 * want.norm()
