"""Construction and grid verification of Helmholtz / Klein-Gordon /
Yukawa solutions."""

import dataclasses
import json
import math
import random
import re

import numpy as np
import pytest

from slicealg import (
    DomainError,
    GridSpec,
    GridTooSmall,
    MonogenicSeries,
    ParseError,
    PdeProblem,
    PowerSeries,
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
    fueter_laplacian,
    gen_exp,
    general_quadratic_kernel,
    helmholtz_solution,
    klein_gordon_solution,
    slice_derivative,
    verify_pde,
    yukawa_solve,
)
from slicealg.fmtio import dump_json
from slicealg.quaternion import BLOCK, qmul


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


def test_grid_spec_refuses_a_count_that_is_not_an_integer():
    # the rule of a grid record, for every GridSpec: a fraction, NaN, inf
    # or a boolean is refused, and an integral float is stored as an int
    for bad, shown in ((3.7, "3.7"), (math.nan, "NaN"), (math.inf, "Infinity"),
                       (True, "true")):
        with pytest.raises(ParseError, match=re.escape(
                f"grid counts[1] must be an integer, got {shown}")):
            GridSpec(counts=(5, bad, 5))
    g = GridSpec(counts=(5.0, 7, 9))
    assert g.counts == (5, 7, 9)
    assert all(type(c) is int for c in g.counts)


def test_grid_spec_record_roundtrip():
    # a grid record reads as the GridSpec of its fields, and a key it
    # leaves out keeps its default
    g = GridSpec(counts=(9, 9, 11), lo=(-2, -1, -1), hi=(2, 1, 1),
                 x0=0.25, exclude_radius=0.3, fd_step=0.01)
    rec = json.loads('{"counts": [9, 9, 11], "lo": [-2.0, -1.0, -1.0], '
                     '"hi": [2.0, 1.0, 1.0], "x0": 0.25, '
                     '"exclude_radius": 0.3, "fd_step": 0.01}')
    assert GridSpec.from_record(rec) == g
    assert GridSpec.from_record({"counts": [7, 7, 7], "fd_step": 0.02}) == SMALL


def test_problem_validation_and_roundtrip():
    with pytest.raises(ValueError):
        PdeProblem(kind="heat")
    # problem records are input: each reads as the problem of its fields
    small = {"counts": [7, 7, 7], "fd_step": 0.02}
    p = PdeProblem(kind="helmholtz", lam=2.0, grid=SMALL,
                   slice_constants=(SliceConstant.uniform(ONE),
                                    SliceConstant(I, ONE, -ONE)))
    q = PdeProblem.from_record(
        {"kind": "helmholtz", "lambda": 2.0, "grid": small,
         "slice_constants": [{"I": "i", "a1": "1", "a2": "1"},
                             {"I": "i", "a1": "1", "a2": "-1"}]})
    assert q.kind == p.kind and q.lam == p.lam
    assert q.grid == p.grid
    assert q.slice_constants == p.slice_constants
    assert q == p
    # yukawa problems carry a P-basis right-hand side
    rhs = MonogenicSeries([ONE, I])
    y = PdeProblem(kind="yukawa", lam=1.0, unit_i=I, rhs=rhs, grid=SMALL)
    y2 = PdeProblem.from_record(
        {"kind": "yukawa", "lambda": 1.0, "I": "i", "grid": small,
         "rhs": {"basis": "P", "coeffs": [[1, 0, 0, 0], [0, 1, 0, 0]]}})
    assert y2.rhs.coeffs == rhs.coeffs
    assert y2 == y
    # quadratic problems read lambda1 and carry no lambda
    quad = PdeProblem(kind="quadratic", lam1=Quaternion(1.0, 1.0), grid=SMALL)
    assert quad.lam is None
    record = {"kind": "quadratic", "lambda1": "1+i", "grid": small}
    assert PdeProblem.from_record(record) == quad
    with pytest.raises(ParseError, match="quadratic problems do not read 'lambda'"):
        PdeProblem.from_record(dict(record, **{"lambda": 1.0}))


def test_helmholtz_entire_solution():
    # f = Delta e^x solves Delta_3 f + f = 0 at x0 = 0
    f = helmholtz_solution(1.0)
    problem = PdeProblem(kind="helmholtz", lam=1.0, grid=SMALL)
    report = verify_pde(f, problem)
    assert report.max_rel_residual < 1e-4
    assert report.richardson_order > 1.9
    assert report.laplacian.control > 100 * report.max_rel_residual
    assert report.monogenicity.at_h < 1e-5
    assert report.n_points == 7 ** 3


def test_helmholtz_rejects_zero_or_nonreal_lambda():
    with pytest.raises(ZeroEigenvalue):
        helmholtz_solution(0.0)
    with pytest.raises(ValueError):
        helmholtz_solution(I)


def test_constructors_refuse_a_non_finite_lambda():
    # an infinite or NaN lambda used to build NaN values without an error;
    # PdeProblem reads lambda with the constructors' own check
    rhs = MonogenicSeries([ONE, I])
    for lam in (math.inf, -math.inf, math.nan):
        for call in (lambda: helmholtz_solution(lam),
                     lambda: klein_gordon_solution(lam, [(I, ONE)]),
                     lambda: yukawa_solve(lam, I, rhs),
                     lambda: PdeProblem(kind="helmholtz", lam=lam)):
            with pytest.raises(ParseError, match=f"^lambda must be finite, got {lam!r}$"):
                call()
    with pytest.raises(ParseError, match="^lambda must be real, got i$"):
        helmholtz_solution(I)


def test_problem_checks_its_unit_at_construction():
    # a non-unit I used to construct, and lambda1_squared read -1 for I = 2i
    rhs = MonogenicSeries([ONE, I])
    for kwargs, shown in (({"kind": "klein-gordon", "unit_i": Quaternion(0, 2)}, "2.0i"),
                          ({"kind": "yukawa", "unit_i": Quaternion(0.5, 1), "rhs": rhs},
                           "0.5+i")):
        with pytest.raises(ParseError, match=re.escape(
                f"I must be a unit imaginary quaternion, got {shown}") + "$"):
            PdeProblem(**kwargs)
    assert PdeProblem(kind="klein-gordon", unit_i=J).lambda1_squared == -ONE


def test_helmholtz_with_mu_constants_needs_exclusion():
    h1 = SliceConstant(I, ONE, ZERO)
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
    h1 = SliceConstant(I, ONE, ZERO)
    h2 = SliceConstant(J, Quaternion(0.5), ONE)
    f = helmholtz_solution(1.0, h1, h2)
    grid = GridSpec(counts=(9, 9, 9), exclude_radius=0.5, fd_step=0.005)
    problem = PdeProblem(kind="helmholtz", lam=1.0, grid=grid)
    report = verify_pde(f, problem)
    assert report.max_rel_residual < 1e-2
    assert abs(report.richardson_order - 2.0) < 0.2
    assert report.laplacian.control > 10 * report.max_rel_residual


def test_klein_gordon_solution():
    g = klein_gordon_solution(1.0, [(J, SliceConstant.uniform(ONE))])
    problem = PdeProblem(kind="klein-gordon", lam=1.0, unit_i=J, grid=SMALL)
    report = verify_pde(g, problem)
    assert report.max_rel_residual < 1e-4
    assert report.richardson_order > 1.9
    assert report.laplacian.control > 100 * report.max_rel_residual


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
    f = general_quadratic_kernel(lam1)
    problem = PdeProblem(kind="quadratic", lam1=lam1, grid=SMALL)
    report = verify_pde(f, problem)
    assert report.max_rel_residual < 5e-4
    assert report.richardson_order > 1.9
    assert report.laplacian.control > 10 * report.max_rel_residual


def test_general_quadratic_kernel_is_the_fueter_image_of_E():
    # the equation alone would also pass any multiple of the kernel: pin
    # f = Delta_4(E_(lam1, -lam1)) against the series of E itself
    lam1 = Quaternion(0.7, 0.4, -0.3, 0.0)
    x = Quaternion(0.2, 0.3, -0.5, 0.1)
    got = general_quadratic_kernel(lam1)(x)
    want = fueter_laplacian(gen_exp((lam1, -lam1), 60))(x)
    assert abs(got - want) <= 1e-13 * abs(want)


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
    assert report.laplacian.control > 1e-2


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
    dump_json(report.summary(), sum_path)
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


def test_report_csv_bytes_match_fmt_float(tmp_path):
    # the grid coordinates and the symmetric solution values repeat, and
    # the CSV writer formats each distinct value once
    from slicealg.fmtio import fmt_float
    h1 = SliceConstant(I, ONE, ZERO)
    h2 = SliceConstant(J, Quaternion(0.5), ONE)
    cases = [(helmholtz_solution(1.0), GridSpec(counts=(21, 21, 21), x0=0.3)),
             (helmholtz_solution(1.0, h1, h2),
              GridSpec(counts=(21, 21, 21), exclude_radius=0.5, fd_step=0.005))]
    for f, grid in cases:
        report = verify_pde(f, PdeProblem(kind="helmholtz", lam=1.0, grid=grid))
        assert len(np.unique(report.rows[:, 1])) == 21
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = ["x0,x1,x2,x3,f_w,f_x1,f_x2,f_x3,residual_norm"]
        lines += [",".join(map(fmt_float, row)) for row in report.rows]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


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
    # on the real axis and arbitrarily close to it, and so does the closed
    # form of Delta_4 e^x, whose P-series that is
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
    want = reference(fueter_laplacian(exp_series(Quaternion(1.0), 40)))
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
    # reference: f = Sum_t Delta_4(h_t . e^{x q_t}) term by term, from the
    # series e^{x q} of degree 40: the uniform terms as P-series, and each
    # two-valued term from its stems, -(2/beta) J (g'_s - dg/dx)
    out = np.zeros(np.shape(x1) + (4,))
    b = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    jv = np.stack([np.zeros_like(b), x1 / b, x2 / b, x3 / b], axis=-1)
    for h, q in terms:
        h = h if isinstance(h, SliceConstant) else SliceConstant.uniform(h)
        e = exp_series(q, 40)
        if h.is_uniform:
            mono = fueter_laplacian(PowerSeries([h.a1 * c for c in e.coeffs]))
            out += mono.eval_components(x0, x1, x2, x3)
            continue
        h1v, h2v = (np.array(c.as_list()) for c in h.stems())
        f1, f2 = _stems_arrays(e.coeffs, x0, b)
        d1, d2 = _stems_arrays(slice_derivative(e).coeffs, x0, b)
        g2 = qmul(h1v, f2) + qmul(h2v, f1)
        p1 = qmul(h1v, d1) - qmul(h2v, d2)
        p2 = qmul(h1v, d2) + qmul(h2v, d1)
        dval = p1 + qmul(jv, p2)
        out += (-2.0 / b)[..., None] * qmul(jv, g2 / b[..., None] - dval)
    return out


def test_product_domain_evaluator_matches_per_term_loop():
    # the closed form of all terms agrees with the term-by-term series
    # sums, at random off-axis points and on a grid of several blocks
    rng = random.Random(523)
    lam1 = Quaternion(0.5, 0.3, -0.4, 0.2)
    terms = [
        (SliceConstant(I, ONE, ZERO), Quaternion(1.0)),
        (SliceConstant(J, Quaternion(0.5), ONE), Quaternion(-1.0)),
        (SliceConstant(K, rand_q(rng), rand_q(rng)), lam1),
        (SliceConstant(K, rand_q(rng), rand_q(rng)), -lam1),
        (SliceConstant.uniform(rand_q(rng)), J * 1.5),
        (rand_q(rng), J * 1.5),     # a quaternion is a uniform constant
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


def _evaluator_cases():
    # the three point evaluators, with BLOCK + 1 points each and the
    # kernels of their passes: a power series (real points and 5e-324i
    # too), the closed form with uniform and with two-valued constants
    # (off the real axis), and a P-series, whose point pass is the
    # axial_combine of the monogenic module.  Every point has its own x0,
    # so the P-series pair pass has as many pairs as points.
    import slicealg.monogenic as monogenic
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.8, 0.8, (BLOCK + 1, 4))
    pts[:3] = [[0, 0, 0, 0], [0.7, 0, 0, 0], [0.1, 5e-324, 0, 0]]
    off_axis = rng.uniform(0.2, 0.8, (BLOCK + 1, 4)) \
        * rng.choice([-1.0, 1.0], (BLOCK + 1, 4))
    uniform = SolutionEvaluator([(rand_q(random.Random(1)), Quaternion(1.5)),
                                 (SliceConstant(J, ONE, ONE), K * 1.2)])
    two_valued = SolutionEvaluator([
        (SliceConstant(I, ONE, Quaternion(0.5, 0.0, -1.0)), Quaternion(1.0)),
        (Quaternion(0.3, 0.2), J * 0.8)])
    assert not uniform.product_domain and two_valued.product_domain
    coeffs = [Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(31)]
    return {
        "power-series": (PowerSeries(coeffs), pts, [(PowerSeries, "_horner")]),
        "uniform": (uniform, pts, [(SolutionEvaluator, "_sums")]),
        "product-domain": (two_valued, off_axis, [(SolutionEvaluator, "_sums")]),
        "p-series": (MonogenicSeries(coeffs[:25]), pts,
                     [(MonogenicSeries, "_sums"), (monogenic, "axial_combine")]),
    }


@pytest.mark.parametrize("case", ["power-series", "uniform", "product-domain",
                                  "p-series"])
def test_block_driver_gives_the_bits_of_call(case, monkeypatch):
    # at 0, 1, BLOCK and BLOCK + 1 points and on a broadcast (2, 3) shape,
    # eval_components has the bytes of __call__ at each point, and each
    # pass calls its kernel once per block
    f, pts, kernels = _evaluator_cases()[case]
    want = np.array([f(Quaternion(*p)).as_list() for p in pts.tolist()])
    x0, x1, x2, x3 = pts[0, 0], *pts[1:7, 1:].T.reshape(3, 2, 3)
    x3 = x3[0]                  # a (3,) row, broadcast against (2, 3)
    want_2x3 = np.array([[f(Quaternion(x0, x1[r, c], x2[r, c], x3[c])).as_list()
                          for c in range(3)] for r in range(2)])
    calls = [[] for _ in kernels]
    for (owner, name), seen in zip(kernels, calls):
        kernel = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, kernel=kernel, seen=seen:
                            seen.append(a) or kernel(*a))
    for n in (0, 1, BLOCK, BLOCK + 1):
        for seen in calls:
            seen.clear()
        vals = f.eval_components(*pts[:n].T)
        assert vals.shape == (n, 4)
        assert vals.tobytes() == want[:n].tobytes()
        assert [len(seen) for seen in calls] == [math.ceil(n / BLOCK)] * len(calls)
    for seen in calls:
        seen.clear()
    vals = f.eval_components(x0, x1, x2, x3)
    assert vals.shape == (2, 3, 4)
    assert vals.tobytes() == want_2x3.tobytes()
    assert [len(seen) for seen in calls] == [1] * len(calls)


def _axial_grids():
    # a 21^3 grid with repeated radii, at a constant x0 and at x0 cycling
    # through -0.0, +0.0 and 0.25; the origin gives points with r = 0, and
    # four more axis points are added to the second grid
    ax = np.linspace(-1.0, 1.0, 21)
    x1, x2, x3 = (v.ravel() for v in np.meshgrid(ax, ax, ax, indexing="ij"))
    yield np.full(x1.size, 0.3), x1, x2, x3
    x0 = np.array([-0.0, 0.0, 0.25])[np.arange(x1.size) % 3]
    axis = np.array([-0.0, 0.0, -0.0, 0.25])
    yield (np.concatenate([x0, axis]), np.concatenate([x1, 0.0 * axis]),
           np.concatenate([x2, -0.0 * axis]), np.concatenate([x3, 0.0 * axis]))


def _axial_series():
    rng = np.random.default_rng(541)
    yield MonogenicSeries([Quaternion(*rng.uniform(-1, 1, 4))
                           for _ in range(21)])
    # Delta_4 e^x, real coefficients: zero columns
    yield fueter_laplacian(exp_series(Quaternion(1.0), 40))


def test_axial_split_is_bit_identical():
    # every grid value has the bits of the one-point call, and of the two
    # steps of the axial form on floats: the radial sums at (x0, |Im x|^2),
    # then re + Im(x) im
    from slicealg.quaternion import axial_combine
    for g in _axial_series():
        for x0, x1, x2, x3 in _axial_grids():
            vals = g.eval_components(x0, x1, x2, x3)
            radial = {}
            for n, point in enumerate(zip(x0.tolist(), x1.tolist(),
                                          x2.tolist(), x3.tolist())):
                a, b, c, d = point
                b2 = b * b + c * c + d * d
                key = (a.hex(), b2.hex())
                if key not in radial:
                    radial[key] = g._sums(a, b2)
                got = [v.hex() for v in vals[n].tolist()]
                want = g(Quaternion(*point)).as_list()
                assert got == [v.hex() for v in want]
                assert got == [float(v).hex()
                               for v in axial_combine(radial[key], b, c, d)]


def test_radial_kernel_runs_once_per_distinct_pair(monkeypatch):
    # timing-free guard: the radial kernel receives each distinct
    # (x0, |Im x|^2) bit pattern of a grid exactly once
    seen = []
    sums = MonogenicSeries._sums

    def counting(self, x0, b2):
        seen.extend(zip(np.atleast_1d(x0).tolist(),
                        np.atleast_1d(b2).tolist()))
        return sums(self, x0, b2)
    monkeypatch.setattr(MonogenicSeries, "_sums", counting)
    for g in _axial_series():
        for x0, x1, x2, x3 in _axial_grids():
            seen.clear()
            g.eval_components(x0, x1, x2, x3)
            b2 = x1 * x1 + x2 * x2 + x3 * x3
            want = sorted({(a.hex(), b.hex())
                           for a, b in zip(x0.tolist(), b2.tolist())})
            got = sorted((a.hex(), b.hex()) for a, b in seen)
            assert got == want
            assert len(got) < x0.size / 4


def test_problem_solve_matches_constructors():
    # PdeProblem.solve builds the same solution, bit for bit, as calling
    # the constructor of each kind with the problem's data
    unit = Quaternion(0.0, 0.6, 0.0, 0.8)
    h1 = SliceConstant(I, ONE, Quaternion(0.5, 0.0, 1.0))
    h2 = SliceConstant.uniform(Quaternion(0.0, 0.0, 0.0, 2.0))
    rhs = MonogenicSeries([ONE, Quaternion(0.2, -1.0, 0.5, 0.0), J])
    lam1 = Quaternion(1.0, 0.0, 1.0)
    cases = [
        (PdeProblem(kind="helmholtz", lam=1.5),
         helmholtz_solution(1.5, None, SliceConstant.uniform(0))),
        (PdeProblem(kind="helmholtz", lam=-0.5, slice_constants=(h1, h2)),
         helmholtz_solution(-0.5, h1, h2)),
        (PdeProblem(kind="helmholtz", lam=0.8, slice_constants=(h1,)),
         helmholtz_solution(0.8, h1, None)),
        (PdeProblem(kind="klein-gordon", lam=2.0, unit_i=unit),
         klein_gordon_solution(2.0, [(unit, SliceConstant.uniform(1))])),
        (PdeProblem(kind="klein-gordon", lam=1.0, unit_i=unit,
                    slice_constants=(h1, h2)),
         klein_gordon_solution(1.0, [(unit, h1), (unit, h2)])),
        (PdeProblem(kind="yukawa", lam=1.2, unit_i=unit, rhs=rhs),
         yukawa_solve(1.2, unit, rhs)),
        (PdeProblem(kind="quadratic", lam1=lam1),
         general_quadratic_kernel(lam1, None, None)),
        (PdeProblem(kind="quadratic", lam1=lam1, slice_constants=(h2, h1)),
         general_quadratic_kernel(lam1, h2, h1)),
    ]
    ax = np.linspace(-1.0, 1.0, 5) + 0.05     # no node on the real axis
    g1, g2, g3 = (a.ravel() for a in np.meshgrid(ax, ax, ax, indexing="ij"))
    x0 = np.full_like(g1, 0.3)
    for problem, want in cases:
        got = problem.solve()
        assert type(got) is type(want)
        a = got.eval_components(x0, g1, g2, g3)
        b = want.eval_components(x0, g1, g2, g3)
        assert a.tobytes() == b.tobytes(), problem.kind


def test_helmholtz_is_the_quadratic_equation_with_real_lambda1():
    # every kind is Delta_3 f + f lambda_1^2 = h: a Helmholtz solution
    # verified as the quadratic kernel with lambda_1 = lambda gives the
    # Helmholtz summary
    f = helmholtz_solution(1.3, SliceConstant(I, ONE, J), None)
    grid = GridSpec(counts=(7, 7, 7), fd_step=0.02, exclude_radius=0.2)
    helm = verify_pde(f, PdeProblem(kind="helmholtz", lam=1.3, grid=grid))
    quad = verify_pde(f, PdeProblem(kind="quadratic", lam1=Quaternion(1.3),
                                    grid=grid))
    assert quad.summary() == helm.summary()
    assert quad.laplacian.control == helm.laplacian.control


def test_klein_gordon_is_the_quadratic_equation_with_lambda1_i_lambda():
    unit = Quaternion(0.0, 0.6, 0.0, 0.8)
    g = klein_gordon_solution(1.1, [(unit, SliceConstant.uniform(ONE))])
    kg = verify_pde(g, PdeProblem(kind="klein-gordon", lam=1.1, unit_i=unit,
                                  grid=SMALL))
    quad = verify_pde(g, PdeProblem(kind="quadratic", lam1=unit * 1.1,
                                    grid=SMALL))
    for key, value in kg.summary().items():
        assert quad.summary()[key] == pytest.approx(value, rel=1e-12), key
    assert kg.max_rel_residual < 1e-4


def test_evaluator_call_is_bit_identical_to_eval_components():
    rng = random.Random(547)
    uniform = helmholtz_solution(1.3, SliceConstant.uniform(rand_q(rng)),
                                 SliceConstant.uniform(rand_q(rng)))
    product = klein_gordon_solution(
        0.9, [(J, SliceConstant(I, rand_q(rng), rand_q(rng))),
              (K, SliceConstant.uniform(rand_q(rng)))])
    pts = np.array([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(50)])
    axis = np.array([[0.4, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    for f, points in ((uniform, np.vstack([pts, axis])), (product, pts)):
        grid = f.eval_components(*points.T)
        for n, p in enumerate(points):
            got = f(Quaternion(*p)).as_list()
            one = f.eval_components(*(p[c:c + 1] for c in range(4)))[0]
            assert [v.hex() for v in got] == [v.hex() for v in one.tolist()]
            # the kernel is elementwise, so the grid has its bits
            assert [v.hex() for v in got] == [v.hex() for v in grid[n].tolist()]


def _product_domain_grid():
    # a klein-gordon solution with a two-valued constant, on a 15^3 grid
    # outside the ball of radius 0.3 around the axis
    rng = random.Random(661)
    product = klein_gordon_solution(
        0.9, [(J, SliceConstant(I, rand_q(rng), rand_q(rng))),
              (K, SliceConstant.uniform(rand_q(rng)))])
    ax = np.linspace(-1.0, 1.0, 15)
    g1, g2, g3 = (v.ravel() for v in np.meshgrid(ax, ax, ax, indexing="ij"))
    keep = np.sqrt(g1 * g1 + g2 * g2 + g3 * g3) > 0.3
    points = np.stack([np.full(keep.sum(), 0.2), g1[keep], g2[keep],
                       g3[keep]], axis=-1)
    return product, points


def test_product_domain_grid_agrees_with_one_point_calls():
    # the closed form is elementwise: a grid value has the bits of the
    # one-point call
    product, points = _product_domain_grid()
    grid = product.eval_components(*points.T)
    for p, got in zip(points, grid):
        want = product(Quaternion(*p)).as_list()
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def test_product_domain_grid_is_bit_identical_to_split_calls():
    # one call, and the same points split in uneven calls, give the same
    # bits: no value depends on the other points of its call
    product, points = _product_domain_grid()
    whole = product.eval_components(*points.T)
    cuts = [0, 1, 7, 500, 1017, len(points)]
    parts = [product.eval_components(*points[a:b].T)
             for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_terms_add_up():
    # the evaluator of a sum of terms is the sum of the evaluators of the
    # terms; terms with the same exponent share one closed form
    rng = random.Random(607)
    terms = [(SliceConstant.uniform(rand_q(rng)), Quaternion(1.5)),
             (SliceConstant.uniform(rand_q(rng)), J * 2.0),
             (rand_q(rng), J * 2.0)]
    f = SolutionEvaluator(terms)
    assert not f.product_domain
    pts = np.array([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(40)])
    got = f.eval_components(*pts.T)
    want = sum(SolutionEvaluator([t]).eval_components(*pts.T) for t in terms)
    scale = np.linalg.norm(want, axis=-1).max()
    assert np.abs(got - want).max() <= 1e-15 * scale


def test_product_domain_evaluator_skips_the_p_series(monkeypatch):
    # uniform and two-valued terms alike go through the closed form: the
    # P-series radial kernel never runs for a solution evaluator
    calls = []
    sums = MonogenicSeries._sums

    def counting(self, x0, b2):
        calls.append(np.size(b2))
        return sums(self, x0, b2)
    monkeypatch.setattr(MonogenicSeries, "_sums", counting)
    f = SolutionEvaluator([
        (SliceConstant(I, ONE, ZERO), Quaternion(1.0)),
        (SliceConstant.uniform(Quaternion(0.5, 0.0, 1.0, 0.0)), K * 1.5)])
    assert f.product_domain
    x1, x2, x3 = np.random.default_rng(611).uniform(0.2, 1.0, (3, 50))
    f.eval_components(0.1, x1, x2, x3)
    f(Quaternion(0.2, 0.3, -0.1, 0.4))
    helmholtz_solution(1.0).eval_components(0.1, x1, x2, x3)
    assert calls == []


def _stencil_problems():
    # a uniform and a product-domain closed form, and a P-series (yukawa),
    # on 15^3 grids
    yield PdeProblem(kind="helmholtz", lam=1.0,
                     grid=GridSpec(counts=(15, 15, 15), x0=0.1))
    yield PdeProblem(kind="helmholtz", lam=1.0,
                     slice_constants=(SliceConstant(I, ONE, ZERO),
                                      SliceConstant(J, Quaternion(0.5), ONE)),
                     grid=GridSpec(counts=(15, 15, 15), exclude_radius=0.5,
                                   fd_step=0.005))
    rng = random.Random(659)
    yield PdeProblem(kind="yukawa", lam=1.5, unit_i=J,
                     rhs=MonogenicSeries([rand_q(rng) for _ in range(12)]),
                     grid=GridSpec(counts=(15, 15, 15), x0=0.1))


def _stencil_sets(report):
    """The 13 point sets of verify_pde: the kept nodes, then the six shifts
    of the Delta_3 stencil at fd_step and at fd_step / 2."""
    x0, x1, x2, x3 = report.rows[:, :4].T
    yield x0, x1, x2, x3
    for step in (report.fd_step, report.fd_step / 2.0):
        for d1, d2, d3 in ((step, 0.0, 0.0), (-step, 0.0, 0.0),
                           (0.0, step, 0.0), (0.0, -step, 0.0),
                           (0.0, 0.0, step), (0.0, 0.0, -step)):
            yield x0, x1 + d1, x2 + d2, x3 + d3


def test_stencil_runs_the_radial_kernel_once_per_distinct_pair(monkeypatch):
    # timing-free guard: in each of the 13 point sets of one verify_pde of a
    # P-series, the radial kernel receives each distinct (x0, |Im x|^2) bit
    # pattern of that set exactly once (the CRF spot checks, which evaluate
    # on their own, are left out)
    import slicealg.pde as pde
    monkeypatch.setattr(pde, "_crf_stencil",
                        lambda f, points, fv, h: np.zeros((len(points[0]), 4)))
    problem = list(_stencil_problems())[2]
    f = problem.solve()
    evaluate, sums = MonogenicSeries.eval_components, MonogenicSeries._sums
    seen = []                   # the pairs of each call of f

    def calling(self, x0, x1, x2, x3):
        if self is f:           # not the right-hand side
            seen.append([])
        return evaluate(self, x0, x1, x2, x3)

    def counting(self, x0, b2):
        if self is f:
            seen[-1].extend(zip(x0.tolist(), b2.tolist()))
        return sums(self, x0, b2)
    monkeypatch.setattr(MonogenicSeries, "eval_components", calling)
    monkeypatch.setattr(MonogenicSeries, "_sums", counting)
    report = verify_pde(f, problem)
    monkeypatch.setattr(MonogenicSeries, "_sums", sums)
    assert len(seen) == 13
    for pairs, (x0, x1, x2, x3) in zip(seen, _stencil_sets(report)):
        b2 = x1 * x1 + x2 * x2 + x3 * x3
        want = {(a.hex(), b.hex()) for a, b in zip(x0.tolist(), b2.tolist())}
        got = sorted((a.hex(), b.hex()) for a, b in pairs)
        assert got == sorted(want)
    total = sum(map(len, seen))
    assert (total, 13 * len(report.rows)) == (10971, 43875)
    assert total < 13 * len(report.rows) / 3


def test_stencil_evaluates_a_closed_form_once_per_point_set(monkeypatch):
    # timing-free guard: verify_pde evaluates a solution evaluator in one
    # eval_components call per point set, the 13 of the stencil and the two
    # of the CRF spot checks, and each point once
    calls = []
    evaluate = SolutionEvaluator.eval_components

    def counting(self, x0, x1, x2, x3):
        calls.append(np.size(x1))
        return evaluate(self, x0, x1, x2, x3)
    monkeypatch.setattr(SolutionEvaluator, "eval_components", counting)
    for problem in list(_stencil_problems())[:2]:
        calls.clear()
        report = verify_pde(problem.solve(), problem)
        assert calls == [report.n_points] * 13 + [40, 40]


def test_uniform_stencil_rows_are_bit_identical_to_separate_calls():
    # the rows of a verify_pde of a closed form are those of 13 separate
    # eval_components calls, bit for bit, uniform, on the product domain
    # and for a lambda_1^2 that is not real (the quaternion product)
    from slicealg.quaternion import qmul
    quadratic = PdeProblem(kind="quadratic",
                           lam1=Quaternion(0.7, 0.4, -0.3, 0.0),
                           grid=GridSpec(counts=(15, 15, 15), x0=0.1))
    assert not quadratic.lambda1_squared.is_real()
    for problem in list(_stencil_problems())[:2] + [quadratic]:
        f = problem.solve()
        report = verify_pde(f, problem)
        fv, *shifted = [f.eval_components(*points)
                        for points in _stencil_sets(report)]
        lap = -6.0 * fv
        for vals in shifted[:6]:
            lap += vals
        lap /= report.fd_step * report.fd_step
        sq = problem.lambda1_squared
        lap += sq.w * fv
        if not sq.is_real():
            lap += qmul(fv, np.array(sq.imag().as_list()))
        res = np.linalg.norm(lap, axis=-1)
        want = np.column_stack([report.rows[:, :4], fv, res])
        assert report.rows.view(np.uint64).tolist() == \
            want.view(np.uint64).tolist()


def test_records_convert_only_the_keys_present():
    # an absent key keeps the dataclass default; null reads as None where
    # the field may be None and is refused elsewhere
    from slicealg.errors import ParseError
    assert GridSpec.from_record({}) == GridSpec()
    assert PdeProblem.from_record({"kind": "helmholtz"}) == \
        PdeProblem(kind="helmholtz")
    p = PdeProblem.from_record({"kind": "helmholtz", "I": None,
                                "lambda1": None, "rhs": None,
                                "grid": {"fd_step": None}})
    assert p == PdeProblem(kind="helmholtz")
    for rec in ({"kind": "helmholtz", "lambda": None},
                {"kind": "helmholtz", "degree": None},
                {"kind": "helmholtz", "grid": {"counts": None}},
                {"kind": "helmholtz", "grid": None}):
        with pytest.raises(ParseError):
            PdeProblem.from_record(rec)



def test_laplacian_of_a_pair_matches_the_evaluator():
    # the pointwise Laplacian of h . e^{xq}, from the stems and the exact
    # slice derivative of its series, is the closed form of Delta_4(h . e^{xq})
    from slicealg import laplacian_pointwise, lift
    rng = random.Random(541)
    for unit in (I, J, K, Quaternion(0.0, 0.6, 0.0, -0.8)):
        h = SliceConstant(unit, rand_q(rng), rand_q(rng))
        q = rand_q(rng)
        e = exp_series(q, 30)
        f = SolutionEvaluator([(h, q)])
        for _ in range(10):
            x = rand_q(rng)
            if x.imag_norm() < 0.2:
                continue
            want = f(x)
            got = laplacian_pointwise(h.expr() * lift(e), x)
            assert (got - want).norm() <= 1e-13 * want.norm()


def test_closed_form_matches_the_series_at_lambda_1():
    # Delta_4 e^{xq} in closed form against the P-series of the truncated
    # exponential, fueter_laplacian(exp_series(q, 40)), at lambda = 1 for
    # helmholtz (q = 1) and klein-gordon (q = I), to 1e-15 of max|f|, on a
    # grid with its axis and on random points
    unit = Quaternion(0.0, 0.6, 0.0, -0.8)
    ax = np.linspace(-1.0, 1.0, 11)
    g1, g2, g3 = (v.ravel() for v in np.meshgrid(ax, ax, ax, indexing="ij"))
    rng = np.random.default_rng(557)
    pts = rng.uniform(-1.0, 1.0, (500, 4))
    for f, q in ((helmholtz_solution(1.0), Quaternion(1.0)),
                 (klein_gordon_solution(1.0, [(unit, ONE)]), unit)):
        series = fueter_laplacian(exp_series(q, 40))
        for x0, x1, x2, x3 in ((np.full_like(g1, 0.3), g1, g2, g3), pts.T):
            want = series.eval_components(x0, x1, x2, x3)
            got = f.eval_components(x0, x1, x2, x3)
            scale = np.linalg.norm(want, axis=-1).max()
            assert np.abs(got - want).max() <= 1e-15 * scale


@pytest.mark.parametrize("q", [Quaternion(2.5), Quaternion(0.3, -0.5, 0.2, 0.4)])
def test_closed_form_on_both_sides_of_the_taylor_switch(q):
    # below |t| = |Im x| |q| = TAYLOR_RADIUS the closed form takes its
    # Taylor branch; just below, at and just above the switch it agrees
    # with the P-series of the exponential, for a real and a C_I-valued q
    from slicealg.pde import TAYLOR_RADIUS
    h = Quaternion(0.2, 1.0, -0.5, 0.3)
    f = SolutionEvaluator([(h, q)])
    series = fueter_laplacian(PowerSeries([h * c for c in exp_series(q, 60).coeffs]))
    switch = TAYLOR_RADIUS / q.norm()
    direction = np.array([0.48, -0.6, 0.64])
    for beta in (math.nextafter(switch, 0.0), switch,
                 math.nextafter(switch, 1.0), 0.99 * switch, 1.01 * switch):
        x = (0.3, *(beta * direction))
        want = series.eval_components(*x)
        assert np.linalg.norm(f.eval_components(*x) - want) \
            <= 2e-15 * np.linalg.norm(want)


def test_real_axis_values_are_the_representation():
    # on the real axis the solutions are the paper's representation:
    # Delta_4 e^{lambda x} = -2 lambda^2 e^{lambda x0} and
    # Delta_4 e^{I lambda x} = 2 lambda^2 (cos lambda x0 + I sin lambda x0);
    # a swapped exponential (e^{-lambda x}, or -I lambda) fails here
    unit = Quaternion(0.0, 0.6, 0.0, -0.8)
    for lam in (0.5, 1.0, 3.0):
        for x0 in (-0.7, 0.4, 1.3):
            want = -2.0 * lam * lam * math.exp(lam * x0)
            got = helmholtz_solution(lam)(Quaternion(x0))
            assert (got - Quaternion(want)).norm() <= 1e-15 * abs(want)
            for i in (I, J, unit):
                c, s = math.cos(lam * x0), math.sin(lam * x0)
                want = Quaternion(2.0 * lam * lam * c) + i * (2.0 * lam * lam * s)
                got = klein_gordon_solution(lam, [(i, ONE)])(Quaternion(x0))
                assert (got - want).norm() <= 1e-15 * want.norm()


def test_verdict_is_returned_not_raised():
    # helmholtz lambda = 50 on a 5^3 grid has an FD step far too coarse
    # for lambda: the report says so, with the extrapolated residual first
    problem = PdeProblem(kind="helmholtz", lam=50.0,
                         grid=GridSpec(counts=(5, 5, 5)))
    failures = verify_pde(problem.solve(), problem).verdict()
    assert failures[0].startswith("extrapolated residual 5.916e+02")
    # a polynomial yukawa solution: both residuals sit at roundoff, where
    # their ratio says nothing, so there is no order, and the run is
    # certified
    rng = random.Random(507)
    h = MonogenicSeries([rand_q(rng) for _ in range(3)])
    problem = PdeProblem(kind="yukawa", lam=2.0, unit_i=I, rhs=h, grid=SMALL)
    report = verify_pde(yukawa_solve(2.0, I, h), problem)
    assert report.richardson_order is None
    assert report.verdict() == ()


def test_richardson_rule_at_its_boundaries():
    # no order while both residuals sit at or below ROUNDOFF; just above
    # it, the log2 of their ratio; inf when only the h/2 residual is 0
    from slicealg.monogenic import ROUNDOFF, richardson_order
    above = math.nextafter(ROUNDOFF, 1.0)
    assert richardson_order(ROUNDOFF, ROUNDOFF) is None
    assert richardson_order(0.25 * ROUNDOFF, ROUNDOFF) is None
    assert richardson_order(above, 0.25 * above) == 2.0
    assert richardson_order(0.25 * ROUNDOFF, above) \
        == math.log2(0.25 * ROUNDOFF / above)
    assert richardson_order(above, 0.0) == math.inf
    assert richardson_order(ROUNDOFF, 0.0) is None
    assert richardson_order(0.0, above) == -math.inf
    assert richardson_order(0.0, ROUNDOFF) is None
    # a certified report whose h/2 (or h) residual becomes 0 reads order
    # inf (or -inf), and fails on that alone
    problem = PdeProblem(kind="helmholtz", lam=1.0, grid=SMALL)
    report = verify_pde(problem.solve(), problem)
    assert report.verdict() == ()
    broken = dataclasses.replace(
        report, laplacian=report.laplacian._replace(at_half=0.0))
    assert broken.richardson_order == math.inf
    assert broken.verdict() == ("richardson order inf not within 0.1 of 2",)
    broken = dataclasses.replace(
        report, laplacian=report.laplacian._replace(at_h=0.0))
    assert broken.richardson_order == -math.inf
    assert broken.verdict() == ("richardson order -inf not within 0.1 of 2",)


def test_fd_check_failures_at_their_bounds():
    # the one rule from the fields alone: the extrapolated residual passes
    # at MAX_EXTRAPOLATED_RESIDUAL and fails just above it; no order (both
    # residuals at roundoff) and an order within 0.1 of 2 pass, inf and
    # -inf fail; a control must exceed MIN_CONTROL_RATIO x the
    # extrapolated residual; the lines come in that order
    from slicealg.monogenic import MAX_EXTRAPOLATED_RESIDUAL, \
        MIN_CONTROL_RATIO, ROUNDOFF, FdCheck
    assert FdCheck(4e-3, 1e-3, MAX_EXTRAPOLATED_RESIDUAL).failures() == ()
    above = FdCheck(4e-3, 1e-3, math.nextafter(MAX_EXTRAPOLATED_RESIDUAL, 1.0))
    assert above.failures() == ("extrapolated residual 1.000e-03 > 0.001",)
    assert above.failures("monogenicity ") == (
        "monogenicity extrapolated residual 1.000e-03 > 0.001",)
    at_roundoff = FdCheck(ROUNDOFF, ROUNDOFF, 0.0)
    assert at_roundoff.order is None and at_roundoff.failures() == ()
    within = FdCheck(2.0 ** 2.05 * 1e-6, 1e-6, 0.0)
    assert abs(within.order - 2.05) < 1e-12 and within.failures() == ()
    for r_h, r_half, order in ((1e-6, 0.0, "inf"), (0.0, 1e-6, "-inf")):
        check = FdCheck(r_h, r_half, 0.0)
        assert check.failures() == (
            f"richardson order {order} not within 0.1 of 2",)
        assert check.failures("monogenicity ") == (
            f"monogenicity order {order} not within 0.1 of 2",)
    bound = MIN_CONTROL_RATIO * 1e-6
    assert FdCheck(4e-6, 1e-6, 1e-6).failures() == ()
    assert FdCheck(4e-6, 1e-6, 1e-6, math.nextafter(bound, 1.0)).failures() == ()
    assert FdCheck(4e-6, 1e-6, 1e-6, bound).failures() == (
        "negative control 1.000e-04 <= 100 x extrapolated residual 1.000e-06",)
    assert FdCheck(1.0, 1.0, 1.0, 1.0).failures() == (
        "extrapolated residual 1.000e+00 > 0.001",
        "richardson order 0.000 not within 0.1 of 2",
        "negative control 1.000e+00 <= 100 x extrapolated residual 1.000e+00")


def test_verdict_judges_the_monogenicity_order(monkeypatch):
    # a CRF residual of 1e-4 that does not shrink with the step is under
    # the raw bound, but its order 0 says f is not monogenic
    import slicealg.pde as pde
    problem = PdeProblem(kind="helmholtz", lam=1.0, grid=SMALL)
    f = problem.solve()
    report = verify_pde(f, problem)
    assert report.monogenicity.order is None or \
        abs(report.monogenicity.order - 2.0) <= 0.1
    monkeypatch.setattr(pde, "_crf_stencil", lambda f, points, fv, h: np.full(
        (len(points[0]), 4), 0.5e-4 * report.scale))
    report = verify_pde(f, problem)
    assert report.monogenicity.at_h == report.monogenicity.at_half
    assert abs(report.monogenicity.at_h - 1e-4) <= 1e-15
    assert report.monogenicity.order == 0.0
    assert report.verdict() == ("monogenicity order 0.000 not within 0.1 "
                                "of 2",)


class _PlusSine:
    """f + eps sin(x1) in the real part: like f, it solves Delta_3 g + g
    = 0 (helmholtz lambda = 1), but it is not monogenic."""

    def __init__(self, f, eps):
        self.f, self.eps = f, eps

    def eval_components(self, x0, x1, x2, x3):
        vals = self.f.eval_components(x0, x1, x2, x3)
        vals[..., 0] += self.eps * np.sin(x1)
        return vals


def test_verdict_judges_the_extrapolated_crf_residual():
    # d_cf (eps sin x1) = eps cos(x1) i / 2 does not shrink with the probe
    # step: its extrapolated residual, 2.5e-3 of max|f| = 2, fails the one
    # rule, while the Delta_3 checks pass
    problem = PdeProblem(kind="helmholtz", lam=1.0)
    report = verify_pde(_PlusSine(problem.solve(), 0.01), problem)
    assert report.scale == 2.0
    assert report.monogenicity.extrapolated == pytest.approx(2.5e-3, rel=1e-6)
    first, order = report.verdict()      # and its order, about 0
    assert first == "monogenicity extrapolated residual 2.500e-03 > 0.001"
    assert order.startswith("monogenicity order ")
    # the solution itself is monogenic to roundoff
    report = verify_pde(problem.solve(), problem)
    assert report.monogenicity.extrapolated < 1e-12
    assert report.verdict() == ()


def test_crf_probes_match_monogenic_fd_crf():
    # verify_pde's CRF spot checks compute d_cf f as monogenic.fd_crf
    # does, bit for bit, at both probe steps: the kernels of the closed
    # forms and of the P-series are elementwise
    from slicealg.monogenic import CRF_STEP, fd_crf
    from slicealg.pde import _crf_stencil
    rng = random.Random(733)
    h = MonogenicSeries([rand_q(rng) for _ in range(4)])
    solutions = [
        PdeProblem(kind="helmholtz", lam=1.0).solve(),
        yukawa_solve(1.5, J, h),
        PdeProblem(kind="helmholtz", lam=1.0, slice_constants=(
            SliceConstant(I, ONE, ZERO),
            SliceConstant(J, Quaternion(0.5), ONE))).solve()]
    points = np.array([[0.1, 0.3, -0.2, 0.4], [-0.2, 0.5, 0.1, -0.6],
                       [0.0, -0.7, 0.2, 0.3]])
    for f in solutions:
        for step in (CRF_STEP, CRF_STEP / 2.0):
            got = _crf_stencil(f, tuple(points.T), None, step)
            want = np.array([fd_crf(f, Quaternion(*x), step)[0].as_list()
                             for x in points.tolist()])
            assert got.tobytes() == want.tobytes()


def test_lambda1_squared_is_the_equation_of_each_kind():
    # lambda_1^2 of Delta_3 f + f lambda_1^2 = h, bit for bit: lambda^2,
    # -lambda^2 for klein-gordon and yukawa, and lambda_1 lambda_1
    lam, lam1 = 1.7, Quaternion(0.3, -1.1, 0.4, 2.5)
    rhs = MonogenicSeries([ONE])
    cases = [(PdeProblem(kind="helmholtz", lam=lam), Quaternion(lam * lam)),
             (PdeProblem(kind="klein-gordon", lam=lam, unit_i=J),
              Quaternion(-(lam * lam))),
             (PdeProblem(kind="yukawa", lam=lam, unit_i=J, rhs=rhs),
              Quaternion(-(lam * lam))),
             (PdeProblem(kind="quadratic", lam1=lam1), lam1 * lam1),
             (PdeProblem(kind="helmholtz"), Quaternion(1.0))]
    for problem, want in cases:
        got = problem.lambda1_squared
        assert [v.hex() for v in got.as_list()] == \
            [v.hex() for v in want.as_list()], problem.kind


def test_vacuous_run_is_not_certified():
    # f = 0 solves the zero-source equation for any lambda: the negative
    # control cannot tell lambda from 2 lambda
    h = MonogenicSeries([ZERO])
    problem = PdeProblem(kind="yukawa", lam=1.0, unit_i=I, rhs=h, grid=SMALL)
    failures = verify_pde(yukawa_solve(1.0, I, h), problem).verdict()
    assert failures == ("negative control 0.000e+00 <= 100 x extrapolated "
                        "residual 0.000e+00",)
