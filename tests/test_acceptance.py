"""Acceptance gate: one test per advertised guarantee.

Run ``pytest -v tests/test_acceptance.py`` to get exactly one pass/fail
line per guarantee:

1. golden closed forms for the generalized exponentials, the monogenic
   polynomials, the Delta-exponential and the Yukawa worked example;
2. exact operator identities on coefficients;
3. recurrence coefficients equal brute-force multi-index sums;
4. analytic identities certified by finite differences with Richardson
   order >= 1.9;
5. PDE residuals on a 21^3 grid with order-2 certification and negative
   controls;
6. byte-identical CLI output on repeated runs.
"""

import cmath
import math
import random
import subprocess
import sys

from slicealg import (
    CoeffBoundCert,
    E_lambda_op,
    GridSpec,
    MonogenicSeries,
    PdeProblem,
    PowerSeries,
    Quaternion,
    SliceConstant,
    I,
    J,
    K,
    ONE,
    ZERO,
    apply_D,
    apply_L,
    decompose,
    delta_exp,
    eval_P,
    exp_series,
    fd_crf,
    fd_laplacian,
    fueter_laplacian,
    gen_exp,
    helmholtz_solution,
    inv_laplacian,
    klein_gordon_solution,
    laplacian_pointwise,
    laplacian_via_partials,
    richardson_order,
    S_lambda,
    spherical_derivative_eval,
    verify_pde,
    yukawa_solve,
)

REL_TOL = 1e-9       # golden closed forms
N_TRUNC = 40


def rand_q(rng, scale=1.5):
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


def rand_in_ball(rng, radius=2.0):
    while True:
        x = rand_q(rng, radius)
        if x.norm() <= radius:
            return x


def sample_points(rng, n=12, radius=2.0):
    pts = [Quaternion(0.7), Quaternion(-1.3), Quaternion(2.0)]
    while len(pts) < n:
        pts.append(rand_in_ball(rng, radius))
    return pts


def close(got, want, tol=REL_TOL):
    return (got - want).norm() <= tol * max(1.0, want.norm())


# ------------------------------------------------- golden closed forms

def test_golden_closed_forms():
    rng = random.Random(1001)
    pts = sample_points(rng)

    def parts(x):
        """Slice coordinates and the scalar-evaluation helper at x."""
        sp = decompose(x, default_j=I)
        z = complex(sp.alpha, sp.beta)
        jq = sp.j if sp.j is not None else I

        def cval(w):
            return Quaternion(w.real) + jq * w.imag

        return z, cval

    # g^{i,j} = 1/2 (sin x + x cos x + (x sin x)(i+j) + (sin x - x cos x) k)
    g_ij = gen_exp([I, J], N_TRUNC)
    for x in pts:
        z, cval = parts(x)
        s, c = cmath.sin(z), cmath.cos(z)
        want = (cval(s + z * c) + cval(z * s) * (I + J)
                + cval(s - z * c) * K) * 0.5
        assert close(g_ij(x), want)

    # g^{i,2j} and g^{2i,j}: same scalar parts, mirrored unit combination
    for lams, unit_combo in (([I, 2.0 * J], I + 2.0 * J),
                             ([2.0 * I, J], 2.0 * I + J)):
        g = gen_exp(lams, N_TRUNC)
        for x in pts:
            z, cval = parts(x)
            s1, c1 = cmath.sin(z), cmath.cos(z)
            s2, c2 = cmath.sin(2 * z), cmath.cos(2 * z)
            want = (cval(2 * s2 - s1) + cval(c1 - c2) * unit_combo
                    + cval(2 * s1 - s2) * K) * (1.0 / 3.0)
            assert close(g(x), want)

    # E_(1+i,1+j) = e^x/2 ((x cos x + sin x) + x sin x (i+j)
    #                      + (-x cos x + sin x) k)
    e2 = gen_exp([Quaternion(1, 1, 0, 0), Quaternion(1, 0, 1, 0)], N_TRUNC)
    for x in pts:
        z, cval = parts(x)
        ez, s, c = cmath.exp(z), cmath.sin(z), cmath.cos(z)
        want = (cval(ez * (z * c + s)) + cval(ez * z * s) * (I + J)
                + cval(ez * (-z * c + s)) * K) * 0.5
        assert close(e2(x), want)

    # E_(i,j,k) = 1/8 (x(x+3) cos x + (x^2+3x-3) sin x)
    #           + 1/8 (-x(x+1) cos x + (x^2+x+1) sin x)(i+k)
    #           + 1/8 (x(x-1) cos x + (x^2-x+1) sin x) j
    e3 = gen_exp([I, J, K], N_TRUNC)
    for x in pts:
        z, cval = parts(x)
        s, c = cmath.sin(z), cmath.cos(z)
        want = (cval(z * (z + 3) * c + (z * z + 3 * z - 3) * s)
                + cval(-z * (z + 1) * c + (z * z + z + 1) * s) * (I + K)
                + cval(z * (z - 1) * c + (z * z - z + 1) * s) * J) * 0.125
        assert close(e3(x), want)

    # E_(i,j,i) = 1/4 (x^2 cos x + x sin x)
    #           + 1/4 (-x cos x + (x^2+1) sin x) i + 1/2 (-x cos x + sin x) j
    e_iji = gen_exp([I, J, I], N_TRUNC)
    for x in pts:
        z, cval = parts(x)
        s, c = cmath.sin(z), cmath.cos(z)
        want = (cval(z * z * c + z * s) * 0.25
                + cval(-z * c + (z * z + 1) * s) * 0.25 * I
                + cval(-z * c + s) * 0.5 * J)
        assert close(e_iji(x), want)

    # E_i(sin x) = 1/2 x sin x + 1/2 (sin x - x cos x) i
    sin_series = PowerSeries(
        [Quaternion(0.0) if n % 2 == 0
         else Quaternion((-1.0) ** (n // 2) / math.factorial(n))
         for n in range(N_TRUNC + 1)], exact=False)
    cert = CoeffBoundCert.fit(sin_series, 0, I)
    ei = E_lambda_op(I, sin_series, N_TRUNC, cert=cert)
    for x in pts:
        z, cval = parts(x)
        s, c = cmath.sin(z), cmath.cos(z)
        want = cval(z * s) * 0.5 + cval(s - z * c) * 0.5 * I
        assert close(ei(x), want)

    # P_0..P_3 explicit forms
    for x in pts:
        x0, x1, x2, x3 = x.w, x.x1, x.x2, x.x3
        im = Quaternion(0.0, x1, x2, x3)
        wants = [
            Quaternion(1.0),
            Quaternion(3 * x0) + im,
            Quaternion(6 * x0 ** 2 - 2 * (x1 ** 2 + x2 ** 2 + x3 ** 2))
            + im * (4 * x0),
            Quaternion(10 * x0 * (x0 ** 2 - x1 ** 2 - x2 ** 2 - x3 ** 2))
            + im * (2 * (5 * x0 ** 2 - x1 ** 2 - x2 ** 2 - x3 ** 2)),
        ]
        for n, want in enumerate(wants):
            assert close(eval_P(n, x), want)

    # Delta exp_j via the printed spherical derivatives:
    # Delta exp_j = -2 Im(x)/|Im(x)|^2 ((cos x)'_s + (sin x)'_s j
    #                                   + sin x - (cos x) j),
    # (cos x)'_s = -sinh(b)/b sin(a), (sin x)'_s = sinh(b)/b cos(a)
    dexp_j = delta_exp([J], N_TRUNC)
    for x in pts:
        if x.imag_norm() < 1e-9:
            continue
        sp = decompose(x)
        a, b, jq = sp.alpha, sp.beta, sp.j
        z = complex(a, b)
        w_sin, w_cos = cmath.sin(z), cmath.cos(z)
        sinx = Quaternion(w_sin.real) + jq * w_sin.imag
        cosx = Quaternion(w_cos.real) + jq * w_cos.imag
        sd_cos = -math.sinh(b) / b * math.sin(a)
        sd_sin = math.sinh(b) / b * math.cos(a)
        inner = Quaternion(sd_cos) + J * sd_sin + sinx - cosx * J
        want = (jq * (1.0 / b)) * inner * (-2.0)
        assert close(dexp_j(x), want)

    # Yukawa worked example: h = 1 + P1 (i-j+k) - P2 (i+j+k) + P3 with
    # lambda = 1, I = i gives the exact P-basis coefficients below
    h = MonogenicSeries([ONE, Quaternion(0, 1, -1, 1),
                         Quaternion(0, -1, -1, -1), ONE])
    f = yukawa_solve(1.0, I, h)
    want_coeffs = [Quaternion(-1, -12, -12, -12), Quaternion(20, -1, 1, -1),
                   Quaternion(0, 1, 1, 1), Quaternion(-1)]
    assert f.degree_bound == 3
    for k, c in enumerate(want_coeffs):
        assert (f.coeff(k) - c).norm() < 1e-12


# ------------------------------------------- exact operator identities

def test_exact_operator_identities():
    rng = random.Random(1002)
    MACH = 1e-13

    def max_diff(f, g, upto=None):
        n = min(f.degree_bound, g.degree_bound) if upto is None else upto
        return max((f.coeff(k) - g.coeff(k)).norm() for k in range(n + 1))

    # D_lambda exp_lambda = 0
    for _ in range(25):
        lam = rand_q(rng)
        d = apply_D(lam, exp_series(lam, N_TRUNC))
        assert max((d.coeff(n).norm() for n in range(d.degree_bound + 1)),
                   default=0.0) < MACH

    # D_lambda . S_lambda = id on polynomials of degree <= 12, 50 random
    # lambda (|lambda| >= 1/2: the closed form is conditioned by
    # |lambda|^-(d+1), so the float comparison is relative to the
    # intermediate coefficient size)
    for _ in range(50):
        lam = rand_q(rng)
        lam = lam * (rng.uniform(0.5, 2.5) / lam.norm())
        p = PowerSeries([rand_q(rng, 1.0) for _ in range(rng.randint(1, 13))])
        s = S_lambda(lam, p)
        scale = max(c.norm() for c in s.coeffs)
        assert max_diff(apply_D(lam, s), p) < MACH * max(1.0, scale)

    # telescoping D_{lam_{l+1}} E_(lam_1..lam_{l+1}) = E_(lam_1..lam_l)
    for _ in range(20):
        m = rng.randint(2, 5)
        lams = [rand_q(rng) for _ in range(m)]
        lhs = apply_D(lams[-1], gen_exp(lams, N_TRUNC))
        rhs = gen_exp(lams[:-1], N_TRUNC)
        assert max_diff(lhs, rhs) < MACH

    # E_(lam,...,lam) = x^{m-1}/(m-1)! exp_lam
    for m in range(1, 6):
        lam = rand_q(rng)
        lhs = gen_exp([lam] * m, N_TRUNC)
        rhs = PowerSeries.monomial(m - 1, 1.0 / math.factorial(m - 1)) \
            * exp_series(lam, N_TRUNC)
        assert max_diff(lhs, rhs) < MACH

    # L_lambda . Delta = Delta . D_lambda on series
    for _ in range(20):
        lam = rand_q(rng)
        f = PowerSeries([rand_q(rng) for _ in range(9)])
        lhs = apply_L(lam, fueter_laplacian(f))
        rhs = fueter_laplacian(apply_D(lam, f))
        n = min(lhs.degree_bound, rhs.degree_bound)
        assert max((lhs.coeff(k) - rhs.coeff(k)).norm()
                   for k in range(n + 1)) < MACH

    # L_0 P_n = (n+2) P_{n-1}
    for n in range(1, 8):
        g = apply_L(ZERO, MonogenicSeries([ZERO] * n + [ONE]))
        for k in range(g.degree_bound + 1):
            want = Quaternion(float(n + 2)) if k == n - 1 else ZERO
            assert (g.coeff(k) - want).norm() < MACH

    # the inverse Laplacian is two-sided on the stated subspaces
    for _ in range(10):
        g = MonogenicSeries([rand_q(rng) for _ in range(6)])
        back = fueter_laplacian(inv_laplacian(g))
        assert max((back.coeff(k) - g.coeff(k)).norm()
                   for k in range(g.degree_bound + 1)) < MACH
        f = PowerSeries([rand_q(rng) for _ in range(7)])
        f2 = inv_laplacian(fueter_laplacian(f))
        assert max((f2.coeff(k) - f.coeff(k)).norm()
                   for k in range(2, 7)) < MACH
        assert f2.coeff(0) == ZERO and f2.coeff(1) == ZERO


# -------------------------------------- recurrence vs brute-force sums

def test_recurrence_equals_brute_force():
    rng = random.Random(1003)
    n_max = 8

    def brute(lams):
        out = [ZERO] * (n_max + 1)
        for n in range(n_max + 1):
            p = ONE
            for _ in range(n):
                p = p * lams[0]
            out[n] = p * (1.0 / math.factorial(n))
        for lam in lams[1:]:
            nxt = [ZERO] * (n_max + 1)
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

    for _ in range(20):
        m = rng.randint(1, 3)
        lams = [rand_q(rng) for _ in range(m)]
        f = gen_exp(lams, n_max)
        want = brute(lams)
        for n in range(n_max + 1):
            diff = (f.coeff(n) - want[n]).norm()
            assert diff <= 1e-12 * max(1.0, want[n].norm())


# -------------------------------------- FD-certified analytic identities

def test_fd_certified_identities():
    rng = random.Random(1004)
    H0 = 1e-3
    FLOOR = 1e-11

    def certified(resid, tol):
        """residual at h/2 below tol and Richardson order >= 1.9 (unless
        the residual sits on the roundoff floor)."""
        r1, r2, order = richardson_order(resid, H0, floor=FLOOR)
        assert r2 < tol, (r1, r2, order)
        assert order >= 1.9 or r2 < FLOOR, (r1, r2, order)

    # d_CF P_n = 0 and dbar_CF P_n = (n+2) P_{n-1}, n <= 6
    for n in range(1, 7):
        x = rand_q(rng, 1.0)

        def resid_mono(h, n=n, x=x):
            d_cf, _ = fd_crf(lambda y: eval_P(n, y), x, h)
            return d_cf.norm()

        def resid_shift(h, n=n, x=x):
            _, dbar = fd_crf(lambda y: eval_P(n, y), x, h)
            return (dbar - eval_P(n - 1, x) * float(n + 2)).norm()

        certified(resid_mono, 1e-4)
        certified(resid_shift, 1e-4)

    # d_CF f = -f'_s for random slice-regular polynomials
    for _ in range(5):
        f = PowerSeries([rand_q(rng) for _ in range(6)])
        x = rand_q(rng, 1.0)
        while x.imag_norm() < 0.3:
            x = rand_q(rng, 1.0)
        want = -spherical_derivative_eval(f, x)

        def resid_sd(h, f=f, x=x, want=want):
            d_cf, _ = fd_crf(f, x, h)
            return (d_cf - want).norm()

        certified(resid_sd, 1e-4)

    # harmonicity of the spherical-derivative components
    for _ in range(5):
        f = PowerSeries([rand_q(rng) for _ in range(6)])
        x = rand_q(rng, 1.0)
        while x.imag_norm() < 0.3:
            x = rand_q(rng, 1.0)

        def resid_harm(h, f=f, x=x):
            return fd_laplacian(lambda y: spherical_derivative_eval(f, y),
                                x, h).norm()

        certified(resid_harm, 1e-3)

    # Vekua equation for the P_n stems, exact complex derivatives, n <= 8
    for n in range(9):
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            p = sum(k * z ** (k - 1) * z.conjugate() ** (n - k + 1)
                    for k in range(1, n + 2))
            dzbar = sum(k * (n - k + 1) * z ** (k - 1)
                        * z.conjugate() ** (n - k)
                        for k in range(1, n + 2))
            rhs = (p - p.conjugate()) / (z - z.conjugate())
            assert abs(dzbar - rhs) <= 1e-10 * max(1.0, abs(rhs))

    # agreement of the two Laplacian formulas at 100 random non-real points
    f = PowerSeries([rand_q(rng) for _ in range(7)])
    count = 0
    while count < 100:
        x = rand_q(rng, 1.5)
        if x.imag_norm() < 0.05:
            continue
        count += 1
        a = laplacian_pointwise(f, x)
        b = laplacian_via_partials(f, x)
        assert (a - b).norm() <= 1e-9 * max(1.0, b.norm())


# ------------------------------------------------ PDE residuals on grid

def test_pde_residuals_on_grid():
    grid = GridSpec(counts=(21, 21, 21))     # [-1,1]^3 at x0 = 0

    # Helmholtz: f = Delta e^x, Delta_3 f + f = 0
    f = helmholtz_solution(1.0)
    rep = verify_pde(f, PdeProblem(kind="helmholtz", lam=1.0, grid=grid))
    assert rep.max_rel_residual <= 1e-4
    assert rep.richardson_order >= 1.9
    assert rep.negative_control > 100 * rep.max_rel_residual
    assert rep.monogenicity_max_rel < 1e-5
    assert rep.monogenicity_order >= 1.9

    # Klein-Gordon: g = Delta exp_j, Delta_3 g - g = 0
    g = klein_gordon_solution(1.0, [(J, SliceConstant.uniform(ONE))])
    rep = verify_pde(g, PdeProblem(kind="klein-gordon", lam=1.0, unit_i=J,
                                   grid=grid))
    assert rep.max_rel_residual <= 1e-4
    assert rep.richardson_order >= 1.9
    assert rep.negative_control > 100 * rep.max_rel_residual

    # mu_I variants blow up like beta^-2 at the real axis: verified on an
    # origin-excluding grid, certified by the order estimate
    ex_grid = GridSpec(counts=(21, 21, 21), exclude_radius=0.5, fd_step=0.005)
    h1 = SliceConstant.on_halves(I, ONE, ZERO)
    h2 = SliceConstant.on_halves(J, Quaternion(0.5), ONE)
    fm = helmholtz_solution(1.0, h1, h2)
    rep = verify_pde(fm, PdeProblem(kind="helmholtz", lam=1.0, grid=ex_grid))
    assert rep.max_rel_residual < 1e-2
    assert abs(rep.richardson_order - 2.0) < 0.1
    assert rep.negative_control > 10 * rep.max_rel_residual

    gm = klein_gordon_solution(1.0, [(J, SliceConstant.on_halves(J, ONE, -ONE))])
    rep = verify_pde(gm, PdeProblem(kind="klein-gordon", lam=1.0, unit_i=J,
                                    grid=ex_grid))
    assert rep.max_rel_residual < 1e-2
    assert abs(rep.richardson_order - 2.0) < 0.1
    assert rep.negative_control > 10 * rep.max_rel_residual


# ----------------------------------------------------- CLI determinism

def test_cli_determinism():
    base = [sys.executable, "-m", "slicealg.cli"]

    def run(args):
        proc = subprocess.run(base + args, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, proc.stderr

    cases = [
        ["gen-exp", "--lambdas", "1+i,1+j", "--degree", "40"],
        ["gen-exp", "--lambdas", "0.5-0.25i+k,2j", "--degree", "17"],
        ["pde", "--kind", "helmholtz", "--lambda", "1.0",
         "--grid-counts", "7", "--fd-step", "0.02"],
        ["verify", "--suite", "quaternion", "--seed", "42"],
    ]
    for args in cases:
        out1 = run(args)
        out2 = run(args)
        assert out1 == out2, f"non-deterministic output for {args}"

    # file outputs too, including CSV evaluation
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        coeffs = tmp / "c.json"
        run(["gen-exp", "--lambdas", "i,j,k", "--degree", "30",
             "-o", str(coeffs)])
        blob1 = coeffs.read_bytes()
        run(["gen-exp", "--lambdas", "i,j,k", "--degree", "30",
             "-o", str(coeffs)])
        assert coeffs.read_bytes() == blob1

        csv1 = run(["eval", "--coeffs", str(coeffs), "--at", "0.3+0.4i-0.1k",
                    "--at", "1.25"])
        csv2 = run(["eval", "--coeffs", str(coeffs), "--at", "0.3+0.4i-0.1k",
                    "--at", "1.25"])
        assert csv1 == csv2

        for trial in ("a", "b"):
            run(["pde", "--kind", "yukawa", "--unit", "i", "--lambda", "1.0",
                 "--rhs", str(_write_rhs(tmp / f"rhs_{trial}.json")),
                 "--grid-counts", "5", "--fd-step", "0.02",
                 "--out-prefix", str(tmp / f"yk_{trial}")])
        for suffix in (".coeffs.json", ".csv", ".summary.json"):
            a = (tmp / ("yk_a" + suffix)).read_bytes()
            b = (tmp / ("yk_b" + suffix)).read_bytes()
            assert a == b, f"non-deterministic {suffix}"

        # the product-domain mu-variant on a grid of more than one block
        from slicealg.monogenic import BLOCK
        constants = tmp / "mu.json"
        constants.write_text('[{"I": "i", "a1": "1", "a2": "0"}, '
                             '{"I": "j", "a1": "0.5", "a2": "1"}]')
        streams = [run(["pde", "--kind", "helmholtz", "--lambda", "1.0",
                        "--constants", str(constants), "--exclude", "0.5",
                        "--fd-step", "0.005", "--grid-counts", "21",
                        "--out-prefix", str(tmp / f"mu_{trial}")])
                   for trial in ("a", "b")]
        assert streams[0] == streams[1]
        assert int(streams[0][1].split()[1]) > BLOCK   # nodes kept
        for suffix in (".csv", ".summary.json"):
            a = (tmp / ("mu_a" + suffix)).read_bytes()
            b = (tmp / ("mu_b" + suffix)).read_bytes()
            assert a == b, f"non-deterministic mu-variant {suffix}"


def _write_rhs(path):
    from slicealg import save_monogenic
    save_monogenic(path, MonogenicSeries([ONE, Quaternion(0, 1, -1, 1),
                                          Quaternion(0, -1, -1, -1), ONE]))
    return path
