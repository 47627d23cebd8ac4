"""
From slice functions to axially monogenic functions
===================================================

Applying the four-dimensional Laplacian to a slice-regular function
produces an axially monogenic function (one killed by the Cauchy-Riemann-
Fueter operator).  On power series the map is completely explicit: it
sends x^{n+2} to -4 P_n, where P_n is a polynomial basis of the axially
monogenic polynomials.  This gives closed-form "Delta-exponentials" --
monogenic eigenfunctions -- without ever differentiating numerically.
Finite differences appear here only to *check* the algebra.
"""

import math

from slicealg import (
    MonogenicSeries,
    PowerSeries,
    Quaternion,
    I,
    J,
    apply_D,
    apply_L,
    decompose,
    delta_exp,
    eval_P,
    fd_crf,
    fd_laplacian,
    fueter_laplacian,
    gen_exp,
    inv_laplacian,
    richardson_order,
)

# P_n restricted to the reals is binomial(n+2, 2) * t^n
for n in range(4):
    t = 0.5
    print("P_%d(0.5) = %s   (expect %.6f)"
          % (n, eval_P(n, Quaternion(t, 0, 0, 0)), math.comb(n + 2, 2) * t ** n))

# the Laplacian of a power series, coefficientwise: x^{n+2} a -> -4 P_n a
f = PowerSeries([Quaternion(0, 0, 0, 0)] * 3 + [I], exact=True)   # x^3 i
g = fueter_laplacian(f)
print("\nDelta(x^3 i) coefficients:", [str(c) for c in g.coeffs])

# sanity: compare with a second-order finite-difference Laplacian
x = Quaternion(0.3, 0.8, -0.5, 0.2)
exact = g(x)
fd = fd_laplacian(f, x, 1e-3)
print("pointwise |Delta_fd - Delta_alg| = %.3e" % (fd - exact).norm())

# Delta has an explicit right inverse on the P-basis; the affine part of
# a series falls in the kernel, everything else round-trips
h = MonogenicSeries([Quaternion(1, 2, 3, 4), I + J, Quaternion(0, 0, 0, 2)])
print("\n|Delta(inv_Delta h) - h| coeffwise: %.3e"
      % max((fueter_laplacian(inv_laplacian(h)).coeff(n) - h.coeff(n)).norm()
            for n in range(4)))

# %% the operator L_lambda and the intertwining relation

# L_lam (Delta f) = Delta (D_lam f): eigenvalue problems transfer from the
# slice side to the monogenic side
lam = Quaternion(0.1, 0.7, 0.4, -0.3)
f = gen_exp([lam, I], 40)
lhs = apply_L(lam, fueter_laplacian(f))
rhs = fueter_laplacian(apply_D(lam, f))
print("|L_lam Delta f - Delta D_lam f| coeffwise: %.3e"
      % max((lhs.coeff(n) - rhs.coeff(n)).norm() for n in range(30)))

# L_0 shifts the basis: L_0 P_n = (n+2) P_{n-1}
n = 4
p = MonogenicSeries([Quaternion(0, 0, 0, 0)] * n + [Quaternion(1, 0, 0, 0)])
shifted = apply_L(0.0, p)
print("L_0 P_4 coefficient 3:", shifted.coeff(3), " (expect 6)")

# %% Delta-exponentials and their monogenicity

# apply Delta to a generalized exponential: a closed-form eigenfunction
# of L on the monogenic side
e = delta_exp([J], 60)
x = Quaternion(0.4, 0.3, 1.1, -0.2)

# closed form on each slice: with x = alpha + J' beta,
# Delta exp_j = -2 Im(x)/|Im x|^2 ((cos)'_s + (sin)'_s j + sin - cos j)(x)
sp = decompose(x)
al, be, jq = sp.alpha, sp.beta, sp.j
dcos = -math.sinh(be) / be * math.sin(al)
dsin = math.sinh(be) / be * math.cos(al)
cosx = Quaternion(math.cos(al) * math.cosh(be)) + jq * (-math.sin(al) * math.sinh(be))
sinx = Quaternion(math.sin(al) * math.cosh(be)) + jq * (math.cos(al) * math.sinh(be))
inner = Quaternion(dcos) + J * dsin + sinx - cosx * J
want = (jq * (1.0 / be)) * inner * (-2.0)
print("\n|Delta exp_j (series) - closed form| = %.3e" % (e(x) - want).norm())

# certify monogenicity by finite differences + Richardson: the residual
# of the Cauchy-Riemann-Fueter operator should shrink at order 2
# (richardson_order gives None when both residuals sit at roundoff)
r1, r2 = (fd_crf(e, x, h)[0].norm() for h in (1e-2, 5e-3))
order = richardson_order(r1, r2)
print("CRF residual at h, h/2: %.3e, %.3e  (order %s)"
      % (r1, r2, "none" if order is None else "%.3f" % order))
