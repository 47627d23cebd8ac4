"""
Slice constants and the function mu_I
=====================================

Slice functions that are not power series: the characteristic function
mu_I of a half slice, and "slice constants" that take one value on the
upper half of a slice and another on the lower half.  These are genuine
slice functions -- their stems satisfy the even/odd symmetry -- but they
live on the product domain H \\ R and are constant along each half slice.

Each is a pair (u, w) of power series, f(x) = u(x) + J w(x) with
J = Im x / |Im x|; ``*`` is the slice product of pairs.
"""

import random

from slicealg import (
    DomainError,
    Quaternion,
    I,
    J,
    K,
    SliceConstant,
    exp_series,
    lift,
    mu,
    recover_constants,
    slice_constant_from_two_values,
    verify_stem_symmetry,
)

m = mu(I)
# the pair of degree 0 (1/2, I/2): mu_I(x) = 1/2 + J I/2
print("mu_i = u + J w with u =", m.u.coeffs[0], " w =", m.w.coeffs[0])

# mu_I vanishes on C_I^+ and is 1 on C_I^-
up = Quaternion(0.4, 1.3, 0.0, 0.0)       # Im part along +i
down = Quaternion(0.4, -1.3, 0.0, 0.0)    # Im part along -i
print("mu_i on C_i^+ :", m(up))
print("mu_i on C_i^- :", m(down))

# off the slice of I it interpolates; on the real axis it is undefined
elsewhere = Quaternion(0.4, 0.0, 1.0, 0.5)
print("mu_i elsewhere:", m(elsewhere))
try:
    m(Quaternion(0.4, 0, 0, 0))
except DomainError as exc:
    print("mu_i on R     : DomainError:", exc)

# idempotent: mu * mu = mu under the slice product of pairs
pt = Quaternion(-0.2, 0.7, -0.4, 1.1)
print("\n(mu*mu - mu)(x) =", ((m * m)(pt) - m(pt)).norm())

# the values are F1 + J F2 of the stems on the whole sphere: a numerical
# cross-check of the two evaluation routes
rng = random.Random(3)
samples = [Quaternion(rng.uniform(-2, 2), rng.uniform(0.1, 2),
                      rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
print("worst stem-symmetry defect of mu_i: %.3e" % verify_stem_symmetry(m, samples))

# %% slice constants from two prescribed values

# a slice function equal to a1 on C_J^+ and a2 on C_K^+, for any two
# non-proportional units J, K
a1 = Quaternion(1.0, 2.0, 0.0, 0.0)
a2 = Quaternion(0.0, 0.0, -1.0, 3.0)
c = slice_constant_from_two_values(J, K, a1, a2)
xj = Quaternion(0.5, 0.0, 2.0, 0.0)   # on C_J^+
xk = Quaternion(0.5, 0.0, 0.0, 2.0)   # on C_K^+
print("\nc on C_J^+:", c(xj), " (wanted", str(a1) + ")")
print("c on C_K^+:", c(xk), " (wanted", str(a2) + ")")

# the slice derivative (u', w') of a slice constant is (0, 0), even
# though the function is wildly non-constant across slices
print("c'(x) at a random point:", c.derivative()(pt).norm())

# SliceConstant is the compact record: value a1 on C_i^+, a2 on C_i^-
sc = SliceConstant(I, a1, a2)
print("\nuniform?", sc.is_uniform)
print("as expr, on C_i^+:", sc.expr()(up))

# %% recovering the two values from a product

# multiply a slice constant into an entire function and read the pair
# back off by sampling -- this is how Klein-Gordon solutions are built
lam = J * 2.0
g = sc.expr() * lift(exp_series(lam, 60))
b1, b2 = recover_constants(g, lam, I)
print("\nrecovered a1:", b1)
print("recovered a2:", b2)
