"""
Quaternion arithmetic and slice decomposition
=============================================

Every quaternion x = x0 + x1*i + x2*j + x3*k with nonzero imaginary part
lives on exactly one complex slice: x = alpha + J*beta where J is an
imaginary unit (J^2 = -1) and beta > 0.  This script walks through the
basic arithmetic and the decomposition that everything else builds on.
"""

import random

from slicealg import (
    Quaternion,
    I,
    J,
    commutes,
    decompose,
    format_quaternion,
    parse_quaternion,
)

# the defining relations
print("i*j =", I * J)          # k
print("j*i =", J * I)          # -k, multiplication is not commutative
print("i^2 =", I * I)

q = Quaternion(1.0, 2.0, -1.0, 0.5)
r = parse_quaternion("3-0.5i+2k")
print("\nq       =", q)
print("r       =", r)
print("q*r     =", q * r)
print("r*q     =", r * q)
print("|q*r|   =", (q * r).norm())
print("|q|*|r| =", q.norm() * r.norm())   # norms multiply

# conjugation reverses products and recovers the squared norm
print("\nconj(q*r) == conj(r)*conj(q):", (q * r).conjugate() == r.conjugate() * q.conjugate())
print("q * conj(q) =", q * q.conjugate())

# inverses
print("q * q^-1 =", q * q.inverse())

# %% slice decomposition

x = Quaternion(0.3, 1.0, -2.0, 2.0)
pt = decompose(x)
print("\nx     =", x)
print("alpha =", pt.alpha)
print("beta  =", pt.beta)
print("J     =", format_quaternion(pt.j))
print("J^2   =", pt.j * pt.j)
print("alpha + J*beta =", pt.to_quaternion())

# real points have no preferred slice, so decompose gives them no J
t = Quaternion(2.5, 0.0, 0.0, 0.0)
print("\ndecompose(2.5):", decompose(t))

# two quaternions commute exactly when they share a slice
rng = random.Random(0)
x = Quaternion(rng.random(), 1.0, 2.0, -1.0)
same_slice = Quaternion(5.0, 0.0, 0.0, 0.0) + decompose(x).j * 3.0
other = Quaternion(0.0, 1.0, 0.0, 0.0)
print("\ncommutes(x, 5 + 3J):", commutes(x, same_slice))
print("commutes(x, i):     ", commutes(x, other))

# parsing round-trips through formatting
for s in ("1", "-k", "0.5+0.5i-0.5j+0.5k", "2e-3i"):
    q = parse_quaternion(s)
    print(f"{s!r:28} -> {format_quaternion(q)}")
