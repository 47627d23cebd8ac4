"""
Helmholtz, Klein-Gordon and Yukawa solutions on a grid
======================================================

The eigenfunction machinery yields closed-form solutions of
(Delta_3 + lambda^2) f = 0, (Delta_3 - lambda^2) f = 0 and
(Delta_3 - lambda^2) f = h on slices of R^3 = {x0 = const}.  Each
solution is then verified independently: a finite-difference Laplacian
is swept over a grid, the relative residual is recorded, a Richardson
step certifies second-order convergence (so the residual is pure FD
truncation, not a wrong solution), and a deliberately wrong operator
serves as a negative control.
"""

from slicealg import (
    GridSpec,
    MonogenicSeries,
    PdeProblem,
    Quaternion,
    I,
    K,
    SliceConstant,
    helmholtz_solution,
    klein_gordon_solution,
    verify_pde,
    yukawa_solve,
)
from slicealg.fmtio import dump_json

grid = GridSpec(counts=(15, 15, 15), fd_step=0.02)

# (Delta_3 + 1) f = 0 from the entire eigenfunctions exp_{+/-lambda}
f = helmholtz_solution(1.0, h1=Quaternion(1, 0, 0, 0), h2=I + K)
report = verify_pde(f, PdeProblem(kind="helmholtz", lam=1.0, grid=grid))
print("helmholtz :", report.summary())
print("  negative control (wrong lambda residual):", "%.3f" % report.laplacian.control)
order = report.monogenicity.order       # None at roundoff
print("  monogenicity of Delta_4 f: max rel %.3e, order %s"
      % (report.monogenicity.at_h,
         "none" if order is None else "%.3f" % order))

# %% Klein-Gordon from slice constants times exp_{I lambda}

# with a uniform constant the solution is entire, exp_{I lam} itself
c = SliceConstant.uniform(Quaternion(1, 0, 0, 0))
g = klein_gordon_solution(1.3, [(I, c)])
report = verify_pde(g, PdeProblem(kind="klein-gordon", lam=1.3, unit_i=I,
                                  slice_constants=(c,), grid=grid))
print("\nklein-gordon:", report.summary())

# a genuinely two-valued constant forces the product domain: the grid
# must keep away from the real axis, where the function is undefined
c2 = SliceConstant(I, Quaternion(1, 0, 0, 0), Quaternion(-1, 0, 0, 0))
g2 = klein_gordon_solution(1.0, [(I, c2)])
excl = GridSpec(counts=(15, 15, 15), exclude_radius=0.5, fd_step=0.005)
report = verify_pde(g2, PdeProblem(kind="klein-gordon", lam=1.0, unit_i=I,
                                   slice_constants=(c2,), grid=excl))
print("two-valued :", report.summary())
print("  points kept after excluding |Im x| < 0.5:", report.n_points)

# %% Yukawa: an inhomogeneous equation solved exactly

# for a polynomial right-hand side the solution is again a polynomial in
# the monogenic P-basis, so the only residual left on the grid is the
# truncation error of the finite-difference stencil itself
h = MonogenicSeries([Quaternion(1, 0, 0, 0), Quaternion(0, 1, -1, 1),
                     Quaternion(0, -1, -1, -1), Quaternion(1, 0, 0, 0)])
u = yukawa_solve(1.0, I, h)
print("\nyukawa P-basis coefficients:", [str(c) for c in u.coeffs])
report = verify_pde(u, PdeProblem(kind="yukawa", lam=1.0, unit_i=I, rhs=h,
                                  grid=grid))
print("yukawa     :", report.summary())

# write the usual artifacts: per-point CSV plus a machine-readable summary
import tempfile, pathlib
out = pathlib.Path(tempfile.mkdtemp()) / "yukawa"
report.write_csv(str(out) + ".csv")
dump_json(report.summary(), str(out) + ".summary.json")
print("\nwrote", str(out) + ".csv")
print(open(str(out) + ".csv").readline().strip())
