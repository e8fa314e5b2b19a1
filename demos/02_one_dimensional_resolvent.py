"""
The singular one-dimensional operator and its resolvent
=======================================================

Freezing one Fourier mode xi reduces the model operator to a one-dimensional
operator on the half-line,

    M(xi) = y^alpha (B + 2i (a.xi) Dy - |xi|^2),   B = Dyy + (c/y) Dy,

acting in L^2(y^(c-alpha) dy).  This script assembles the finite-element
realization, verifies self-adjointness and nonnegativity of B, solves the
resolvent equation to solver precision, confirms the two algebraically
equivalent solution routes agree, and scans the sectorial resolvent bound
sup |lam| ||(lam - M)^(-1)||, which stays O(1) uniformly in the sector.
The frequency-uniform bound sup || |xi|^2 y^alpha (lam - M(xi))^(-1) || is
read over octaves of xi from the same exact-norm engine as the Mikhlin scans
(multiplier.mikhlin_bound_scan, family "potential"); it levels off as |xi|
grows instead of blowing up.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from degenpde.bessel1d import (assemble_form, operator_norm, resolve,
                               resolvent_pair, sector_resolvent_scan,
                               two_route_resolvent)
from degenpde.grid import default_grading, make_grid
from degenpde.multiplier import mikhlin_bound_scan
from degenpde.params import ModelParams
from degenpde import panels

c, alpha = 1.0, 0.5
grid = make_grid(256, 1.0, default_grading(alpha))
print("grid: J = %d, y in (0, %g], grading exponent %.3f"
      % (grid.num_y, grid.y_max, grid.grading_exponent))

# the driftless generator B is self-adjoint and nonnegative in L^2(y^c):
# its form is Hermitian, and -B is similar to W^(-1/2) F W^(-1/2)
op = assemble_form(grid, "bessel", c=c)
d, e, _ = op.symmetric_bands()
eigs = eigh_tridiagonal(d.real, e.real, eigvals_only=True)
print("\nhermitian defect of the form  = %.3e" % op.hermitian_defect())
print("lowest eigenvalues of -B      = %s"
      % (np.round(eigs[:3], 10) + 0.0).tolist())
print("(zero mode = constants, Neumann-type edge behavior)")

# resolvent solve: (lam W + F) u = W f by pivoted tridiagonal LU, gated on
# its componentwise backward error (at most BACKWARD_ERROR_TOL = 1e-13)
f = panels.bump_profile(0.4, 0.15)(grid.y_nodes).astype(complex)
lam = 1.0 + 0.5j
u = resolve(op, lam, f)
berr = op.backward_error(lam, u, op.weight * f)
print("\nresolvent solve at lam = %s: max|u| = %.6f, backward error %.1e"
      % (lam, np.abs(u).max(), berr))

# ||lam (lam - B)^(-1)||_W = 1 exactly on the positive real axis (the
# constants are an eigenvector for 0): the exact norm from the engine
norm = 2.0 * operator_norm(*resolvent_pair(op, 2.0), op.weight)
print("||lam (lam-B)^(-1)||_W at lam = 2:  %.12f  (exactly 1)" % norm)

# with the mixing term the operator generates an analytic semigroup on a
# sector whose half-angle shrinks as |a| -> 1; the scan takes the exact norm
# at 64 points
amod = 0.5
mode = assemble_form(grid, "model_mode", c=c, alpha=alpha,
                     mixing_freq=amod * 1.0, freq_norm2=1.0)
scan = sector_resolvent_scan(mode, amod)
print("\nsector scan, |mixing| = %.1f: half-angle %.3f rad, "
      "sup ||lam R_lam||_W = %.4f" % (amod, scan["angle"], scan["sup"]))

# two routes to the same resolvent: direct, and via the y^(-alpha) potential
worst = 0.0
for k in (-1, 0, 2):
    xi = 2.0 ** k
    u1, u2 = two_route_resolvent(grid, alpha, c, amod * xi, xi * xi, lam, f)
    rel = np.abs(u1 - u2).max() / np.abs(u1).max()
    worst = max(worst, rel)
print("two-route agreement over xi in {0.5, 1, 4}: max rel diff = %.3e"
      % worst)

# the frequency-uniform bound || |xi|^2 y^alpha (lam - M(xi))^(-1) || in
# L^2(y^(c-alpha)), exact over lam in {0.1, 1, 10} and xi = 2^k; the sup
# also covers the xi-derivative cells xi D_xi of the same family
exps = list(range(-3, 7))
model = ModelParams(np.array([amod]), alpha, c, c - alpha, 2.0)
scan_xi = mikhlin_bound_scan((0.1, 1.0, 10.0), [(2.0 ** k,) for k in exps],
                             model, make_grid(192, 1.0,
                                              default_grading(alpha)),
                             families=("potential",))
per_xi = [max(v for (_, beta, _, xi), v in scan_xi["table"].items()
              if beta == (0,) and xi == (2.0 ** k,)) for k in exps]
print("\nfrequency scan xi = 2^k, k = %s:" % exps)
print("  sup_lam norms =", ["%.3f" % v for v in per_xi])
print("  sup = %.4f (uniformly bounded: it levels off as |xi| grows)"
      % scan_xi["suprema"]["potential"])
