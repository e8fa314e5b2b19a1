"""
Heat kernels on the half-line: Gaussian envelopes and domination
================================================================

The semigroup e^{tB} of the singular operator B = Dyy + (c/y) Dy has an
integral kernel p_t(y, rho) with respect to the measure rho^c d rho.  The
kernel obeys a Gaussian upper bound

    p_t(y, rho) <= C t^(-1/2) rho^(-c) min(rho/sqrt(t), 1)^c
                   exp(-|y - rho|^2 / (kappa t)),

and the degenerate model kernel (exponent alpha) inherits the same envelope
through the substitution z = y^(1 - alpha/2).  The graded drift perturbation
A = B - i b (c+beta)/2 y^(beta-1) - mu y^(2 beta) is dominated pointwise:
|e^{tA} f| <= e^{tB} |f|.  This script computes the kernels without a dense
matrix exponential (a tridiagonal eigensolve for the self-adjoint B, a
parabolic-contour quadrature of the banded resolvent for the oblique A),
fits (C, kappa) by envelope regression, shows the fit is stable under grid
refinement, and checks the domination inequality.
"""

import numpy as np

from degenpde.bessel1d import (assemble_form, bessel_kernel_fit, expm_kernel,
                               model_kernel_fit, node_weights,
                               semigroup_domination_check)
from degenpde.grid import default_grading, make_grid

c, t = 1.0, 0.02

# structural facts first: the kernel is symmetric in the weighted measure,
# real positive, and conserves constants (no flux through either end)
grid = make_grid(256, 1.0, 1.0)
op = assemble_form(grid, "bessel", c=c)
ker = expm_kernel(op, t)
w = node_weights(grid, c)
sym = np.abs(ker.values - ker.values.T).max() / np.abs(ker.values).max()
ones = ker.apply(np.ones(grid.num_y))
print("kernel at t = %g, J = %d:" % (t, grid.num_y))
print("  weighted symmetry defect   = %.3e" % sym)
print("  min over the grid          = %.3e  (positivity)"
      % ker.values.real.min())
print("  constants preserved within = %.3e" % np.abs(ones - 1.0).max())

# envelope regression: same fit at two resolutions, constants must agree
print("\nGaussian envelope fit (Bessel kernel), c = %g:" % c)
for J in (256, 512):
    g = make_grid(J, 1.0, 1.0)
    fit = bessel_kernel_fit(expm_kernel(assemble_form(g, "bessel", c=c), t),
                            c, t)
    print("  J = %3d:  C = %.4f   kappa = %.4f" % (J, fit["C"], fit["kappa"]))

# the degenerate model kernel: alpha > 0 slows diffusion near the edge but
# the transformed envelope still holds with stable constants
alpha = 0.5
print("\nGaussian envelope fit (model kernel), c = %g, alpha = %g:"
      % (c, alpha))
for J in (256, 512):
    g = make_grid(J, 1.0, default_grading(alpha))
    o = assemble_form(g, "model_mode", c=c, alpha=alpha, mixing_freq=0.0,
                      freq_norm2=0.0)
    fit = model_kernel_fit(expm_kernel(o, t), c, alpha, t)
    print("  J = %3d:  C = %.4f   kappa = %.4f" % (J, fit["C"], fit["kappa"]))

# domination: the drift only rotates phases, the modulus is controlled by
# the driftless kernel; excess -> 0 under refinement
print("\npointwise domination |e^(tA) f| <= e^(tB) |f|, "
      "(c, beta, b, mu) = (1, 0.5, 0.8, 0.3):")
for J in (192, 384):
    g = make_grid(J, 1.0, 1.0)
    rep = semigroup_domination_check(g, 1.0, 0.5, 0.8, 0.3, 0.05)
    print("  J = %3d:  field excess = %.3e   kernel excess = %.3e"
          % (J, rep["field_excess"], rep["kernel_excess"]))
