"""
Coefficient calculus: reducing the full operator to the model family
=====================================================================

The operator treated by this package,

    L = y^a1 Tr(Q Dxx) + 2 y^((a1+a2)/2) q . Dx(Dy) + g y^a2 Dyy
        + y^(a2-1) (b . Dx + c Dy),

is conjugate to a one-parameter model family through three exact changes of
variables: a shear u(x, y) -> u(x - (b/c) y, y) removing the oblique drift b,
a linear map in x whitening the horizontal diffusion Q, and a power
substitution in y equalizing the two degeneracy exponents.  This script walks
the calculus step by step and prints the defect of each algebraic identity.
"""

import numpy as np

from degenpde.params import (OperatorSpec, SpaceSpec, beta_map, compose_beta,
                             invert_beta, reduce_to_model, shear_map,
                             validate_window)
from degenpde.harness import decay_order, refinement_study
from degenpde.transforms import similarity_check_power

# a genuinely anisotropic example: two x-dimensions, oblique drift,
# distinct degeneracy exponents on the horizontal and vertical blocks
spec = OperatorSpec(q_matrix=[[2.0, 0.3], [0.3, 1.5]], q_vector=[0.4, -0.2],
                    gamma=1.2, drift_b=[0.5, -0.3], drift_c=1.4,
                    alpha1=0.5, alpha2=-0.3)
space = SpaceSpec(p=2.5, m=0.6)

print("operator:")
print("  Q            =", np.asarray(spec.q_matrix).tolist())
print("  q            =", np.asarray(spec.q_vector).tolist())
print("  gamma        =", spec.gamma)
print("  drift (b, c) =", np.asarray(spec.drift_b).tolist(), spec.drift_c)
print("  (a1, a2)     =", (spec.alpha1, spec.alpha2))

# solvability window: (m+1)/p must sit strictly between max(-a1, 0) and
# c/gamma + 1 - a2
rep = validate_window(spec, space)
print("\nwindow: %.4f < %.4f < %.4f  ->  admissible = %s"
      % (rep.lower, rep.value, rep.upper, rep.passed))

# step 1: the shear removes b and leaves a new diffusion block A M A^T
sheared = shear_map(spec)
print("\nafter shear:")
print("  drift_b  =", np.asarray(sheared.drift_b).tolist(), "(exactly zero)")
print("  Q        =", np.round(sheared.q_matrix, 12).tolist())
print("  q        =", np.round(sheared.q_vector, 12).tolist())

# steps 2-3: whitening + vertical power substitution, packaged as a chain
model, chain = reduce_to_model(spec, space)
print("\nreduced model parameters:")
print("  mixing   =", np.round(model.mixing, 12).tolist(),
      " |mixing| = %.6f < 1" % np.linalg.norm(model.mixing))
print("  alpha    = %.12g" % model.alpha)
print("  c_bessel = %.12g" % model.c_bessel)
print("  (m, p)   = (%.12g, %g)" % (model.m, model.p))
print("  chain    =", "->".join(s["kind"] for s in chain["steps"]),
      " scale = %.12g" % chain["scale"])

# the window is preserved by the reduction (it is a conjugation invariant)
rep_model = validate_window(model)
print("  model window: %.4f < %.4f < %.4f  ->  %s"
      % (rep_model.lower, rep_model.value, rep_model.upper, rep_model.passed))

# the exponent-map group law: pulling back by beta then inverting is the
# identity, and consecutive pullbacks compose
beta = 0.7
a1, a2, c, m = -0.2, 0.9, 1.1, 0.4
fwd = beta_map(beta, a1, a2, c, m)
back = beta_map(invert_beta(beta), *fwd)
err_rt = max(abs(g - w) for g, w in zip(back, (a1, a2, c, m)))
two = beta_map(0.3, *fwd)
one = beta_map(compose_beta(beta, 0.3), a1, a2, c, m)
err_comp = max(abs(g - w) for g, w in zip(two, one))
print("\nexponent-map round trip error  = %.3e" % err_rt)
print("exponent-map composition error = %.3e" % err_comp)

# the power substitution is not only an algebra on exponents: applied to
# discrete fields it intertwines the two operators up to O(h) consistency
levels = (128, 256, 512)
res, _ = refinement_study(levels, lambda J: similarity_check_power(
    alpha1=0.5, alpha2=1.0, c=1.2, J=J))
errors = [e for e, _ in res]
print("\ndiscrete similarity (power substitution), J = %s:" % list(levels))
print("  defects  =", ["%.3e" % e for e in errors])
print("  order    = %.2f   norm-factor error = %.2e"
      % (decay_order(levels, errors), max(cc for _, cc in res)))
