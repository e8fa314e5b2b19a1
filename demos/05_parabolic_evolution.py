"""
Parabolic evolution: schemes, contraction, maximal regularity
=============================================================

The parabolic problem  D_t u = L u + f  is advanced by backward Euler or
Crank-Nicolson on the same weighted finite-element realization the elliptic
solver uses, mode by mode: the initial datum is transformed to x-Fourier
modes once, the steps run there, and only the kept snapshots are
transformed back.  This script measures the time-accuracy of both
schemes against a separated closed-form heat solution, confirms the
semigroup is an L^2 contraction, evaluates the discrete maximal-regularity
ratio (the parabolic analogue of the elliptic a priori estimate), and writes
a snapshot trajectory to CSV.
"""

import os
import tempfile

import numpy as np

from degenpde.grid import Field, XBox, lp_norm, make_grid
from degenpde.harness import refinement_study
from degenpde.params import ModelParams
from degenpde.semigroup import (contraction_check, evolve,
                                heat_closed_form_check,
                                maximal_regularity_check)

# exact-solution benchmark: alpha = c = 0 and one separated Fourier-Neumann
# mode, so the only errors are O(dt) + O(grid)
levels = ((64, 16), (128, 32))
errors, _ = refinement_study(levels, lambda lv: heat_closed_form_check(*lv))
print("heat benchmark (backward Euler), joint dt/grid refinement:")
for (J, K), err in zip(levels, errors):
    print("  J = %3d, K = %3d:  rel error = %.4e" % (J, K, err))
print("  ratio = %.2f  (first order: halves under joint halving)"
      % (errors[0] / errors[-1]))

# time order in isolation: fix the grid, compare against a fine-step run of
# the same discretization; Crank-Nicolson gains ~16x per 4x step refinement
model = ModelParams(mixing=np.array([0.0]), alpha=0.0, c_bessel=0.5,
                    m=0.5, p=2.0)
box = XBox(2.0 * np.pi, 8, 1)
grid = make_grid(96, 1.0, 1.0, box)
u0 = Field(np.cos(box.nodes())[:, None]
           * np.exp(-((grid.y_nodes - 0.4) / 0.18) ** 2)[None, :]
           .astype(complex), grid)
t_final = 0.3
ref = evolve(u0, None, model, grid, "crank_nicolson",
             np.linspace(0.0, t_final, 513)).final.values
print("\ntime order at fixed grid (reference: Crank-Nicolson, 512 steps):")
for scheme in ("backward_euler", "crank_nicolson"):
    errs = []
    for K in (8, 32):
        run = evolve(u0, None, model, grid, scheme,
                     np.linspace(0.0, t_final, K + 1))
        errs.append(lp_norm(run.final.values - ref, 2.0, model.m, grid))
    order = np.log(errs[0] / errs[1]) / np.log(4.0)
    print("  %-16s K = 8: %.3e   K = 32: %.3e   order = %.2f"
          % (scheme, errs[0], errs[1], order))

# contraction: the weighted L^2 norm never grows, other norms stay O(1)
model_a = ModelParams(mixing=np.array([0.4]), alpha=0.5, c_bessel=1.0,
                      m=0.5, p=2.0)
grid_a = make_grid(96, 1.0, 4.0 / 3.0, box)
report = contraction_check(model_a, grid_a, (0.0, 0.05, 0.2), probes=4)
print("\ncontraction factors (worst over random data):")
for t, worst in sorted(report.items()):
    print("  t = %-5g " % t + "  ".join("%s = %.4f" % (k, v)
                                        for k, v in sorted(worst.items())))

# maximal regularity: both summands of D_t u - L u = f are bounded by f in
# the L^q(L^p) norm; the ratio is O(1) and stable under joint refinement
(ratio, refined), drift = refinement_study((1, 2), lambda k: (
    maximal_regularity_check(model_a, make_grid(64 * k, 1.0, 4.0 / 3.0, box),
                             2.0, np.linspace(0.0, 0.5, 16 * k + 1))))
print("\nmaximal-regularity ratio: %.3f  refined: %.3f  drift: %.4f"
      % (ratio, refined, drift))

# trajectories keep every stride-th snapshot (and the final state) and
# export them to CSV with a manifest for exact reproduction
box = XBox(2.0 * np.pi, 8, 1)
grid2 = make_grid(48, 1.0, 1.0, box)
vals = (np.cos(box.nodes())[:, None]
        * np.exp(-((grid2.y_nodes - 0.5) / 0.2) ** 2)[None, :])
run = evolve(Field(vals.astype(complex), grid2), None, model_a, grid2,
             "backward_euler", np.linspace(0.0, 0.1, 9), stride=4)
print("\nworst step residual: %.2e" % run.residual)
outdir = os.path.join(tempfile.gettempdir(), "degenpde_demo_parabolic")
manifest = run.export_csvs(outdir, model=model_a)
print("\nwrote %d snapshots + manifest to %s"
      % (len(manifest["snapshots"]), outdir))
