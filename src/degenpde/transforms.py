"""Isometries of weighted spaces, applied on matched grids.

Three concrete maps move fields between the full operator and its model form:

  * vertical power substitution  (T_b u)(x, y) = |b+1|^(1/p) u(x, y^(b+1)),
    an isometry L^p(y^mt) -> L^p(y^m) with mt = (m-b)/(b+1); on matched grids
    (target nodes are the (1/(b+1))-th powers of the source nodes) it is a
    pure nodal relabeling times a constant, no interpolation;
  * unimodular phase  (S u)(x, y) = exp(-i s y^r) u(x, y), an isometry of
    every L^p (the modulus is untouched);
  * vertical shear  (V u)(x, y) = u(x - e y, y), an isometry of L^p(y^m dx dy)
    applied spectrally: each horizontal slice is translated by e y via the
    FFT phase factor.

The parameter reduction (params.reduce_to_model) records its sequence of
maps (shear, then linear x-map, then power substitution) and the scalar
similarity factor as a plain dict, which the manifests store as is.  The
linear x-map acts on parameters only (whitening the diffusion matrix).

similarity_check_power verifies the conjugation identity of the power map
against the transformed coefficients in strong form, per horizontal frequency,
on panels of edge-avoiding profiles, with the finite-difference machinery of
the grid module; discrepancies must vanish at first order or better.
"""

import numpy as np

from .grid import (Grid, Field, make_grid, default_grading, diff1_matrix,
                   diff2_matrix)
from .params import invert_beta, beta_map
from . import panels


def power_image_grid(grid, beta):
    """Image of a grid under y -> y^(beta+1) (beta > -1): matched source grid.

    Nodes are mapped through the power, and the image's partition weights are
    those of the mapped nodes; the grading exponent multiplies by (beta+1).
    The x-box is shared.
    """
    e = float(beta) + 1.0
    if e <= 0:
        raise ValueError("power image needs beta > -1")
    return Grid(grid.y_nodes ** e, grid.y_max ** e, grid.grading_exponent * e,
                grid.x_box)


def apply_power(field, beta, p, target_grid=None, inverse=False):
    """Vertical power isometry on matched grids (pure relabel, no resampling).

    Forward: u on the source grid S |-> |beta+1|^(1/p) u(y^(beta+1)) on the
    target grid T, where S.nodes == T.nodes^(beta+1) (matched pair).  With
    inverse=True the inverse isometry (exponent -beta/(beta+1), reciprocal
    scaling) is applied.  If target_grid is omitted it is constructed as the
    matched image; otherwise it must match to 1e-9 relative or the call
    raises (interpolation is deliberately not performed).
    """
    eff = invert_beta(beta) if inverse else float(beta)
    if eff <= -1.0:
        raise ValueError("power isometry restricted to beta > -1")
    source = field.grid
    if target_grid is None:
        target_grid = power_image_grid(source, invert_beta(eff))
    else:
        image = target_grid.y_nodes ** (eff + 1.0)
        defect = np.abs(image - source.y_nodes).max()
        if defect > 1e-9 * source.y_nodes.max():
            raise ValueError("grids are not a matched power pair "
                             "(defect %.3e); no interpolation" % defect)
    scale = abs(eff + 1.0) ** (1.0 / float(p))
    return Field(scale * field.values, target_grid)


def apply_phase(field, mixing_freq, power, inverse=False):
    """Multiply by the unimodular phase exp(-i s y^power) (exact modulus)."""
    y = field.grid.y_nodes
    sign = 1.0 if inverse else -1.0
    phase = np.exp(sign * 1j * float(mixing_freq) * y ** float(power))
    return Field(field.values * phase, field.grid)


def apply_shear(field, shift):
    """Vertical shear u(x - e y, y) applied spectrally per y-slice.

    shift is the vector e (length = x dimension).  The translation by e y_j
    is exact for band-limited fields (FFT phase factor).
    """
    g = field.grid
    if g.x_box is None:
        raise ValueError("shear needs an x-box")
    e = np.atleast_1d(np.asarray(shift, dtype=float))
    if e.size != g.x_box.dim:
        raise ValueError("shift length must equal the x dimension")
    # multiply the k-th coefficient by exp(-i k e y), so that
    # sum_k uhat(k) e^(i k (x - e y)) = u(x - e y, y)
    vals = field.values
    axes = tuple(range(g.x_box.dim))
    vh = np.fft.fftn(vals, axes=axes)
    k = g.x_box.wavenumbers()
    for ax in range(g.x_box.dim):
        shape = [1] * vals.ndim
        shape[ax] = k.size
        phase = np.exp(-1j * np.outer(k * e[ax], g.y_nodes))
        vh = vh * phase.reshape(shape[:-1] + [g.num_y])
    return Field(np.fft.ifftn(vh, axes=axes), g)


def similarity_check_power(alpha1, alpha2, c, J, q_mixed=0.0):
    """Conjugation identity of the power map at horizontal frequency 1.

    For tensor fields e^(i x) v(y) the full operator (with Q = 1, gamma = 1,
    b = 0) acts as

        Lhat = -y^a1 + 2 i q y^((a1+a2)/2) Dy + y^a2 (Dyy + c Dy / y),

    and with beta = (a1-a2)/2 the L^2 power isometry intertwines Lhat with
    the transformed-coefficient operator

        -y^at1 + 2 i q (beta+1) y^((at1+at2)/2) Dy
          + (beta+1)^2 y^at2 (Dyy + (ct/y) Dy),

    at1/at2/ct from the parameter action.  Both sides are evaluated with the
    3-point stencils on matched J-cell grids over (0, 1] and a panel of six
    edge-avoiding profiles.  Additionally the vertical-diffusion coefficient
    is recovered by least squares and compared against (beta+1)^2.

    Returns (error, coeff_rel_err): the max relative defect over the panel,
    which must decay at first order under refinement, and the relative
    error of the recovered coefficient.
    """
    a1, a2 = float(alpha1), float(alpha2)
    beta = 0.5 * (a1 - a2)
    at1, at2, ct, _ = beta_map(beta, a1, a2, c, 0.0)
    g = make_grid(J, 1.0, default_grading(max(a2, at2)))
    gt = power_image_grid(g, beta)
    y, rho = g.y_nodes, gt.y_nodes
    D1, D2 = diff1_matrix(y), diff2_matrix(y)
    D1t, D2t = diff1_matrix(rho), diff2_matrix(rho)
    worst = 0.0
    lhs_all, comps_all = [], []
    for prof in panels.vertical_panel(1.0, count=6, kind="interior"):
        v = prof(rho).astype(complex)
        u = apply_power(Field(v, gt), beta, 2.0, target_grid=g).values
        w = (-y ** a1 * u
             + 2j * q_mixed * y ** (0.5 * (a1 + a2)) * (D1 @ u)
             + y ** a2 * (D2 @ u + c * (D1 @ u) / y))
        lhs = apply_power(Field(w, g), beta, 2.0, target_grid=gt,
                          inverse=True).values
        bess = D2t @ v + (ct / rho) * (D1t @ v)
        comps = np.stack([
            -rho ** at1 * v,
            2j * q_mixed * rho ** (0.5 * (at1 + at2)) * (D1t @ v),
            rho ** at2 * bess,
        ], axis=1)
        rhs = (comps[:, 0] + (beta + 1.0) * comps[:, 1]
               + (beta + 1.0) ** 2 * comps[:, 2])
        worst = max(worst, float(np.abs(lhs - rhs).max()
                                 / np.abs(lhs).max()))
        lhs_all.append(lhs)
        comps_all.append(comps)
    # recover the vertical-diffusion coefficient by least squares
    A = np.concatenate(comps_all, axis=0)
    bvec = np.concatenate(lhs_all, axis=0)
    coef = np.linalg.lstsq(A, bvec, rcond=None)[0]
    target = (beta + 1.0) ** 2
    return worst, float(abs(coef[2] - target) / abs(target))
