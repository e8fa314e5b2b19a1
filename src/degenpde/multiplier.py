"""N-d resolvent through the frequency decomposition, and its multipliers.

The model operator  y^alpha (Dxx + 2 a . Dx(Dy) + B)  diagonalizes under the
Fourier transform in x: each discrete frequency xi of the periodic box yields
the one-dimensional frozen-mode operator

    M(xi) = y^alpha (B + 2i (a.xi) Dy - |xi|^2),

so (lam - L)^(-1) = IFFT o (lam - M(xi))^(-1) o FFT (the xi = 0 mode is the
plain Bessel solve).  bessel1d.ModeOperators builds the forms F(xi), of one
mode or of many; FrequencySolvePlan factors lam W + F(xi) of every mode
once, keeping 48 bytes per grid point, and solves all modes in one batched
tridiagonal solve, in place.  Every mode is solved on its own, so a
contiguous range of mode columns is factored and solved alone as well:
semigroup.evolve marches a large batch as one such range per usable core,
in forked processes.
The derived multipliers, per mode:

    y^alpha Dxx u   <->  -|xi|^2 y^alpha u(xi)         (exact diagonal),
    y^alpha Dx_j Dy u <->  i xi_j (y^alpha Dy) u(xi),
    y^alpha B u     <->  the form realization -W^(-1) K u(xi),

and they sum to lam u - f exactly (same matrices as the solve).  The
frequency derivatives of the resolvent follow the product formula
D_j R = R A_j R with A_j = dM/dxi_j = 2i a_j y^alpha Dy - 2 xi_j y^alpha;
for distinct indexes the second derivative is the two-ordering permutation
sum.  Mikhlin-type scans tabulate exact weighted operator norms of
xi^beta D^beta applied to the three multiplier families for beta in {0,1}^N,
matrix-free from one factorisation per (lam, xi).

A monolithic sparse solve (N = 1) assembles the same discrete operator as a
Kronecker sum with dense spectral x-derivative blocks and cross-checks the
mode-decoupled path to solver tolerance.
"""

import numpy as np
import scipy

from .grid import Field, lp_norm
from .bessel1d import (ModeOperators, TridiagForm, SingularFormError,
                       stiffness_tridiag, transport_tridiag, node_weights,
                       operator_norm, resolvent_pair)
from .params import reduce_to_model
from .transforms import power_image_grid
from . import panels


def _values(f):
    """Complex grid values of a Field or an array."""
    return np.asarray(f.values if isinstance(f, Field) else f, dtype=complex)


def mode_step(lam, form, lu, weight, rhs, uh, fu, rows):
    """Solve (lam W + F) uh = W rhs in place and set fu = F uh unless fu
    is None.

    rhs, uh and fu are C-ordered (J, modes) buffers, `form` and `lu` a
    BatchForm and its factors or their column views, weight the (J,) W.  Per
    row block of form.row_blocks, W r = F uh + (lam uh - rhs) W is formed in
    the block's spare buffer, and rows[0] and rows[1] get the row sums of
    |W r|^2 and |rhs|^2.  Float-view products and einsums: no BLAS call, so
    forked march ranges run it.
    """
    np.multiply(rhs.view(float), weight[:, None], out=uh.view(float))
    lu.solve(uh, overwrite_b=True)
    for block, fb, wr in form.row_blocks(uh, fu):
        np.multiply(lam, uh[block], out=wr)
        wr -= rhs[block]
        wr_f, rhs_f = wr.view(float), rhs[block].view(float)
        wr_f *= weight[block, None]
        wr += fb
        np.einsum("ij,ij->i", wr_f, wr_f, out=rows[0][block])
        np.einsum("ij,ij->i", rhs_f, rhs_f, out=rows[1][block])


# Below this |rhs|^2_W, the |r|^2_W of a residual eps |rhs|_W underflows
_MIN_SUM = np.finfo(float).tiny / np.finfo(float).eps ** 2


def weighted_residual(rows, weight):
    """|r|_W / |rhs|_W from mode_step's row sums, |r|^2_W = sum |W r|^2 / W;
    NaN, for not computed, when a sum leaves the float range or |rhs|^2_W
    is below _MIN_SUM (zero data included)."""
    num, den = rows[0] @ (1.0 / weight), rows[1] @ weight
    if not (num < np.inf and _MIN_SUM <= den < np.inf):
        return float("nan")
    return float(np.sqrt(num / den))


def xi_lattice(box):
    """Array of frequency vectors, shape (Nx,)*dim + (dim,), FFT order."""
    k = box.wavenumbers()
    mesh = np.meshgrid(*([k] * box.dim), indexing="ij")
    return np.stack(mesh, axis=-1)


class FrequencySolvePlan:
    """Factor-once solve plan for one (model, grid, lam) triple.

    The form of F(xi) for every retained mode is one bessel1d.BatchForm,
    and lam W + F(xi) is factored once, its solve writing into its
    right-hand side.  A wide plan (the Thomas LU) holds three (J, modes)
    complex arrays, 48 bytes per grid point: sup, shared by form and
    factors, and the LU's multipliers and inverse pivots.  A non-finite or
    zero pivot raises RuntimeError naming its xi, and every solve reports
    its weighted residual.

    The mode-space entries work on (J, modes) x-Fourier coefficients:
    `form.apply` is F(xi) u (so L u = -F u / W) and `solve_modes` is one
    mode_step, the sweep with its residual.  `solve` and `apply_operator`
    wrap them in one forward and one inverse FFT.  semigroup.evolve alone
    passes `cols`, a slice of the modes: `form` and `lu` then hold those
    columns only, factored bit for bit as the whole batch's columns (the
    LU is chosen by the number of all modes), and only the transforms and
    mode_step on (J, columns) buffers apply; it marches in its own step
    buffers and stays in mode space between steps.
    """

    def __init__(self, lam, model, grid, cols=slice(None)):
        if grid.x_box is None:
            raise ValueError("resolvent_nd needs a grid with an x-box")
        if grid.x_box.dim != model.dim:
            raise ValueError("model dimension %d does not match x-box %d"
                             % (model.dim, grid.x_box.dim))
        self.lam = complex(lam)
        self.model = model
        self.grid = grid
        self.ops = ModeOperators(grid, model.c_bessel, model.alpha)
        self.xi_flat = xi_lattice(grid.x_box).reshape(-1, model.dim)
        self.mix_flat = self.xi_flat @ model.mixing
        self.k2_flat = np.sum(self.xi_flat ** 2, axis=1)
        self.form = self.ops.form(self.mix_flat[cols], self.k2_flat[cols])
        try:
            self.lu = self.form.factor(self.lam, self.k2_flat.size)
        except SingularFormError as exc:
            raise RuntimeError("mode factorisation failed at xi=%r: non-finite"
                               " or zero pivot"
                               % (self.xi_flat[cols][exc.column],))

    def _to_modes(self, values):
        """(J, modes) x-Fourier coefficients of grid values: fftn's
        transforms, last axis first, in place on one (J, x...) copy."""
        fh = np.ascontiguousarray(np.moveaxis(values, -1, 0), dtype=complex)
        for axis in range(fh.ndim - 1, 0, -1):
            np.fft.fft(fh, axis=axis, out=fh)
        return fh.reshape(self.grid.num_y, -1)

    def _from_modes(self, modes, overwrite=False):
        """Grid values of (J, modes) coefficients: ifftn's transforms in
        place, in `modes` itself if overwrite, else in a copy, then one
        C-ordered copy, so a norm's sums do not depend on their layout."""
        v = np.array(modes, order="C", copy=None if overwrite else True)
        v = v.reshape((self.grid.num_y,) + self.grid.shape[:-1])
        for axis in range(v.ndim - 1, 0, -1):
            np.fft.ifft(v, axis=axis, out=v)
        return np.ascontiguousarray(np.moveaxis(v, 0, -1))

    def solve_modes(self, fh):
        """(lam - M(xi))^(-1) fh for (J, modes) coefficients fh.

        Returns (uh, residual) of one mode_step: uh in a fresh buffer, and
        the weighted residual |(lam - M) uh - fh|_W / |fh|_W."""
        fh = np.ascontiguousarray(fh, dtype=complex)
        uh = np.empty_like(fh)
        rows = np.empty((2, fh.shape[0]))
        w = self.ops.weight
        mode_step(self.lam, self.form, self.lu, w, fh, uh, None, rows)
        return uh, weighted_residual(rows, w)

    def apply_operator(self, u):
        """L u through the same per-mode form realization as the solves."""
        out = self.form.apply(self._to_modes(_values(u)))
        out /= -self.ops.weight[:, None]
        return Field(self._from_modes(out, True), self.grid)

    def solve(self, f):
        """u with (lam - L) u = f, plus the weighted residual of the modes."""
        uh, residual = self.solve_modes(self._to_modes(_values(f)))
        return Field(self._from_modes(uh, True), self.grid), {
            "residual": residual}

    def derived(self, f):
        """(y^alpha Dxx u, [y^alpha Dx_j Dy u], y^alpha B u) and u itself."""
        uh = self.solve_modes(self._to_modes(_values(f)))[0]
        g = self.ops.grad_term(uh)
        lap = -self.k2_flat[None, :] * self.ops.y_alpha[:, None] * uh

        def field(modes):
            return Field(self._from_modes(modes), self.grid)

        return {
            "solution": field(uh),
            "x_laplacian": field(lap),
            "mixed_gradients": [field(1j * self.xi_flat[None, :, j] * g)
                                for j in range(self.model.dim)],
            "bessel": field(self.ops.bessel_term(uh)),
            "y_gradient": field(g),
        }


def resolvent_nd(lam, f, model, grid, return_info=False):
    """Solve (lam - L) u = f for the model operator by frequency decoupling."""
    plan = FrequencySolvePlan(lam, model, grid)
    u, info = plan.solve(f)
    return (u, info) if return_info else u


def derived_multipliers(lam, f, model, grid):
    """The derived-multiplier fields (y^a Dxx u, y^a Dx Dy u, y^a B u).

    Returns a dict with the solution and the three derived fields; the sum
    identity  x_laplacian + 2 sum_j a_j mixed_gradients[j] + bessel
    = lam u - f  holds to solver tolerance.
    """
    plan = FrequencySolvePlan(lam, model, grid)
    return plan.derived(f)


def sum_identity_residual(lam, f, model, grid):
    """Relative residual of the derived-multiplier sum identity."""
    d = derived_multipliers(lam, f, model, grid)
    total = d["x_laplacian"].values + d["bessel"].values
    for j, gj in enumerate(d["mixed_gradients"]):
        total = total + 2.0 * model.mixing[j] * gj.values
    fv = _values(f)
    lhs = lam * d["solution"].values - fv
    num = lp_norm(total - lhs, 2.0, model.m, grid)
    den = lp_norm(fv, 2.0, model.m, grid)
    return float(num / max(den, 1e-300))


# ---------------------------------------------------------------------------
# frequency derivatives of the resolvent


# the two centered-difference steps
_XI_STEPS = (0.02, 0.01)


def xi_derivative_check(lam, model, grid, order=1, base_xi=None):
    """Analytic frequency-derivative formulas vs centered differences.

    order 1:  D_0 R = R A_0 R;   order 2:
    D_0 D_1 R = R A_0 R A_1 R + R A_1 R A_0 R, both built by the product
    formula of the Mikhlin scans (_cell_terms with S = 1).  Both sides
    applied to a random test vector (seed 7) at a nonzero base frequency;
    the centered-difference comparison is run at the two steps _XI_STEPS
    so the observed order in the step can be fitted (expected >= 2).

    Returns {"errors": per-step, "order": fitted}.
    """
    rng = np.random.default_rng(7)
    ops = ModeOperators(grid, model.c_bessel, model.alpha)
    a = model.mixing
    if base_xi is None:
        base_xi = np.full(model.dim, 1.0)
    base_xi = np.asarray(base_xi, dtype=float)

    def R(xi, v):
        return ops.solve(float(a @ xi), float(xi @ xi), lam, v)

    def wnorm(v):
        return lp_norm(v, 2.0, model.c_bessel - model.alpha, grid)

    f = rng.standard_normal(ops.size) + 1j * rng.standard_normal(ops.size)
    f /= wnorm(f)
    Rb = resolvent_pair(ops.form(float(a @ base_xi), float(base_xi @ base_xi)),
                        lam)
    terms = _cell_terms(Rb, _xi_derivatives(ops, a, base_xi),
                        _local(ops, 1.0, 0.0), [None] * model.dim,
                        (0, 1)[:order])
    analytic = _composed(terms, 1.0)[0](f)
    e = np.eye(model.dim)
    if order == 1:
        def fd(h):
            return (R(base_xi + h * e[0], f)
                    - R(base_xi - h * e[0], f)) / (2 * h)
    else:
        def fd(h):
            return (R(base_xi + h * (e[0] + e[1]), f)
                    - R(base_xi + h * (e[0] - e[1]), f)
                    - R(base_xi - h * (e[0] - e[1]), f)
                    + R(base_xi - h * (e[0] + e[1]), f)) / (4 * h * h)

    errors = [float(wnorm(fd(h) - analytic) / wnorm(analytic))
              for h in _XI_STEPS]
    fitted = float(np.log(errors[0] / errors[-1])
                   / np.log(_XI_STEPS[0] / _XI_STEPS[-1]))
    return {"errors": errors, "order": fitted}


# ---------------------------------------------------------------------------
# Mikhlin-type scans


def _composed(terms, pref):
    """(apply, apply_adjoint) of pref * sum_k terms[k], pref real.

    Each term is a list of (apply, adjoint) factor pairs, a product applied
    right to left; its adjoint applies the adjoint factors left to right."""

    def apply(u):
        total = 0.0
        for term in terms:
            v = u
            for factor, _ in reversed(term):
                v = factor(v)
            total = total + v
        return pref * total

    def apply_adjoint(u):
        total = 0.0
        for term in terms:
            v = u
            for _, adjoint in term:
                v = adjoint(v)
            total = total + v
        return pref * total

    return apply, apply_adjoint


def _local(ops, d, c):
    """(apply, adjoint) of d + c y^a Dy on the grid of `ops`, d a scalar or
    a node array, y^a Dy = W^(-1) P; None when both vanish, so the terms
    it enters drop out."""
    w = ops.weight
    dc, cc = np.conj(d), np.conj(c)
    if c == 0 and not np.any(d):
        return None
    if c == 0:
        return (lambda u: d * u), (lambda u: dc * u)
    return ((lambda u: d * u + c * (ops.trans.apply(u) / w)),
            (lambda u: dc * u + cc * ops.trans.apply_adjoint(u / w)))


def _xi_derivatives(ops, a, xi):
    """(apply, adjoint) of A_j = dM/dxi_j = 2i a_j y^a Dy - 2 xi_j y^a for
    each index j of the frequency xi."""
    return [_local(ops, -2.0 * xi[j] * ops.y_alpha, 2j * a[j])
            for j in range(len(xi))]


def _cell_terms(R, A, S, dS, idx):
    """The product-formula terms of D^beta (S R) for the indexes idx of
    beta: S R, then dS_j R + S R A_j R, then for distinct j, l
    dS_j R A_l R + dS_l R A_j R + S (R A_j R A_l R + R A_l R A_j R).
    A zero dS_j (None) drops its terms."""
    if not idx:
        terms = [[S, R]]
    elif len(idx) == 1:
        j, = idx
        terms = [[dS[j], R], [S, R, A[j], R]]
    else:
        j, l = idx
        terms = [[dS[j], R, A[l], R], [dS[l], R, A[j], R],
                 [S, R, A[j], R, A[l], R], [S, R, A[l], R, A[j], R]]
    return [t for t in terms if all(f is not None for f in t)]


def mikhlin_bound_scan(lambda_set, xi_set, model, grid, weight_m=None,
                       families=("scaled", "potential", "gradient")):
    """Exact weighted norms of xi^beta D^beta T(xi), beta in {0,1}^N.

    T ranges over the three multiplier families (lam R, |xi|^2 y^a R,
    xi_0 y^a Dy R), differentiated in xi by the resolvent product formula.
    Each cell is a matrix-free product composed from the same bands the
    solver uses: R = (lam W + F)^(-1) W from one factorisation per
    (lam, xi) (its adjoint W (lam W + F)^(-H) from the same factors),
    y^a Dy = W^(-1) P and A_j = 2i a_j y^a Dy - 2 xi_j y^a.  The exact
    weighted-l2 operator norm ||W^(1/2) T W^(-1/2)||_2, with W the y^m
    node measure, is bessel1d.operator_norm of that product and its
    adjoint; plain power iteration is useless here because it converges to
    the spectral radius, which the similarity leaves unchanged.  The scan is
    deterministic.  Returns per-family suprema and the full table keyed by
    (family, beta, lam, xi).
    """
    n = model.dim
    if n > 2:
        raise ValueError("scans enumerate beta in {0,1}^N; use N <= 2")
    ops = ModeOperators(grid, model.c_bessel, model.alpha)
    a = model.mixing
    m = model.m if weight_m is None else float(weight_m)
    norm_weight = node_weights(grid, m)
    y_alpha = ops.y_alpha

    betas = [tuple(b) for b in np.ndindex(*([2] * n))]
    table = {}
    suprema = {}
    for family in families:
        sup = 0.0
        for lam in lambda_set:
            for xi in xi_set:
                xi = np.asarray(xi, dtype=float)
                k2 = float(xi @ xi)
                R = resolvent_pair(ops.form(float(a @ xi), k2), lam)
                A = _xi_derivatives(ops, a, xi)
                if family == "scaled":
                    S = _local(ops, lam, 0.0)
                    dS = [None] * n
                elif family == "potential":
                    S = _local(ops, k2 * y_alpha, 0.0)
                    dS = [_local(ops, 2.0 * xi[j] * y_alpha, 0.0)
                          for j in range(n)]
                elif family == "gradient":
                    S = _local(ops, 0.0, xi[0])
                    dS = [_local(ops, 0.0, 1.0) if j == 0 else None
                          for j in range(n)]
                else:
                    raise ValueError("unknown family %r" % (family,))
                for beta in betas:
                    idx = [j for j in range(n) if beta[j]]
                    pref = float(np.prod([xi[j] for j in idx])) if idx else 1.0
                    est = operator_norm(
                        *_composed(_cell_terms(R, A, S, dS, idx), pref),
                        norm_weight)
                    table[(family, beta, complex(lam), tuple(xi))] = est
                    sup = max(sup, est)
        suprema[family] = float(sup)
    return {"suprema": suprema, "table": table}


# ---------------------------------------------------------------------------
# monolithic sparse oracle (N = 1)


def spectral_derivative_matrix(box, order):
    """Dense matrix of the spectral derivative along one axis."""
    nx = box.num_points
    k = box.wavenumbers()
    F = np.fft.fft(np.eye(nx), axis=0)
    return np.fft.ifft(((1j * k) ** order)[:, None] * F, axis=0)


def monolithic_sparse_solve(lam, f, model, grid):
    """Direct sparse solve of (lam - L) u = f on the full (x, y) tensor grid.

    N = 1 only.  The operator is the Kronecker assembly of the same pieces
    the mode-decoupled path uses (spectral x-derivative blocks, P1 tridiagonal
    y-blocks), so agreement tests the FFT bookkeeping, not the discretization.
    """
    if model.dim != 1:
        raise ValueError("monolithic oracle implemented for N = 1")
    box = grid.x_box
    ops = ModeOperators(grid, model.c_bessel, model.alpha)
    J = grid.num_y
    nx = box.num_points
    D1 = spectral_derivative_matrix(box, 1)
    D2 = spectral_derivative_matrix(box, 2)
    sp = scipy.sparse
    Winv = sp.diags(1.0 / ops.weight)
    K = sp.diags([ops.stiff.sub, ops.stiff.diag, ops.stiff.sup], [-1, 0, 1])
    P = sp.diags([ops.trans.sub, ops.trans.diag, ops.trans.sup], [-1, 0, 1])
    Ix = sp.identity(nx)
    L2d = (sp.kron(Ix, -Winv @ K)
           + 2.0 * model.mixing[0] * sp.kron(sp.csr_matrix(D1), Winv @ P)
           + sp.kron(sp.csr_matrix(D2), sp.diags(ops.y_alpha)))
    A = (lam * sp.identity(nx * J) - L2d).tocsc()
    u = sp.linalg.spsolve(A, _values(f).reshape(-1))
    return Field(u.reshape(grid.shape), grid)


# ---------------------------------------------------------------------------
# reduction consistency (general coefficients, N = 1)


def _pinned_solve(form, lam, fhat):
    """(lam W + F) u = W fhat with a homogeneous Dirichlet row at the top.

    The domain is (0, infinity); y_max is a truncation artifact, and the
    reduction routes transform the natural flux condition differently there
    (an O(1) mismatch).  Pinning u(y_max) = 0 in BOTH routes makes the
    truncation condition shared; the intrinsic y -> 0 condition stays
    natural, where the routes differ only by O(y_1^c), vanishing under
    refinement.  The last row of F becomes the unit row and its weight 0,
    so that row of lam W + F is e_J^T and its right-hand side vanishes.
    """
    sub, diag, weight = form.sub.copy(), form.diag.copy(), form.weight.copy()
    sub[-1], diag[-1], weight[-1] = 0.0, 1.0, 0.0
    rhs = weight * np.asarray(fhat, dtype=complex)
    return TridiagForm(sub, diag, form.sup, weight).factor(lam).solve(rhs)


def general_mode_solve(spec, lam, xi, fhat, grid):
    """Per-mode solve of the general-coefficient operator, form-discretized.

    For frequency xi the full operator acts on vertical profiles as

        Lhat(xi) = -Q xi^2 y^a1 + 2 i q xi y^((a1+a2)/2) Dy
                   + gamma y^a2 B_{c/gamma} + i b xi y^(a2-1),

    realized through its sesquilinear form in L^2(y^(c/gamma - a2)), with a
    Dirichlet row at the artificial top truncation.
    """
    y = grid.y_nodes
    g = spec.gamma
    cg = spec.drift_c / g
    if not cg > -1.0:
        raise ValueError("need c/gamma > -1")
    a1, a2 = spec.alpha1, spec.alpha2
    w_exp = cg - a2
    omega = grid.y_weights
    weight = y ** w_exp * omega
    ks, kd, ku = stiffness_tridiag(y, cg)
    e_mix = 0.5 * (a1 - a2) + cg
    ps, pd, pu = transport_tridiag(y, e_mix)
    q = spec.q_vector[0] if spec.dim else 0.0
    Q = spec.q_matrix[0, 0] if spec.dim else 0.0
    b = spec.drift_b[0] if spec.dim else 0.0
    sub = g * ks - 2j * q * xi * ps
    diag = (g * kd - 2j * q * xi * pd
            + Q * xi ** 2 * y ** (a1 + w_exp) * omega
            - 1j * b * xi * y ** (cg - 1.0) * omega)
    sup = g * ku - 2j * q * xi * pu
    return _pinned_solve(TridiagForm(sub, diag, sup, weight), lam, fhat)


def reduced_mode_solve(spec, space, lam, xi, fhat, grid):
    """Per-mode solve routed through the model reduction (N = 1).

    Applies the transform chain on the frequency side: inverse shear phase,
    frequency relabel xi -> xi / A under the linear x-map, power relabel onto
    the matched grid, model solve of (lam/s - M), and the way back.  Exact as
    an operator identity when b = 0 or a1 = a2 (the subfamilies on which the
    shear and power maps commute with the coefficients).
    """
    model, chain = reduce_to_model(spec, space)
    steps = {st["kind"]: st for st in chain["steps"]}
    scale = chain["scale"]
    y = grid.y_nodes
    g = np.asarray(fhat, dtype=complex)
    if "shear" in steps:
        shift = np.asarray(steps["shear"]["shift"], dtype=float)[0]
        g = g * np.exp(1j * xi * shift * y)
    amat = 1.0
    if "linear_x" in steps:
        amat = float(np.asarray(steps["linear_x"]["matrix"]).reshape(-1)[0])
    eta = xi / amat
    beta = steps["power"]["beta"]
    gt = power_image_grid(grid, beta)
    ops = ModeOperators(gt, model.c_bessel, model.alpha)
    s_mix = float(model.mixing[0]) * eta if model.dim else 0.0
    u = _pinned_solve(ops.form(s_mix, eta * eta), lam / scale, g / scale)
    if "shear" in steps:
        u = u * np.exp(-1j * xi * shift * y)
    return u


def reduction_consistency_check(spec, space, lam, grid):
    """Compare the direct and the reduced per-mode solves on a profile panel.

    Returns the max relative weighted-l2 discrepancy over the x-modes
    k = 0, 1, 2, 3 and the panel;
    it must vanish under refinement (the two routes discretize the same
    operator on different matched grids).
    """
    y = grid.y_nodes
    L = grid.x_box.length if grid.x_box is not None else 2.0 * np.pi
    worst = 0.0
    for prof in panels.vertical_panel(grid.y_max, count=4, kind="interior"):
        fhat = prof(y).astype(complex)
        for k in range(4):
            xi = 2.0 * np.pi * k / L
            u1 = general_mode_solve(spec, lam, xi, fhat, grid)
            u2 = reduced_mode_solve(spec, space, lam, xi, fhat, grid)
            num = lp_norm(u1 - u2, 2.0, space.m, grid)
            den = lp_norm(u1, 2.0, space.m, grid)
            worst = max(worst, float(num / max(den, 1e-300)))
    return worst
