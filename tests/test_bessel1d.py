"""Vertical 1-d machinery: exact assembly, resolvents, kernels, estimates."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, expm
from scipy.sparse.linalg import LinearOperator, svds
from scipy.special import ive

from degenpde import bessel1d as b1
from degenpde.grid import Grid, default_grading, lp_norm, make_grid
from degenpde.harness import decay_order, refinement_study
from degenpde.multiplier import mode_step


def _uniform_nodes():
    return np.array([1.0, 2.0, 3.0])


def test_power_moment_matches_naive_formula():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.uniform(0.1, 2.0)
        b = a + rng.uniform(0.1, 2.0)
        s = rng.uniform(-2.5, 3.0)
        if abs(s + 1.0) < 1e-3:
            continue
        exact = (b ** (s + 1) - a ** (s + 1)) / (s + 1)
        assert b1.power_moment(a, b, s) == pytest.approx(exact, rel=1e-13)
    # s = -1 branch
    assert b1.power_moment(0.5, 2.0, -1.0) == pytest.approx(np.log(4.0))


def test_power_moment_stable_for_thin_cells():
    # b - a << a: naive subtraction cancels ~9 digits, the expm1 form none
    h = 2.0 ** -30  # exactly representable next to 1
    exact = h + h * h + h ** 3 / 3.0  # Int_1^{1+h} y^2 dy expanded
    naive = ((1.0 + h) ** 3 - 1.0) / 3.0
    assert abs(naive - exact) / h > 1e-10  # the subtraction really is lossy
    assert b1.power_moment(1.0, 1.0 + h, 2.0) == pytest.approx(exact,
                                                               rel=1e-14)


def test_stiffness_tridiag_uniform_unweighted():
    sub, diag, sup = b1.stiffness_tridiag(_uniform_nodes(), 0.0)
    assert np.allclose(diag, [1.0, 2.0, 1.0])
    assert np.allclose(sub, [-1.0, -1.0])
    assert np.allclose(sup, [-1.0, -1.0])


def test_transport_tridiag_uniform_unweighted():
    sub, diag, sup = b1.transport_tridiag(_uniform_nodes(), 0.0)
    assert np.allclose(diag, [-0.5, 0.0, 0.5])
    assert np.allclose(sup, [0.5, 0.5])
    assert np.allclose(sub, [-0.5, -0.5])


def test_stiffness_annihilates_constants_any_weight():
    g = make_grid(64, 1.0, 2.0)
    for s in (-0.5, 0.0, 1.3):
        sub, diag, sup = b1.stiffness_tridiag(g.y_nodes, s)
        ones = np.ones(g.num_y)
        r = diag * ones
        r[:-1] += sup
        r[1:] += sub
        assert np.abs(r).max() < 1e-12 * np.abs(diag).max()


def test_partition_and_node_weights():
    g = Grid(_uniform_nodes(), 3.0, 1.0, None)
    assert np.allclose(g.y_weights, [0.5, 1.0, 0.5])
    assert np.allclose(b1.node_weights(g, 2.0), [0.5, 4.0, 4.5])


def test_bessel_form_selfadjoint_nonnegative():
    g = make_grid(128, 1.0, 2.0)
    op = b1.assemble_form(g, "bessel", c=1.0)
    assert op.hermitian_defect() <= 1e-15
    d, e, _ = op.symmetric_bands()
    ev = eigh_tridiagonal(d.real, e.real, eigvals_only=True)
    assert ev.min() >= -1e-8          # nonnegative up to pencil rounding
    assert abs(ev.min()) < 1e-8       # constants are in the kernel


def test_assemble_form_validation():
    g = make_grid(32, 1.0, 2.0)
    with pytest.raises(ValueError, match="c > -1"):
        b1.assemble_form(g, "bessel", c=-1.5)
    with pytest.raises(ValueError, match="unknown form kind"):
        b1.assemble_form(g, "heat", c=0.0)
    with pytest.raises(ValueError, match="beta > -1"):
        b1.assemble_form(g, "bessel_drift", c=0.5, beta=-1.5, drift_b=0.1,
                         potential_coeff=0.0)


def _bytes(a):
    return np.asarray(a, dtype=complex).tobytes()


def test_model_forms_equal_the_inline_assembly_bitwise():
    # the bands K_c - 2i s P_c + k2 W_c and weights that assemble_form wrote
    # inline before every model-mode form came from ModeOperators
    lam = 1.0 + 0.5j
    for J in (16, 33):
        for alpha in (-0.5, 0.5, 1.2):
            g = make_grid(J, 1.0, default_grading(alpha))
            y = g.y_nodes
            for c in (-0.4, 1.0, 2.5):
                ks, kd, ku = b1.stiffness_tridiag(y, c)
                ps, pd, pu = b1.transport_tridiag(y, c)
                w_c = b1.node_weights(g, c)
                w_m = b1.node_weights(g, c - alpha)
                op = b1.assemble_form(g, "bessel", c=c)
                assert [_bytes(b) for b in (op.sub, op.diag, op.sup)] == \
                    [_bytes(b) for b in (ks, kd, ku)]
                assert op.weight.tobytes() == w_c.tobytes()
                for s in (0.0, 0.7, -1.3):
                    for k2 in (0.0, 2.0):
                        sub = ks - 2j * s * ps
                        diag = kd - 2j * s * pd + k2 * w_c
                        sup = ku - 2j * s * pu
                        kw = dict(c=c, alpha=alpha, mixing_freq=s,
                                  freq_norm2=k2)
                        mode = b1.assemble_form(g, "model_mode", **kw)
                        pot = b1.assemble_form(g, "model_potential", lam=lam,
                                               **kw)
                        assert [_bytes(b) for b in
                                (mode.sub, mode.diag, mode.sup)] == \
                            [_bytes(b) for b in (sub, diag, sup)]
                        assert mode.weight.tobytes() == w_m.tobytes()
                        assert [_bytes(b) for b in
                                (pot.sub, pot.diag, pot.sup)] == \
                            [_bytes(b) for b in (sub, diag + lam * w_m, sup)]
                        assert pot.weight.tobytes() == w_c.tobytes()
                        assert mode.grid is g and pot.grid is g


def test_mode_operators_is_the_multiplier_class():
    from degenpde import multiplier
    assert multiplier.ModeOperators is b1.ModeOperators


def test_drift_form_real_part_is_drift_free():
    # the graded transport enters exactly skew-Hermitian: Re F independent of b
    g = make_grid(96, 1.0, 2.0)
    kw = dict(c=1.0, beta=0.5, potential_coeff=0.3)
    op_b = b1.assemble_form(g, "bessel_drift", drift_b=0.7, **kw)
    op_0 = b1.assemble_form(g, "bessel_drift", drift_b=0.0, **kw)
    assert np.allclose(op_b.diag.real, op_0.diag.real)
    assert np.allclose(op_b.sub.real, op_0.sub.real)
    # the b-dependent part X = F(b) - F(0) satisfies X^H = -X
    x_diag = op_b.diag - op_0.diag
    x_sub = op_b.sub - op_0.sub
    x_sup = op_b.sup - op_0.sup
    assert np.abs(x_diag.real).max() == 0.0
    assert np.allclose(x_sub, -np.conj(x_sup))


def test_resolve_residual_guarantee_and_adjoint():
    g = make_grid(256, 1.0, 2.0)
    op = b1.assemble_form(g, "model_mode", c=1.0, alpha=0.5,
                          mixing_freq=0.4, freq_norm2=4.0)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.num_y) + 1j * rng.standard_normal(g.num_y)
    lam = 2.0 + 1.0j
    u = b1.resolve(op, lam, f)
    w = op.weight
    res = lam * u + op.apply(u) / w - f
    rel = (np.sqrt(np.sum(np.abs(res) ** 2 * w))
           / np.sqrt(np.sum(np.abs(f) ** 2 * w)))
    assert rel <= 1e-10
    # adjoint identity <R f, gv>_W == <f, R* gv>_W, R* gv solving
    # (lam W + F)^H v = W gv from the same factors
    gv = rng.standard_normal(g.num_y) + 1j * rng.standard_normal(g.num_y)
    lhs = np.sum(u * np.conj(gv) * w)
    rhs = np.sum(f * np.conj(op.factor(lam).solve_adjoint(w * gv)) * w)
    assert abs(lhs - rhs) / abs(lhs) < 1e-11


def test_backward_error_flags_one_perturbed_entry():
    # the two-route operator at alpha = -0.5 on its graded grid: W spans
    # 11 decades, which a weighted residual magnifies
    g = make_grid(256, 1.0, 2.0)
    op = b1.assemble_form(g, "model_mode", c=1.0, alpha=-0.5,
                          mixing_freq=0.3, freq_norm2=1.0)
    assert op.weight.min() < 1e-10 * op.weight.max()
    rng = np.random.default_rng(5)
    f = rng.standard_normal(g.num_y) + 1j * rng.standard_normal(g.num_y)
    for lam in (0.1, 1.0 + 2.0j, 10.0):
        b = op.weight * f
        u = op.factor(lam).solve(b)
        assert op.backward_error(lam, u, b) <= 1e-15
        for j in (0, g.num_y // 2, g.num_y - 1):
            bad = u.copy()
            bad[j] *= 1.0 + 1e-10
            assert op.backward_error(lam, bad, b) > b1.BACKWARD_ERROR_TOL


def _batch_lu(sub, diag, sup, weight, lam):
    """_factor_batch of lam W + F for stacked (J, modes) bands, the entry
    BatchForm.factor uses; sub is copied, since a Thomas LU overwrites it."""
    return b1._factor_batch(sub.copy(), diag + lam * weight[:, None], sup)


def test_tridiag_form_matches_dense_and_batches():
    g = make_grid(48, 1.0, 2.0)
    rng = np.random.default_rng(2)
    freqs = ((0.0, 0.0), (0.4, 1.0), (-1.3, 9.0))
    ops = [b1.assemble_form(g, "model_mode", c=1.0, alpha=0.5,
                            mixing_freq=s, freq_norm2=k2)
           for s, k2 in freqs]
    lam = 2.0 + 1.0j
    u = rng.standard_normal((g.num_y, 3)) + 1j * rng.standard_normal(
        (g.num_y, 3))
    modes = b1.ModeOperators(g, 1.0, 0.5)
    batch = modes.form(*np.array(freqs).T)
    Fu = batch.apply(u)
    x = batch.factor(lam).solve(u)
    for k, op in enumerate(ops):
        A = op.dense() + lam * np.diag(op.weight)
        assert np.allclose(op.apply(u[:, k]), op.dense() @ u[:, k],
                           rtol=1e-14, atol=0)
        assert np.array_equal(Fu[:, k], op.apply(u[:, k]))
        # pivoted LU of one operator and of the stacked batch
        x1 = op.factor(lam).solve(u[:, k])
        assert np.abs(A @ x1 - u[:, k]).max() <= 1e-12 * np.abs(u).max()
        assert np.abs(x[:, k] - x1).max() <= 1e-12 * np.abs(x1).max()
        xa = op.factor(lam).solve_adjoint(u[:, k])
        assert np.abs(A.conj().T @ xa - u[:, k]).max() <= 1e-12 * np.abs(
            u).max()
    sub, diag, sup = (np.stack([getattr(op, k) for op in ops], axis=1)
                      for k in ("sub", "diag", "sup"))
    with pytest.raises(b1.SingularFormError, match="column 1"):
        _batch_lu(sub, diag * [1.0, np.nan, 1.0], sup, ops[0].weight, lam)
    # a batch one mode wider than _STACK_MODES takes the Thomas sweep
    freqs = [(s, k2) for s in (0.0, 0.4, -1.3) for k2 in range(11)]
    freqs = freqs[:b1._STACK_MODES + 1]
    s, k2 = np.array(freqs, dtype=float).T
    lu = modes.form(s, k2 + s * s).factor(lam)
    assert isinstance(lu, b1._ThomasLU)
    u = rng.standard_normal((g.num_y, len(freqs))) + 0j
    x = lu.solve(u)
    for k, (sk, k2k) in enumerate(freqs):
        A = b1.assemble_form(g, "model_mode", c=1.0, alpha=0.5,
                             mixing_freq=sk, freq_norm2=k2k + sk * sk)
        A = A.dense() + lam * np.diag(A.weight)
        xd = np.linalg.solve(A, u[:, k])
        assert np.abs(x[:, k] - xd).max() <= 1e-12 * np.abs(xd).max()


@pytest.mark.parametrize("J,modes", [
    (5, b1._BLOCK + 3),     # one row per block
    (50, 1000),             # 16 rows a block, J = 50 not a multiple
])
def test_one_band_product_is_bitwise_equal_across_block_edges(J, modes):
    rng = np.random.default_rng(J + modes)
    ops = b1.ModeOperators(make_grid(J, 1.0, 2.0), 0.6, -0.3)
    s, k2 = rng.uniform(-2.0, 2.0, modes), rng.uniform(0.0, 9.0, modes)
    form = ops.form(s, k2 + s * s)
    u = rng.standard_normal((J, modes)) + 1j * rng.standard_normal((J, modes))
    step = max(1, b1._BLOCK // modes)
    assert J // step >= 3 and (step == 1 or J % step)
    Fu = form.apply(u)
    assert np.array_equal(form.keep_bands(slice(None)).apply(u), Fu)
    cols = slice(modes // 3, modes)
    assert np.array_equal(form.keep_bands(cols).apply(
        np.ascontiguousarray(u[:, cols])), Fu[:, cols])
    # mode_step's F u of its own solution, on the lean form
    lam, uh, fu = 3.0 + 1.0j, np.empty_like(u), np.empty_like(u)
    mode_step(lam, form, form.factor(lam), ops.weight, u, uh, fu,
              np.empty((2, J)))
    assert np.array_equal(fu, form.apply(uh))
    for k in range(modes):
        one = ops.form(form.s[k], form.k2[k])
        assert np.array_equal(one.apply(u[:, k]), Fu[:, k])
        assert np.array_equal(one.apply(uh[:, k]), fu[:, k])


def test_one_operator_product_of_vectors_and_columns():
    rng = np.random.default_rng(3)
    ops = b1.ModeOperators(make_grid(40, 1.0, 2.0), 0.6, -0.3)
    one = ops.form(0.7, 2.5)
    F = one.dense()
    U = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    FU, FhU = one.apply(U), one.apply_adjoint(U)
    # F^H is the product of the conjugate-transposed bands
    Fh = b1.TridiagForm(np.conj(one.sup), np.conj(one.diag),
                        np.conj(one.sub), one.weight)
    assert np.array_equal(FhU, Fh.apply(U))
    for k in range(U.shape[1]):
        assert np.array_equal(FU[:, k], one.apply(U[:, k]))
        assert np.array_equal(FhU[:, k], one.apply_adjoint(U[:, k]))
        scale = np.abs(F).max() * np.abs(U[:, k]).max()
        assert np.abs(FU[:, k] - F @ U[:, k]).max() <= 1e-14 * scale
        assert np.abs(FhU[:, k] - F.conj().T @ U[:, k]).max() <= 1e-14 * scale
    out = np.empty_like(U)
    assert one.apply(U, out=out) is out and np.array_equal(out, FU)


def test_resolve_batched_rhs_shape():
    g = make_grid(64, 1.0, 2.0)
    op = b1.assemble_form(g, "bessel", c=0.5)
    F = np.random.default_rng(0).standard_normal((3, g.num_y))
    U = b1.resolve(op, 1.0, F)
    assert U.shape == (3, g.num_y)
    for k in range(3):
        assert np.allclose(U[k], b1.resolve(op, 1.0, F[k]))
    # every column is guarded: one bad right-hand side fails the batch as
    # it fails on its own
    F[1, 5] = np.nan
    with pytest.raises(RuntimeError, match="backward error"):
        b1.resolve(op, 1.0, F[1])
    with pytest.raises(RuntimeError, match="backward error"):
        b1.resolve(op, 1.0, F)


def _neumann_bessel_heat_kernel(y, rho, c, t):
    """Closed-form kernel of Dyy + (c/y) Dy w.r.t. rho^c d rho:
    (2t)^-1 (y rho)^-nu exp(-(y-rho)^2/4t) ive(nu, y rho/2t), nu = (c-1)/2
    (Borodin & Salminen, Handbook of Brownian Motion)."""
    nu = 0.5 * (c - 1.0)
    Y, R = np.meshgrid(y, rho, indexing="ij")
    return ((2.0 * t) ** -1 * (Y * R) ** -nu
            * np.exp(-(Y - R) ** 2 / (4.0 * t)) * ive(nu, Y * R / (2.0 * t)))


def test_expm_kernel_guards_and_structure():
    g = make_grid(128, 1.0, 2.0)
    op = b1.assemble_form(g, "bessel", c=1.0)
    with pytest.raises(ValueError, match="Re z > 0"):
        b1.expm_kernel(op, -0.1)
    ker = b1.expm_kernel(op, 0.01)
    P = ker.values
    # symmetric and positive with respect to the weighted measure
    assert np.abs(P - P.T).max() / np.abs(P).max() < 1e-13
    assert P.real.min() > -1e-12
    # Neumann form preserves constants
    ones = np.ones(g.num_y, dtype=complex)
    assert np.abs(ker.apply(ones) - 1.0).max() < 1e-9
    # no cap on J: at J = 1024 the kernel still preserves constants and is
    # closer to the exact Neumann Bessel heat kernel than at J = 512
    t, c = 0.004, 1.0
    errors = []
    for J in (512, 1024):
        g = make_grid(J, 1.0, 2.0)
        ker = b1.expm_kernel(b1.assemble_form(g, "bessel", c=c), t)
        ones = np.ones(g.num_y, dtype=complex)
        assert np.abs(ker.apply(ones) - 1.0).max() < 1e-9
        y = g.y_nodes
        sel = y < 0.5
        exact = _neumann_bessel_heat_kernel(y[sel], y[sel], c, t)
        got = ker.values[np.ix_(sel, sel)]
        errors.append(np.abs(got - exact).max() / np.abs(exact).max())
    assert errors[1] < errors[0]


def _dense_generator(op):
    return -op.dense() / op.weight[:, None]


@pytest.mark.parametrize("J", [64, 128])
def test_expm_kernel_matches_dense_expm_oracle(J):
    g = make_grid(J, 1.0, 2.0)
    ops = [
        b1.assemble_form(g, "bessel", c=1.0),
        b1.assemble_form(g, "model_mode", c=1.0, alpha=0.5, mixing_freq=0.0,
                         freq_norm2=0.0),
        b1.assemble_form(g, "bessel_drift", c=1.5, beta=0.8, drift_b=0.6,
                         potential_coeff=0.5),
        b1.assemble_form(g, "bessel_drift", c=0.3, beta=0.0, drift_b=1.2,
                         potential_coeff=0.5),
    ]
    for k, op in enumerate(ops):
        M = _dense_generator(op)
        for z in (0.05, 0.01, 0.02 + 0.01j):
            exact = expm(z * M) / op.weight[None, :]
            got = b1.expm_kernel(op, z).values
            err = np.abs(got - exact).max() / np.abs(exact).max()
            assert err <= 1e-8, (k, z, err)
    # rotated by arg z = 63 degrees, the numerical range of the oblique form
    # (half-angle 40 degrees) leaves the region the contour can enclose
    with pytest.raises(ValueError, match="contour"):
        b1.expm_kernel(ops[3], 0.01 + 0.02j)


def _full_spectrum_kernel(op, z):
    """Kernel of e^{zM} from every eigenpair of the symmetrised bands."""
    d, e, _ = op.symmetric_bands()
    lam, V = eigh_tridiagonal(d.real, e.real)
    V /= np.sqrt(op.weight)[:, None]
    return (V * np.exp(-z * lam)) @ V.T


def _identity_contour_kernel(op, z):
    """sum_k c_k (s_k W + zF)^(-1), each node solved against the identity."""
    zform = b1.TridiagForm(z * op.sub, z * op.diag, z * op.sup, op.weight)
    values = np.zeros((op.size, op.size), dtype=complex, order="F")
    for s, c in zip(b1._NODES, b1._COEFFS):
        X = zform.factor(s).solve(
            np.eye(op.size, dtype=complex, order="F"), overwrite_b=True)
        X *= c
        values += X
    return values


def _max_rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


_DOMINATION_CASES = [(1.0, 0.0, 0.5), (0.5, 0.3, 0.4), (2.0, -0.2, 0.8),
                     (1.0, 0.5, 1.0), (0.3, 0.0, 1.2), (1.5, 0.8, 0.6)]


def _oblique_forms(g):
    return [b1.assemble_form(g, "bessel_drift", c=1.5, beta=0.8, drift_b=0.6,
                             potential_coeff=0.5),
            b1.assemble_form(g, "bessel_drift", c=0.3, beta=0.0, drift_b=1.2,
                             potential_coeff=0.5)]


def test_selfadjoint_kernel_matches_full_eigendecomposition():
    # the kernel fits' eight forms at J = 256: the dropped modes are
    # invisible at 1e-9 of max |p|, and so is a complex z
    g = make_grid(256, 1.0, 2.0)
    ops = [b1.assemble_form(g, "bessel", c=c)
           for c in (0.0, 0.5, 1.0, 2.0, -0.5, 1.5)]
    ops += [b1.assemble_form(make_grid(256, 1.0, default_grading(alpha)),
                             "model_mode", c=c, alpha=alpha, mixing_freq=0.0,
                             freq_norm2=0.0)
            for c, alpha in ((1.0, 0.5), (0.5, -0.5))]
    for k, op in enumerate(ops):
        got = b1.expm_kernel(op, 0.02).values
        assert _max_rel(got, _full_spectrum_kernel(op, 0.02)) <= 1e-9, k
    z = 0.02 + 0.01j
    got = b1.expm_kernel(ops[2], z).values
    assert _max_rel(got, _full_spectrum_kernel(ops[2], z)) <= 1e-9


def test_oblique_kernel_matches_identity_contour_oracle():
    g = make_grid(192, 1.0, 2.0)
    for c, beta, b in _DOMINATION_CASES:
        op = b1.assemble_form(g, "bessel_drift", c=c, beta=beta, drift_b=b,
                              potential_coeff=0.5)
        got = b1.expm_kernel(op, 0.05).values
        want = _identity_contour_kernel(op, 0.05)
        assert _max_rel(got, want) <= 1e-8, (c, beta, b)
    for J in (64, 128):
        for op in _oblique_forms(make_grid(J, 1.0, 2.0)):
            for z in (0.05, 0.01, 0.02 + 0.01j):
                got = b1.expm_kernel(op, z).values
                want = _identity_contour_kernel(op, z)
                assert _max_rel(got, want) <= 1e-8, (J, z)


def test_oblique_sketch_grows_until_the_estimate_passes(monkeypatch):
    # from a 4-column sketch the estimator must grow l before it accepts:
    # to 32 columns at z = 0.01, whose kernel has the slowest decay
    widths = []
    qr = np.linalg.qr

    def spy(a):
        widths.append(a.shape[1])
        return qr(a)

    monkeypatch.setattr(b1, "_SKETCH_RANK", 4)
    monkeypatch.setattr(b1.np.linalg, "qr", spy)
    for op in _oblique_forms(make_grid(128, 1.0, 2.0)):
        for z, grown in ((0.05, [4, 8]), (0.01, [4, 8, 16, 32])):
            widths.clear()
            got = b1.expm_kernel(op, z).values
            assert widths == grown
            assert _max_rel(got, _identity_contour_kernel(op, z)) <= 1e-8


def test_oblique_kernel_at_full_width_is_the_identity_contour():
    # l + p >= J: the sketch is the identity, so the kernel is bitwise the
    # identity-RHS contour sum
    op = _oblique_forms(make_grid(32, 1.0, 2.0))[0]
    assert np.array_equal(b1.expm_kernel(op, 0.05).values,
                          _identity_contour_kernel(op, 0.05))


def _domination_forms():
    """kernel_domination's 12 oblique forms: six cases at J = 192 and 384."""
    return [b1.assemble_form(make_grid(J, 1.0, 2.0), "bessel_drift", c=c,
                             beta=beta, drift_b=b, potential_coeff=0.5)
            for J in (192, 384) for c, beta, b in _DOMINATION_CASES]


def _ladder_polygons(d, sub, sup):
    """(angles, support) of every rung, each refined from the last."""
    rungs, support = [], None
    for n in b1._RANGE_LADDER:
        angles, support, _ = b1._numerical_range_polygon(d, sub, sup, n,
                                                         support)
        rungs.append((angles, support))
    return rungs


def test_every_rung_contains_the_numerical_range():
    rng = np.random.default_rng(28)
    bands = [op.symmetric_bands() for op in _domination_forms()]
    for J in [2, 64] + list(rng.integers(3, 64, 6)):
        bands.append(tuple(rng.standard_normal(k) + 1j * rng.standard_normal(k)
                           for k in (J, J - 1, J - 1)))
    for d, sub, sup in bands:
        J = d.size
        T = np.diag(d) + np.diag(sub, -1) + np.diag(sup, 1)
        u = rng.standard_normal((J, 50)) + 1j * rng.standard_normal((J, 50))
        q = np.einsum("ij,ij->j", u.conj(), T @ u) / (np.abs(u) ** 2).sum(0)
        slack = 1e-12 * np.abs(T).max()
        rungs = _ladder_polygons(d, sub, sup)
        for angles, support in rungs:
            reach = np.real(np.exp(-1j * angles)[:, None] * q[None, :])
            assert (reach <= support[:, None] + slack).all(), J
        for (coarse, _), (fine, _) in zip(rungs, rungs[1:]):
            assert np.array_equal(coarse, fine[::2])


def test_refined_rungs_are_bitwise_fresh_polygons(monkeypatch):
    # from 8 directions the ladder refines past a pole inside the polygon
    # (c = 0.3, drift 1.2, arg z = 27 degrees: 8, 16 and 32 directions all
    # enclose one) and past a bound above the tolerance (c = 1.5, drift 0.6,
    # arg z = 23 degrees: 1.8e-10 at 8 directions); each refined bound is
    # bitwise the bound of the polygon built at its final count alone
    forms = _oblique_forms(make_grid(128, 1.0, 2.0))
    cases = [(forms[1], 0.0446 + 0.0227j, 64), (forms[0], 0.046 + 0.0195j, 16)]
    for op, z, final in cases:
        monkeypatch.setattr(b1, "_RANGE_LADDER", (final,))
        want = b1._contour_error_bound(op, z)
        monkeypatch.setattr(b1, "_RANGE_LADDER", (8, 16, 32, 64))
        assert b1._contour_error_bound(op, z) == want <= b1._CONTOUR_TOL
        fresh = b1._numerical_range_polygon(*op.symmetric_bands(), final,
                                            None)
        refined = _ladder_polygons(*op.symmetric_bands())[
            b1._RANGE_LADDER.index(final)]
        assert np.array_equal(fresh[1], refined[1])


def test_ladder_gates_like_the_finest_polygon(monkeypatch):
    forms = _domination_forms()
    ladder = [b1._contour_error_bound(op, 0.05) for op in forms]
    monkeypatch.setattr(b1, "_RANGE_LADDER", (64,))
    finest = [b1._contour_error_bound(op, 0.05) for op in forms]
    assert [e <= b1._CONTOUR_TOL for e in ladder] \
        == [e <= b1._CONTOUR_TOL for e in finest] == [True] * 12


def test_expm_kernel_reruns_bitwise():
    g = make_grid(128, 1.0, 2.0)
    for op in [b1.assemble_form(g, "bessel", c=1.0)] + _oblique_forms(g):
        for z in (0.05, 0.02 + 0.01j):
            first = b1.expm_kernel(op, z).values
            assert np.array_equal(first, b1.expm_kernel(op, z).values)


def test_thomas_sweep_is_bitwise_the_reference_sweep():
    rng = np.random.default_rng(7)
    J, modes = 65, b1._STACK_MODES + 1
    sub, sup = (rng.standard_normal((J - 1, modes))
                + 1j * rng.standard_normal((J - 1, modes)) for _ in range(2))
    diag = 4.0 + rng.standard_normal((J, modes)) + 0j
    b = rng.standard_normal((J, modes)) + 1j * rng.standard_normal((J, modes))
    lu = _batch_lu(sub, diag, sup, np.ones(J), 1.0)
    u = b.copy()
    for i in range(1, J):
        u[i] -= lu.mult[i - 1] * u[i - 1]
    u[-1] *= lu.inv_piv[-1]
    for i in range(J - 2, -1, -1):
        u[i] -= lu.sup[i] * u[i + 1]
        u[i] *= lu.inv_piv[i]
    assert np.array_equal(lu.solve(b), u)


def _random_batch(rng, J, modes):
    """Complex bands (sub, diag, sup) of a (J, modes) batch and its weight;
    the diagonal is not dominant, so gttrf pivots."""
    sub, diag, sup = (rng.standard_normal((n, modes))
                      + 1j * rng.standard_normal((n, modes))
                      for n in (J - 1, J, J - 1))
    return sub, diag, sup, 0.5 + rng.random(J)


@pytest.mark.parametrize("J", [65, 128])
@pytest.mark.parametrize("modes", [9, b1._STACK_MODES])
def test_stacked_batch_is_bitwise_the_per_mode_solve(J, modes):
    rng = np.random.default_rng(J + modes)
    sub, diag, sup, weight = _random_batch(rng, J, modes)
    b = rng.standard_normal((J, modes)) + 1j * rng.standard_normal((J, modes))
    lam = 0.7 - 0.2j
    lu = _batch_lu(sub, diag, sup, weight, lam)
    x, xa = lu.solve(b), lu.solve_adjoint(b)
    for k in range(modes):
        one = b1.TridiagForm(sub[:, k], diag[:, k], sup[:, k],
                             weight).factor(lam)
        assert isinstance(one, b1._PivotedLU)
        assert np.array_equal(x[:, k], one.solve(b[:, k]))
        assert np.array_equal(xa[:, k], one.solve_adjoint(b[:, k]))


def test_thomas_adjoint_solve_matches_the_pivoted_one():
    # A^H = U^H L^H from the Thomas factors, on a (64, 40) batch that takes
    # the Thomas sweep, against A^H x = b and the per-mode gttrs adjoint
    rng = np.random.default_rng(9)
    J, modes, lam = 64, 40, 0.7 - 0.2j
    sub, diag, sup, weight = _random_batch(rng, J, modes)
    diag += 8.0
    b = rng.standard_normal((J, modes)) + 1j * rng.standard_normal((J, modes))
    lu = _batch_lu(sub, diag, sup, weight, lam)
    assert isinstance(lu, b1._ThomasLU)
    x = lu.solve_adjoint(b)
    for k in range(modes):
        one = b1.TridiagForm(sub[:, k], diag[:, k], sup[:, k], weight)
        A = one.dense() + lam * np.diag(weight)
        assert np.abs(A.conj().T @ x[:, k] - b[:, k]).max() <= 1e-14 * (
            np.abs(b[:, k]).max())
        xp = one.factor(lam).solve_adjoint(b[:, k])
        assert np.abs(x[:, k] - xp).max() <= 1e-13 * np.abs(xp).max()


def test_factor_stacks_narrow_batches_and_sweeps_wide_ones():
    rng = np.random.default_rng(3)
    for modes, kind in ((b1._STACK_MODES, b1._PivotedLU),
                        (b1._STACK_MODES + 1, b1._ThomasLU)):
        sub, diag, sup, weight = _random_batch(rng, 16, modes)
        assert type(_batch_lu(sub, diag + 8.0, sup, weight, 1.0)) is kind


@pytest.mark.parametrize("modes", [9, b1._STACK_MODES + 1])
@pytest.mark.parametrize("last", [False, True])
def test_singular_form_error_names_the_column_on_both_paths(modes, last):
    # a stacked NaN block before the last reaches a zero coupling and gttrf
    # reports it; in the last block only the finite-pivot test sees it
    rng = np.random.default_rng(5)
    J, lam = 24, 1.0
    col = modes - 1 if last else 6
    sub, diag, sup, weight = _random_batch(rng, J, modes)
    diag += 8.0
    nan_diag = diag.copy()
    nan_diag[J // 2, col] = np.nan
    # column col of lam W + F is exactly zero: a zero pivot in its first row
    zero_sub, zero_diag, zero_sup = sub.copy(), diag.copy(), sup.copy()
    zero_sub[:, col] = zero_sup[:, col] = 0.0
    zero_diag[:, col] = -lam * weight
    for bands in ((sub, nan_diag, sup), (zero_sub, zero_diag, zero_sup)):
        with pytest.raises(b1.SingularFormError) as err:
            _batch_lu(*bands, weight, lam)
        assert err.value.column == col


def _loop_binned_fit(kernel, z, c, t):
    """_bessel_envelope_fit with one masked pass per bin."""
    P = np.abs(kernel.values)
    edge = np.minimum(z / np.sqrt(t), 1.0)
    pref = (t ** -0.5 * z ** -c * edge ** c)[None, :] * np.ones((z.size, 1))
    s = np.abs(z[:, None] - z[None, :]) ** 2 / t
    mask = P >= 1e-13 * P.max()
    g = np.log(P[mask] / pref[mask])
    sv = s[mask]
    edges = np.linspace(0.0, sv.max() * (1 + 1e-12), 21)
    smax, gmax = [], []
    for k in range(20):
        sel = (sv >= edges[k]) & (sv < edges[k + 1])
        if np.any(sel):
            smax.append(0.5 * (edges[k] + edges[k + 1]))
            gmax.append(g[sel].max())
    slope, _ = np.polyfit(np.asarray(smax), np.asarray(gmax), 1)
    kappa = -1.0 / slope
    return {"C": float(np.exp((g + sv / kappa).max())), "kappa": float(kappa),
            "points": int(mask.sum())}


def test_envelope_binning_is_bitwise_the_loop():
    t = 0.02
    g = make_grid(128, 1.0, 2.0)
    for c in (0.0, 1.0, 2.0):
        ker = b1.expm_kernel(b1.assemble_form(g, "bessel", c=c), t)
        # the Bessel fit's nodes y, and the model fit's y^e at e = 0.75
        for z in (g.y_nodes, g.y_nodes ** 0.75):
            assert (b1._bessel_envelope_fit(ker, z, c, t)
                    == _loop_binned_fit(ker, z, c, t))


def _scaled_resolvent_pair(op, lam):
    """(apply, apply_adjoint) of lam R(lam) = lam (lam W + F)^(-1) W."""
    lu = op.factor(lam)
    w = op.weight
    return ((lambda u: lam * lu.solve(w * u)),
            (lambda u: np.conj(lam) * w * lu.solve_adjoint(u)))


def test_operator_norm_reruns_with_all_steps_when_capped(monkeypatch):
    # diag(linspace(0, 1, 200)) needs about 60 Lanczos steps at tol 1e-12,
    # more than the first run's cap: the value comes from the uncapped rerun
    caps = []

    def recording_svds(*args, **kwargs):
        caps.append(kwargs["maxiter"])
        return svds(*args, **kwargs)

    monkeypatch.setattr("scipy.sparse.linalg.svds", recording_svds)
    d = np.linspace(0.0, 1.0, 200)
    got = b1.operator_norm(lambda u: d * u, lambda u: d * u, np.ones(200))
    assert caps == [b1._NORM_STEPS, 200]
    assert abs(got - 1.0) <= 1e-12


def test_operator_norm_is_one_on_positive_axis():
    # self-adjoint nonnegative generator: ||lam (lam + B)^(-1)|| = 1 exactly,
    # attained by the constants
    g = make_grid(128, 1.0, 2.0)
    op = b1.assemble_form(g, "bessel", c=1.0)
    got = b1.operator_norm(*_scaled_resolvent_pair(op, 1.0), op.weight)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_operator_norm_of_zero_map_and_of_a_closed_krylov_space():
    # the zero map is 0; on 3 I the bidiagonalization closes after one step
    # and PROPACK reports a value above 3, which the certificate rejects
    w = np.linspace(0.5, 2.0, 40)
    assert b1.operator_norm(lambda u: 0.0 * u, lambda u: 0.0 * u, w) == 0.0
    with pytest.raises(np.linalg.LinAlgError, match="not attained"):
        b1.operator_norm(lambda u: 3.0 * u, lambda u: 3.0 * u, w)


@pytest.mark.parametrize("J", [64, 128])
def test_operator_norm_matches_spectral_formula_at_mixing_zero(J):
    # a self-adjoint form: ||lam R(lam)||_W = max_j |lam| / |lam + mu_j|,
    # mu the spectrum of the symmetrised bands, on and off the real axis
    g = make_grid(J, 1.0, 2.0)
    op = b1.assemble_form(g, "model_mode", c=1.0, alpha=0.5,
                          mixing_freq=0.0, freq_norm2=1.0)
    d, e, _ = op.symmetric_bands()
    mu = eigh_tridiagonal(d.real, e.real, eigvals_only=True)
    for lam in (1.0, 10.0 * np.exp(0.6j), 100.0, 0.5 * np.exp(2.5j),
                3.0 * np.exp(-2.0j)):
        exact = np.max(abs(lam) / np.abs(lam + mu))
        got = b1.operator_norm(*_scaled_resolvent_pair(op, lam), op.weight)
        assert got == pytest.approx(exact, rel=1e-10)


def test_operator_norm_is_the_weighted_norm_and_reruns_bitwise():
    # a dense oblique operator: the engine equals the top singular value of
    # W^(1/2) T W^(-1/2), and a rerun returns the same float
    rng = np.random.default_rng(4)
    n = 40
    T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = np.exp(rng.uniform(-6.0, 6.0, n))
    sqw = np.sqrt(w)
    dense = np.linalg.svd(sqw[:, None] * T / sqw[None, :], compute_uv=False)
    first = b1.operator_norm(lambda u: T @ u, lambda u: T.conj().T @ u, w)
    again = b1.operator_norm(lambda u: T @ u, lambda u: T.conj().T @ u, w)
    assert first == pytest.approx(dense[0], rel=1e-12)
    assert first == again


def test_lp_norm_is_the_operator_norms_norm():
    # on the README operator's grading (1.217, its reduced alpha 0.357),
    # the vector attaining ||lam R(lam)||_W has lp_norm ratio equal to the
    # engine's value at p = 2, m = c - alpha: one y-quadrature for both
    g = make_grid(64, 1.0, default_grading(2 * 0.5 / (0.5 + 0.3 + 2)))
    c, alpha, lam = 1.0, 0.5, 2.0 * np.exp(0.4j)
    op = b1.ModeOperators(g, c, alpha).form(0.3, 1.0)
    apply, apply_adjoint = _scaled_resolvent_pair(op, lam)
    sqw = np.sqrt(b1.node_weights(g, c - alpha))
    dense = np.column_stack([apply(e)
                             for e in np.eye(g.num_y, dtype=complex)])
    _, _, vh = np.linalg.svd(sqw[:, None] * dense / sqw[None, :])
    u = np.conj(vh[0]) / sqw
    ratio = (lp_norm(apply(u), 2.0, c - alpha, g)
             / lp_norm(u, 2.0, c - alpha, g))
    got = b1.operator_norm(apply, apply_adjoint, op.weight)
    assert ratio == pytest.approx(got, rel=1e-12)


def test_tridiag_form_apply_adjoint_is_conjugate_transpose():
    g = make_grid(24, 1.0, 2.0)
    op = b1.assemble_form(g, "bessel_drift", c=0.5, beta=0.3, drift_b=0.7,
                          potential_coeff=0.2)
    u = np.random.default_rng(2).standard_normal((g.num_y, 3)) + 0j
    assert np.allclose(op.apply_adjoint(u), op.dense().conj().T @ u,
                       rtol=0.0, atol=1e-13 * np.abs(op.dense()).max())


def test_sector_angle_frozen_values():
    assert b1.sector_angle(0.0) == pytest.approx(np.pi / 2.0)
    assert b1.sector_angle(np.sqrt(0.5)) == pytest.approx(np.pi / 4.0)
    with pytest.raises(ValueError):
        b1.sector_angle(1.0)
    with pytest.raises(ValueError):
        b1.sector_angle(-0.1)


def _sector_lambdas(mixing):
    theta = b1.sector_angle(mixing) - 0.1
    return (np.logspace(-2, 2, 8)[:, None]
            * np.exp(1j * np.linspace(-theta, theta, 8))[None, :])


def test_sector_scan_matches_spectral_formula_at_mixing_zero():
    # a self-adjoint form: every cell is max_j |lam| / |lam + mu_j|
    g = make_grid(128, 1.0, 2.0)
    op = b1.assemble_form(g, "model_mode", c=1.0, alpha=0.5,
                          mixing_freq=0.0, freq_norm2=1.0)
    d, e, _ = op.symmetric_bands()
    mu = eigh_tridiagonal(d.real, e.real, eigvals_only=True)
    lams = _sector_lambdas(0.0)
    exact = np.max(np.abs(lams)[..., None]
                   / np.abs(lams[..., None] + mu), axis=-1)
    rep = b1.sector_resolvent_scan(op, 0.0)
    assert rep["norms"].shape == (8, 8)
    assert rep["angle"] < b1.sector_angle(0.0)
    np.testing.assert_allclose(rep["norms"], exact, rtol=1e-10, atol=0.0)
    assert rep["sup"] == pytest.approx(exact.max(), rel=1e-10)


def test_sector_scan_matches_arpack_reference_at_mixing_07():
    # an oblique form: each cell against ARPACK on the scaled map, built
    # here from the factors and independent of the engine
    g = make_grid(256, 1.0, 2.0)
    op = b1.assemble_form(g, "model_mode", c=1.0, alpha=0.5,
                          mixing_freq=0.7, freq_norm2=1.0)
    sqw = np.sqrt(op.weight)
    n = op.size
    start = np.random.default_rng(3).standard_normal(n)
    reference = np.zeros((8, 8))
    for idx, lam in np.ndenumerate(_sector_lambdas(0.7)):
        apply, adjoint = _scaled_resolvent_pair(op, lam)
        scaled = LinearOperator(
            (n, n), dtype=complex,
            matvec=lambda x, apply=apply: sqw * apply(np.ravel(x) / sqw),
            rmatvec=lambda x, adjoint=adjoint:
                adjoint(sqw * np.ravel(x)) / sqw)
        reference[idx] = svds(scaled, k=1, tol=1e-14, v0=start,
                              return_singular_vectors=False)[0]
    rep = b1.sector_resolvent_scan(op, 0.7)
    np.testing.assert_allclose(rep["norms"], reference, rtol=1e-12, atol=0.0)


def test_gaussian_envelope_fits_finite():
    g = make_grid(128, 1.0, 2.0)
    t = 0.01
    op = b1.assemble_form(g, "bessel", c=1.0)
    fit = b1.bessel_kernel_fit(b1.expm_kernel(op, t), 1.0, t)
    assert np.isfinite(fit["C"]) and np.isfinite(fit["kappa"])
    assert fit["C"] < 10.0
    opm = b1.assemble_form(g, "model_mode", c=1.0, alpha=0.5,
                           mixing_freq=0.0, freq_norm2=0.0)
    fitm = b1.model_kernel_fit(b1.expm_kernel(opm, t), 1.0, 0.5, t)
    assert np.isfinite(fitm["C"]) and np.isfinite(fitm["kappa"])
    assert fitm["C"] < 10.0


def test_semigroup_domination_small():
    g = make_grid(128, 1.0, 2.0)
    rep = b1.semigroup_domination_check(g, 1.0, 0.5, 0.4, 0.2, 0.05)
    assert rep["field_excess"] <= 1e-10
    assert rep["kernel_excess"] <= 1e-3


def test_equivalence_transform_check_converges():
    levels = (128, 256)
    errors, _ = refinement_study(levels, lambda J: (
        b1.equivalence_transform_check(0.5, 1.0, 0.3, 1.0, J)))
    assert decay_order(levels, errors) > 0.9
    assert errors[-1] < errors[0]


def test_two_route_resolvent_agreement():
    g = make_grid(192, 1.0, 2.0)
    f = np.exp(-((g.y_nodes - 0.4) / 0.1) ** 2).astype(complex)
    for alpha in (-0.5, 0.5):
        u1, u2 = b1.two_route_resolvent(g, alpha, 1.0, 0.3, 1.0,
                                        1.0 + 0.5j, f)
        w = b1.node_weights(g, 1.0 - alpha)
        rel = (np.sqrt(np.sum(np.abs(u1 - u2) ** 2 * w))
               / np.sqrt(np.sum(np.abs(u1) ** 2 * w)))
        assert rel < 1e-8


def test_interpolation_inequality_stable():
    (c1, c2), drift = refinement_study((96, 192), lambda J: (
        b1.interpolation_constant(0.5, 1.0, 2.0, 0.5, J)))
    assert 0.0 < c2 < 5.0
    assert drift == abs(c2 - c1) / c1 < 0.2

