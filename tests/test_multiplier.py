"""Frequency decoupling: per-mode solves, derived multipliers, scans."""

import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from degenpde import multiplier as mp
from degenpde import panels
from degenpde import semigroup as sg
from degenpde.bessel1d import _PivotedLU, _ThomasLU, sector_angle
from degenpde.grid import Field, XBox, default_grading, make_grid
from degenpde.params import (ModelParams, OperatorSpec, SpaceSpec,
                             config_to_problem, reduce_to_model)
from degenpde.semigroup import evolve


MODEL = ModelParams([0.3], 0.5, 1.0, 0.5, 2.0)


def _tensor_forcing(grid, mode=1):
    prof = panels.bump_profile(0.4, 0.15)
    wave = panels.plane_wave(grid.x_box, [mode])
    return Field(panels.tensor_values(grid, wave, prof), grid)


def _nd_grid(J=64, nx=16):
    return make_grid(J, 1.0, 2.0, XBox(2.0 * np.pi, nx, 1))


def test_mode_operators_validation_and_residual():
    g = make_grid(96, 1.0, 2.0)
    with pytest.raises(ValueError, match="c > -1"):
        mp.ModeOperators(g, -1.5, 0.5)
    ops = mp.ModeOperators(g, 1.0, 0.5)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.num_y) + 1j * rng.standard_normal(g.num_y)
    lam, s, k2 = 1.0 + 0.5j, 0.4, 2.0
    u = ops.solve(s, k2, lam, f)
    res = lam * u - ops.apply(s, k2, u) - f
    rel = (np.sqrt(np.sum(np.abs(res) ** 2 * ops.weight))
           / np.sqrt(np.sum(np.abs(f) ** 2 * ops.weight)))
    assert rel < 1e-11


@pytest.mark.parametrize("scale, computed", [
    (1.0, True), (1e100, True), (1e-100, True), (1e160, False),
    (1e300, False), (1e-140, False), (0.0, False),
])
def test_weighted_residual_is_nan_when_its_sums_leave_the_floats(scale,
                                                                 computed):
    # the sums of squares of data near 1e160 overflow, and of data near
    # 1e-140 (or zero) lose the residual to underflow: NaN, not 0.0
    weight = np.array([0.25, 0.5, 0.25])
    rhs = scale * np.array([1.0, -2.0, 3.0])
    with np.errstate(over="ignore"):
        rows = np.array([(1e-14 * rhs) ** 2 * weight ** 2, rhs ** 2])
    res = mp.weighted_residual(rows, weight)
    if computed:
        assert res == pytest.approx(1e-14, rel=1e-12)
    else:
        assert math.isnan(res)


def test_potential_family_bounded_uniformly_in_xi():
    # the exact sup over lam of || |xi|^2 y^a R(lam, xi) || in L^2(y^0.5)
    # per octave xi = 2^k: bounded, and levelling off as |xi| grows
    exps = range(-3, 10)
    rep = mp.mikhlin_bound_scan(
        (0.1, 1.0, 10.0), [(2.0 ** k,) for k in exps], MODEL,
        make_grid(128, 1.0, default_grading(0.5)), families=("potential",))
    per_xi = [max(v for (_, beta, _, xi), v in rep["table"].items()
                  if beta == (0,) and xi == (2.0 ** k,)) for k in exps]
    assert max(per_xi) < 2.0
    assert per_xi[-1] < 1.1 * per_xi[-2]


def test_xi_lattice_shape_and_values():
    box = XBox(2.0 * np.pi, 8, 2)
    lat = mp.xi_lattice(box)
    assert lat.shape == (8, 8, 2)
    k = box.wavenumbers()
    assert np.allclose(lat[:, 0, 0], k)
    assert np.allclose(lat[0, :, 1], k)


def test_plan_validation():
    with pytest.raises(ValueError, match="x-box"):
        mp.FrequencySolvePlan(1.0, MODEL, make_grid(32, 1.0, 2.0))
    box2 = XBox(1.0, 4, 2)
    with pytest.raises(ValueError, match="does not match"):
        mp.FrequencySolvePlan(1.0, MODEL, make_grid(16, 1.0, 2.0, box2))


def test_resolvent_nd_matches_monolithic_oracle():
    g = _nd_grid()
    f = _tensor_forcing(g)
    lam = 1.0 + 0.5j
    u, info = mp.resolvent_nd(lam, f, MODEL, g, return_info=True)
    assert info["residual"] < 1e-11
    um = mp.monolithic_sparse_solve(lam, f, MODEL, g)
    rel = np.abs(u.values - um.values).max() / np.abs(u.values).max()
    assert rel < 1e-10
    with pytest.raises(ValueError, match="N = 1"):
        model2 = ModelParams([0.3, 0.2], 0.5, 1.0, 0.5, 2.0)
        mp.monolithic_sparse_solve(lam, f, model2, g)


def test_derived_multiplier_sum_identity():
    g = _nd_grid()
    f = _tensor_forcing(g)
    assert mp.sum_identity_residual(1.0 + 0.5j, f, MODEL, g) < 1e-11
    d = mp.derived_multipliers(1.0 + 0.5j, f, MODEL, g)
    assert set(d) == {"solution", "x_laplacian", "mixed_gradients",
                      "bessel", "y_gradient"}
    assert len(d["mixed_gradients"]) == 1
    assert d["solution"].values.shape == g.shape


# the README operator: 2-d, oblique mixing, alpha != 0, c != 0
README_OPERATOR = {
    "q_matrix": [[2.0, 0.3], [0.3, 1.5]], "q_vector": [0.4, -0.2],
    "gamma": 1.2, "drift_b": [0.5, -0.3], "drift_c": 1.4, "alpha1": 0.5,
    "alpha2": -0.3, "p": 2.5, "m": 0.6, "dimension": 2,
}


def _readme_case(J=64, nx=8):
    model, _ = reduce_to_model(*config_to_problem(README_OPERATOR))
    grid = make_grid(J, 1.0, 2.0, XBox(2.0 * np.pi, nx, 2))
    rng = np.random.default_rng(4)
    f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    edge = sector_angle(float(np.linalg.norm(model.mixing))) - 0.02
    lams = (80.0, 3.0 + 40.0j, 40.0 * np.exp(1j * edge))
    return model, grid, f, lams


def _mode_loop(model, grid, values, step):
    """Apply step(ops, s, k2, uhat) mode by mode through the x-FFT."""
    ops = mp.ModeOperators(grid, model.c_bessel, model.alpha)
    xi = mp.xi_lattice(grid.x_box).reshape(-1, model.dim)
    fh = np.fft.fftn(values, axes=(0, 1)).reshape(-1, grid.num_y)
    out = np.array([step(ops, float(model.mixing @ x), float(x @ x), fk)
                    for x, fk in zip(xi, fh)])
    return np.fft.ifftn(out.reshape(grid.shape), axes=(0, 1))


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _check_plan_against_mode_loop(nx, lu_type):
    model, grid, f, lams = _readme_case(nx=nx)
    for lam in lams:
        plan = mp.FrequencySolvePlan(lam, model, grid)
        assert type(plan.lu) is lu_type
        u, info = plan.solve(Field(f, grid))
        ref = _mode_loop(model, grid, f,
                         lambda ops, s, k2, fk: ops.solve(s, k2, lam, fk))
        assert _rel(u.values, ref) <= 1e-12
        assert info["residual"] <= 1e-12
        Lu = plan.apply_operator(ref).values
        Lref = _mode_loop(model, grid, ref,
                          lambda ops, s, k2, uk: ops.apply(s, k2, uk))
        assert _rel(Lu, Lref) <= 1e-12
        assert mp.sum_identity_residual(lam, f, model, grid) <= 1e-11
        d = plan.derived(f)
        assert _rel(d["solution"].values, ref) <= 1e-12


def test_batched_plan_matches_mode_loop():
    # 64 modes: wider than _STACK_MODES, the Thomas sweep of the 2-d solves
    _check_plan_against_mode_loop(8, _ThomasLU)


def test_stacked_plan_matches_mode_loop():
    # 16 modes: one stacked gttrf
    _check_plan_against_mode_loop(4, _PivotedLU)


@pytest.mark.parametrize("nx,lu_type", [(4, _PivotedLU), (8, _ThomasLU)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_plan_factors_solve_in_place(nx, lu_type, order):
    # one contract on both paths, 16 modes by the stacked gttrs and 64 by
    # the Thomas sweep: overwrite_b=True writes the solution into b
    model, grid, f, lams = _readme_case(nx=nx)
    plan = mp.FrequencySolvePlan(lams[1], model, grid)
    assert type(plan.lu) is lu_type
    b = np.array(plan._to_modes(f), order=order)
    kept = b.copy()
    expected = plan.lu.solve(b.copy())
    assert np.array_equal(plan.lu.solve(b), expected)
    assert np.array_equal(b, kept)
    assert plan.lu.solve(b, overwrite_b=True) is b
    assert np.array_equal(b, expected)


def _wide_solve(lam, f, model, grid):
    return mp.resolvent_nd(lam, f, model, grid)


def _wide_march(lam, f, model, grid):
    # 256 x 257 x 4 entries of work: below _SPLIT_WORK, one range here
    return evolve(f, None, model, grid, "crank_nicolson",
                  np.linspace(0.0, 0.1, 5), stride=4)


def _two_range_march(lam, f, model, grid):
    # two cores reported and every Thomas batch split: this process marches
    # the first of two ranges, a forked child the second
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sg, "_SPLIT_WORK", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        return _wide_march(lam, f, model, grid)


@pytest.mark.parametrize("run,fields", [
    # the plan's sup, multipliers and inverse pivots, the coefficients and
    # the solution (9.2 fields before the plan dropped sub and diag)
    (_wide_solve, 6.5),
    # the plan's three, the march's sub and diag, the coefficients (its uh),
    # rhs and F u and the kept state; snapshot 0 is f's own array (9.5
    # measured)
    (_wide_march, 10.25),
    # both ranges' factors and the coefficients up to the fork, then this
    # range's factors, sub, diag, uh, rhs and F u; tracemalloc traces
    # neither the kept state's shared mapping nor the child (4.5 measured)
    (_two_range_march, 5.0),
])
def test_wide_solves_hold_the_planned_fields(run, fields):
    # 256 modes on the Thomas path at J = 256: 1 MiB per field, and block
    # scratch of 16 384 entries is a quarter field a buffer; tracemalloc
    # traces numpy's data
    model = ModelParams([0.3, -0.2], 0.5, 1.0, 0.5, 2.0)
    grid = make_grid(256, 1.0, 2.0, XBox(2.0 * np.pi, 16, 2))
    rng = np.random.default_rng(2)
    f = Field(rng.standard_normal(grid.shape)
              + 1j * rng.standard_normal(grid.shape), grid)
    tracemalloc.start()
    try:
        run(3.0 + 1.0j, f, model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= fields * f.values.nbytes


def test_from_modes_is_c_ordered_for_any_layout():
    # a field's norm sums by its layout, so both layouts give the same bytes
    model, grid, f, lams = _readme_case(nx=4)
    plan = mp.FrequencySolvePlan(lams[1], model, grid)
    modes = plan._to_modes(f)
    vals = [plan._from_modes(np.array(modes, order=o)) for o in "CF"]
    assert all(v.flags.c_contiguous for v in vals)
    assert np.array_equal(vals[0], vals[1])


def _check_crank_nicolson_against_mode_loop(nx):
    model, grid, f, _ = _readme_case(nx=nx)
    steps, t_final = 10, 0.05
    lam = 2.0 * steps / t_final
    run = evolve(Field(f, grid), None, model, grid, "crank_nicolson",
                 np.linspace(0.0, t_final, steps + 1))

    def cn(ops, s, k2, uk):
        for _ in range(steps):
            uk = ops.solve(s, k2, lam, lam * uk + ops.apply(s, k2, uk))
        return uk

    ref = _mode_loop(model, grid, f, cn)
    assert _rel(run.final.values, ref) <= 1e-12


def test_batched_plan_crank_nicolson_matches_mode_loop():
    _check_crank_nicolson_against_mode_loop(8)


def test_stacked_plan_crank_nicolson_matches_mode_loop():
    _check_crank_nicolson_against_mode_loop(4)


@pytest.mark.parametrize("lam", [complex(np.nan, 0.0), complex(np.inf, 1.0)])
def test_batched_plan_rejects_blown_up_pivots(lam):
    model, grid, _, _ = _readme_case()
    with pytest.raises(RuntimeError, match="xi="):
        mp.FrequencySolvePlan(lam, model, grid)


@pytest.mark.parametrize("nx", [4, 16])
def test_plan_names_the_xi_of_a_failing_mode(monkeypatch, nx):
    # 16 modes factor as one stacked gttrf, 256 by the Thomas sweep
    model, grid, _, _ = _readme_case(J=32, nx=nx)
    form = mp.ModeOperators.form
    bad = 11

    def nan_mode(self, s, k2):
        # a NaN |xi|^2 makes the diag of mode `bad` NaN; the wide form
        # stores no diag band, so the NaN goes in through its k2
        k2 = np.array(k2)
        k2[bad] = np.nan
        return form(self, s, k2)

    xi = mp.xi_lattice(grid.x_box).reshape(-1, model.dim)[bad]
    monkeypatch.setattr(mp.ModeOperators, "form", nan_mode)
    with pytest.raises(RuntimeError, match=re.escape("xi=%r" % (xi,))):
        mp.FrequencySolvePlan(2.0, model, grid)


def test_xi_derivative_first_and_second_order():
    model2 = ModelParams([0.3, 0.2], 0.5, 1.0, 0.5, 2.0)
    g = make_grid(128, 1.0, 2.0)
    rep1 = mp.xi_derivative_check(1.0, model2, g, order=1)
    assert rep1["order"] >= 1.9
    assert rep1["errors"][-1] < rep1["errors"][0]
    rep2 = mp.xi_derivative_check(1.0, model2, g, order=2)
    assert rep2["order"] >= 1.9


def test_mikhlin_scan_deterministic_and_bounded():
    g = make_grid(96, 1.0, 2.0)
    lams = (1.0, 1.0 + 2.0j)
    xis = ((1.0,), (4.0,))
    rep = mp.mikhlin_bound_scan(lams, xis, MODEL, g)
    again = mp.mikhlin_bound_scan(lams, xis, MODEL, g)
    assert rep["suprema"] == again["suprema"]
    assert rep["table"] == again["table"]
    for family, sup in rep["suprema"].items():
        assert 0.0 < sup < 10.0
    # every (family, beta, lam, xi) cell is present
    assert len(rep["table"]) == 3 * 2 * len(lams) * len(xis)


def _dense_mikhlin_table(lams, xis, model, grid):
    """The scan by dense J x J products and a full SVD, cell by cell."""
    ops = mp.ModeOperators(grid, model.c_bessel, model.alpha)
    a, n = model.mixing, model.dim
    sqw = np.sqrt(mp.node_weights(grid, model.m))
    grad = ops.grad_term(np.eye(ops.size))
    ya = np.diag(ops.y_alpha.astype(complex))
    eye = np.eye(ops.size, dtype=complex)
    zero = np.zeros_like(eye)
    table = {}
    for lam in lams:
        for xi in xis:
            xi = np.asarray(xi, dtype=float)
            k2 = float(xi @ xi)
            R = ops.form(float(a @ xi), k2).factor(lam).solve(
                np.diag(ops.weight.astype(complex)))
            A = [2j * a[j] * grad - 2.0 * xi[j] * ya for j in range(n)]
            RA = [R @ A[j] @ R for j in range(n)]
            for family, S, dS in (
                    ("scaled", lam * eye, [zero] * n),
                    ("potential", k2 * ya, [2.0 * xi[j] * ya
                                            for j in range(n)]),
                    ("gradient", xi[0] * grad, [grad if j == 0 else zero
                                                for j in range(n)])):
                for beta in np.ndindex(*([2] * n)):
                    idx = [j for j in range(n) if beta[j]]
                    pref = float(np.prod([xi[j] for j in idx]))
                    if not idx:
                        T = S @ R
                    elif len(idx) == 1:
                        T = dS[idx[0]] @ R + S @ RA[idx[0]]
                    else:
                        j, l = idx
                        T = (dS[j] @ RA[l] + dS[l] @ RA[j]
                             + S @ (RA[j] @ A[l] @ R + RA[l] @ A[j] @ R))
                    scaled = sqw[:, None] * (pref * T) / sqw[None, :]
                    table[(family, tuple(beta), complex(lam), tuple(xi))] = \
                        np.linalg.svd(scaled, compute_uv=False)[0]
    return table


@pytest.mark.parametrize("J", [64, 128])
@pytest.mark.parametrize("model,xis", [
    (ModelParams([0.4], 0.5, 1.0, 0.2, 2.0), ((0.7,), (3.0,), (-1.5,))),
    (ModelParams([0.3, -0.2], 0.5, 1.0, 0.2, 2.0),
     ((1.0, 1.0), (2.0, -3.0), (0.0, 0.5))),
], ids=["1d", "2d"])
def test_mikhlin_scan_matches_dense_svd_oracle(J, model, xis):
    g = make_grid(J, 1.0, 2.0)
    lams = (0.5, 2.0 + 1.0j)
    rep = mp.mikhlin_bound_scan(lams, xis, model, g)
    oracle = _dense_mikhlin_table(lams, xis, model, g)
    assert rep["table"].keys() == oracle.keys()
    for key, exact in oracle.items():
        assert rep["table"][key] == pytest.approx(exact, rel=1e-12), key


def test_mikhlin_scan_guards():
    g = make_grid(32, 1.0, 2.0)
    model3 = ModelParams([0.3, 0.2, 0.1], 0.5, 1.0, 0.5, 2.0)
    with pytest.raises(ValueError, match="N <= 2"):
        mp.mikhlin_bound_scan((1.0,), ((1.0, 1.0, 1.0),), model3, g)
    with pytest.raises(ValueError, match="unknown family"):
        mp.mikhlin_bound_scan((1.0,), ((1.0,),), MODEL, g,
                              families=("smoothed",))


def test_reduction_consistency_decays_under_refinement():
    spec = OperatorSpec(q_matrix=np.array([[2.0]]),
                        q_vector=np.array([0.4]), gamma=1.0,
                        drift_b=np.array([0.0]), drift_c=1.0,
                        alpha1=-0.5, alpha2=0.5)
    space = SpaceSpec(2.0, 0.2)
    errs = [mp.reduction_consistency_check(spec, space, 1.5,
                                           _nd_grid(J, nx=8))
            for J in (64, 128)]
    assert errs[1] < 0.5 * errs[0]
    assert errs[1] < 1e-3


def test_general_mode_solve_drift_phase_orientation():
    # with b != 0 the reduced route conjugates by exp(+i xi (b/c) y) on the
    # data; agreement with the direct discretization pins the orientation
    spec = OperatorSpec(q_matrix=np.array([[1.0]]),
                        q_vector=np.array([0.3]), gamma=1.0,
                        drift_b=np.array([0.5]), drift_c=1.0,
                        alpha1=0.0, alpha2=0.0)
    space = SpaceSpec(2.0, 0.2)
    errs = [mp.reduction_consistency_check(spec, space, 1.5,
                                           _nd_grid(J, nx=8))
            for J in (64, 128)]
    assert errs[1] < 0.6 * errs[0]
    assert errs[1] < 5e-3
