"""Estimate-verification suite: every quantitative bound gets a falsifiable check.

The proved results are qualitative (existence of constants), so "pass" for a
non-explicit constant means: refinement_study finds it finite at every level
with a drift below DRIFT_TOL (20%), or decay_order finds a discretization
defect decaying at order >= 0.9, and the companion out-of-window negative
control does NOT stay bounded; case_study runs one refinement_study per
case of a check and builds its CSV rows, and these three are the only
refinement logic.  Exactly representable identities (parameter calculus,
two solve routes of the same tridiagonal system, a backward Euler step vs
the resolvent) are held to solver round-off instead.

A REGISTRY row (estimate id, check, suite, levels) names the one suite
running the check and the ladder it refines over, () for a check at fixed
sizes; SUITES is derived from the rows.  A check is check(seed, levels)
and returns its EstimateResult (verdict, constant, drift, CSV rows and
header, detail); _run_check adds the row's id and levels and the check's
time, also to the failed result of a check that raises.
Every draw is seeded: parameter_roundtrip, resolvent_two_route_identity,
nd_mode_vs_monolithic and apriori_regularity_fit draw from _rng_for(their
id, seed), the other drawing checks from the suite seed alone.  No check
reads another's state, so run_suite runs them on every usable core, one
forked worker per core, and collects the results in registry order; they
serialize to one CSV per estimate plus a summary CSV (estimate_id, pass,
constant, drift), byte-identical to a run in one process.
Out-of-window behavior is probed by exact, matrix-free operator norms
(bessel1d.operator_norm) of the scaled multiplier family on one Fourier
mode: a window violation concentrates on the smallest graded cells, so the
norm grows under refinement once (m+1)/p leaves the admissible range.
"""

import concurrent.futures
import ctypes
import hashlib
import multiprocessing
import numbers
import os
import time

import numpy as np
import scipy

from . import bessel1d, panels, semigroup, transforms
from .bessel1d import (ModeOperators, assemble_form, expm_kernel,
                       sector_angle, sector_resolvent_scan, bessel_kernel_fit,
                       model_kernel_fit, semigroup_domination_check,
                       two_route_resolvent, interpolation_constant,
                       resolvent_pair)
from .grid import (XBox, Field, make_grid, lp_norm, default_grading,
                   usable_cores)
from .multiplier import (resolvent_nd, derived_multipliers,
                         sum_identity_residual, monolithic_sparse_solve,
                         xi_derivative_check, mikhlin_bound_scan,
                         reduction_consistency_check)
from .params import (OperatorSpec, SpaceSpec, ModelParams, beta_map,
                     invert_beta, compose_beta, shear_map)
from .transforms import apply_power, apply_phase, apply_shear


FMT = "%.17g"
DRIFT_TOL = 0.2     # refinement drift below which a constant counts as stable
KERNEL_T = 0.02     # semigroup time of the Gaussian kernel fits


class EstimateResult:
    """Outcome of one registered check; _run_check sets its estimate_id and
    levels from the check's REGISTRY row.  `passed` must be a bool."""

    def __init__(self, passed, constant=float("nan"), drift=float("nan"),
                 rows=None, header=None, detail=None, error=""):
        if not isinstance(passed, (bool, np.bool_)):
            raise TypeError("passed must be a bool, got %r" % (passed,))
        self.estimate_id = ""
        self.levels = []
        self.passed = bool(passed)
        self.constant = float(constant)
        self.drift = float(drift)
        self.rows = rows or []
        self.header = header or ()
        self.detail = detail or {}
        self.error = error
        self.csv_path = ""
        self.seconds = float("nan")   # wall time where the check ran

    def __repr__(self):
        return ("EstimateResult(%s, passed=%s, constant=%g, drift=%g)"
                % (self.estimate_id, self.passed, self.constant, self.drift))


def _rng_for(estimate_id, seed):
    digest = hashlib.sha256(estimate_id.encode()).digest()
    base = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([base, seed]))


# ---------------------------------------------------------------------------
# refinement studies


def refinement_study(levels, measure):
    """Run `measure(level)` for each level, coarse to fine.

    Returns (values, drift): the measured values as Python floats (a tuple
    of floats per level when `measure` returns several components), and the
    worst relative drift |last - first| / |first| over the components, inf
    when any level's value is not finite.  A component that is 0 at the
    first level has no relative drift (nan, or inf if it moves), which no
    drift rule passes.
    """
    values = []
    for level in levels:
        v = measure(level)
        values.append(tuple(map(float, v)) if np.ndim(v) else float(v))
    arr = np.array(values, dtype=float)
    if not np.isfinite(arr).all():
        return values, float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.abs(arr[-1] - arr[0]) / np.abs(arr[0])
    return values, float(np.max(drift))


def case_study(cases, levels, measure):
    """refinement_study(levels, lambda lv: measure(*case, lv)) per case tuple.

    Returns (rows, studies): the rows case + (level,) + values, cases in
    order and levels coarse to fine, and each case's (values, drift).
    """
    rows, studies = [], []
    for case in cases:
        values, drift = refinement_study(levels, lambda lv: measure(*case, lv))
        rows.extend(case + (lv,) + (v if isinstance(v, tuple) else (v,))
                    for lv, v in zip(levels, values))
        studies.append((values, drift))
    return rows, studies


def decay_order(levels, errors):
    """Least-squares slope of log error against log (1/level); inf when
    every error is below 1e-13 (exact up to rounding)."""
    er = np.asarray(errors, dtype=float)
    if np.all(er < 1e-13):
        return float("inf")
    slope = np.polyfit(np.log(np.asarray(levels, dtype=float)),
                       np.log(np.maximum(er, 1e-300)), 1)[0]
    return float(-slope)


# ---------------------------------------------------------------------------
# square functions


def square_function_ratio(family, n, trials, p, m, grid, profiles, seed=0):
    """max over trials of |(sum |S_i f_i|^2)^(1/2)|_pm / |(sum |f_i|^2)^(1/2)|_pm.

    `family(rng)` draws one operator (a callable on vertical profiles); n
    operators and n fields, random combinations of the dictionary
    `profiles` (a list of node arrays), are drawn per trial.  The returned
    max is an empirical lower bound for the R-constant of the family and,
    when stable in n and trials, its practical estimate.
    """
    if n > 32:
        raise ValueError("n <= 32")
    if trials > 200:
        raise ValueError("trials <= 200")
    rng = np.random.default_rng(seed)

    def draw_field():
        coef = rng.standard_normal(len(profiles)) \
            + 1j * rng.standard_normal(len(profiles))
        return sum(cc * pp for cc, pp in zip(coef, profiles))

    probe_dens = [lp_norm(np.abs(f), p, m, grid) for f in profiles]
    # dictionary pair ratio of each drawn operator: it depends only on the
    # operator, so a family that draws the same callable again reuses it
    pair_worst = {}
    worst = 0.0
    for _ in range(trials):
        ops = [family(rng) for _ in range(n)]
        fs = [draw_field() for _ in range(n)]
        outs = [S(f) for S, f in zip(ops, fs)]
        sq_in = np.sqrt(sum(np.abs(f) ** 2 for f in fs))
        sq_out = np.sqrt(sum(np.abs(g) ** 2 for g in outs))
        num = lp_norm(sq_out, p, m, grid)
        den = lp_norm(sq_in, p, m, grid)
        if den > 0:
            worst = max(worst, float(num / den))
        # zero-padded allocations (mass on one pair) are square-function
        # configurations too and attain the sup for this functional; probe
        # every dictionary element so the pair ratio is deterministic given
        # the drawn operator
        for S in ops:
            if S not in pair_worst:
                pair_worst[S] = max([0.0] + [
                    float(lp_norm(np.abs(S(f)), p, m, grid) / d)
                    for f, d in zip(profiles, probe_dens) if d > 0])
            worst = max(worst, pair_worst[S])
    return worst


def _sector_lattice(mixing_norm):
    """The 24 lam of resolvent_family: 6 log-spaced moduli in [0.1, 10]
    times 4 spread angles in [-(pi/2 + phi), pi/2 + phi]."""
    psi = np.pi / 2.0 - sector_angle(mixing_norm)
    phi = max(0.05, 0.5 * (np.pi / 2.0 - psi) - 0.075)
    mods = np.exp(np.linspace(np.log(0.1), np.log(10.0), 6))
    angs = np.linspace(-(np.pi / 2 + phi), np.pi / 2 + phi, 4)
    return [mod * np.exp(1j * ang) for mod in mods for ang in angs]


def _scaled_resolvent(form, lam):
    """f -> lam (lam W + F)^(-1) W f from one factorisation of lam W + F."""
    apply = resolvent_pair(form, lam)[0]
    return lambda f: lam * apply(f)


def resolvent_family(ops, mixing_norm):
    """Sampler of S = lam (lam - M(xi))^(-1) at xi = 1 with lam in a sector
    beyond the right half-plane (half-angle pi/2 + phi, phi inside the
    analyticity margin).  lam is drawn from a fixed 24-point sector lattice
    (6 log-spaced moduli in [0.1, 10] x 4 spread angles) so the empirical
    sup saturates instead of creeping with the number of draws.

    The xi = 1 form is assembled once and factored once per lattice point:
    draw(rng) returns that point's member, the same callable whenever the
    point is drawn, and a member computes lam * ops.solve(mixing_norm, 1,
    lam, f) bit for bit."""
    form = ops.form(mixing_norm, 1.0)
    members = [_scaled_resolvent(form, lam)
               for lam in _sector_lattice(mixing_norm)]

    def draw(rng):
        return members[rng.integers(len(members))]

    return draw


# ---------------------------------------------------------------------------
# individual checks


def _check_parameter_roundtrip(seed, levels):
    rng = _rng_for("parameter_roundtrip", seed)
    worst = 0.0
    for _ in range(1000):
        beta = rng.uniform(-0.9, 3.0)
        beta2 = rng.uniform(-0.9, 3.0)
        a1 = rng.uniform(-2.0, 1.5)
        a2 = rng.uniform(-1.0, 1.9)
        c = rng.uniform(-0.9, 3.0)
        m = rng.uniform(-1.0, 2.0)
        # a draw of p, which beta_map does not read: it fixes the stream
        # position, and so the values, of every later draw
        rng.uniform(1.1, 5.0)
        fwd = beta_map(beta, a1, a2, c, m)
        back = beta_map(invert_beta(beta), *fwd)
        for got, want in zip(back, (a1, a2, c, m)):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        two_step = beta_map(beta2, *fwd)
        comp = beta_map(compose_beta(beta, beta2), a1, a2, c, m)
        for got, want in zip(two_step, comp):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    # shear exactness against the congruence oracle A M A^T
    for _ in range(100):
        R = rng.standard_normal((3, 3))
        M = R @ R.T + 0.1 * np.eye(3)
        cdrift = rng.uniform(0.2, 2.0)
        spec = OperatorSpec(q_matrix=M[:2, :2], q_vector=M[:2, 2],
                            gamma=float(M[2, 2]),
                            drift_b=rng.standard_normal(2), drift_c=cdrift,
                            alpha1=0.0, alpha2=0.0)
        sheared = shear_map(spec)
        A = np.eye(3)
        A[:2, 2] = -spec.drift_b / cdrift
        Mt = A @ np.block([[spec.q_matrix, spec.q_vector[:, None]],
                           [spec.q_vector[None, :],
                            np.array([[spec.gamma]])]]) @ A.T
        worst = max(worst, float(np.abs(Mt[:2, :2] - sheared.q_matrix).max()))
        worst = max(worst, float(np.abs(Mt[:2, 2] - sheared.q_vector).max()))
        worst = max(worst, abs(Mt[2, 2] - sheared.gamma))
    # window membership is invariant under the vertical power map
    for _ in range(200):
        beta = rng.uniform(-0.8, 2.0)
        a1 = rng.uniform(-1.5, 1.2)
        a2 = rng.uniform(-1.0, 1.8)
        c = rng.uniform(-0.5, 3.0)
        m = rng.uniform(-1.0, 2.0)
        p = rng.uniform(1.2, 4.0)
        v0 = (m + 1.0) / p
        in0 = max(0.0, -a1) < v0 < c + 1.0 - a2
        t1, t2, tc, tm = beta_map(beta, a1, a2, c, m)
        v1 = (tm + 1.0) / p
        in1 = max(0.0, -t1) < v1 < tc + 1.0 - t2
        if in0 != in1:
            worst = max(worst, 1.0)
    return EstimateResult(worst < 1e-12, worst, 0.0,
                          [("max_rel_error", worst)], ("quantity", "value"))


def _check_transform_isometries(seed, levels):
    grid = make_grid(256, 1.0, 2.0)
    profs = panels.vertical_panel(1.0, count=10, kind="mixed")
    p, m = 2.7, 0.4
    worst_pow = 0.0
    for beta in (0.5, -0.4, 1.3):
        # image-side exponent: the power map sends it back to m
        m_t = beta_map(invert_beta(beta), 0.0, 0.0, 0.0, m)[3]
        for prof in profs:
            u = Field(prof(grid.y_nodes).astype(complex), grid)
            img = apply_power(u, beta, p)
            n0 = lp_norm(u.values, p, m, grid)
            n1 = lp_norm(img.values, p, m_t, img.grid)
            worst_pow = max(worst_pow, abs(n1 - n0) / n0)
    worst_ph = 0.0
    for prof in profs:
        u = Field(prof(grid.y_nodes).astype(complex), grid)
        img = apply_phase(u, 0.7, 1.5)
        n0 = lp_norm(u.values, 3.1, m, grid)
        n1 = lp_norm(img.values, 3.1, m, grid)
        worst_ph = max(worst_ph, abs(n1 - n0) / n0)
    box = XBox(2.0 * np.pi, 32, 1)
    g2 = make_grid(128, 1.0, 2.0, box)
    wave = panels.plane_wave(box, [3])
    worst_sh = 0.0
    for prof in profs[:4]:
        vals = panels.tensor_values(g2, wave, prof)
        u = Field(vals, g2)
        img = apply_shear(u, [0.6])
        n0 = lp_norm(u.values, 2.0, m, g2)
        n1 = lp_norm(img.values, 2.0, m, g2)
        worst_sh = max(worst_sh, abs(n1 - n0) / n0)
    passed = worst_pow <= 1e-3 and worst_ph <= 1e-13 and worst_sh <= 1e-12
    rows = [("power", worst_pow), ("phase", worst_ph), ("shear", worst_sh)]
    return EstimateResult(passed, worst_pow, 0.0, rows,
                          ("map", "norm_mismatch"), dict(rows))


def _check_power_similarity(seed, levels):
    cases = [(0.0, 1.0, 1.0, 0.0), (-0.5, 0.5, 1.2, 0.3), (0.5, 1.2, 0.9, 0.0)]
    rows, orders, coeffs = [], [], []
    for (a1, a2, c, qm) in cases:
        values, _ = refinement_study(levels, lambda J: (
            transforms.similarity_check_power(a1, a2, c, J, q_mixed=qm)))
        errors = [e for e, _ in values]
        orders.append(decay_order(levels, errors))
        coeffs.append(max(cc for _, cc in values))
        rows.extend((a1, a2, c, J, e) for J, e in zip(levels, errors))
    # coefficient identification is itself a discretized fit, so the
    # agreement is convergent rather than exact
    passed = all(o >= 0.9 for o in orders) and all(cc < 0.02 for cc in coeffs)
    return EstimateResult(passed, max(coeffs), min(orders), rows,
                          ("alpha1", "alpha2", "c", "J", "error"),
                          {"orders": orders, "cases": cases})


def _check_model_equivalence_1d(seed, levels):
    cases = [(0.5, 1.0, 0.4, 1.0), (-0.5, 0.8, 0.7, 2.0), (1.0, 1.5, 0.3, 1.0)]
    rows, studies = case_study(cases, levels,
                               bessel1d.equivalence_transform_check)
    orders = [decay_order(levels, errors) for errors, _ in studies]
    return EstimateResult(
        all(o >= 0.9 for o in orders), max(r[-1] for r in rows), min(orders),
        rows, ("alpha", "c", "mixing_freq", "freq_norm2", "J", "error"),
        {"orders": orders})


def _check_selfadjoint_spectrum(seed, levels):
    def measure(c, alpha, J):
        op = assemble_form(make_grid(J, 1.0, 2.0), "model_mode", c=c,
                           alpha=alpha, mixing_freq=0.0, freq_norm2=1.0)
        d, e, _ = op.symmetric_bands()
        evs = scipy.linalg.eigh_tridiagonal(d.real, e.real,
                                            eigvals_only=True)
        return op.hermitian_defect(), evs.min()

    rows, _ = case_study([(0.0, 0.0), (1.0, 0.5), (2.0, -0.5)], levels,
                         measure)
    worst_h = max(r[3] for r in rows)
    worst_neg = max([0.0] + [-r[4] for r in rows])
    return EstimateResult(
        worst_h <= 1e-10 and worst_neg <= 1e-8, worst_h, 0.0, rows,
        ("c", "alpha", "J", "hermitian_defect", "min_eig"),
        {"hermitian_defect": worst_h, "spectrum_min": -worst_neg})


def _check_sector_resolvent(seed, levels):
    def measure(amod, J):
        op = assemble_form(make_grid(J, 1.0, 2.0), "model_mode", c=1.0,
                           alpha=0.5, mixing_freq=amod, freq_norm2=1.0)
        scan = sector_resolvent_scan(op, amod)
        return scan["sup"], scan["angle"]

    # the half-angle depends on the mixing alone, so it adds no drift
    rows, studies = case_study([(0.0,), (0.3,), (0.7,)], levels, measure)
    worst = max(sup for _, _, sup, _ in rows)
    drift = max(d for _, d in studies)
    return EstimateResult(worst <= 4.0 and drift < DRIFT_TOL, worst, drift,
                          rows, ("mixing", "J", "sup", "half_angle"))


def _kernel_fit_result(cases, fit, header, levels):
    """Gaussian kernel fits (C, kappa) = fit(*case, J) at each level J."""
    rows, studies = case_study(cases, levels, fit)
    drift = max(d for _, d in studies)
    return EstimateResult(drift < DRIFT_TOL,
                          max(values[-1][0] for values, _ in studies), drift,
                          rows, header)


def _check_kernel_bessel(seed, levels):
    def fit(c, J):
        op = assemble_form(make_grid(J, 1.0, 2.0), "bessel", c=c)
        rep = bessel_kernel_fit(expm_kernel(op, KERNEL_T), c, KERNEL_T)
        return rep["C"], rep["kappa"]

    cases = [(0.0,), (0.5,), (1.0,), (2.0,), (-0.5,), (1.5,)]
    return _kernel_fit_result(cases, fit, ("c", "J", "C", "kappa"), levels)


def _check_kernel_model(seed, levels):
    def fit(c, alpha, J):
        grid = make_grid(J, 1.0, default_grading(alpha))
        op = assemble_form(grid, "model_mode", c=c, alpha=alpha,
                           mixing_freq=0.0, freq_norm2=0.0)
        rep = model_kernel_fit(expm_kernel(op, KERNEL_T), c, alpha,
                               KERNEL_T)
        return rep["C"], rep["kappa"]

    return _kernel_fit_result([(1.0, 0.5), (0.5, -0.5)], fit,
                              ("c", "alpha", "J", "C", "kappa"), levels)


def _check_kernel_domination(seed, levels):
    cases = [(1.0, 0.0, 0.5), (0.5, 0.3, 0.4), (2.0, -0.2, 0.8),
             (1.0, 0.5, 1.0), (0.3, 0.0, 1.2), (1.5, 0.8, 0.6)]

    def measure(c, beta, b, J):
        rep = semigroup_domination_check(make_grid(J, 1.0, 2.0), c, beta, b,
                                         0.5, 0.05)
        return rep["field_excess"], rep["kernel_excess"]

    rows, studies = case_study(cases, levels, measure)
    # (coarse excess, fine excess) of each case and component
    pairs = [pair for (start, final), _ in studies
             for pair in zip(start, final)]
    # only the positive part violates domination; negative excess means the
    # bound holds with margin
    passed = all(max(hi, 0.0) <= 0.05 and max(hi, 0.0) <= max(lo, 0.0) + 1e-9
                 for lo, hi in pairs)
    return EstimateResult(
        passed, max(hi for _, hi in pairs),    # < 0: margin at the finest J
        max(hi - lo for lo, hi in pairs), rows,
        ("c", "beta", "b", "J", "field_excess", "kernel_excess"),
        {"cases": cases})


def _check_two_route(seed, levels):
    grid = make_grid(256, 1.0, 2.0)
    rng = _rng_for("resolvent_two_route_identity", seed)
    profs = panels.vertical_panel(1.0, count=3, rng=rng)
    rows = []
    for alpha in (-0.5, 0.0, 0.5, 1.0):
        for lam in (0.1, 1.0, 10.0):
            case = 0.0
            for prof in profs:
                f = prof(grid.y_nodes).astype(complex)
                u1, u2 = two_route_resolvent(grid, alpha, 1.0, 0.3, 1.0,
                                             lam, f)
                num = lp_norm(u1 - u2, 2.0, 1.0 - alpha, grid)
                den = lp_norm(u1, 2.0, 1.0 - alpha, grid)
                case = max(case, float(num / max(den, 1e-300)))
            rows.append((alpha, lam, case))
    worst = max(r[-1] for r in rows)
    return EstimateResult(worst <= 1e-12, worst, 0.0, rows,
                          ("alpha", "lam", "max_rel_diff"))


def _check_mode_vs_monolithic(seed, levels):
    rng = _rng_for("nd_mode_vs_monolithic", seed)
    model = ModelParams(np.array([0.3]), 0.5, 1.0, 0.2, 2.0)
    box = XBox(2.0 * np.pi, 32, 1)
    grid = make_grid(128, 1.0, 2.0, box)
    prof = panels.bump_profile(0.35, 0.15)
    wave = panels.plane_wave(box, [2])
    base = panels.tensor_values(grid, wave, prof)
    noise = rng.standard_normal(grid.shape) * prof(grid.y_nodes)[None, :]
    f = Field(base + 0.3 * noise, grid)
    lam = 1.0 + 0.5j
    u1 = resolvent_nd(lam, f, model, grid)
    u2 = monolithic_sparse_solve(lam, f, model, grid)
    num = lp_norm(u1.values - u2.values, 2.0, model.m, grid)
    den = lp_norm(u2.values, 2.0, model.m, grid)
    diff = float(num / den)
    return EstimateResult(diff <= 1e-8, diff, 0.0, [("rel_diff", diff)],
                          ("quantity", "value"),
                          {"Nx": box.num_points, "J": grid.num_y})


def manufactured_mode_case(model, grid, lam, k_mode, center=0.45, width=0.18):
    """Closed-form (u, f) pair for the model operator on one x-mode.

    The x-part is the plane wave with mode k_mode along every axis, so the
    frequency vector is xi = (2 pi k/L)(1, ..., 1) and the y-part solves the
    frozen 1-d equation at s = a . xi, k2 = |xi|^2.
    """
    box = grid.x_box
    xi1 = 2.0 * np.pi * k_mode / box.length
    s = xi1 * float(np.sum(model.mixing))
    k2 = box.dim * xi1 * xi1
    prof = panels.bump_profile(center * grid.y_max, width * grid.y_max)
    y = grid.y_nodes
    v, dv, d2v = prof(y), prof.d1(y), prof.d2(y)
    c = model.c_bessel
    alpha = model.alpha
    lv = y ** alpha * (d2v + (c / y) * dv + 2j * s * dv - k2 * v)
    ph1 = np.exp(1j * xi1 * box.nodes())
    phase = ph1
    for _ in range(box.dim - 1):
        phase = phase[..., None] * ph1
    u = phase[..., None] * v
    f = phase[..., None] * (lam * v - lv)
    return Field(u, grid), Field(f, grid)


def _check_manufactured(seed, levels):
    model = ModelParams(np.array([0.4]), 0.5, 1.2, 0.3, 2.0)
    box = XBox(2.0 * np.pi, 8, 1)
    lam = 2.0

    def measure(J):
        grid = make_grid(J, 1.0, 2.0, box)
        u_ex, f = manufactured_mode_case(model, grid, lam, 2)
        u = resolvent_nd(lam, f, model, grid)
        return (lp_norm(u.values - u_ex.values, 2.0, model.m, grid)
                / lp_norm(u_ex.values, 2.0, model.m, grid))

    errs, _ = refinement_study(levels, measure)
    order = float(np.log(errs[0] / errs[-1]) / np.log(levels[-1] / levels[0]))
    gmid = make_grid(levels[1], 1.0, 2.0, box)
    _, fmid = manufactured_mode_case(model, gmid, lam, 2)
    ident = sum_identity_residual(lam, fmid, model, gmid)
    # x-side Parseval: quadrature norm vs frequency-side norm
    vals = fmid.values
    fh = np.fft.fft(vals, axis=0) / vals.shape[0]
    par_freq = np.sqrt(box.length * sum(lp_norm(row, 2.0, 0.0, gmid) ** 2
                                        for row in fh))
    par_grid = lp_norm(vals, 2.0, 0.0, gmid)
    parseval = abs(par_freq - par_grid) / par_grid
    passed = order >= 0.9 and ident <= 1e-8 and parseval <= 1e-12
    return EstimateResult(passed, errs[-1], order, list(zip(levels, errs)),
                          ("J", "error"),
                          {"order": order, "sum_identity": ident})


def _apriori_constant(model, grid, rng):
    worst = 0.0
    profs = panels.vertical_panel(grid.y_max, count=6, rng=rng)
    box = grid.x_box
    for i, prof in enumerate(profs):
        wave = panels.plane_wave(box, [1 + (i % 3)])
        f = Field(panels.tensor_values(grid, wave, prof), grid)
        d = derived_multipliers(1.0, f, model, grid)
        total = (lp_norm(d["x_laplacian"].values, model.p, model.m, grid)
                 + sum(lp_norm(gj.values, model.p, model.m, grid)
                       for gj in d["mixed_gradients"])
                 + lp_norm(d["bessel"].values, model.p, model.m, grid)
                 + lp_norm(d["y_gradient"].values / grid.y_nodes,
                           model.p, model.m, grid))
        den = lp_norm(f.values, model.p, model.m, grid)
        worst = max(worst, float(total / den))
    return worst


def _check_apriori_fit(seed, levels):
    rng = _rng_for("apriori_regularity_fit", seed)
    model = ModelParams(np.array([0.3]), 0.5, 1.0, 0.2, 2.0)
    box = XBox(2.0 * np.pi, 8, 1)
    consts, drift = refinement_study(levels, lambda J: _apriori_constant(
        model, make_grid(J, 1.0, 2.0, box), rng))
    # the exact sup of || |xi|^2 y^a R(lam) || and its xi-derivative term
    # over xi = 2^k, k = -3..6, on the check's own model
    scan = mikhlin_bound_scan(
        (0.1, 1.0, 10.0), [(2.0 ** k,) for k in range(-3, 7)], model,
        make_grid(levels[-1], 1.0, default_grading(0.5)),
        families=("potential",))
    passed = drift < DRIFT_TOL and np.isfinite(scan["suprema"]["potential"])
    return EstimateResult(passed, consts[-1], drift,
                          list(zip(levels, consts)), ("J", "constant"))


def _check_interpolation_fit(seed, levels):
    consts, drift = refinement_study(levels, lambda J: interpolation_constant(
        0.5, 1.0, 2.4, 0.3, J))
    return EstimateResult(drift < DRIFT_TOL, consts[-1], drift,
                          list(zip(levels, consts)), ("J", "constant"))


def _check_xi_derivative(seed, levels):
    grid = make_grid(192, 1.0, 2.0)
    m1 = ModelParams(np.array([0.4]), 0.5, 1.0, 0.2, 2.0)
    r1 = xi_derivative_check(1.2 + 0.3j, m1, grid, order=1, base_xi=[1.1])
    m2 = ModelParams(np.array([0.3, -0.2]), 0.5, 1.0, 0.2, 2.0)
    r2 = xi_derivative_check(1.2 + 0.3j, m2, grid, order=2,
                             base_xi=[0.9, 1.3])
    passed = r1["order"] >= 1.9 and r2["order"] >= 1.9
    rows = [(1, r1["errors"][0], r1["errors"][-1], r1["order"]),
            (2, r2["errors"][0], r2["errors"][-1], r2["order"])]
    return EstimateResult(passed, max(r1["errors"][-1], r2["errors"][-1]),
                          min(r1["order"], r2["order"]), rows,
                          ("n", "err_h", "err_h2", "order"))


def _check_mikhlin_scan(seed, levels):
    m1 = ModelParams(np.array([0.4]), 0.5, 1.0, 0.2, 2.0)
    lam_set = (0.5, 2.0)
    xi_set = ((0.7,), (3.0,), (-1.5,))
    sups = {}
    rows = []

    def measure(J):
        rep = mikhlin_bound_scan(lam_set, xi_set, m1, make_grid(J, 1.0, 2.0))
        sups[J] = rep["suprema"]
        cells = sorted(rep["table"].items(),
                       key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].real,
                                       kv[0][2].imag, kv[0][3]))
        for (family, beta, lam, xi), est in cells:
            rows.append((family, "".join(map(str, beta)), lam.real, xi[0],
                         J, est))
        return list(rep["suprema"].values())

    _, drift = refinement_study(levels, measure)
    m2 = ModelParams(np.array([0.3, -0.2]), 0.5, 1.0, 0.2, 2.0)
    grid2 = make_grid(96, 1.0, 2.0)
    rep2 = mikhlin_bound_scan((1.0,), ((1.0, 1.0), (2.0, -3.0)), m2, grid2)
    passed = drift < DRIFT_TOL and all(np.isfinite(v)
                                       for v in rep2["suprema"].values())
    return EstimateResult(
        passed, max(sups[levels[-1]].values()), drift, rows,
        ("family", "beta", "lambda", "xi", "J", "estimate"))


def _check_square_function(seed, levels):
    grid = make_grid(256, 1.0, 2.0)
    ops = ModeOperators(grid, 1.0, 0.5)
    fam = resolvent_family(ops, 0.3)
    p, m = 2.4, 0.3
    profs = [prof(grid.y_nodes).astype(complex)
             for prof in panels.vertical_panel(1.0, count=6)]
    values, drift = refinement_study(levels, lambda n: square_function_ratio(
        fam, n, 80, p, m, grid, profs, seed=seed + n))
    ratios = dict(zip(levels, values))
    # one identity callable (np.asarray(f) is f): its probes run once
    ident = square_function_ratio(lambda rng: np.asarray, 8, 10, p, m, grid,
                                  profs, seed=seed)
    half = _scaled_resolvent(ops.form(0.0, 1.0), 2.0)
    single = square_function_ratio(lambda rng: half, 1, 20, 2.0, 0.5, grid,
                                   profs, seed=seed)
    passed = drift < DRIFT_TOL and abs(ident - 1.0) <= 1e-14 \
        and single <= 1.01
    return EstimateResult(passed, values[-1], drift,
                          list(ratios.items()) + [("identity", ident)],
                          ("n", "ratio"), {"ratios": ratios, "identity": ident})


def _check_parabolic_heat(seed, levels):
    # joint time/space refinement: J cells and J / 4 steps
    errors, _ = refinement_study(
        levels, lambda J: semigroup.heat_closed_form_check(J, J // 4))
    ratio = errors[0] / max(errors[-1], 1e-300)
    return EstimateResult(ratio >= 1.5 and errors[-1] < 0.05, errors[-1],
                          ratio, list(zip(levels, errors)), ("J", "error"))


def _check_parabolic_contraction(seed, levels):
    # baseline model: alpha = 0, a = 0, c = 0 on L^2
    model = ModelParams(np.array([0.0]), 0.0, 0.0, 0.0, 2.0)
    box = XBox(2.0 * np.pi, 8, 1)
    grid = make_grid(96, 1.0, default_grading(model.alpha), box)
    rep = semigroup.contraction_check(model, grid, (0.0, 0.01, 0.1, 1.0),
                                      probes=6, steps=16, seed=seed)
    variant = ModelParams(np.array([0.3]), 0.5, 1.0, 0.2, 2.0)
    gridv = make_grid(96, 1.0, 2.0, box)
    repv = semigroup.contraction_check(variant, gridv, (0.1,), probes=4,
                                       steps=12, seed=seed)
    worst_v = repv[0.1]["l2_weighted"]
    # the t = 0 rows are 1 by definition, so only t > 0 ratios are reported
    worst = max([worst_v] + [v for t, d in rep.items() if t > 0
                             for v in d.values()])
    rows = [(t, k, v) for t, d in sorted(rep.items())
            for k, v in sorted(d.items())]
    return EstimateResult(worst <= 1.05, worst, 1.05 - worst, rows,
                          ("t", "norm", "ratio"),
                          {"mixing_variant_l2": worst_v})


def _check_maximal_regularity(seed, levels):
    hil_model = ModelParams(np.array([0.0]), 0.0, 0.0, 0.0, 2.0)
    gen_model = ModelParams(np.array([0.3]), 0.5, 1.0, 0.2, 2.0)
    box = XBox(2.0 * np.pi, 8, 1)
    rows = []
    # joint time/space refinement: J cells and 20 J / 64 steps
    for case, model, grading, q in (("hilbert", hil_model, 1.0, 2.0),
                                    ("general", gen_model, 2.0, 3.0)):
        (ratio, refined), drift = refinement_study(levels, lambda J: (
            semigroup.maximal_regularity_check(
                model, make_grid(J, 1.0, grading, box), q,
                np.linspace(0.0, 0.5, 20 * J // 64 + 1), seed=seed)))
        rows.append((case, ratio, refined, drift))
    hil_ratio = rows[0][1]
    worst = max(r[-1] for r in rows)
    return EstimateResult(hil_ratio <= 10.0 and worst < DRIFT_TOL, hil_ratio,
                          worst, rows,
                          ("case", "ratio", "ratio_refined", "drift"),
                          {"hilbert": {"ratio": hil_ratio}})


def _check_semigroup_structure(seed, levels):
    model = ModelParams(np.array([0.3]), 0.5, 1.0, 0.2, 2.0)
    box = XBox(2.0 * np.pi, 8, 1)
    grid = make_grid(64, 1.0, 2.0, box)
    step_id = semigroup.resolvent_step_identity(model, grid, seed=seed)
    prop = semigroup.semigroup_property_check(model, grid, seed=seed)
    pos_model = ModelParams(np.array([0.0]), 0.5, 1.0, 0.2, 2.0)
    pos, _ = refinement_study(
        (make_grid(48, 1.0, 2.0, box),
         make_grid(96, 1.0, 2.0, XBox(2.0 * np.pi, 16, 1))),
        lambda g: semigroup.positivity_check(pos_model, g))
    dom_rng = np.random.default_rng(seed)
    dom, _ = refinement_study((128, 256), lambda J: (
        semigroup.mode_domination_check(1.0, 0.5, 0.35, 1.0,
                                        make_grid(J, 1.0, 2.0), dom_rng)))
    # backward Euler keeps positivity exactly on the a = 0 (M-matrix) model
    passed = (step_id <= 1e-12 and prop["exact"] <= 1e-10
              and max(pos) <= 0.0
              and dom[-1] <= max(0.05, dom[0] * 1.05))
    rows = [("resolvent_step_identity", step_id),
            ("composition_exact", prop["exact"]),
            ("composition_scheme_order", prop["scheme_order"]),
            ("positivity_undershoot_coarse", pos[0]),
            ("positivity_undershoot_fine", pos[-1]),
            ("mode_domination_coarse", dom[0]),
            ("mode_domination_fine", dom[-1])]
    return EstimateResult(passed, step_id, 0.0, rows, ("quantity", "value"),
                          {"positivity": pos})


def _check_reduction_consistency(seed, levels):
    space = SpaceSpec(2.0, 0.2)
    specs = {
        "shear": OperatorSpec(q_matrix=np.array([[1.0]]),
                              q_vector=np.array([0.3]), gamma=1.0,
                              drift_b=np.array([0.5]), drift_c=1.0,
                              alpha1=0.0, alpha2=0.0),
        "power": OperatorSpec(q_matrix=np.array([[2.0]]),
                              q_vector=np.array([0.4]), gamma=1.0,
                              drift_b=np.array([0.0]), drift_c=1.0,
                              alpha1=-0.5, alpha2=0.5),
    }
    rows, studies = case_study(
        [("shear",), ("power",)], levels,
        lambda name, J: reduction_consistency_check(
            specs[name], space, 1.5,
            make_grid(J, 1.0, 2.0, XBox(2.0 * np.pi, 8, 1))))
    passed = all(errs[-1] <= 0.05 and errs[-1] <= errs[0]
                 for errs, _ in studies)
    return EstimateResult(passed, max(errs[-1] for errs, _ in studies), 0.0,
                          rows, ("case", "J", "max_rel_diff"))


def _family_norm_sup(model, grid, weight_m):
    rep = mikhlin_bound_scan((1.0,), ((4.0,),), model, grid,
                             weight_m=weight_m, families=("scaled",))
    return rep["suprema"]["scaled"]


def _check_window_negative_control(seed, levels):
    alpha, c, p = 0.5, 1.0, 2.0
    upper = c + 1.0 - alpha          # window: 0 < (m+1)/p < upper
    m_in = p * 0.5 * upper - 1.0
    model = ModelParams(np.array([0.4]), alpha, c, m_in, p)
    g1, g2 = (make_grid(J, 1.0, 2.0) for J in levels)
    ymin_ratio = g1.y_nodes[0] / g2.y_nodes[0]
    growth_in = (_family_norm_sup(model, g2, m_in)
                 / _family_norm_sup(model, g1, m_in))
    rows = [("growth_in_window", growth_in)]
    passed = growth_in <= 1.05
    # outside the window the sup diverges like y_min^(-p depth / 2), depth
    # measured in (m+1)/p units past the upper edge; fit the exponent at
    # three depths against the refined first node
    exponents = {}
    for depth in (0.25, 0.5, 0.75):
        m_out = p * (upper + depth) - 1.0
        n1 = _family_norm_sup(model, g1, m_out)
        n2 = _family_norm_sup(model, g2, m_out)
        expo = float(np.log(n2 / n1) / np.log(ymin_ratio))
        exponents[depth] = expo
        rows.append(("divergence_exponent_depth_%g" % depth, expo))
        passed = passed and abs(expo - p * depth / 2.0) <= 0.02
    return EstimateResult(passed, exponents[0.5], growth_in - 1.0, rows,
                          ("quantity", "value"),
                          {"growth_in": growth_in, "exponents": exponents})


# rows (estimate id, check(seed, levels), named suite, levels), the levels
# the ladder the check refines over, () at fixed sizes; "default" runs every
# row
REGISTRY = (
    ("parameter_roundtrip", _check_parameter_roundtrip, "parameter_maps", ()),
    ("transform_isometries", _check_transform_isometries, "parameter_maps",
     ()),
    ("power_similarity", _check_power_similarity, "parameter_maps",
     (128, 256, 512)),
    ("model_equivalence_1d", _check_model_equivalence_1d, "parameter_maps",
     (128, 256, 512)),
    ("selfadjoint_spectrum", _check_selfadjoint_spectrum, "spectral_1d",
     (128, 256)),
    ("sector_resolvent_scan", _check_sector_resolvent, "spectral_1d",
     (128, 256)),
    ("kernel_gaussian_fit_bessel", _check_kernel_bessel, "kernel_bounds",
     (256, 512)),
    ("kernel_gaussian_fit_model", _check_kernel_model, "kernel_bounds",
     (256, 512)),
    ("kernel_domination", _check_kernel_domination, "kernel_bounds",
     (192, 384)),
    ("resolvent_two_route_identity", _check_two_route, "spectral_1d", ()),
    ("nd_mode_vs_monolithic", _check_mode_vs_monolithic, "multiplier_bounds",
     ()),
    ("nd_manufactured_convergence", _check_manufactured, "multiplier_bounds",
     (64, 128, 256)),
    ("apriori_regularity_fit", _check_apriori_fit, "multiplier_bounds",
     (96, 192)),
    ("interpolation_gradient_fit", _check_interpolation_fit,
     "multiplier_bounds", (128, 256)),
    ("xi_derivative_order", _check_xi_derivative, "multiplier_bounds", ()),
    ("mikhlin_family_scan", _check_mikhlin_scan, "multiplier_bounds",
     (128, 256)),
    ("square_function_resolvent_family", _check_square_function,
     "multiplier_bounds", (4, 8, 16)),
    ("parabolic_heat_closed_form", _check_parabolic_heat, "parabolic",
     (64, 128)),
    ("parabolic_contraction", _check_parabolic_contraction, "parabolic", ()),
    ("maximal_regularity_ratio", _check_maximal_regularity, "parabolic",
     (64, 128)),
    ("semigroup_structure", _check_semigroup_structure, "parabolic", ()),
    ("reduction_consistency", _check_reduction_consistency, "parameter_maps",
     (96, 192)),
    ("window_negative_control", _check_window_negative_control,
     "negative_controls", (96, 384)),
)

# _run_check calls each check through _REGISTRY_MAP, where a tracer may
# wrap it
_REGISTRY_MAP = {name: check for name, check, _, _ in REGISTRY}
_LEVELS = {name: levels for name, _, _, levels in REGISTRY}

SUITES = {"default": list(_REGISTRY_MAP)}
SUITES.update({suite: [row[0] for row in REGISTRY if row[2] == suite]
               for _, _, suite, _ in REGISTRY})


def write_csv(path, header, rows):
    """Write a CSV of `header` and `rows`, every float as FMT."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, float):
                    cells.append(FMT % cell)
                elif isinstance(cell, (int, np.integer)):
                    cells.append(str(int(cell)))
                else:
                    cells.append(str(cell))
            fh.write(",".join(cells) + "\n")


# OpenBLAS thread setters: the plain build's, then scipy-openblas's LP64 and
# ILP64 names (numpy and scipy wheels each load their own copy)
_BLAS_SET_THREADS = ("openblas_set_num_threads",
                     "scipy_openblas_set_num_threads",
                     "scipy_openblas_set_num_threads64_")


def _one_blas_thread():
    """Pool initializer: run every loaded OpenBLAS on one thread.

    The libraries are those mapped into this process whose file name holds
    "openblas"; one without a known setter, or no such library, is left
    as it is.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {fields[5] for fields in map(str.split, fh)
                     if len(fields) == 6
                     and "openblas" in os.path.basename(fields[5])}
    except OSError:
        return
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_SET_THREADS:
            if hasattr(lib, symbol):
                setter = getattr(lib, symbol)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _run_check(name, seed):
    """Run one registered check on its row's levels and time it where it
    runs; an exception becomes a failed result.  The result takes the
    check's id and levels."""
    levels = _LEVELS[name]
    start = time.perf_counter()
    try:
        res = _REGISTRY_MAP[name](seed, levels)
    except Exception as exc:
        res = EstimateResult(False, error="%s: %s"
                             % (type(exc).__name__, exc))
    res.estimate_id, res.levels = name, list(levels)
    res.seconds = time.perf_counter() - start
    return res


def run_suite(config=None):
    """Run registered checks; returns a list of EstimateResult.

    config keys (all optional): suite (a SUITES name, checked also when
    checks is given), checks (a list or tuple of registered ids), out_dir
    (None, a str or an os.PathLike; made before the first check runs) and
    seed (an integer >= 0, not a bool).  A bad value or any other key
    raises ValueError before any check runs.  Individual check failures
    are recorded in the results, not raised.

    With at least two checks and two usable cores (grid.usable_cores), the
    checks go to a pool of min(cores, checks) workers forked from this
    process, one check per task in the order given; a check reads only its
    own models, grids and seed, so its result cannot depend on the split.
    Forked workers see the registry as this process holds it.
    scipy.linalg and scipy.sparse.linalg (otherwise loaded on first use)
    are loaded before the fork: a worker that loaded them would pay the
    import on every run (about 0.3 s each in a fresh process), and its
    OpenBLAS setup reaches only the libraries mapped when it starts.  Each
    worker runs OpenBLAS on one thread, since the workers already fill the
    cores; this process's BLAS threads are left alone.  The results come
    back in input order, each with the seconds its check took where it
    ran, and the CSVs are written here, byte-identical to a run in one
    process.  One check, one core, or a platform without os.fork runs the
    checks in this process.  A worker that dies raises BrokenProcessPool;
    every worker is reaped before run_suite returns or raises.
    """
    config = dict(config or {})
    suite = config.pop("suite", "default")
    checks = config.pop("checks", None)
    out_dir = config.pop("out_dir", None)
    seed = config.pop("seed", 0)
    if not (isinstance(seed, numbers.Integral)
            and not isinstance(seed, bool) and seed >= 0):
        raise ValueError("seed must be an integer >= 0, got %r" % (seed,))
    if config:
        raise ValueError("unknown run_suite key(s): %s"
                         % ", ".join(sorted(config)))
    if not (isinstance(suite, str) and suite in SUITES):
        raise ValueError("unknown suite %r (have: %s)"
                         % (suite, ", ".join(sorted(SUITES))))
    if checks is None:
        checks = SUITES[suite]
    if not isinstance(checks, (list, tuple)):
        raise ValueError("checks must be a list or tuple, got %r" % (checks,))
    for name in checks:
        if not (isinstance(name, str) and name in _REGISTRY_MAP):
            raise ValueError("checks: no executable check %r" % (name,))
    if not (out_dir is None or isinstance(out_dir, (str, os.PathLike))):
        raise ValueError("out_dir must be None, a str or an os.PathLike, "
                         "got %r" % (out_dir,))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    workers = min(usable_cores(), len(checks))
    if workers < 2:
        results = [_run_check(name, int(seed)) for name in checks]
    else:
        import scipy.linalg
        import scipy.sparse.linalg
        with concurrent.futures.ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_one_blas_thread) as pool:
            results = list(pool.map(_run_check, checks,
                                    [int(seed)] * len(checks)))

    if out_dir:
        for res in results:
            if res.rows:
                path = os.path.join(out_dir, "estimate_%s.csv"
                                    % res.estimate_id)
                write_csv(path, res.header, res.rows)
                res.csv_path = path
        summary = [(r.estimate_id, "true" if r.passed else "false",
                    r.constant, r.drift) for r in results]
        write_csv(os.path.join(out_dir, "summary.csv"),
                   ("estimate_id", "pass", "constant", "drift"), summary)
    return results
