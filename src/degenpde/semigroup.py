"""Time evolution e^{tL} for the model operator, by A-stable one-step schemes.

Backward Euler advances (I - dt L) u_{k+1} = u_k + dt f_{k+1}; with
lam = 1/dt one step is one mode-space sweep of the frequency-decoupled
resolvent, (I - dt L)^(-1) u_0, which resolvent_step_identity compares with
the monolithic sparse solve.  Crank-Nicolson solves
(2/dt - L) u_{k+1} = (2/dt + L) u_k + 2 f_{k+1/2}.  Both schemes are
A-stable; backward Euler is additionally contractive in the weighted l2
product whenever the spatial form is accretive, and for a = 0 the lumped P1
system is an M-matrix, so it preserves positivity and the L-infinity bound
exactly at the discrete level.

The maximal-regularity check measures the discrete L^q([0,T]; L^p_m) norms
of the one-sided difference quotient D_t u and of L u = D_t u - f (the
backward Euler identity makes this exact), and reports the split ratio
(|D_t u| + |L u|) / |f| on one time and space grid.  Domination and
positivity checks quantify their slack on one grid.  Each check measures a
single level; the harness runs them coarse to fine to confirm the ratio is
stable and the slack vanishes.
"""

import os

import numpy as np

from .grid import Field, XBox, lp_norm, make_grid, write_field_csv
from .bessel1d import ModeOperators, resolvent_pair
from .multiplier import FrequencySolvePlan, monolithic_sparse_solve
from .params import ModelParams
from . import panels

SCHEMES = ("backward_euler", "crank_nicolson")


class EvolutionRun:
    """Evolved trajectory: time grid, scheme and kept snapshots.

    `snapshots` holds one Field per kept time index, `kept` =
    0, stride, 2 stride, ...; `final` is the state at the last time, kept
    also when its index is off the stride.  `residual` is the worst weighted
    residual over the steps' mode solves; solve_parabolic's manifest
    records it.
    """

    def __init__(self, times, scheme, snapshots, stride=1, final=None,
                 residual=0.0):
        self.times = np.asarray(times, dtype=float)
        self.scheme = scheme
        self.snapshots = snapshots
        self.kept = list(range(0, self.times.size, int(stride)))
        self.residual = float(residual)
        if len(snapshots) != len(self.kept):
            raise ValueError("one snapshot per kept time point required")
        if final is None:
            if self.kept[-1] != self.times.size - 1:
                raise ValueError("final state required when the last time "
                                 "is off the stride")
            final = snapshots[-1]
        self.final = final

    def export_csvs(self, outdir, basename="snapshot", model=None, chain=None):
        """Write the kept snapshots' CSVs; returns their manifest, which
        solve_parabolic stores in manifest.json as "evolution".  "forcing"
        is empty: the command-line runs that write manifests are
        unforced."""
        os.makedirs(outdir, exist_ok=True)
        paths = []
        for k, snap in zip(self.kept, self.snapshots):
            name = "%s_%04d.csv" % (basename, k)
            write_field_csv(os.path.join(outdir, name), snap)
            paths.append(name)
        manifest = {
            "scheme": self.scheme,
            "steps": int(self.times.size - 1),
            "times": [float(t) for t in self.times],
            "snapshots": paths,
            "forcing": "",
        }
        if model is not None:
            manifest["model"] = {
                "mixing": [float(v) for v in model.mixing],
                "alpha": model.alpha,
                "c_bessel": model.c_bessel,
                "m": model.m,
                "p": model.p,
            }
        if chain is not None:
            manifest["transform_chain"] = chain
        return manifest


def _forcing_at(forcing, t):
    """The forcing's values at time t: None, or forcing(t) as an array."""
    return None if forcing is None else np.asarray(forcing(t), dtype=complex)


def evolve(u0, forcing, model, grid, scheme, time_grid, stride=1):
    """March (d/dt - L) u = f from u0 over time_grid; returns EvolutionRun.

    scheme: "backward_euler" or "crank_nicolson".  forcing is None or a
    callable t -> array of grid values.  u0 is transformed to
    (J, modes) x-Fourier coefficients once and marched there: a backward
    Euler step is one batched solve of a FrequencySolvePlan, a
    Crank-Nicolson step one solve plus its explicit half L u_k = -F u_k / W,
    where F u_k is the band product the previous step's residual already
    formed.  Plans are cached per distinct step size, so a uniform time grid
    reuses one factorisation for all its steps.  Forcing is transformed once
    per step; the inverse FFT runs only for the snapshots kept, every
    `stride`-th time index and the final state.  A step with non-finite
    values raises RuntimeError.
    """
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("time_grid must be a 1-d array of times")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("time_grid must increase strictly")
    if scheme not in SCHEMES:
        raise ValueError("unknown scheme %r" % (scheme,))
    if not (isinstance(stride, (int, np.integer)) and stride >= 1):
        raise ValueError("stride must be an integer >= 1, got %r" % (stride,))
    u = np.asarray(u0.values if isinstance(u0, Field) else u0, dtype=complex)
    if u.shape != grid.shape:
        raise ValueError("initial datum shape %r does not match grid %r"
                         % (u.shape, grid.shape))
    snapshots = [Field(u.copy(), grid)]
    last = times.size - 1
    final = None
    worst = 0.0
    plans = {}
    uh = fu = None
    for k in range(last):
        dt = times[k + 1] - times[k]
        key = round(float(dt), 15)
        if key not in plans:
            lam = 1.0 / dt if scheme == "backward_euler" else 2.0 / dt
            plans[key] = FrequencySolvePlan(lam, model, grid)
        plan = plans[key]
        if uh is None:
            uh = plan._to_modes(u)
            if scheme == "crank_nicolson":
                fu = plan.form.apply(uh)
        if scheme == "backward_euler":
            rhs = uh / dt
            fv = _forcing_at(forcing, times[k + 1])
            if fv is not None:
                rhs = rhs + plan._to_modes(fv)
        else:
            # (2/dt + L) u_k with L u_k = -F u_k / W
            rhs = 2.0 * uh / dt - fu / plan.ops.weight[:, None]
            fv = _forcing_at(forcing, 0.5 * (times[k] + times[k + 1]))
            if fv is not None:
                rhs = rhs + 2.0 * plan._to_modes(fv)
        uh, fu, residual = plan.solve_modes(rhs)
        if not np.all(np.isfinite(uh)):
            raise RuntimeError("step %d produced non-finite values" % (k + 1,))
        worst = max(worst, residual)
        if (k + 1) % stride == 0:
            snapshots.append(Field(plan._from_modes(uh), grid))
        elif k + 1 == last:
            final = Field(plan._from_modes(uh), grid)
    return EvolutionRun(times, scheme, snapshots, stride=stride, final=final,
                        residual=worst)


# ---------------------------------------------------------------------------
# contractivity and positivity


def contraction_check(model, grid, t_set, probes=8, steps=20, seed=3):
    """Probe-estimated norm of e^{tL} on L^2_{c-alpha}, L^1.5, L^4, L^inf.

    Evolves random data with zero forcing by backward Euler and records the
    worst norm ratio per horizon; t = 0 entries are exactly 1.
    """
    rng = np.random.default_rng(seed)
    w = model.c_bessel - model.alpha
    p_sample = (1.5, 4.0)
    report = {}
    for t in t_set:
        worst = {"l2_weighted": 0.0, "linf": 0.0}
        for p in p_sample:
            worst["lp_%g" % p] = 0.0
        for _ in range(probes):
            u0 = rng.standard_normal(grid.shape)
            if t == 0:
                ratios = {k: 1.0 for k in worst}
            else:
                run = evolve(Field(u0.astype(complex), grid), None, model,
                             grid, "backward_euler",
                             np.linspace(0.0, t, steps + 1))
                uT = run.final.values
                ratios = {
                    "l2_weighted": lp_norm(uT, 2.0, w, grid)
                    / lp_norm(u0, 2.0, w, grid),
                    "linf": np.abs(uT).max() / np.abs(u0).max(),
                }
                for p in p_sample:
                    ratios["lp_%g" % p] = (lp_norm(uT, p, w, grid)
                                           / lp_norm(u0, p, w, grid))
            for k in worst:
                worst[k] = max(worst[k], float(ratios[k]))
        report[float(t)] = worst
    return report


def positivity_check(model, grid):
    """Relative undershoot of backward Euler from nonnegative data to t = 0.2.

    Returns the signed max of -min Re u / max |Re u| over the snapshots of
    the 16 steps after t = 0 on one grid: negative is the margin by which
    positivity holds (when a = 0 the lumped system is an M-matrix), a
    positive undershoot must shrink under refinement.
    """
    def x_part(*xs):
        return np.prod([1.0 + 0.5 * np.cos(2.0 * np.pi * x / grid.x_box.length)
                        for x in xs], axis=0)

    prof = panels.bump_profile(0.3 * grid.y_max, 0.12 * grid.y_max)
    u0 = Field(panels.tensor_values(grid, x_part, prof), grid)
    run = evolve(u0, None, model, grid, "backward_euler",
                 np.linspace(0.0, 0.2, 17))
    return max(-float(snap.values.real.min())
               / float(np.abs(snap.values.real).max())
               for snap in run.snapshots[1:])


# ---------------------------------------------------------------------------
# maximal regularity


def maximal_regularity_check(model, grid, q, time_grid, seed=11):
    """Split-norm ratio (|D_t u|_qp + |L u|_qp) / |f|_qp for u(0) = 0.

    D_t is the scheme's own one-sided quotient, so D_t u - L u = f holds
    exactly for backward Euler and the content is the size of each summand.
    Returns the worst ratio over a seeded panel of three forcings on one
    time and space grid.
    """
    ts = np.asarray(time_grid, dtype=float)
    profs = panels.vertical_panel(grid.y_max, count=3, kind="interior",
                                  rng=np.random.default_rng(seed))
    worst = 0.0
    for i, prof in enumerate(profs):
        def x_part(*xs):
            return np.prod([np.cos(2.0 * np.pi * (i + 1) * x
                                   / grid.x_box.length) for x in xs], axis=0)

        fv = panels.tensor_values(grid, x_part, prof)
        run = evolve(Field(np.zeros(grid.shape, dtype=complex), grid),
                     lambda t, fv=fv: fv, model, grid, "backward_euler", ts)
        dt_terms = []
        l_terms = []
        f_terms = []
        for k in range(1, ts.size):
            dt = ts[k] - ts[k - 1]
            dtu = (run.snapshots[k].values - run.snapshots[k - 1].values) / dt
            lu = dtu - fv
            dt_terms.append(lp_norm(dtu, model.p, model.m, grid) ** q * dt)
            l_terms.append(lp_norm(lu, model.p, model.m, grid) ** q * dt)
            f_terms.append(lp_norm(fv, model.p, model.m, grid) ** q * dt)
        num = (sum(dt_terms) ** (1.0 / q) + sum(l_terms) ** (1.0 / q))
        den = sum(f_terms) ** (1.0 / q)
        worst = max(worst, float(num / max(den, 1e-300)))
    return worst


# ---------------------------------------------------------------------------
# structural checks


def semigroup_property_check(model, grid, seed=9):
    """Two-leg vs one-shot evolution: t = 0.3 in 12 steps, then s = 0.2.

    Same step size on both paths makes backward Euler compose exactly; a
    second comparison with mismatched steps exposes the scheme-order error.
    Returns {"exact": ..., "scheme_order": ...} relative discrepancies.
    """
    rng = np.random.default_rng(seed)
    u0 = Field(rng.standard_normal(grid.shape).astype(complex), grid)
    t, s, steps_t = 0.3, 0.2, 12
    dt = t / steps_t
    steps_s_same = int(round(s / dt))
    s_adj = steps_s_same * dt
    leg1 = evolve(u0, None, model, grid, "backward_euler",
                  np.linspace(0.0, t, steps_t + 1))
    leg2 = evolve(leg1.final, None, model, grid, "backward_euler",
                  np.linspace(t, t + s_adj, steps_s_same + 1))
    oneshot = evolve(u0, None, model, grid, "backward_euler",
                     np.linspace(0.0, t + s_adj, steps_t + steps_s_same + 1))
    ref = lp_norm(oneshot.final.values, 2.0, model.m, grid)
    exact = lp_norm(leg2.final.values - oneshot.final.values, 2.0, model.m,
                    grid) / ref
    # mismatched steps: one-shot with a different step count
    alt = evolve(u0, None, model, grid, "backward_euler",
                 np.linspace(0.0, t + s_adj, steps_t + 2 * steps_s_same + 1))
    order_err = lp_norm(alt.final.values - oneshot.final.values, 2.0, model.m,
                        grid) / ref
    return {"exact": float(exact), "scheme_order": float(order_err)}


def resolvent_step_identity(model, grid, seed=13):
    """Backward Euler single step of dt = 0.05 vs (I - dt L)^(-1) u0 by the
    monolithic sparse solve on the full tensor grid (N = 1): an independent
    route to the same discrete resolvent, so the two agree to round-off."""
    rng = np.random.default_rng(seed)
    u0 = Field(rng.standard_normal(grid.shape).astype(complex), grid)
    dt = 0.05
    run = evolve(u0, None, model, grid, "backward_euler",
                 np.array([0.0, dt]))
    direct = monolithic_sparse_solve(1.0 / dt, u0.values / dt, model, grid)
    num = lp_norm(run.final.values - direct.values, 2.0, model.m, grid)
    den = lp_norm(direct.values, 2.0, model.m, grid)
    return float(num / max(den, 1e-300))


def mode_domination_check(c, alpha, mixing_s, k2, grid, rng):
    """Per-mode magnitudes vs the potential-only evolution of |f| to t = 0.3.

    Evolves one frozen mode with s = a.xi mixing by 24 backward Euler steps
    and the s = 0 comparison evolution started from |f|, whose phases are
    drawn from `rng`; returns the signed relative excess
    max(|u_s| - v_0)/max(v_0) on one grid: negative is the margin by which
    domination holds, a positive slack must vanish under refinement.
    """
    ops = ModeOperators(grid, c, alpha)
    prof = panels.bump_profile(0.3 * grid.y_max, 0.1 * grid.y_max)
    f = prof(grid.y_nodes).astype(complex)
    f *= np.exp(1j * rng.uniform(0, 2 * np.pi, f.size))
    u = f.copy()
    v = np.abs(f)
    steps = 24
    dt = 0.3 / steps
    lam = 1.0 / dt
    step_s = resolvent_pair(ops.form(mixing_s, k2), lam)[0]
    step_0 = resolvent_pair(ops.form(0.0, k2), lam)[0]
    for _ in range(steps):
        u = step_s(u / dt)
        v = step_0(v / dt)
    return float(np.max(np.abs(u) - v.real) / np.max(np.abs(v)))


# ---------------------------------------------------------------------------
# closed-form heat comparison


def heat_closed_form_check(J, K):
    """Heat equation (a = 0, alpha = 0, c = 0) vs the separated exact solution.

    On the 16-point x-box of length 2 pi over (0, 1], the initial datum
    cos(x) cos(pi y) + 1 evolves exactly by Fourier-Neumann modes; the
    backward Euler + P1 error is O(dt) + O(grid).  Returns the relative error
    at t = 0.1 with J cells and K time steps.
    """
    model = ModelParams(mixing=np.array([0.0]), alpha=0.0, c_bessel=0.0,
                        m=0.0, p=2.0)
    box = XBox(2.0 * np.pi, 16, 1)
    grid = make_grid(J, 1.0, 1.0, box)
    x = box.nodes()
    y = grid.y_nodes
    xi = 2.0 * np.pi / box.length
    eta = np.pi
    u0 = (np.cos(xi * x)[:, None] * np.cos(eta * y)[None, :]
          + np.ones((16, J)))
    exact = (np.exp(-(xi ** 2 + eta ** 2) * 0.1)
             * np.cos(xi * x)[:, None] * np.cos(eta * y)[None, :]
             + np.ones((16, J)))
    run = evolve(Field(u0.astype(complex), grid), None, model, grid,
                 "backward_euler", np.linspace(0.0, 0.1, K + 1))
    err = lp_norm(run.final.values - exact, 2.0, 0.0, grid)
    ref = lp_norm(exact, 2.0, 0.0, grid)
    return float(err / ref)
