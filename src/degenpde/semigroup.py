"""Time evolution e^{tL} for the model operator, by the theta-scheme.

One step of size dt solves (1/(theta dt) - L) u_{k+1} = (1/(theta dt) +
(1/theta - 1) L) u_k + f(t_k + theta dt) / theta: backward Euler is theta =
1, (I - dt L) u_{k+1} = u_k + dt f_{k+1}, so with lam = 1/dt one step is one
mode-space sweep of the frequency-decoupled resolvent, (I - dt L)^(-1) u_0,
which resolvent_step_identity compares with the monolithic sparse solve;
Crank-Nicolson is theta = 1/2.  Both schemes are A-stable; backward Euler is
additionally contractive in the weighted l2 product whenever the spatial form
is accretive, and for a = 0 the lumped P1 system is an M-matrix, so it
preserves positivity and the L-infinity bound exactly at the discrete level.

The maximal-regularity check measures the discrete L^q([0,T]; L^p_m) norms
of the one-sided difference quotient D_t u and of L u = D_t u - f (the
backward Euler identity makes this exact), and reports the split ratio
(|D_t u| + |L u|) / |f| on one time and space grid.  Domination and
positivity checks quantify their slack on one grid.  Each check measures a
single level; the harness runs them coarse to fine to confirm the ratio is
stable and the slack vanishes.
"""

import mmap
import os

import numpy as np

from .grid import (Field, XBox, fork_ranges, lp_norm, make_grid,
                   usable_cores, write_field_csv)
from .bessel1d import ModeOperators, resolvent_pair
from .multiplier import (FrequencySolvePlan, mode_step,
                         monolithic_sparse_solve, weighted_residual)
from .params import ModelParams
from . import panels

SCHEMES = {"backward_euler": 1.0, "crank_nicolson": 0.5}  # theta


class EvolutionRun:
    """Evolved trajectory: time grid, scheme and kept snapshots.

    `snapshots` holds one Field per kept time index, `kept` =
    0, stride, 2 stride, ... and the last index, also when it is off the
    stride; `final` = snapshots[-1] is the state at the last time.
    `residual` is the worst weighted residual over the steps' mode solves,
    NaN if one was not computed; solve_parabolic's manifest records it.
    """

    def __init__(self, times, scheme, snapshots, stride=1, residual=0.0):
        self.times = np.asarray(times, dtype=float)
        self.scheme = scheme
        self.snapshots = snapshots
        self.kept = _kept(self.times.size - 1, stride)
        self.residual = float(residual)
        if len(snapshots) != len(self.kept):
            raise ValueError("one snapshot per kept time point required")
        self.final = snapshots[-1]

    def export_csvs(self, outdir, model=None, chain=None):
        """Write the kept snapshots' CSVs, snapshot_<step>.csv, the last
        time's among them; returns their manifest, which solve_parabolic
        stores in manifest.json as "evolution".  "forcing" is empty: the
        command-line runs that write manifests are unforced."""
        os.makedirs(outdir, exist_ok=True)
        paths = []
        for k, snap in zip(self.kept, self.snapshots):
            name = "snapshot_%04d.csv" % k
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


# A batch whose factors slice by columns (the Thomas path) is marched in
# one range of mode columns per usable core only when its work, modes x J
# x steps complex entries, reaches this.  A step costs about 50 ns
# per entry in one process.  Forking a ~120 MB process and reaping it costs
# about 4 ms, but a split run pays 10-25 ms more: the first-touch faults of
# a child's buffers and, mostly, the scheduler moving the new child to the
# idle core.  Medians of 21 interleaved in-process Crank-Nicolson evolve
# runs (stride = steps), one range against two, 2 cores, Python 3.11.7,
# numpy 2.4.6, a 124 MB process: 128 x 256 x 20 (0.66M) 59.1 against
# 59.4 ms, 256 x 256 x 20 (1.3M) 101.8 against 122.4 ms, 256 x 256 x 30
# (2.0M) 131.7 against 115.8 ms, 512 x 256 x 20 (2.6M) 167.8 against
# 128.7 ms; the README command's 1024 x 256 x 40 (10.5M) about 700
# against 360 ms.
_SPLIT_WORK = 2_000_000


def evolve(u0, forcing, model, grid, scheme, time_grid, stride=1):
    """March (d/dt - L) u = f from u0 over time_grid; returns EvolutionRun.

    scheme names its theta in SCHEMES (backward_euler 1, crank_nicolson
    1/2); forcing is None or a callable t -> array of grid values.
    time_grid must increase strictly in steps equal up to rounding, a
    spread of at most 8 ulps of max |t| (linspace and t0 + h arange grids
    spread over at most 4), else ValueError names it before anything is
    built.  One FrequencySolvePlan, lam = 1/(theta h) for the mean step h,
    serves every step.  u0 is transformed to (J, modes) x-Fourier
    coefficients once and marched there, one multiplier.mode_step per step
    (see _march_range).

    Every mode column evolves on its own, so a batch whose factors slice by
    columns (the Thomas path) and whose work reaches _SPLIT_WORK (timings
    at the constant) is marched as one contiguous range of mode columns per
    usable core, through grid.fork_ranges: this process marches the first
    range, forked children the others.  Any other batch, one core, or a
    platform without os.fork or os.sched_getaffinity marches one range
    here.  A range runs every step in four (J, columns) buffers it
    allocates once, so no step on the Thomas path allocates (forcing aside,
    which is transformed once per step, whole, in each range).  It writes
    its kept states, each step's residual row sums and the first step with
    non-finite values into arrays that, for more than one range, are
    MAP_SHARED mappings made before the fork.  This process reduces the row sums to the worst weighted residual
    (multiplier.weighted_residual, as solve_modes does), transforms back
    only the kept states (every `stride`-th time index and the last),
    dropping each once transformed, and raises RuntimeError for the first
    step, over all ranges, that produced non-finite values, or when a
    range's child failed.  The snapshots do not depend on the number of
    ranges; the residual adds the ranges' row sums, so its last bits may.
    """
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("time_grid must be a 1-d array of times")
    steps, last = np.diff(times), times.size - 1
    if not (np.isfinite(times).all() and np.all(steps > 0)):
        raise ValueError("time_grid must be finite and increase strictly")
    spread = np.ptp(steps) / np.spacing(np.abs(times).max()) if last else 0
    if spread > 8:
        raise ValueError("time_grid steps must be equal up to rounding; "
                         "they spread over %.3g ulps of max |t|" % spread)
    if scheme not in SCHEMES:
        raise ValueError("unknown scheme %r" % (scheme,))
    if not (isinstance(stride, (int, np.integer))
            and not isinstance(stride, bool) and stride >= 1):
        raise ValueError("stride must be an integer >= 1, got %r" % (stride,))
    u = np.asarray(u0.values if isinstance(u0, Field) else u0, dtype=complex)
    if u.shape != grid.shape:
        raise ValueError("initial datum shape %r does not match grid %r"
                         % (u.shape, grid.shape))
    snapshots = [Field(u.copy(), grid)]
    if last == 0:
        return EvolutionRun(times, scheme, snapshots, stride=stride)
    theta = SCHEMES[scheme]
    h = (times[-1] - times[0]) / last
    plan = FrequencySolvePlan(1.0 / (theta * h), model, grid)
    uh0 = plan._to_modes(u)
    J, modes = uh0.shape
    kept = _kept(last, stride)[1:]
    ranges = 1
    if hasattr(plan.lu, "columns") and modes * J * last >= _SPLIT_WORK:
        ranges = min(usable_cores(), modes)
    cuts = [modes * r // ranges for r in range(ranges + 1)]
    # the kept states, each range's per-step residual row sums and its
    # first step with non-finite values (0 for none); one range takes
    # np.zeros, as a mapping each took the parabolic checks' small marches
    # from 0.13 to 0.18 s (2 cores, one BLAS thread)
    new = np.zeros if ranges == 1 else _shared
    states = [new((J, modes), np.complex128) for _ in kept]
    rows, bad = new((ranges, last, 2, J), float), new(ranges, int)

    def march(r):
        cols = slice(cuts[r], cuts[r + 1])
        form, lu = ((plan.form, plan.lu) if ranges == 1
                    else (plan.form.columns(cols), plan.lu.columns(cols)))
        bad[r] = _march_range(theta, times, forcing, plan, form, lu, uh0,
                              cols, dict(zip(kept, states)), rows[r])

    statuses = fork_ranges(ranges, march)
    if any(statuses):
        raise RuntimeError("evolve: march ranges exited with status %r"
                           % (statuses,))
    if bad.any():
        raise RuntimeError("step %d produced non-finite values"
                           % (bad[bad > 0].min(),))
    # np.max, so a step whose residual is NaN (not computed) makes it NaN
    worst = np.max([weighted_residual(step, plan.ops.weight)
                    for step in rows.sum(axis=0)])
    while states:
        # a state is dropped once transformed, so states and snapshots
        # together hold about what the snapshots alone will
        snapshots.append(Field(plan._from_modes(states.pop(0)), grid))
    return EvolutionRun(times, scheme, snapshots, stride=stride,
                        residual=worst)


def _kept(last, stride):
    """The kept time indices: 0, stride, 2 stride, ... and the last."""
    return list(range(0, last, int(stride))) + [last]


def _shared(shape, dtype):
    """A zeroed array in a MAP_SHARED anonymous mapping: made before a fork,
    it gets the children's writes; unmapped once the array is dropped."""
    size = int(np.prod(shape))
    buf = mmap.mmap(-1, size * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype, size).reshape(shape)


def _march_range(theta, times, forcing, plan, form, lu, uh0, cols, kept,
                 rows):
    """March the mode columns `cols` of uh0 over every step of the
    theta-scheme; returns the first step with non-finite values, or 0.

    form and lu are the plan's form and factors of these columns, and the
    plan gives lam = 1/(theta h), the weights W and the forcing's
    transform.  Step k solves (lam - L) u_{k+1} = (lam + (1/theta - 1) L)
    u_k + f((1 - theta) t_k + theta t_{k+1}) / theta: the theta-scheme of
    step h, so L u = 0 keeps u to rounding however far the grid is from
    t = 0.  The explicit L u_k = -F u_k / W is formed only for theta < 1,
    from the band product F u_k that the previous mode_step left in its
    buffer.  Each step runs mode_step in the four (J, columns) buffers
    allocated here, after any fork, and writes only into them and into
    rows[k] and, at a kept step, into its state in `kept`.  The division by
    W is a product with the reciprocal on the float views.
    """
    uh = np.array(uh0[:, cols])
    fu, rhs, wr = (np.empty_like(uh) for _ in range(3))
    uh_f, fu_f, rhs_f, wr_f = (a.view(float) for a in (uh, fu, rhs, wr))
    lam, weight = plan.lam.real, plan.ops.weight
    explicit = (1.0 / theta - 1.0) / weight[:, None]
    if theta < 1:
        form.apply(uh, out=fu, scratch=wr)
    for k in range(times.size - 1):
        np.multiply(uh_f, lam, out=rhs_f)
        if theta < 1:
            np.multiply(fu_f, explicit, out=wr_f)
            rhs -= wr
        if forcing is not None:
            t = (1.0 - theta) * times[k] + theta * times[k + 1]
            fv = np.asarray(forcing(t), dtype=complex)
            rhs += (1.0 / theta) * plan._to_modes(fv)[:, cols]
        mode_step(plan.lam, form, lu, weight, rhs, uh, fu, wr, rows[k])
        # a non-finite entry of uh makes its row of W r non-finite, so the
        # full test runs only when a row sum is not finite
        if not np.isfinite(rows[k, 0]).all() and not np.isfinite(uh).all():
            return k + 1
        if k + 1 in kept:
            kept[k + 1][:, cols] = uh
    return 0


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
