"""Time marching: scheme identities, contraction, positivity, regularity."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degenpde import multiplier as mp
from degenpde import panels
from degenpde import semigroup as sg
from degenpde.bessel1d import ModeOperators
from degenpde.grid import Field, XBox, make_grid
from degenpde.harness import refinement_study
from degenpde.params import ModelParams


MODEL = ModelParams([0.3], 0.5, 1.0, 0.5, 2.0)


def _grid(J=48, nx=8):
    return make_grid(J, 1.0, 2.0, XBox(2.0 * np.pi, nx, 1))


def test_evolve_validation():
    g = _grid()
    u0 = Field(np.zeros(g.shape, dtype=complex), g)
    with pytest.raises(ValueError, match="increase strictly"):
        sg.evolve(u0, None, MODEL, g, "backward_euler",
                  np.array([0.0, 0.2, 0.1]))
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="time_grid must be finite"):
            sg.evolve(u0, None, MODEL, g, "backward_euler",
                      np.array([0.0, t]))
    with pytest.raises(ValueError, match="unknown scheme"):
        sg.evolve(u0, None, MODEL, g, "leapfrog", np.array([0.0, 0.1]))
    bad = np.zeros((3, g.num_y), dtype=complex)  # wrong x count
    with pytest.raises(ValueError, match="does not match grid"):
        sg.evolve(bad, None, MODEL, g, "backward_euler", np.array([0.0, 0.1]))


def test_unequal_time_steps_raise_before_any_plan(monkeypatch):
    # steps 1e-9 and 1.0000001e-9: their absolute rounding round(dt, 15)
    # was equal, so one factorisation served both
    def built(*args):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(sg, "FrequencySolvePlan", built)
    g = _grid()
    ts = 1e-9 * np.array([0.0, 1.0, 2.0000001, 3.0000002])
    for scheme in sg.SCHEMES:
        with pytest.raises(ValueError, match="time_grid"):
            sg.evolve(np.ones(g.shape), None, MODEL, g, scheme, ts)


def test_one_step_whose_residual_underflows_makes_the_run_residual_nan():
    # lam = 4e-100: the first step's data solve with a computed residual,
    # and the later ones, decayed by about lam per step, underflow its sums;
    # max() over the steps returned the first step's residual
    g = _grid(J=16, nx=4)
    u0 = Field(panels.tensor_values(g, panels.plane_wave(g.x_box, [1]),
                                    panels.bump_profile(0.4, 0.15)), g)
    first = sg.evolve(u0, None, MODEL, g, "backward_euler",
                      np.linspace(0.0, 2.5e99, 2))
    assert 0.0 < first.residual <= 1e-12
    run = sg.evolve(u0, None, MODEL, g, "backward_euler",
                    np.linspace(0.0, 1e100, 5))
    assert np.isnan(run.residual)


@pytest.mark.parametrize("ts", [
    np.linspace(1000.0, 1000.001, 101), 0.1 * np.arange(11),
    np.arange(0.0, 1.0001, 0.1),
], ids=["linspace_at_1000", "scaled_arange", "arange"])
def test_time_grids_equal_up_to_rounding_are_accepted(ts):
    assert np.ptp(np.diff(ts)) > 0  # the steps differ in their last bits
    g = _grid(J=16, nx=4)
    run = sg.evolve(np.ones(g.shape), None, MODEL, g, "crank_nicolson", ts)
    assert np.array_equal(run.times, ts)
    assert np.isfinite(run.final.values).all()
    assert 0.0 < run.residual <= 1e-12


@pytest.mark.parametrize("ts", [
    np.linspace(1000.0, 1000.001, 101), np.linspace(1e6, 1e6 + 1e-6, 41),
], ids=["at_1000", "at_1e6"])
@pytest.mark.parametrize("scheme", sg.SCHEMES)
def test_far_from_zero_steps_keep_a_steady_state(ts, scheme):
    # L 1 = 0 for the heat operator: every step solves (lam - L) u+ =
    # (lam + ...) u with one lam, so u stays 1 up to rounding although the
    # steps t_{k+1} - t_k spread over 1.1e-8 (at 1000) and 4.7e-3 (at 1e6)
    # of a step; a right-hand side scaled by each step's own 1/(theta dt)
    # drifts by 2.5e-7 and 4.8e-2
    heat = ModelParams([0.0], 0.0, 0.0, 0.0, 2.0)
    g = _grid(J=16, nx=4)
    run = sg.evolve(np.ones(g.shape), None, heat, g, scheme, ts)
    assert np.abs(run.final.values - 1.0).max() <= 1e-12


_TINY = make_grid(4, 1.0, 1.0, XBox(2.0 * np.pi, 2, 1))
_KINDS = st.sampled_from(["linspace", "arange"])
# (t0, span, steps, kind): steps from 2.5e-8 at |t| = 1e6 up to 1e6
UNIFORM = st.tuples(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6),
                    st.integers(1, 40), _KINDS)
# steps of at least 1/800 of max |t|, so that a move by 1e-9 of a step
# spreads them over far more than 8 ulps of max |t|
MOVABLE = st.tuples(st.floats(-10.0, 10.0), st.floats(1.0, 10.0),
                    st.integers(2, 40), _KINDS)


def _time_grid(t0, span, steps, kind):
    if kind == "linspace":
        return np.linspace(t0, t0 + span, steps + 1)
    return t0 + (span / steps) * np.arange(steps + 1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(UNIFORM)
def test_equal_step_time_grids_are_accepted(drawn):
    ts = _time_grid(*drawn)
    run = sg.evolve(np.ones(_TINY.shape), None, MODEL, _TINY,
                    "backward_euler", ts, stride=ts.size)
    assert np.array_equal(run.times, ts) and len(run.snapshots) == 2


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(MOVABLE, st.data())
def test_time_grids_with_one_moved_step_are_rejected(drawn, data):
    ts = _time_grid(*drawn)
    # move one time by at least 1e-9 of a step, keeping the grid increasing
    k = data.draw(st.integers(1, ts.size - 1))
    shift = data.draw(st.floats(1e-9, 0.4)) * data.draw(
        st.sampled_from([-1.0, 1.0]))
    ts[k] += shift * (ts[1] - ts[0])
    with pytest.raises(ValueError, match="time_grid steps must be equal"):
        sg.evolve(np.ones(_TINY.shape), None, MODEL, _TINY,
                  "backward_euler", ts)


def test_run_snapshot_bookkeeping():
    g = _grid()
    u0 = Field(np.random.default_rng(0).standard_normal(g.shape)
               .astype(complex), g)
    ts = np.linspace(0.0, 0.2, 5)
    run = sg.evolve(u0, None, MODEL, g, "backward_euler", ts)
    assert len(run.snapshots) == 5
    assert run.kept == [0, 1, 2, 3, 4]
    assert np.array_equal(run.times, ts)
    assert run.final is run.snapshots[-1]
    assert 0.0 < run.residual <= 1e-12
    with pytest.raises(ValueError, match="one snapshot per kept time point"):
        sg.EvolutionRun(ts, "backward_euler", run.snapshots[:-1])
    # stride 3 keeps 0, 3 and the last index 4
    with pytest.raises(ValueError, match="one snapshot per kept time point"):
        sg.EvolutionRun(ts, "backward_euler", run.snapshots[::3], stride=3)
    kept = [run.snapshots[k] for k in (0, 3, 4)]
    strided = sg.EvolutionRun(ts, "backward_euler", kept, stride=3)
    assert strided.kept == [0, 3, 4] and strided.final is kept[-1]
    for stride in (0, 1.5, "2"):
        with pytest.raises(ValueError, match="stride"):
            sg.evolve(u0, None, MODEL, g, "backward_euler", ts, stride=stride)


def test_evolve_rejects_a_bool_stride():
    # bool is an int, so True would otherwise run as stride 1
    g = _grid()
    u0 = Field(np.zeros(g.shape, dtype=complex), g)
    for stride in (True, False):
        with pytest.raises(ValueError, match="stride"):
            sg.evolve(u0, None, MODEL, g, "backward_euler",
                      np.linspace(0.0, 0.1, 4), stride=stride)


@pytest.mark.parametrize("steps,stride,kept", [
    (6, 2, [0, 2, 4, 6]), (7, 3, [0, 3, 6, 7]), (5, 9, [0, 5]),
    (4, 4, [0, 4]),
])
def test_stride_keeps_every_stride_th_and_the_final(steps, stride, kept):
    g = _grid(J=32, nx=8)
    u0 = Field(np.random.default_rng(4).standard_normal(g.shape)
               .astype(complex), g)
    ts = np.linspace(0.0, 0.1, steps + 1)
    full = sg.evolve(u0, None, MODEL, g, "crank_nicolson", ts)
    run = sg.evolve(u0, None, MODEL, g, "crank_nicolson", ts, stride=stride)
    assert run.kept == kept and len(run.snapshots) == len(kept)
    # the march is the same; the stride only skips inverse transforms
    for k, snap in zip(run.kept, run.snapshots):
        assert np.array_equal(snap.values, full.snapshots[k].values)
    assert run.final is run.snapshots[-1]
    assert run.residual == full.residual


def _grid_space_oracle(u0, forcing, model, g, scheme, ts):
    """The grid-space march: a plan of its own step, apply_operator and
    solve per step, 4 FFTs each."""
    u = u0.copy()
    out = [u.copy()]
    for k in range(ts.size - 1):
        dt = ts[k + 1] - ts[k]
        if scheme == "backward_euler":
            plan = mp.FrequencySolvePlan(1.0 / dt, model, g)
            rhs = u / dt
            if forcing is not None:
                rhs = rhs + forcing(ts[k + 1])
        else:
            plan = mp.FrequencySolvePlan(2.0 / dt, model, g)
            rhs = 2.0 * u / dt + plan.apply_operator(u).values
            if forcing is not None:
                rhs = rhs + 2.0 * forcing(0.5 * (ts[k] + ts[k + 1]))
        u = plan.solve(Field(rhs, g))[0].values
        out.append(u.copy())
    return out


_MODEL_2D = ModelParams([0.3, -0.2], 0.5, 1.0, 0.5, 2.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("scheme", sg.SCHEMES)
@pytest.mark.parametrize("kind", ["none", "callable"])
def test_mode_space_march_matches_grid_space_steps(dim, scheme, kind):
    model = MODEL if dim == 1 else _MODEL_2D
    g = make_grid(24, 1.0, 2.0, XBox(2.0 * np.pi, 6, dim))
    rng = np.random.default_rng(dim)
    u0 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    # one plan serves the march's steps, the oracle builds one per step
    ts = np.linspace(0.0, 0.065, 6)
    shape = rng.standard_normal(g.shape)
    forcing = {"none": None,
               "callable": lambda t: (1.0 + t) * shape}[kind]
    run = sg.evolve(u0, forcing, model, g, scheme, ts)
    ref = _grid_space_oracle(u0, forcing, model, g, scheme, ts)
    assert run.kept == list(range(ts.size))
    for snap, want in zip(run.snapshots, ref):
        err = np.linalg.norm(snap.values - want) / np.linalg.norm(want)
        assert err <= 1e-12
    assert run.residual <= 1e-12


def test_non_finite_step_raises():
    g = _grid(J=24, nx=8)
    u0 = np.ones(g.shape, dtype=complex)
    bad = np.full(g.shape, np.nan)
    forcing = lambda t: bad if t > 0.012 else np.zeros(g.shape)
    for scheme in sg.SCHEMES:
        with pytest.raises(RuntimeError, match="step 2 produced non-finite"):
            sg.evolve(u0, forcing, MODEL, g, scheme,
                      np.linspace(0.0, 0.04, 5))


def test_single_step_is_resolvent():
    # one backward Euler step vs the monolithic sparse (I - dt L)^-1
    for seed in (0, 13, 31):
        assert sg.resolvent_step_identity(MODEL, _grid(J=64), seed=seed) \
            <= 1e-12


def test_semigroup_property_exact_with_shared_step():
    rep = sg.semigroup_property_check(MODEL, _grid())
    assert rep["exact"] < 1e-12
    assert rep["scheme_order"] > 1e-6  # mismatched steps differ at O(dt)


def test_contraction_unit_at_zero_and_decay():
    rep = sg.contraction_check(MODEL, _grid(), (0.0, 0.2), probes=3, steps=8)
    assert all(v == 1.0 for v in rep[0.0].values())
    assert rep[0.2]["l2_weighted"] <= 1.0 + 1e-10
    for v in rep[0.2].values():
        assert v <= 1.05


def test_positivity_exact_for_pure_bessel():
    model0 = ModelParams([0.0], 0.0, 0.0, 0.0, 2.0)
    grids = [make_grid(J, 1.0, 1.0, XBox(2.0 * np.pi, 8, 1))
             for J in (32, 64)]
    values, _ = refinement_study(
        grids, lambda g: sg.positivity_check(model0, g))
    # the margin is signed: the M-matrix scheme keeps u > 0 after t = 0
    assert all(v < 0.0 for v in values)


def test_mode_domination_slack_nonpositive():
    rng = np.random.default_rng(17)
    out, _ = refinement_study((64, 128), lambda J: sg.mode_domination_check(
        1.0, 0.5, 0.4, 1.0, make_grid(J, 1.0, 2.0), rng))
    # the excess is signed: domination holds with a margin
    assert all(v < 0.0 for v in out)


def test_mode_domination_equals_the_per_step_mode_solves():
    # one factorisation per evolution reproduces the 24 mode solves, each of
    # which assembles and factors its form again, bit for bit
    g = make_grid(64, 1.0, 2.0)
    got = sg.mode_domination_check(1.0, 0.5, 0.4, 1.0, g,
                                   np.random.default_rng(3))
    ops = ModeOperators(g, 1.0, 0.5)
    f = panels.bump_profile(0.3, 0.1)(g.y_nodes).astype(complex)
    f *= np.exp(1j * np.random.default_rng(3).uniform(0, 2 * np.pi, f.size))
    u, v = f.copy(), np.abs(f)
    dt = 0.3 / 24
    for _ in range(24):
        u = ops.solve(0.4, 1.0, 1.0 / dt, u / dt)
        v = ops.solve(0.0, 1.0, 1.0 / dt, v / dt)
    assert got == float(np.max(np.abs(u) - v.real) / np.max(np.abs(v)))


def test_maximal_regularity_ratio_stable():
    # joint time/space refinement: 48 cells and 8 steps, then 96 and 16
    (ratio, _), drift = refinement_study((1, 2), lambda k: (
        sg.maximal_regularity_check(MODEL, _grid(J=48 * k), 2.0,
                                    np.linspace(0.0, 0.3, 8 * k + 1))))
    assert np.isfinite(ratio) and ratio < 10.0
    assert drift < 0.2


def test_heat_closed_form_first_order_in_time():
    errors, _ = refinement_study(((48, 8), (96, 16)),
                                 lambda lv: sg.heat_closed_form_check(*lv))
    assert errors[1] < errors[0]
    # joint dt/grid halving, O(dt) leads
    assert 1.5 <= errors[0] / errors[1] <= 3.0


def test_crank_nicolson_second_order_in_time():
    # fixed grid, fine-step reference from the same discretization, so only
    # the time error is measured: CN drops ~4x per halving, BE ~2x
    model0 = ModelParams([0.0], 0.0, 0.0, 0.0, 2.0)
    box = XBox(2.0 * np.pi, 8, 1)
    g = make_grid(64, 1.0, 1.0, box)
    x, y = box.nodes(), g.y_nodes
    u0 = Field((np.cos(x)[:, None]
                * np.cos(np.pi * y)[None, :]).astype(complex), g)
    t_final = 0.1

    def final(scheme, K):
        run = sg.evolve(u0, None, model0, g, scheme,
                        np.linspace(0.0, t_final, K + 1))
        return run.final.values

    ref = final("crank_nicolson", 512)

    def err(scheme, K):
        return np.abs(final(scheme, K) - ref).max()

    cn = [err("crank_nicolson", K) for K in (8, 32)]
    be = [err("backward_euler", K) for K in (8, 32)]
    assert cn[0] / cn[1] > 12.0   # ~16 over two halvings for second order
    assert 3.0 < be[0] / be[1] < 5.0  # ~4 over two halvings for first order
    assert cn[1] < be[1]


def test_export_csvs_deterministic(tmp_path):
    g = _grid(J=24, nx=8)
    u0 = Field(np.random.default_rng(2).standard_normal(g.shape)
               .astype(complex), g)
    run = sg.evolve(u0, None, MODEL, g, "backward_euler",
                    np.linspace(0.0, 0.1, 5), stride=2)

    def export(d):
        man = run.export_csvs(str(d), model=MODEL)
        # the snapshots are the only files; the caller stores the manifest
        assert sorted(os.listdir(str(d))) == man["snapshots"]
        blobs = {}
        for name in man["snapshots"]:
            with open(os.path.join(str(d), name), "rb") as fh:
                blobs[name] = fh.read()
        return man, blobs

    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    man1, blobs1 = export(d1)
    man2, blobs2 = export(d2)
    assert man1["snapshots"] == ["snapshot_0000.csv", "snapshot_0002.csv",
                                 "snapshot_0004.csv"]
    assert blobs1 == blobs2  # byte-identical across reruns
    assert man1 == man2
    loaded = json.loads(json.dumps(man1))
    assert loaded["scheme"] == "backward_euler"
    assert loaded["steps"] == 4
    assert loaded["times"] == [float(t) for t in np.linspace(0.0, 0.1, 5)]
    assert loaded["model"]["alpha"] == 0.5


# ---------------------------------------------------------------------------
# the march in forked ranges of mode columns


_WIDE_MODEL = ModelParams([0.3, -0.2], 0.5, 1.0, 0.5, 2.0)


def _wide_case(steps=7, nx=8):
    """An nx^2-mode batch (64 by default, the Thomas path), rough data and
    a callable forcing; 7 steps so that a stride of 3 leaves the final
    state off it."""
    g = make_grid(24, 1.0, 2.0, XBox(2.0 * np.pi, nx, 2))
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    shape = rng.standard_normal(g.shape)
    return g, u0, shape, np.linspace(0.0, 0.07, steps + 1)


def _cores(monkeypatch, count):
    """Report `count` usable cores and split every batch on the Thomas
    path; returns the log of forks (a one-core machine still forks)."""
    monkeypatch.setattr(sg, "_SPLIT_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))
    forks = []
    real_fork = os.fork

    def logged_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", logged_fork)
    return forks


def _shared_zero_maps():
    """Lines of this process's shared anonymous mappings."""
    with open("/proc/self/maps") as fh:
        return [line for line in fh if "/dev/zero" in line]


def _bits(field):
    return np.ascontiguousarray(field.values).tobytes()


@pytest.mark.parametrize("scheme", sg.SCHEMES)
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("stride", [1, 3])
def test_forked_ranges_march_bitwise_as_one_range(monkeypatch, scheme,
                                                  forced, stride):
    g, u0, shape, ts = _wide_case()
    forcing = (lambda t: (1.0 + t) * shape) if forced else None
    maps = _shared_zero_maps()
    runs = {}
    for count in (1, 2, 3):
        forks = _cores(monkeypatch, count)
        runs[count] = sg.evolve(u0, forcing, _WIDE_MODEL, g, scheme, ts,
                                stride=stride)
        assert len(forks) == count - 1
    one = runs[1]
    assert one.kept == {1: list(range(8)), 3: [0, 3, 6, 7]}[stride]
    for count in (2, 3):
        run = runs[count]
        assert run.kept == one.kept
        assert [_bits(s) for s in run.snapshots] == \
            [_bits(s) for s in one.snapshots]
        assert _bits(run.final) == _bits(one.final)
        # the ranges' row sums add in another order: the last bits may move
        assert run.residual == pytest.approx(one.residual, rel=1e-6)
        assert 0.0 < run.residual <= 1e-12
    del runs
    assert _shared_zero_maps() == maps


@pytest.mark.parametrize("nx", [4, 8])
def test_one_range_is_the_per_step_plan_solve(monkeypatch, nx):
    # the march and solve_modes run the same mode_step, so they agree bit
    # for bit, residual included, on the stacked gttrs path (16 modes) and
    # on the Thomas path (64 modes)
    _cores(monkeypatch, 1)
    g, u0, _, ts = _wide_case(steps=4, nx=nx)
    run = sg.evolve(u0, None, _WIDE_MODEL, g, "crank_nicolson", ts)
    plan = mp.FrequencySolvePlan(2.0 / (ts[1] - ts[0]), _WIDE_MODEL, g)
    uh = plan._to_modes(u0)
    fu = plan.form.apply(uh)
    worst = 0.0
    for k in range(ts.size - 1):
        dt = ts[k + 1] - ts[k]
        uh, res = plan.solve_modes(2.0 * uh / dt
                                   - fu / plan.ops.weight[:, None])
        # the march keeps mode_step's F u; solve_modes keeps none
        fu = plan.form.apply(uh)
        worst = max(worst, res)
        snap = run.snapshots[k + 1].values
        assert np.array_equal(snap, plan._from_modes(uh))
        # _from_modes returns C-ordered values for any layout of the
        # coefficients, so a snapshot sums in a norm as a solve's field does
        assert snap.flags.c_contiguous
    assert run.residual == worst


def test_dead_march_child_raises_and_leaves_no_child(monkeypatch):
    _cores(monkeypatch, 3)
    parent = os.getpid()
    real = sg._march_range

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(sg, "_march_range", dying)
    g, u0, _, ts = _wide_case()
    with pytest.raises(RuntimeError, match="exited with status"):
        sg.evolve(u0, None, _WIDE_MODEL, g, "crank_nicolson", ts)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("parent_step,child_step,raised", [
    (None, 3, 3), (5, 3, 3), (2, 4, 2), (6, None, 6),
])
def test_non_finite_step_in_any_range_names_the_first(monkeypatch,
                                                      parent_step,
                                                      child_step, raised):
    # a forcing that is NaN at one step, in this process or in the children
    # only, plants non-finite values in the ranges marched there
    _cores(monkeypatch, 2)
    parent = os.getpid()
    g, u0, _, ts = _wide_case()
    bad_at = {True: parent_step, False: child_step}

    def forcing(t):
        step = bad_at[os.getpid() == parent]
        if step is not None and t == ts[step]:
            return np.full(g.shape, np.nan)
        return np.zeros(g.shape)

    with pytest.raises(RuntimeError,
                       match="step %d produced non-finite" % raised):
        sg.evolve(u0, forcing, _WIDE_MODEL, g, "backward_euler", ts)


def test_march_without_fork_runs_one_range(monkeypatch):
    forks = _cores(monkeypatch, 3)
    g, u0, _, ts = _wide_case()
    split = sg.evolve(u0, None, _WIDE_MODEL, g, "crank_nicolson", ts)
    assert len(forks) == 2
    monkeypatch.delattr(os, "fork")
    alone = sg.evolve(u0, None, _WIDE_MODEL, g, "crank_nicolson", ts)
    assert [_bits(s) for s in alone.snapshots] == \
        [_bits(s) for s in split.snapshots]
    assert len(forks) == 2


def test_narrow_and_small_batches_march_in_one_range(monkeypatch):
    # at most _STACK_MODES modes, or work below _SPLIT_WORK: no fork
    forks = _cores(monkeypatch, 3)
    g = _grid(J=24, nx=8)
    sg.evolve(np.ones(g.shape), None, MODEL, g, "crank_nicolson",
              np.linspace(0.0, 0.1, 4))
    monkeypatch.setattr(sg, "_SPLIT_WORK", 64 * 24 * 7 + 1)
    g, u0, _, ts = _wide_case()
    sg.evolve(u0, None, _WIDE_MODEL, g, "crank_nicolson", ts)
    assert forks == []
