"""Suite runner: registry integrity, error capture, CSV reproducibility."""

import os

import numpy as np
import pytest

from degenpde import harness, panels
from degenpde.bessel1d import node_weights, two_route_resolvent
from degenpde.harness import (REGISTRY, SUITES, EstimateResult, decay_order,
                              refinement_study, run_suite,
                              square_function_ratio)
from degenpde.grid import make_grid


def test_registry_and_suites_consistent():
    names = [name for name, _ in REGISTRY]
    assert len(names) == len(set(names))
    assert SUITES["default"] == names
    for suite, members in SUITES.items():
        for member in members:
            assert member in names, (suite, member)
    # every registered check is callable
    for _, fn in REGISTRY:
        assert callable(fn)


def test_run_suite_validation():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite({"suite": "everything"})
    with pytest.raises(ValueError, match="no executable check"):
        run_suite({"checks": ["parameter_roundtrip", "made_up_check"]})
    for seed in (-1, 1.5):
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_suite({"checks": ["parameter_roundtrip"], "seed": seed})


def test_check_exception_is_recorded_not_raised(monkeypatch):
    def boom(ctx):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(harness._REGISTRY_MAP, "synthetic_boom", boom)
    results = run_suite({"checks": ["synthetic_boom"]})
    assert len(results) == 1
    res = results[0]
    assert not res.passed
    assert "RuntimeError: synthetic failure" in res.error


def test_run_suite_single_check_and_csv(tmp_path):
    def run(d):
        results = run_suite({"checks": ["parameter_roundtrip"],
                             "out_dir": str(d)})
        assert len(results) == 1 and results[0].passed
        out = {}
        for name in ("summary.csv", "estimate_parameter_roundtrip.csv"):
            with open(os.path.join(str(d), name), "rb") as fh:
                out[name] = fh.read()
        return results[0], out

    res1, blobs1 = run(tmp_path / "a")
    res2, blobs2 = run(tmp_path / "b")
    assert blobs1 == blobs2  # byte-identical reruns
    assert res1.csv_path.endswith("estimate_parameter_roundtrip.csv")
    header = blobs1["summary.csv"].split(b"\n")[0]
    assert header == b"estimate_id,pass,constant,drift"


def test_run_suite_keeps_order():
    checks = ["transform_isometries", "parameter_roundtrip"]
    results = run_suite({"checks": checks})
    assert [r.estimate_id for r in results] == checks
    assert all(r.passed for r in results)


def test_kernel_domination_reports_signed_margin():
    (res,) = run_suite({"checks": ["kernel_domination"]})
    assert res.passed
    by_level = {}
    for c, beta, b, J, field, kernel in res.rows:
        by_level.setdefault(J, []).extend([field, kernel])
    fine, coarse = np.array(by_level[384]), np.array(by_level[192])
    # the worst J = 384 excess, signed: negative means domination with margin
    assert res.constant == fine.max() < 0.0
    assert res.drift == (fine - coarse).max()


# seeds whose draw tripped the weighted-residual guard that resolve used
# before it gated on the componentwise backward error
@pytest.mark.parametrize("seed", [28, 32, 35, 63, 69, 71, 133, 136, 141, 183,
                                  188, 214, 231, 242, 259])
def test_two_route_identity_passes_on_every_seed(seed):
    (res,) = run_suite({"checks": ["resolvent_two_route_identity"],
                        "seed": seed})
    assert res.error == "" and res.passed
    assert res.constant == max(r[-1] for r in res.rows) <= 1e-12


def test_two_route_rows_hold_each_case_own_max():
    ctx = harness.SuiteContext(seed=0)
    res = harness._check_two_route(ctx)
    grid = make_grid(256, 1.0, 2.0)
    profs = panels.vertical_panel(
        1.0, count=3, rng=ctx.rng("resolvent_two_route_identity"))
    assert len(res.rows) == 12
    for alpha, lam, got in res.rows:
        w = node_weights(grid, 1.0 - alpha)
        diffs = []
        for prof in profs:
            u1, u2 = two_route_resolvent(grid, alpha, 1.0, 0.3, 1.0, lam,
                                         prof(grid.y_nodes).astype(complex))
            diffs.append(np.sqrt(np.sum(np.abs(u1 - u2) ** 2 * w)
                                 / np.sum(np.abs(u1) ** 2 * w)))
        assert got == pytest.approx(max(diffs), rel=1e-12, abs=0.0)


def test_parabolic_contraction_reports_t_positive_worst_and_margin():
    (res,) = run_suite({"checks": ["parabolic_contraction"]})
    assert res.passed
    main = [v for t, _, v in res.rows if t > 0]
    worst = max(main + [res.detail["mixing_variant_l2"]])
    # the t = 0 rows are 1 by definition and no longer pin the constant
    assert res.constant == worst < 1.0
    assert res.drift == 1.05 - worst > 0.0


def test_run_suite_rejects_operator_keys():
    # every check builds its own models, so an operator config would be
    # silently ignored; it is rejected instead
    config = {
        "checks": ["parameter_roundtrip"],
        "q_matrix": [[2.0]],
        "q_vector": [0.4],
        "gamma": 1.0,
        "drift_b": [0.0],
        "drift_c": 1.0,
        "alpha1": -0.5,
        "alpha2": 0.5,
        "p": 2.0,
        "m": 0.2,
        "dimension": 1,
    }
    with pytest.raises(ValueError, match="unknown run_suite key.*gamma"):
        run_suite(config)


def test_refinement_study_runs_levels_in_order_and_returns_floats():
    calls = []

    def measure(J):
        calls.append(J)
        return np.float64(J) if J < 300 else np.array(2.5 * J)

    values, drift = refinement_study((100, 200, 400), measure)
    assert calls == [100, 200, 400]
    assert values == [100.0, 200.0, 1000.0]
    assert all(type(v) is float for v in values)
    assert type(drift) is float and drift == 9.0

    values, drift = refinement_study((1, 2), lambda k: (1.0, np.float64(-k)))
    assert values == [(1.0, -1.0), (1.0, -2.0)]
    assert all(type(c) is float for v in values for c in v)
    assert drift == 1.0     # worst component: |-2 - -1| / |-1|


def test_refinement_study_nonfinite_level_gives_inf_drift():
    values, drift = refinement_study((1, 2, 3),
                                     lambda k: [1.0, np.nan, 1.05][k - 1])
    assert np.isnan(values[1])
    assert drift == np.inf
    _, drift = refinement_study((1, 2),
                                lambda k: (1.0, 2.0 if k == 1 else np.inf))
    assert drift == np.inf


def test_decay_order_fits_slope_and_flags_exact():
    assert decay_order((128, 256, 512), [4e-3, 1e-3, 2.5e-4]) \
        == pytest.approx(2.0)
    assert decay_order((128, 256), [3e-14, 9e-14]) == np.inf


def test_kernel_fit_fails_on_a_nonfinite_level(monkeypatch):
    real_fit = harness.bessel_kernel_fit

    def fit(kernel, c, t):
        rep = dict(real_fit(kernel, c, t))
        if kernel.grid.num_y == 512:
            rep["kappa"] = np.inf
        return rep

    monkeypatch.setattr(harness, "bessel_kernel_fit", fit)
    (res,) = run_suite({"checks": ["kernel_gaussian_fit_bessel"]})
    assert res.error == ""
    assert not res.passed and res.drift == np.inf


def test_estimate_result_repr_and_defaults():
    res = EstimateResult("demo", True, constant=1.5, drift=0.01)
    assert "demo" in repr(res)
    assert res.rows == [] and res.header == () and res.error == ""
    assert res.csv_path == ""


def test_square_function_ratio_guards():
    g = make_grid(32, 1.0, 2.0)

    def family(rng):
        return lambda v: v

    with pytest.raises(ValueError, match="n <= 32"):
        square_function_ratio(family, 64, 4, 2.0, 0.0, g)
    with pytest.raises(ValueError, match="trials <= 200"):
        square_function_ratio(family, 4, 500, 2.0, 0.0, g)


def test_square_function_identity_family_is_unit():
    g = make_grid(48, 1.0, 2.0)

    def family(rng):
        return lambda v: v

    r = square_function_ratio(family, 4, 6, 2.0, 0.0, g, seed=1)
    assert r == pytest.approx(1.0, abs=1e-12)


class _Pick:
    """Stand-in rng whose integers() returns one fixed index."""

    def __init__(self, index):
        self.index = index

    def integers(self, n):
        return self.index


def test_resolvent_family_members_equal_mode_solve_bitwise():
    g = make_grid(64, 1.0, 2.0)
    ops = harness.ModeOperators(g, 1.0, 0.5)
    draw = harness.resolvent_family(ops, 0.3)
    lattice = harness._sector_lattice(0.3)
    assert len(lattice) == 24
    rng = np.random.default_rng(5)
    f = rng.standard_normal(g.num_y) + 1j * rng.standard_normal(g.num_y)
    for i, lam in enumerate(lattice):
        member = draw(_Pick(i))
        assert draw(_Pick(i)) is member
        assert np.array_equal(member(f), lam * ops.solve(0.3, 1.0, lam, f))


def test_square_function_pair_cache_matches_uncached_run():
    g = make_grid(64, 1.0, 2.0)
    draw = harness.resolvent_family(harness.ModeOperators(g, 1.0, 0.5), 0.3)
    profs = [prof(g.y_nodes).astype(complex)
             for prof in panels.vertical_panel(1.0, count=6)]

    def fresh(rng):
        # a new callable on every draw, so the pair cache never hits
        member = draw(rng)
        return lambda f: member(f)

    cached = square_function_ratio(draw, 8, 12, 2.4, 0.3, g, seed=3,
                                   profiles=profs)
    uncached = square_function_ratio(fresh, 8, 12, 2.4, 0.3, g, seed=3,
                                     profiles=profs)
    assert cached == uncached
    assert cached > 0.0
