"""Suite runner: registry integrity, error capture, CSV reproducibility,
and the forked check workers."""

import ctypes
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from degenpde import harness, panels
from degenpde.bessel1d import node_weights, two_route_resolvent
from degenpde.harness import (REGISTRY, SUITES, EstimateResult, case_study,
                              decay_order, refinement_study, run_suite,
                              square_function_ratio)
from degenpde.grid import make_grid


def test_registry_and_suites_consistent():
    names = [name for name, _, _, _ in REGISTRY]
    assert len(names) == len(set(names))
    assert SUITES["default"] == names
    # each row names one suite other than default, the only one it is in
    for name, fn, suite, levels in REGISTRY:
        assert callable(fn) and isinstance(levels, tuple)
        assert suite != "default" and name in SUITES[suite], (suite, name)
    assert sorted(name for suite, members in SUITES.items()
                  if suite != "default" for name in members) == sorted(names)


# the suites as a literal table listed them before they were derived from
# the registry rows: the derived table must repeat it, key and member order
# included
SUITES_ORACLE = {
    "default": ["parameter_roundtrip", "transform_isometries",
                "power_similarity", "model_equivalence_1d",
                "selfadjoint_spectrum", "sector_resolvent_scan",
                "kernel_gaussian_fit_bessel", "kernel_gaussian_fit_model",
                "kernel_domination", "resolvent_two_route_identity",
                "nd_mode_vs_monolithic", "nd_manufactured_convergence",
                "apriori_regularity_fit", "interpolation_gradient_fit",
                "xi_derivative_order", "mikhlin_family_scan",
                "square_function_resolvent_family",
                "parabolic_heat_closed_form", "parabolic_contraction",
                "maximal_regularity_ratio", "semigroup_structure",
                "reduction_consistency", "window_negative_control"],
    "parameter_maps": ["parameter_roundtrip", "transform_isometries",
                       "power_similarity", "model_equivalence_1d",
                       "reduction_consistency"],
    "spectral_1d": ["selfadjoint_spectrum", "sector_resolvent_scan",
                    "resolvent_two_route_identity"],
    "kernel_bounds": ["kernel_gaussian_fit_bessel",
                      "kernel_gaussian_fit_model", "kernel_domination"],
    "multiplier_bounds": ["nd_mode_vs_monolithic",
                          "nd_manufactured_convergence",
                          "apriori_regularity_fit",
                          "interpolation_gradient_fit",
                          "xi_derivative_order", "mikhlin_family_scan",
                          "square_function_resolvent_family"],
    "parabolic": ["parabolic_heat_closed_form", "parabolic_contraction",
                  "maximal_regularity_ratio", "semigroup_structure"],
    "negative_controls": ["window_negative_control"],
}


def test_derived_suites_equal_the_literal_table():
    assert list(SUITES) == list(SUITES_ORACLE)
    assert SUITES == SUITES_ORACLE


def test_run_suite_validation():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite({"suite": "everything"})
    with pytest.raises(ValueError, match="no executable check"):
        run_suite({"checks": ["parameter_roundtrip", "made_up_check"]})
    for seed in (-1, 1.5):
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_suite({"checks": ["parameter_roundtrip"], "seed": seed})


def test_run_suite_rejects_a_bool_seed():
    # bool is an Integral, so True would otherwise run as seed 1
    for seed in (True, False):
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_suite({"checks": ["parameter_roundtrip"], "seed": seed})


def _register(monkeypatch, name, check, levels=()):
    """Register a synthetic check and its levels for this test."""
    monkeypatch.setitem(harness._REGISTRY_MAP, name, check)
    monkeypatch.setitem(harness._LEVELS, name, levels)


def _register_record_check(monkeypatch):
    """A check that records the seed of each run; returns the record."""
    ran = []

    def record(seed, levels):
        ran.append(seed)
        return EstimateResult(True)

    _register(monkeypatch, "synthetic_record", record)
    return ran


@pytest.mark.parametrize("config,key", [
    ({"suite": ["default"]}, "suite"),
    ({"suite": "everything", "checks": ["synthetic_record"]}, "suite"),
    ({"checks": "synthetic_record"}, "checks"),
    ({"checks": ["synthetic_record", 3]}, "checks"),
    ({"checks": ["synthetic_record"], "out_dir": 5}, "out_dir"),
])
def test_run_suite_validates_suite_checks_and_out_dir_types(monkeypatch,
                                                            config, key):
    # a ValueError naming the key before any check, not a TypeError or a run
    ran = _register_record_check(monkeypatch)
    with pytest.raises(ValueError, match=key):
        run_suite(config)
    assert ran == []


def test_run_suite_takes_a_tuple_of_checks_and_a_path_out_dir(monkeypatch,
                                                              tmp_path):
    ran = _register_record_check(monkeypatch)
    assert run_suite({"checks": ("synthetic_record",), "seed": 4,
                      "out_dir": tmp_path / "out"})[0].passed
    assert ran == [4] and (tmp_path / "out" / "summary.csv").exists()


def test_out_dir_that_is_a_file_raises_before_any_check(monkeypatch,
                                                        tmp_path):
    ran = _register_record_check(monkeypatch)
    path = tmp_path / "file"
    path.write_text("kept")
    with pytest.raises(FileExistsError):
        run_suite({"checks": ["synthetic_record"], "out_dir": str(path)})
    assert ran == []
    assert path.read_text() == "kept"


def test_check_exception_is_recorded_not_raised(monkeypatch):
    def boom(seed, levels):
        raise RuntimeError("synthetic failure")

    _register(monkeypatch, "synthetic_boom", boom, (8, 16))
    results = run_suite({"checks": ["synthetic_boom"]})
    assert len(results) == 1
    res = results[0]
    assert not res.passed
    assert "RuntimeError: synthetic failure" in res.error
    # the failed result carries its row's id and levels
    assert res.estimate_id == "synthetic_boom" and res.levels == [8, 16]


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


def test_semigroup_structure_fails_on_any_positive_undershoot(monkeypatch):
    # backward Euler keeps positivity exactly on the a = 0 model, so an
    # undershoot of 1e-3 at both levels fails the check
    monkeypatch.setattr(harness.semigroup, "positivity_check",
                        lambda model, grid: 1e-3)
    result = harness._REGISTRY_MAP["semigroup_structure"](0, ())
    assert result.detail["positivity"] == [1e-3, 1e-3]
    assert not result.passed


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
    res = harness._check_two_route(0, ())
    grid = make_grid(256, 1.0, 2.0)
    profs = panels.vertical_panel(
        1.0, count=3, rng=harness._rng_for("resolvent_two_route_identity", 0))
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


def test_case_study_rows_follow_cases_then_levels():
    calls = []

    def measure(a, b, J):
        calls.append((a, b, J))
        return np.float64(a * J)

    rows, studies = case_study([(1, "x"), (2, "y")], (10, 20), measure)
    assert calls == [(1, "x", 10), (1, "x", 20), (2, "y", 10), (2, "y", 20)]
    assert rows == [(1, "x", 10, 10.0), (1, "x", 20, 20.0),
                    (2, "y", 10, 20.0), (2, "y", 20, 40.0)]
    assert all(type(r[-1]) is float for r in rows)
    assert studies == [([10.0, 20.0], 1.0), ([20.0, 40.0], 1.0)]

    # a tuple measure adds one column per component
    rows, studies = case_study([(0.5,)], (1, 2), lambda c, k: (c, c * k))
    assert rows == [(0.5, 1, 0.5, 0.5), (0.5, 2, 0.5, 1.0)]
    assert studies == [([(0.5, 0.5), (0.5, 1.0)], 1.0)]


def test_case_study_case_without_fields_and_nonfinite_level():
    rows, studies = case_study([()], (1, 2, 3),
                               lambda k: [1.0, np.inf, 1.05][k - 1])
    assert rows == [(1, 1.0), (2, np.inf), (3, 1.05)]
    assert studies[0][1] == np.inf
    # one case's non-finite level leaves the other cases' drifts alone
    _, studies = case_study([(1.0,), (np.nan,)], (1, 2),
                            lambda c, k: c * k)
    assert [d for _, d in studies] == [1.0, np.inf]


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
    res = EstimateResult(True, constant=1.5, drift=0.01)
    res.estimate_id = "demo"
    assert "demo" in repr(res)
    assert res.rows == [] and res.header == () and res.error == ""
    assert res.csv_path == "" and np.isnan(res.seconds)
    assert res.levels == [] and res.detail == {}


@pytest.mark.parametrize("passed", ["some_id", 1, 0.0, None, np.array(True)])
def test_estimate_result_takes_only_a_bool_verdict(passed):
    # a call in the old order, EstimateResult("some_id", ...), would
    # otherwise give a check that always passes
    with pytest.raises(TypeError, match="passed must be a bool"):
        EstimateResult(passed)
    assert EstimateResult(np.bool_(False)).passed is False


def _dictionary(g):
    return [prof(g.y_nodes).astype(complex)
            for prof in panels.vertical_panel(1.0, count=6)]


def test_square_function_ratio_guards():
    g = make_grid(32, 1.0, 2.0)

    def family(rng):
        return lambda v: v

    with pytest.raises(ValueError, match="n <= 32"):
        square_function_ratio(family, 64, 4, 2.0, 0.0, g, _dictionary(g))
    with pytest.raises(ValueError, match="trials <= 200"):
        square_function_ratio(family, 4, 500, 2.0, 0.0, g, _dictionary(g))


def test_square_function_identity_family_is_unit():
    g = make_grid(48, 1.0, 2.0)

    def family(rng):
        return lambda v: v

    r = square_function_ratio(family, 4, 6, 2.0, 0.0, g, _dictionary(g),
                              seed=1)
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
    profs = _dictionary(g)

    def fresh(rng):
        # a new callable on every draw, so the pair cache never hits
        member = draw(rng)
        return lambda f: member(f)

    cached = square_function_ratio(draw, 8, 12, 2.4, 0.3, g, profs, seed=3)
    uncached = square_function_ratio(fresh, 8, 12, 2.4, 0.3, g, profs,
                                     seed=3)
    assert cached == uncached
    assert cached > 0.0


# cheap checks: two_route seeds its RNG from its id and the suite seed,
# semigroup_structure from the suite seed alone
_CHEAP = ["resolvent_two_route_identity", "semigroup_structure",
          "selfadjoint_spectrum", "xi_derivative_order",
          "interpolation_gradient_fit", "nd_manufactured_convergence"]


def _report_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)


def _register_pid_check(monkeypatch):
    """A check that reports the pid it ran in, outside every CSV."""
    _register(monkeypatch, "synthetic_pid",
              lambda seed, levels: EstimateResult(
                  True, 0.0, 0.0, detail={"pid": os.getpid()}))


def _suite_outputs(out_dir):
    return {name: (out_dir / name).read_bytes()
            for name in sorted(os.listdir(out_dir))}


def test_forked_suite_equals_the_serial_suite(tmp_path, monkeypatch):
    _register_pid_check(monkeypatch)
    checks = _CHEAP + ["synthetic_pid"]
    runs = {}
    for label, cores in (("forked", {0, 1, 2}), ("serial", {0})):
        _report_cores(monkeypatch, cores)
        out = tmp_path / label
        runs[label] = (run_suite({"checks": checks, "seed": 71,
                                  "out_dir": str(out)}),
                       _suite_outputs(out))
    (forked, forked_csv), (serial, serial_csv) = runs["forked"], runs["serial"]
    assert forked[-1].detail["pid"] != os.getpid()
    assert serial[-1].detail["pid"] == os.getpid()
    assert [r.estimate_id for r in forked] == checks
    for a, b in zip(forked, serial):
        assert (a.passed, a.constant, a.drift) == (b.passed, b.constant,
                                                   b.drift), a.estimate_id
        assert a.rows == b.rows, a.estimate_id
        assert a.seconds > 0.0 and b.seconds > 0.0
    # each result carries its row's levels, and a J column holds exactly
    # those levels
    row_levels = {name: levels for name, _, _, levels in REGISTRY}
    for res in forked[:-1]:
        assert res.levels == list(row_levels[res.estimate_id])
        if "J" in res.header:
            j = res.header.index("J")
            assert sorted({row[j] for row in res.rows}) == res.levels, \
                res.estimate_id
    assert len(forked_csv) == len(_CHEAP) + 1   # estimates plus summary
    assert forked_csv == serial_csv


def test_check_exception_in_a_worker_is_recorded_not_raised(monkeypatch):
    def boom(seed, levels):
        raise RuntimeError("synthetic failure in %d" % os.getpid())

    _register(monkeypatch, "synthetic_boom", boom)
    _report_cores(monkeypatch, {0, 1, 2})
    results = run_suite({"checks": ["xi_derivative_order", "synthetic_boom",
                                    "selfadjoint_spectrum"]})
    assert [r.passed for r in results] == [True, False, True]
    assert "RuntimeError: synthetic failure in" in results[1].error
    assert "in %d" % os.getpid() not in results[1].error


def test_dead_worker_raises_and_leaves_no_child(monkeypatch):
    _register(monkeypatch, "synthetic_exit", lambda seed, levels: os._exit(3))
    _report_cores(monkeypatch, {0, 1, 2})
    with pytest.raises(BrokenProcessPool):
        run_suite({"checks": ["xi_derivative_order", "synthetic_exit",
                              "selfadjoint_spectrum"]})
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_suite_without_fork_or_affinity_runs_in_process(monkeypatch,
                                                        missing):
    _register_pid_check(monkeypatch)
    _report_cores(monkeypatch, {0, 1, 2})
    monkeypatch.delattr(os, missing)
    results = run_suite({"checks": ["xi_derivative_order", "synthetic_pid"]})
    assert results[0].passed
    assert results[1].detail["pid"] == os.getpid()


_BLAS_GET_THREADS = ("openblas_get_num_threads",
                     "scipy_openblas_get_num_threads",
                     "scipy_openblas_get_num_threads64_")


def _blas_thread_counts():
    """Thread count of each loaded OpenBLAS that has a known getter."""
    with open("/proc/self/maps") as fh:
        paths = {fields[5] for fields in map(str.split, fh)
                 if len(fields) == 6
                 and "openblas" in os.path.basename(fields[5])}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_GET_THREADS:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(getter())
                break
    return counts


def test_workers_run_one_blas_thread_and_the_parent_keeps_its_own(
        monkeypatch):
    # run_suite maps scipy's OpenBLAS before it forks; load it here first,
    # so that the parent's libraries are the workers' also when this test
    # runs alone
    import scipy.linalg
    parent = _blas_thread_counts()
    if not parent:
        pytest.skip("no OpenBLAS thread getter in this process")
    _register(monkeypatch, "synthetic_blas",
              lambda seed, levels: EstimateResult(
                  True, detail={"counts": _blas_thread_counts(),
                                "pid": os.getpid()}))
    _report_cores(monkeypatch, {0, 1, 2})
    results = run_suite({"checks": ["synthetic_blas"] * 3})
    for res in results:
        assert res.detail["pid"] != os.getpid()
        assert res.detail["counts"] == [1] * len(parent)
    assert _blas_thread_counts() == parent
