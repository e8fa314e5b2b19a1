"""Acceptance gate: twelve quantitative criteria with stated runtime budgets.

Each criterion runs the library at its documented scale, asserts the stated
tolerance, asserts the stated runtime ceiling, and prints one summary line
(visible with `pytest -s` or in the captured-output section of a report).
"""

import json
import os
import time

import numpy as np

from degenpde.cli import main as cli_main
from degenpde.harness import run_suite


def _run_checks(check_ids):
    t0 = time.perf_counter()
    results = run_suite({"checks": list(check_ids)})
    elapsed = time.perf_counter() - t0
    return {r.estimate_id: r for r in results}, elapsed


def _line(num, label, ok, note, elapsed, budget):
    print("criterion %02d %-24s %s  %s  (%.1fs < %gs)"
          % (num, label, "PASS" if ok else "FAIL", note, elapsed, budget))


def test_criterion_01_parameter_calculus():
    budget = 1.0
    res, dt = _run_checks(["parameter_roundtrip"])
    r = res["parameter_roundtrip"]
    ok = r.passed and r.constant <= 1e-12 and dt < budget
    _line(1, "parameter_calculus", ok, "worst %.3e" % r.constant, dt, budget)
    assert r.passed
    assert r.constant <= 1e-12
    assert dt < budget


def test_criterion_02_isometries():
    budget = 10.0
    res, dt = _run_checks(["transform_isometries"])
    d = res["transform_isometries"].detail
    ok = (d["power"] <= 1e-3 and d["phase"] <= 1e-13
          and d["shear"] <= 1e-12 and dt < budget)
    _line(2, "isometries", ok,
          "power %.2e phase %.2e shear %.2e"
          % (d["power"], d["phase"], d["shear"]), dt, budget)
    assert d["power"] <= 1e-3      # J = 256, 10-function panel
    assert d["phase"] <= 1e-13     # unimodular: exact up to rounding
    assert d["shear"] <= 1e-12     # spectral accuracy
    assert dt < budget


def test_criterion_03_similarity_identities():
    budget = 60.0
    res, dt = _run_checks(["power_similarity", "model_equivalence_1d"])
    ps = res["power_similarity"]
    me = res["model_equivalence_1d"]
    orders = ps.detail["orders"] + me.detail["orders"]
    cases = ps.detail["cases"]
    ok = (min(orders) >= 1.0 and len(cases) == 3
          and any(a1 != a2 for (a1, a2, _, _) in cases)
          and ps.levels == [128, 256, 512] and dt < budget)
    _line(3, "similarity_identities", ok,
          "min order %.2f over %d cases" % (min(orders), len(orders)),
          dt, budget)
    assert min(orders) >= 1.0                       # at least first order
    assert ps.levels == me.levels == [128, 256, 512]
    assert any(a1 != a2 for (a1, a2, _, _) in cases)
    assert dt < budget


def test_criterion_04_spectral_structure():
    budget = 120.0
    res, dt = _run_checks(["selfadjoint_spectrum", "sector_resolvent_scan"])
    sa = res["selfadjoint_spectrum"]
    sc = res["sector_resolvent_scan"]
    mixings = sorted({row[0] for row in sc.rows})
    ok = (sa.detail["hermitian_defect"] <= 1e-10
          and sa.detail["spectrum_min"] >= -1e-8
          and sc.constant <= 4.0 and sc.drift <= 0.2
          and mixings == [0.0, 0.3, 0.7] and dt < budget)
    _line(4, "spectral_structure", ok,
          "defect %.1e min_eig %.1e sector sup %.3f drift %.3f"
          % (sa.detail["hermitian_defect"], sa.detail["spectrum_min"],
             sc.constant, sc.drift), dt, budget)
    assert sa.detail["hermitian_defect"] <= 1e-10
    assert sa.detail["spectrum_min"] >= -1e-8
    assert sc.constant <= 4.0
    assert sc.drift <= 0.2
    assert mixings == [0.0, 0.3, 0.7]
    assert dt < budget


def test_criterion_05_kernel_bounds():
    budget = 300.0
    res, dt = _run_checks(["kernel_gaussian_fit_bessel",
                           "kernel_gaussian_fit_model",
                           "kernel_domination"])
    kb = res["kernel_gaussian_fit_bessel"]
    km = res["kernel_gaussian_fit_model"]
    kd = res["kernel_domination"]
    for fit in (kb, km):
        for row in fit.rows:
            assert np.isfinite(row[-1]) and np.isfinite(row[-2])  # C, kappa
    ok = (kb.drift < 0.2 and km.drift < 0.2 and kd.passed
          and len(kd.detail["cases"]) == 6
          and kb.levels == [256, 512] and dt < budget)
    _line(5, "kernel_bounds", ok,
          "fit drift %.3f/%.3f domination excess %.2e"
          % (kb.drift, km.drift, kd.constant), dt, budget)
    assert kb.passed and kb.drift < 0.2
    assert km.passed and km.drift < 0.2
    assert kd.passed and len(kd.detail["cases"]) == 6
    assert dt < budget


def test_criterion_06_two_route_identity():
    budget = 60.0
    res, dt = _run_checks(["resolvent_two_route_identity"])
    r = res["resolvent_two_route_identity"]
    alphas = sorted({row[0] for row in r.rows})
    lams = sorted({row[1] for row in r.rows})
    ok = (r.constant <= 1e-8 and alphas == [-0.5, 0.0, 0.5, 1.0]
          and lams == [0.1, 1.0, 10.0] and dt < budget)
    _line(6, "two_route_identity", ok, "max rel diff %.2e" % r.constant,
          dt, budget)
    assert r.constant <= 1e-8
    assert alphas == [-0.5, 0.0, 0.5, 1.0]
    assert lams == [0.1, 1.0, 10.0]
    assert dt < budget


def test_criterion_07_nd_solver():
    budget = 120.0
    res, dt = _run_checks(["nd_manufactured_convergence",
                           "nd_mode_vs_monolithic"])
    mc = res["nd_manufactured_convergence"]
    mm = res["nd_mode_vs_monolithic"]
    ok = (mc.detail["order"] >= 1.0 and mm.constant <= 1e-8
          and mm.detail["Nx"] == 32 and mm.detail["J"] == 128
          and dt < budget)
    _line(7, "nd_solver", ok,
          "order %.2f mode-vs-monolithic %.2e"
          % (mc.detail["order"], mm.constant), dt, budget)
    assert mc.detail["order"] >= 1.0
    assert mc.detail["sum_identity"] <= 1e-8
    assert mm.constant <= 1e-8
    assert mm.detail["Nx"] == 32 and mm.detail["J"] == 128
    assert dt < budget


def test_criterion_08_apriori_and_negative_control():
    budget = 300.0
    res, dt = _run_checks(["apriori_regularity_fit",
                           "interpolation_gradient_fit",
                           "window_negative_control"])
    ap = res["apriori_regularity_fit"]
    ig = res["interpolation_gradient_fit"]
    nc = res["window_negative_control"]
    # out-of-window sup grows like y_min^(-p depth / 2): over the measured
    # 16x first-node refinement that is a factor 16^0.5 = 4 > 3 at depth 1/2
    growth_half_depth = 16.0 ** nc.detail["exponents"][0.5]
    ok = (np.isfinite(ap.constant) and ap.drift <= 0.2 and ig.passed
          and nc.detail["growth_in"] <= 1.05 and growth_half_depth > 3.0
          and dt < budget)
    _line(8, "apriori_and_control", ok,
          "constant %.3f drift %.3f; control growth %.2fx"
          % (ap.constant, ap.drift, growth_half_depth), dt, budget)
    assert np.isfinite(ap.constant) and ap.drift <= 0.2
    assert ig.passed
    assert nc.detail["growth_in"] <= 1.05   # inside the window: stable
    assert growth_half_depth > 3.0          # outside: diverges
    assert nc.passed
    assert dt < budget


def test_criterion_09_xi_derivatives():
    budget = 60.0
    res, dt = _run_checks(["xi_derivative_order"])
    r = res["xi_derivative_order"]
    orders = [row[3] for row in r.rows]
    ok = all(o >= 1.9 for o in orders) and len(orders) == 2 and dt < budget
    _line(9, "xi_derivatives", ok,
          "orders n=1: %.3f, n=2: %.3f" % tuple(orders), dt, budget)
    assert len(orders) == 2            # first and second derivative formulas
    assert all(o >= 1.9 for o in orders)
    assert dt < budget


def test_criterion_10_square_function():
    budget = 120.0
    res, dt = _run_checks(["square_function_resolvent_family"])
    r = res["square_function_resolvent_family"]
    ratios = r.detail["ratios"]
    ok = (r.drift <= 0.2 and abs(r.detail["identity"] - 1.0) <= 1e-14
          and all(np.isfinite(v) for v in ratios.values()) and dt < budget)
    _line(10, "square_function", ok,
          "ratio %.3f drift %.3f identity %.15f"
          % (ratios[16], r.drift, r.detail["identity"]), dt, budget)
    assert set(ratios) == {4, 8, 16}
    assert all(np.isfinite(v) for v in ratios.values())
    assert r.drift <= 0.2                              # stable as n doubles
    assert abs(r.detail["identity"] - 1.0) <= 1e-14    # identity family = 1
    assert dt < budget


def test_criterion_11_parabolic():
    budget = 300.0
    res, dt = _run_checks(["parabolic_heat_closed_form",
                           "parabolic_contraction",
                           "maximal_regularity_ratio"])
    heat = res["parabolic_heat_closed_form"]
    contr = res["parabolic_contraction"]
    mr = res["maximal_regularity_ratio"]
    ok = (heat.drift >= 1.5 and contr.constant <= 1.05
          and mr.detail["hilbert"]["ratio"] <= 10.0 and mr.drift <= 0.2
          and dt < budget)
    _line(11, "parabolic", ok,
          "heat ratio %.2f contraction %.4f maxreg %.2f drift %.3f"
          % (heat.drift, contr.constant, mr.detail["hilbert"]["ratio"],
             mr.drift), dt, budget)
    assert heat.drift >= 1.5        # error halves under joint dt/grid halving
    assert heat.constant < 0.05
    assert contr.constant <= 1.05
    assert mr.detail["hilbert"]["ratio"] <= 10.0
    assert mr.drift <= 0.2
    assert dt < budget


def test_criterion_12_reproducibility_and_budget(tmp_path):
    budget = 1200.0
    # same config and seed twice: byte-identical CSV artifacts
    blobs = []
    for tag in ("r1", "r2"):
        d = tmp_path / tag
        rc = cli_main(["solve_elliptic", "--out", str(d), "--seed", "7"])
        assert rc == 0
        results = run_suite({"checks": ["parameter_roundtrip"],
                             "out_dir": str(d / "verify"), "seed": 7})
        assert results[0].passed
        got = {}
        for name in ("solution.csv", "manifest.json"):
            with open(os.path.join(str(d), name), "rb") as fh:
                got[name] = fh.read()
        for name in ("summary.csv", "estimate_parameter_roundtrip.csv"):
            with open(os.path.join(str(d / "verify"), name), "rb") as fh:
                got[name] = fh.read()
        blobs.append(got)
    assert blobs[0] == blobs[1]

    # the full default suite fits the stated wall-clock ceiling and passes
    t0 = time.perf_counter()
    results = run_suite({"suite": "default"})
    dt = time.perf_counter() - t0
    failed = [r.estimate_id for r in results if not r.passed]
    ok = not failed and dt < budget
    _line(12, "reproducibility", ok,
          "default suite %d/%d in %.1fs; CSVs byte-identical"
          % (len(results) - len(failed), len(results), dt), dt, budget)
    assert failed == []
    assert dt < budget
