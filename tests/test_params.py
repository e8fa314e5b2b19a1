"""Parameter calculus: power substitution action, shear congruence, reduction."""

import math
import re

import numpy as np
import pytest

from degenpde.params import (OperatorSpec, SpaceSpec, ModelParams,
                             WindowReport, diffusion_block, validate_window,
                             beta_map, invert_beta, compose_beta, shear_map,
                             reduce_to_model, config_to_problem,
                             REQUIRED, check_section, finite_number,
                             finite_numbers, integer)


def test_beta_map_identity_at_zero():
    got = beta_map(0.0, 0.7, -0.3, 1.1, 0.4)
    assert got == (0.7, -0.3, 1.1, 0.4)


def test_beta_map_frozen_half_step():
    # alpha1 = 0, alpha2 = 1 equalize under beta = (a1 - a2)/2 = -1/2
    a1, a2, c, m = beta_map(-0.5, 0.0, 1.0, 1.0, 0.0)
    assert a1 == 0.0
    assert a2 == 0.0
    assert c == pytest.approx(1.0, abs=1e-15)   # (1 - 1/2) / (1/2)
    assert m == pytest.approx(1.0, abs=1e-15)   # (0 + 1/2) / (1/2)


def test_beta_map_roundtrip_and_composition():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        beta = rng.uniform(-0.9, 3.0)
        beta2 = rng.uniform(-0.9, 3.0)
        args = (rng.uniform(-2.0, 1.5), rng.uniform(-1.0, 1.9),
                rng.uniform(-0.9, 3.0), rng.uniform(-1.0, 2.0))
        fwd = beta_map(beta, *args)
        back = beta_map(invert_beta(beta), *fwd)
        for got, want in zip(back, args):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        two = beta_map(beta2, *fwd)
        comp = beta_map(compose_beta(beta, beta2), *args)
        for got, want in zip(two, comp):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-12


def test_invert_beta_fixed_points():
    assert invert_beta(0.0) == 0.0
    assert invert_beta(-0.5) == 1.0
    assert compose_beta(0.7, invert_beta(0.7)) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        invert_beta(-1.0)
    with pytest.raises(ValueError):
        beta_map(-1.0, 0.0, 0.0, 0.0, 0.0)


def test_shear_frozen_example():
    # Q = [[1]], q = 0, gamma = 1, b = 1, c = 2: congruence by
    # A = [[1, -1/2], [0, 1]] gives Q~ = 5/4, q~ = -1/2 (det preserved).
    spec = OperatorSpec([[1.0]], [0.0], 1.0, [1.0], 2.0, 0.0, 0.0)
    sheared = shear_map(spec)
    assert sheared.q_matrix[0, 0] == pytest.approx(1.25, abs=1e-15)
    assert sheared.q_vector[0] == pytest.approx(-0.5, abs=1e-15)
    assert sheared.drift_b[0] == 0.0
    before = np.linalg.det(diffusion_block(spec.q_matrix, spec.q_vector,
                                           spec.gamma))
    after = np.linalg.det(diffusion_block(sheared.q_matrix, sheared.q_vector,
                                          sheared.gamma))
    assert after == pytest.approx(before, rel=1e-14)


def test_shear_matches_congruence_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        R = rng.standard_normal((n + 1, n + 1))
        block = R @ R.T + (n + 1) * np.eye(n + 1)
        Q = block[:n, :n]
        q = block[:n, n]
        g = block[n, n]
        b = rng.standard_normal(n)
        c = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        spec = OperatorSpec(Q, q, g, b, c, 0.3, 0.5)
        sheared = shear_map(spec)
        A = np.eye(n + 1)
        A[:n, n] = -b / c
        want = A @ diffusion_block(Q, q, g) @ A.T
        got = diffusion_block(sheared.q_matrix, sheared.q_vector, sheared.gamma)
        assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())
        assert np.linalg.eigvalsh(got).min() > 0


def test_spec_invariants():
    with pytest.raises(ValueError):
        OperatorSpec([[1.0]], [0.0], -1.0, [0.0], 0.0, 0.0, 0.0)  # gamma <= 0
    with pytest.raises(ValueError):
        OperatorSpec([[1.0]], [0.0], 1.0, [0.0], 0.0, 0.0, 2.0)   # alpha2 = 2
    with pytest.raises(ValueError):
        OperatorSpec([[1.0]], [0.0], 1.0, [0.0], 0.0, -2.0, 0.5)  # a2-a1 >= 2
    with pytest.raises(ValueError):
        OperatorSpec([[1.0]], [1.5], 1.0, [0.0], 0.0, 0.0, 0.0)   # not pos def
    with pytest.raises(ValueError):
        OperatorSpec([[1.0]], [0.0], 1.0, [1.0], 0.0, 0.0, 0.0)   # b without c
    with pytest.raises(ValueError):
        SpaceSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        ModelParams([0.8, 0.8], 0.0, 1.0, 0.0, 2.0)   # |mixing| >= 1


def test_window_report():
    spec = OperatorSpec([[1.0]], [0.0], 2.0, [0.0], 1.0, -0.5, 0.5)
    rep = validate_window(spec, SpaceSpec(2.0, 0.0))
    assert rep.value == 0.5
    assert rep.lower == 0.5                      # max(-alpha1, 0)
    assert rep.upper == pytest.approx(1.0)       # c/gamma + 1 - alpha2
    assert not rep.passed                        # sits on the lower endpoint
    ok = validate_window(spec, SpaceSpec(2.0, 0.5))
    assert ok.passed and ok.lower_margin == pytest.approx(0.25)
    model = ModelParams([0.0], 0.5, 1.0, 0.0, 2.0)
    mrep = validate_window(model)
    assert (mrep.lower, mrep.upper) == (0.0, 1.5)
    with pytest.raises(ValueError):
        validate_window(spec)


def test_window_lower_end_is_positive_zero():
    # at alpha = 0 the lower end is +0.0, never -0.0 (printed as -0)
    spec = OperatorSpec([[1.0]], [0.0], 1.0, [0.0], 0.0, 0.0, 0.5)
    for rep in (validate_window(spec, SpaceSpec(2.0, 0.0)),
                validate_window(ModelParams([0.0], 0.0, 1.0, 0.0, 2.0))):
        assert rep.lower == 0.0 and math.copysign(1.0, rep.lower) == 1.0
        assert repr(rep.lower) == "0.0"


def test_reduce_to_model_equal_powers():
    # alpha1 == alpha2: beta = 0, no relabeling, mixing = q / sqrt(gamma Q)
    spec = OperatorSpec([[4.0]], [0.6], 1.0, [0.0], 1.0, 0.5, 0.5)
    model, chain = reduce_to_model(spec, SpaceSpec(2.0, 0.0))
    assert model.alpha == 0.5
    assert model.c_bessel == 1.0
    assert model.m == 0.0
    assert model.mixing[0] == pytest.approx(0.3)   # Q^(-1/2) q / sqrt(g)
    assert chain["scale"] == pytest.approx(1.0)
    kinds = [s["kind"] for s in chain["steps"]]
    assert kinds == ["linear_x", "power"]


# the README's example operator, as its config section
README_OPERATOR = {
    "q_matrix": [[2.0, 0.3], [0.3, 1.5]], "q_vector": [0.4, -0.2],
    "gamma": 1.2, "drift_b": [0.5, -0.3], "drift_c": 1.4, "alpha1": 0.5,
    "alpha2": -0.3, "p": 2.5, "m": 0.6, "dimension": 2,
}


def test_reduce_to_model_chain_of_the_readme_operator():
    # the dict the manifests record: shear, linear x-map, power, with
    # scale gamma (beta+1)^2 for beta = (a1 - a2)/2 = 0.4
    _, chain = reduce_to_model(*config_to_problem(README_OPERATOR))
    assert sorted(chain) == ["p", "scale", "steps"]
    assert chain["scale"] == 1.2 * 1.4 ** 2
    assert chain["p"] == 2.5
    shear, linear_x, power = chain["steps"]
    assert shear == {"kind": "shear", "shift": [0.5 / 1.4, -0.3 / 1.4]}
    assert sorted(linear_x) == ["det", "kind", "matrix"]
    assert linear_x["kind"] == "linear_x"
    assert np.shape(linear_x["matrix"]) == (2, 2)
    assert linear_x["det"] == pytest.approx(np.linalg.det(
        linear_x["matrix"]), rel=1e-14)
    assert power == {"kind": "power", "beta": 0.5 * (0.5 + 0.3)}


def test_reduce_to_model_power_relabel():
    spec = OperatorSpec([[1.0]], [0.0], 1.0, [0.0], 1.0, 0.0, 1.0)
    model, chain = reduce_to_model(spec, SpaceSpec(2.0, 0.0))
    # beta = -1/2: alpha = 0, c -> 2c - 1 = 1, m -> 2m + 1 = 1
    assert model.alpha == 0.0
    assert model.c_bessel == pytest.approx(1.0)
    assert model.m == pytest.approx(1.0)
    assert chain["scale"] == pytest.approx(0.25)   # gamma (beta+1)^2
    assert np.linalg.norm(model.mixing) < 1.0


def test_reduce_mixing_is_schur_bounded():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        R = rng.standard_normal((n + 1, n + 1))
        block = R @ R.T + 1e-3 * np.eye(n + 1)
        spec = OperatorSpec(block[:n, :n], block[:n, n], block[n, n],
                            np.zeros(n), 1.0, 0.2, 0.7)
        model, _ = reduce_to_model(spec, SpaceSpec(2.0, 0.0))
        assert np.linalg.norm(model.mixing) < 1.0


@pytest.mark.parametrize("drift_c", [1e-200, 1e-160, 1e-100, 1e-10])
def test_tiny_drift_c_under_a_drift_b_is_rejected_naming_the_key(drift_c):
    # the shear's slope |b|/|c| used to blow up past the config boundary:
    # ZeroDivisionError at 1e-200, LinAlgError at 1e-160 and "shear lost
    # ellipticity" at 1e-100 and 1e-10
    with pytest.raises(ValueError, match=r"operator\.drift_c = %r is out of "
                       r"range: the shear slope" % drift_c):
        config_to_problem(dict(README_OPERATOR, drift_c=drift_c))
    # without a drift_b there is no shear, and the value reduces
    spec, space = config_to_problem(dict(README_OPERATOR, drift_b=[0.0, 0.0],
                                         drift_c=drift_c))
    reduce_to_model(spec, space)


def test_shear_slope_bound_is_inclusive_and_keeps_small_drift_c():
    one = dict(README_OPERATOR, drift_b=[1.0, 0.0])
    config_to_problem(dict(one, drift_c=2.0 ** -26))   # slope exactly 2^26
    with pytest.raises(ValueError, match="shear slope"):
        config_to_problem(dict(one, drift_c=math.nextafter(2.0 ** -26, 0)))
    for drift_c in (1e-3, -1e-3):
        model, _ = reduce_to_model(*config_to_problem(
            dict(README_OPERATOR, drift_c=drift_c)))
        assert np.linalg.norm(model.mixing) < 1.0


@pytest.mark.parametrize("alpha1,alpha2,key", [
    (0.0, -1e155, "alpha2"), (1e155, 0.0, "alpha1"), (1e308, -1e308, "alpha2"),
])
def test_alpha_gap_whose_scale_overflows_is_rejected_naming_the_key(
        alpha1, alpha2, key):
    # gamma (beta + 1)^2 used to raise OverflowError in reduce_to_model
    cfg = dict(README_OPERATOR, alpha1=alpha1, alpha2=alpha2)
    with pytest.raises(ValueError, match=re.escape(
            "operator.%s = %r is out of range: the reduction scale"
            % (key, cfg[key]))):
        config_to_problem(cfg)


def test_config_roundtrip_and_bad_keys():
    cfg = {"q_matrix": [2.0, 0.1, 0.1, 1.0], "q_vector": [0.2, -0.1],
           "gamma": 1.5, "drift_b": [0.3, 0.0], "drift_c": 0.8,
           "alpha1": -0.25, "alpha2": 0.5, "p": 2.5, "m": 0.3,
           "dimension": 2}
    spec, space = config_to_problem(cfg)
    assert np.array_equal(spec.q_matrix, [[2.0, 0.1], [0.1, 1.0]])
    assert np.array_equal(spec.q_vector, [0.2, -0.1])
    assert np.array_equal(spec.drift_b, [0.3, 0.0])
    assert (spec.gamma, spec.drift_c, spec.alpha1, spec.alpha2) \
        == (1.5, 0.8, -0.25, 0.5)
    assert (space.p, space.m) == (2.5, 0.3)
    with pytest.raises(ValueError, match="unknown config key"):
        config_to_problem(dict(cfg, typo_key=1.0))
    short = dict(cfg)
    short.pop("gamma")
    with pytest.raises(ValueError, match="missing config key"):
        config_to_problem(short)


def test_check_section_merges_defaults_and_names_each_fault():
    rules = {"n": (3, integer, "an integer"),
             "x": (REQUIRED, finite_number, "a finite number")}
    assert check_section("s", {"x": 0.5}, rules) == {"n": 3, "x": 0.5}
    assert check_section("s", {"x": 1, "n": -2}, rules) == {"n": -2, "x": 1}
    for got, message in [
            ({"x": 1.0, "y": 2}, "unknown config key: s.y"),
            ({"n": 1}, "missing config key: s.x"),
            ({"x": "1.0"}, "s.x must be a finite number, got '1.0'"),
            ({"x": 1.0, "n": True}, "s.n must be an integer, got True"),
            ([("x", 1.0)], "config section 's' must be a mapping")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            check_section("s", got, rules)


@pytest.mark.parametrize("value, number, numbers", [
    (1.5, True, True), (-3, True, True), (10 ** 308, True, True),
    (10 ** 400, False, False), (math.inf, False, False),
    (math.nan, False, False), (True, False, False), ("1.5", False, False),
    (None, False, False), ([], False, True), ([[1, 2.0], [3, 4]], False, True),
    ([[1.0], [1.0, 2.0]], False, False), ([1.0, [2.0]], False, False),
    ([1.0, False], False, False), ([1.0, 10 ** 400], False, False),
    ({"a": 1.0}, False, False), (np.int64(2), True, True),
])
def test_number_rules(value, number, numbers):
    assert finite_number(value) == number
    assert finite_numbers(value) == numbers


@pytest.mark.parametrize("cfg, named", [
    ({"q_matrix": [1.0, 0.0, 0.0, 1.0]}, "operator.q_matrix must have 1"),
    ({"q_vector": [0.0, 0.0]}, "operator.q_vector must have 1"),
    ({"drift_b": []}, "operator.drift_b must have 1"),
])
def test_operator_list_of_the_wrong_length_names_its_key(cfg, named):
    op = {"q_matrix": [[1.0]], "q_vector": [0.0], "gamma": 1.0,
          "drift_b": [0.0], "drift_c": 0.0, "alpha1": 0.0, "alpha2": 0.0,
          "p": 2.0, "m": 0.0, "dimension": 1}
    with pytest.raises(ValueError, match=re.escape(named)):
        config_to_problem(dict(op, **cfg))
