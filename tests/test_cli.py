"""End-to-end command-line behavior: exit codes, outputs, reproducibility."""

import json
import math
import os

import pytest

from degenpde.bessel1d import assemble_form, sector_resolvent_scan
from degenpde import cli
from degenpde.cli import DEFAULT_OPERATOR, ConfigError, load_config, main
from degenpde.grid import default_grading, make_grid
from degenpde.params import config_to_problem, reduce_to_model


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_bytes(d, names):
    out = {}
    for name in names:
        with open(os.path.join(str(d), name), "rb") as fh:
            out[name] = fh.read()
    return out


SMALL_OPERATOR = {
    "q_matrix": [[1.0]],
    "q_vector": [0.3],
    "gamma": 1.0,
    "drift_b": [0.0],
    "drift_c": 1.0,
    "alpha1": 0.0,
    "alpha2": 0.5,
    "p": 2.0,
    "m": 0.2,
    "dimension": 1,
}


def test_solve_elliptic_defaults_and_reproducible(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve_elliptic", "--out", str(d1)]) == 0
    assert main(["solve_elliptic", "--out", str(d2)]) == 0
    out = capsys.readouterr().out
    assert "solve_elliptic: residual" in out
    b1 = _read_bytes(d1, ["solution.csv", "manifest.json"])
    b2 = _read_bytes(d2, ["solution.csv", "manifest.json"])
    assert b1 == b2
    man = json.loads(b1["manifest.json"])
    assert man["command"] == "solve_elliptic"
    assert man["residual"] < 1e-9
    assert man["window"]["passed"] is True
    assert man["lam_in_sector"] is True
    assert man["outputs"] == ["solution.csv"]


# the README operator: 2-d, |mixing| = 0.052, sector half-angle 1.519 rad
README_OPERATOR = {
    "q_matrix": [[2.0, 0.3], [0.3, 1.5]], "q_vector": [0.4, -0.2],
    "gamma": 1.2, "drift_b": [0.5, -0.3], "drift_c": 1.4, "alpha1": 0.5,
    "alpha2": -0.3, "p": 2.5, "m": 0.6, "dimension": 2,
}


@pytest.mark.parametrize("arg, inside", [(1.55, False), (1.4, True)])
def test_solve_elliptic_flags_lam_outside_the_sector(tmp_path, capsys, arg,
                                                    inside):
    lam = [10.0 * math.cos(arg), 10.0 * math.sin(arg)]
    cfg = _write_config(tmp_path, {
        "operator": README_OPERATOR,
        "grid": {"num_cells": 32, "num_x": 8},
        "elliptic": {"lam": lam},
    })
    d = tmp_path / "out"
    assert main(["solve_elliptic", "--config", cfg, "--out", str(d)]) == 0
    man = json.loads((d / "manifest.json").read_text())
    assert man["lam_in_sector"] is inside
    err = capsys.readouterr().err
    assert ("outside the analytic sector" in err) is not inside


def test_solve_elliptic_refinement_reduces_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "operator": SMALL_OPERATOR,
        "grid": {"num_cells": 48, "num_x": 8},
    })
    errs = []
    for refine in (0, 1):
        d = tmp_path / ("ref%d" % refine)
        rc = main(["solve_elliptic", "--config", cfg, "--out", str(d),
                   "--refine", str(refine)])
        assert rc == 0
        errs.append(json.loads((d / "manifest.json").read_text())
                    ["manufactured_error"])
    assert errs[1] < 0.5 * errs[0]


def test_solve_parabolic_snapshots_reproducible(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "operator": SMALL_OPERATOR,
        "grid": {"num_cells": 32, "num_x": 8},
        "parabolic": {"t_final": 0.2, "steps": 8, "snapshot_stride": 4},
    })
    d1, d2 = tmp_path / "p1", tmp_path / "p2"
    assert main(["solve_parabolic", "--config", cfg, "--out", str(d1)]) == 0
    assert main(["solve_parabolic", "--config", cfg, "--out", str(d2)]) == 0
    man = json.loads((d1 / "manifest.json").read_text())
    snaps = man["evolution"]["snapshots"]
    assert snaps == ["snapshot_0000.csv", "snapshot_0004.csv",
                     "snapshot_0008.csv"]
    names = snaps + ["manifest.json"]
    assert sorted(os.listdir(d1)) == sorted(names)
    assert _read_bytes(d1, names) == _read_bytes(d2, names)
    assert man["evolution"]["scheme"] == "backward_euler"
    assert 0.0 < man["residual"] <= 1e-12
    out = capsys.readouterr().out
    assert "residual %.3e" % man["residual"] in out


def test_solve_parabolic_writes_the_final_state_off_the_stride(tmp_path,
                                                               capsys):
    # 7 steps at stride 3 keep 0, 3 and 6, and the state at t_final too
    names = {}
    for stride in (3, 1):
        cfg = _write_config(tmp_path, {
            "operator": SMALL_OPERATOR,
            "grid": {"num_cells": 32, "num_x": 8},
            "parabolic": {"t_final": 0.2, "steps": 7,
                          "snapshot_stride": stride},
        })
        d = tmp_path / ("s%d" % stride)
        assert main(["solve_parabolic", "--config", cfg, "--out",
                     str(d)]) == 0
        names[stride] = json.loads((d / "manifest.json").read_text())[
            "evolution"]["snapshots"]
    assert names[3] == ["snapshot_0000.csv", "snapshot_0003.csv",
                        "snapshot_0006.csv", "snapshot_0007.csv"]
    assert sorted(os.listdir(tmp_path / "s3")) == sorted(
        names[3] + ["manifest.json"])
    assert (_read_bytes(tmp_path / "s3", names[3])
            == _read_bytes(tmp_path / "s1", names[3]))


def test_solve_parabolic_snapshots_do_not_depend_on_the_core_count(
        tmp_path, monkeypatch, capsys):
    # 64 modes, on the Thomas path; every such batch is split here, so the
    # two-core run marches two forked ranges of mode columns
    from degenpde import semigroup

    monkeypatch.setattr(semigroup, "_SPLIT_WORK", 1)
    cfg = _write_config(tmp_path, {
        "operator": README_OPERATOR,
        "grid": {"num_cells": 16, "num_x": 8},
        "parabolic": {"steps": 4, "snapshot_stride": 2,
                      "scheme": "crank_nicolson"},
    })
    forks = []
    real_fork = os.fork

    def logged_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", logged_fork)
    runs = {}
    for label, cores in (("one", {0}), ("two", {0, 1}), ("again", {0, 1})):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        d = tmp_path / label
        assert main(["solve_parabolic", "--config", cfg, "--out",
                     str(d)]) == 0
        names = json.loads((d / "manifest.json").read_text())[
            "evolution"]["snapshots"]
        runs[label] = (names, _read_bytes(d, names + ["manifest.json"]))
    assert len(forks) == 2
    names, one = runs["one"]
    assert names == ["snapshot_0000.csv", "snapshot_0002.csv",
                     "snapshot_0004.csv"]
    two = runs["two"][1]
    assert all(one[name] == two[name] for name in names)
    assert runs["again"][1] == two


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["solve_elliptic", "solve_parabolic"])
@pytest.mark.parametrize("drift_b", [[0.5, -0.3], [0.0, 0.0]])
@pytest.mark.parametrize("drift_c", [1e308, -1e308, 1e155])
def test_huge_drift_c_is_config_error(tmp_path, capsys, command, drift_b,
                                      drift_c):
    # the shear of a nonzero drift_b used to overflow at c ** 2 with a
    # traceback; with drift_b = 0 the moments overflowed with warnings
    cfg = _write_config(tmp_path, {
        "operator": dict(README_OPERATOR, drift_b=drift_b, drift_c=drift_c),
        "grid": {"num_cells": 16, "num_x": 4},
    })
    out_dir = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "config error: operator.drift_c = %r is out of range" % drift_c \
        in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("drift_b", [[0.5, -0.3], [0.0, 0.0]])
def test_sweep_marks_huge_drift_c_invalid(tmp_path, capsys, drift_b):
    cfg = _write_config(tmp_path, {
        "operator": dict(README_OPERATOR, drift_b=drift_b),
        "sweep": {"parameter": "drift_c", "values": [0.5, 1e308]},
    })
    d = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(d)]) == 0
    rows = [r.split(",") for r in
            (d / "sweep.csv").read_text().strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["0.5", "1e+308"]
    assert rows[0][4] in ("yes", "no") and math.isfinite(float(rows[0][5]))
    assert rows[1][4] == "invalid"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("alpha2,code", [(-1e155, 2), (-1e154, 0)])
def test_huge_alpha_gap_is_config_error(tmp_path, capsys, alpha2, code):
    # on the default operator, gamma (beta + 1)^2 used to overflow in
    # reduce_to_model with a traceback at -1e155; -1e154 solves
    cfg = _write_config(tmp_path, {
        "operator": dict(DEFAULT_OPERATOR, alpha2=alpha2)})
    out_dir = tmp_path / "o"
    assert main(["solve_elliptic", "--config", cfg, "--out",
                 str(out_dir)]) == code
    err = capsys.readouterr().err
    named = "config error: operator.alpha2 = %r is out of range" % alpha2
    assert (named in err) == (code == 2)
    assert "Traceback" not in err
    assert out_dir.exists() == (code == 0)


def test_sweep_marks_a_huge_alpha_gap_invalid(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "sweep": {"parameter": "alpha2", "values": [0.3, -1e300]}})
    d = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(d)]) == 0
    rows = [r.split(",") for r in
            (d / "sweep.csv").read_text().strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["0.29999999999999999",
                                    "-1.0000000000000001e+300"]
    assert rows[0][4] in ("yes", "no") and math.isfinite(float(rows[0][5]))
    assert rows[1][4] == "invalid"


@pytest.mark.filterwarnings("error")
def test_tiny_drift_c_is_config_error(tmp_path, capsys):
    # 1e-200 under the README drift_b used to end in a ZeroDivisionError
    # traceback and exit 1
    cfg = _write_config(tmp_path, {
        "operator": dict(README_OPERATOR, drift_c=1e-200),
        "grid": {"num_cells": 16, "num_x": 4},
    })
    out_dir = tmp_path / "o"
    assert main(["solve_elliptic", "--config", cfg, "--out",
                 str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "config error: operator.drift_c = 1e-200 is out of range: the " \
           "shear slope" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("drift_c,code", [
    (1e-6, 2), (1e-7, 2), (1e-8, 2), (1e-5, 0), (3e-7, 0),
])
def test_small_drift_c_that_rounds_mixing_to_one_is_config_error(
        tmp_path, capsys, drift_c, code):
    # below the slope bound, the README drift_b's shear rounds |mixing| to
    # 1 at these three values; at the other two it solves (on mode 1: the
    # default mode 2 aliases at num_x 4)
    cfg = _write_config(tmp_path, {
        "operator": dict(README_OPERATOR, drift_c=drift_c),
        "grid": {"num_cells": 16, "num_x": 4}, "elliptic": {"mode": 1},
    })
    out_dir = tmp_path / "o"
    assert main(["solve_elliptic", "--config", cfg, "--out",
                 str(out_dir)]) == code
    err = capsys.readouterr().err
    named = "config error: operator.drift_c = %r is out of range: the " \
            "shear of drift_b rounds |mixing| to 1" % drift_c
    assert (named in err) == (code == 2)
    assert "Traceback" not in err
    assert out_dir.exists() == (code == 0)


@pytest.mark.filterwarnings("error")
def test_sweep_marks_tiny_drift_c_invalid(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "operator": README_OPERATOR,
        "sweep": {"parameter": "drift_c", "values": [0.5, 1e-10]},
    })
    d = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(d)]) == 0
    rows = [r.split(",") for r in
            (d / "sweep.csv").read_text().strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["0.5", "1e-10"]
    assert rows[0][4] in ("yes", "no") and math.isfinite(float(rows[0][5]))
    assert rows[1][4] == "invalid"
    assert capsys.readouterr().err == ""


def test_manifests_record_the_reduction_chain(tmp_path):
    from degenpde.params import config_to_problem, reduce_to_model

    _, chain = reduce_to_model(*config_to_problem(README_OPERATOR))
    cfg = _write_config(tmp_path, {
        "operator": README_OPERATOR,
        "grid": {"num_cells": 16, "num_x": 4}, "elliptic": {"mode": 1},
        "parabolic": {"steps": 2, "snapshot_stride": 2},
    })
    ell, par = tmp_path / "e", tmp_path / "p"
    assert main(["solve_elliptic", "--config", cfg, "--out", str(ell)]) == 0
    assert main(["solve_parabolic", "--config", cfg, "--out", str(par)]) == 0
    man = json.loads((ell / "manifest.json").read_text())
    assert man["transform_chain"] == chain
    man = json.loads((par / "manifest.json").read_text())
    assert man["transform_chain"] == chain
    assert man["evolution"]["transform_chain"] == chain


def test_verify_small_suite_passes(tmp_path, capsys):
    rc = main(["verify", "spectral_1d", "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verify spectral_1d: 3/3 checks passed" in out
    assert os.path.exists(str(tmp_path / "v" / "summary.csv"))


def test_verify_unknown_suite_is_config_error(tmp_path, capsys):
    rc = main(["verify", "everything", "--out", str(tmp_path / "v")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: unknown suite" in err


def test_verify_reads_only_suite(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"operator": SMALL_OPERATOR,
                                   "suite": "spectral_1d"})
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "'operator'" in err
    assert not os.path.exists(str(tmp_path / "v"))
    # sections the checks never read are rejected too, naming the first
    cfg = _write_config(tmp_path, {"elliptic": {"mode": 1},
                                   "grid": {"num_cells": 64},
                                   "suite": "parameter_maps"}, "more.json")
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "'elliptic'" in err
    assert not os.path.exists(str(tmp_path / "v"))
    cfg = _write_config(tmp_path, {"suite": "spectral_1d"}, "suite.json")
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
    assert rc == 0
    assert "verify spectral_1d: 3/3" in capsys.readouterr().out


_SWEEP_M = {"parameter": "m", "values": [0.2]}


@pytest.mark.parametrize("command, cfg, key", [
    ("solve_elliptic", {"suite": "parameter_maps"}, "suite"),
    ("solve_parabolic", {"suite": "parabolic"}, "suite"),
    ("sweep", {"sweep": _SWEEP_M, "suite": "parameter_maps"}, "suite"),
    ("verify", {"suite": "parameter_maps", "grid": {"num_cells": 64}},
     "grid"),
    ("verify", {"suite": "parameter_maps", "elliptic": {"mode": 1}},
     "elliptic"),
    ("verify", {"suite": "parameter_maps", "parabolic": {"steps": 4}},
     "parabolic"),
    ("verify", {"suite": "parameter_maps", "sweep": _SWEEP_M}, "sweep"),
])
def test_config_key_the_command_never_reads_is_config_error(tmp_path, capsys,
                                                            command, cfg,
                                                            key):
    # these keys used to be dropped silently, with exit code 0
    path = _write_config(tmp_path, cfg)
    out_dir = tmp_path / "o"
    rc = main([command, "--config", path, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: " in err and "%r" % key in err
    assert not out_dir.exists()


@pytest.mark.parametrize("suite", [["default"], {"name": "default"}])
def test_non_string_suite_is_config_error(tmp_path, capsys, suite):
    cfg = _write_config(tmp_path, {"suite": suite})
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: suite must be a string" in err
    assert not os.path.exists(str(tmp_path / "v"))


def test_unknown_top_level_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"operator": SMALL_OPERATOR,
                                   "bogus_section": {}})
    rc = main(["solve_elliptic", "--config", cfg, "--out",
               str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: unknown config key: bogus_section" in err


def test_unknown_operator_key_named(tmp_path, capsys):
    bad = dict(SMALL_OPERATOR, viscosity=1.0)
    cfg = _write_config(tmp_path, {"operator": bad})
    rc = main(["solve_elliptic", "--config", cfg, "--out",
               str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown config key" in err and "viscosity" in err


def test_missing_operator_key_named(tmp_path, capsys):
    partial = {k: v for k, v in SMALL_OPERATOR.items() if k != "gamma"}
    cfg = _write_config(tmp_path, {"operator": partial})
    rc = main(["solve_elliptic", "--config", cfg, "--out",
               str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "missing config key" in err and "gamma" in err


@pytest.mark.parametrize("command", ["solve_elliptic", "solve_parabolic",
                                     "sweep"])
@pytest.mark.parametrize("operator, named", [
    (dict(SMALL_OPERATOR, viscosity=1.0, gamma="abc"),
     "unknown config key: operator.viscosity"),
    (dict(SMALL_OPERATOR, gamma="abc"), "operator.gamma must be"),
    ({"gamma": 1.0}, "missing config key: operator.q_matrix"),
])
def test_malformed_operator_section_is_config_error(tmp_path, capsys,
                                                    command, operator,
                                                    named):
    # sweep used to write a sweep.csv of invalid rows and exit 0
    cfg = {"operator": operator}
    if command == "sweep":
        cfg["sweep"] = _SWEEP_M
    out_dir = tmp_path / "o"
    rc = main([command, "--config", _write_config(tmp_path, cfg), "--out",
               str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: " + named in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, section, named", [
    ("solve_elliptic", {"elliptic": {"lam": [1e160, 0]}},
     "elliptic.lam = [1e+160, 0]"),
    ("solve_elliptic", {"elliptic": {"lam": [1e300, 0]}},
     "elliptic.lam = [1e+300, 0]"),
    ("solve_parabolic", {"parabolic": {"t_final": 1e-300, "steps": 4}},
     "parabolic.t_final = 1e-300"),
    ("solve_parabolic", {"parabolic": {"t_final": 1e300, "steps": 4}},
     "parabolic.t_final = 1e+300"),
])
def test_residual_the_floats_cannot_hold_is_config_error(tmp_path, capsys,
                                                         command, section,
                                                         named):
    # the residual's sums of squares overflowed or underflowed, and the
    # manifest recorded a residual of 0.0, or NaN (not valid JSON)
    cfg = _write_config(tmp_path, dict(section, grid={"num_cells": 64}))
    out_dir = tmp_path / "o"
    rc = main([command, "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: %s is out of range: the weighted residual" % named \
        in err
    assert "Traceback" not in err
    assert os.listdir(str(out_dir)) == []


def test_manifest_refuses_a_non_finite_number(tmp_path):
    from degenpde.cli import _write_manifest

    with pytest.raises(ValueError, match="JSON compliant"):
        _write_manifest(str(tmp_path), {"residual": float("nan")})


def test_unknown_grid_key_named(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"operator": SMALL_OPERATOR,
                                   "grid": {"cells": 64}})
    rc = main(["solve_elliptic", "--config", cfg, "--out",
               str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: unknown config key: grid.cells" in err


def test_config_file_missing_or_malformed(tmp_path, capsys):
    rc = main(["solve_elliptic", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc = main(["solve_elliptic", "--config", str(broken), "--out",
               str(tmp_path / "o")])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err
    # a directory, and arrays nested beyond json's recursion limit, used to
    # leave load_config as IsADirectoryError and RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for path, named in ((tmp_path, "cannot be read"),
                        (deep, "not valid JSON")):
        with pytest.raises(ConfigError, match=named):
            load_config(str(path))


@pytest.mark.parametrize("lam", ["abc", [0, 0], [-5, 0], [float("nan"), 0]])
def test_bad_elliptic_lam_is_config_error(tmp_path, capsys, lam):
    cfg = _write_config(tmp_path, {"operator": SMALL_OPERATOR,
                                   "elliptic": {"lam": lam}})
    out_dir = tmp_path / "o"
    rc = main(["solve_elliptic", "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: elliptic.lam" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("key,value", [
    ("steps", 0), ("steps", 2.5), ("steps", -3), ("steps", "10"),
    ("steps", True), ("snapshot_stride", 0), ("snapshot_stride", 1.5),
    ("t_final", 0), ("t_final", -0.5), ("t_final", float("nan")),
    ("t_final", float("inf")), ("t_final", "0.5"),
    ("scheme", "forward_euler"), ("scheme", ["crank_nicolson"]),
    ("scheme", {"name": "crank_nicolson"}),
    # compared exactly, an int beyond the float range is below inf; it must
    # fail the check rather than overflow at its first float conversion
    pytest.param("t_final", 10 ** 400, id="t_final-huge_int"),
])
def test_bad_parabolic_value_is_config_error(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path, {"operator": SMALL_OPERATOR,
                                   "parabolic": {key: value}})
    out_dir = tmp_path / "o"
    rc = main(["solve_parabolic", "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: parabolic.%s" % key in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("key,value", [
    ("mode", 2.7), ("mode", 100), ("mode", -8), ("mode", 8), ("mode", "abc"),
    ("mode", True), ("center", float("nan")), ("center", "0.4"),
    ("width", -1), ("width", 0), ("width", float("inf")),
    ("forcing", "point"),
    pytest.param("center", 10 ** 400, id="center-huge_int"),
    pytest.param("width", 10 ** 400, id="width-huge_int"),
])
def test_bad_elliptic_value_is_config_error(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path, {"operator": SMALL_OPERATOR,
                                   "grid": {"num_cells": 16, "num_x": 16},
                                   "elliptic": {key: value}})
    out_dir = tmp_path / "o"
    rc = main(["solve_elliptic", "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error:" in err and "elliptic.%s" % key in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key,value", [
    ("center", 2.0), ("center", -1e10), ("width", 1e-300), ("width", 1e300),
])
def test_bump_that_misses_the_grid_is_config_error(tmp_path, capsys, key,
                                                   value):
    # on the default operator and grid, u_exact was 0 at every node (a
    # ZeroDivisionError) or the bump's width ** 2 overflowed
    cfg = _write_config(tmp_path, {"elliptic": {key: value}})
    out_dir = tmp_path / "o"
    rc = main(["solve_elliptic", "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: elliptic.%s = %r" % (key, value) in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("value", [2.7, 100, 4, -4, "abc", False])
def test_bad_forcing_mode_is_config_error(tmp_path, capsys, value):
    cfg = _write_config(tmp_path, {"operator": SMALL_OPERATOR,
                                   "grid": {"num_cells": 16, "num_x": 8},
                                   "parabolic": {"forcing_mode": value,
                                                 "steps": 2}})
    out_dir = tmp_path / "o"
    rc = main(["solve_parabolic", "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: parabolic.forcing_mode" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_largest_resolvable_modes_solve(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"operator": SMALL_OPERATOR,
                                   "grid": {"num_cells": 16, "num_x": 8},
                                   "elliptic": {"mode": -3},
                                   "parabolic": {"forcing_mode": 3,
                                                 "steps": 2}})
    for command in ("solve_elliptic", "solve_parabolic"):
        assert main([command, "--config", cfg, "--out",
                     str(tmp_path / command)]) == 0


@pytest.mark.parametrize("num_x", [2, 4])
@pytest.mark.parametrize("command,key", [("solve_elliptic", "elliptic.mode"),
                                         ("solve_parabolic",
                                          "parabolic.forcing_mode")])
def test_default_mode_of_an_absent_section_is_checked(tmp_path, capsys,
                                                      command, key, num_x):
    # the default elliptic mode 2 aliases at num_x 2 and 4, the default
    # forcing mode 1 at num_x 2; a solve used to run on it and exit 0
    cfg = _write_config(tmp_path, {"operator": README_OPERATOR,
                                   "grid": {"num_cells": 64,
                                            "num_x": num_x}})
    out_dir = tmp_path / "o"
    rc = main([command, "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert (rc == 2) == (key == "elliptic.mode" or num_x == 2)
    assert ("config error: %s must be" % key in err) == (rc == 2)
    assert "Traceback" not in err
    assert out_dir.exists() == (rc == 0)


@pytest.mark.parametrize("key,value", [
    ("num_cells", 2.5), ("num_cells", 3), ("num_cells", "64"),
    ("num_cells", True), ("num_x", 7), ("num_x", 0), ("num_x", 16.0),
    ("y_max", float("inf")), ("y_max", 0), ("y_max", -1.0),
    ("box_length", float("nan")), ("box_length", 0),
    ("grading", 0.5), ("grading", float("inf")), ("grading", "2"),
    pytest.param("y_max", 10 ** 400, id="y_max-huge_int"),
    pytest.param("box_length", 10 ** 400, id="box_length-huge_int"),
    pytest.param("grading", 10 ** 400, id="grading-huge_int"),
])
@pytest.mark.parametrize("command", ["solve_elliptic", "solve_parabolic"])
def test_bad_grid_value_is_config_error(tmp_path, capsys, command, key,
                                        value):
    cfg = _write_config(tmp_path, {"operator": SMALL_OPERATOR,
                                   "grid": {key: value}})
    out_dir = tmp_path / "o"
    rc = main([command, "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: grid.%s" % key in err
    assert "Traceback" not in err
    assert not out_dir.exists()


# the README's config example: a 2-d operator on 129 x 16^2 grid points
README_CONFIG = {
    "operator": {"q_matrix": [[2.0, 0.3], [0.3, 1.5]], "q_vector": [0.4, -0.2],
                 "gamma": 1.2, "drift_b": [0.5, -0.3], "drift_c": 1.4,
                 "alpha1": 0.5, "alpha2": -0.3, "p": 2.5, "m": 0.6,
                 "dimension": 2},
    "grid": {"num_cells": 128, "y_max": 1.0, "num_x": 16},
}


@pytest.mark.parametrize("command,section,key", [
    ("solve_elliptic", "grid", "num_cells"),
    ("solve_elliptic", "grid", "num_x"),
    ("solve_parabolic", "grid", "num_cells"),
    ("solve_parabolic", "grid", "num_x"),
    ("solve_parabolic", "parabolic", "steps"),
])
def test_size_beyond_physical_memory_is_config_error(tmp_path, capsys,
                                                     command, section, key):
    # numpy refused these with "Maximum allowed size exceeded", naming no
    # key; now nothing is allocated and no --out is made
    cfg = _write_config(tmp_path, {section: {key: 10 ** 23}})
    out_dir = tmp_path / "o"
    rc = main([command, "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: %s.%s = %d at --refine 0 is too large" % (
        section, key, 10 ** 23) in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command,parabolic,memory,named", [
    ("solve_elliptic", None, 2 << 20, "grid.num_x = 16"),
    ("solve_parabolic", None, 2 << 20, "grid.num_x = 16"),
    # the grid's 10 fields fit in 6 MiB, but not with one kept snapshot
    # per step
    ("solve_parabolic", {"steps": 20, "snapshot_stride": 1}, 6 << 20,
     "parabolic.steps = 20"),
])
def test_size_is_measured_against_physical_memory(tmp_path, capsys,
                                                  monkeypatch, command,
                                                  parabolic, memory, named):
    monkeypatch.setattr(cli, "_MEMORY", memory)
    payload = dict(README_CONFIG)
    if parabolic:
        payload["parabolic"] = parabolic
    cfg = _write_config(tmp_path, payload)
    out_dir = tmp_path / "o"
    rc = main([command, "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: %s at --refine 0 is too large" % named in err
    assert "%d bytes of physical memory" % memory in err
    assert not out_dir.exists()


@pytest.mark.parametrize("cells,memory", [(10 ** 23, None), (64, 100000)])
def test_sweep_refuses_a_grid_beyond_physical_memory_once(
        tmp_path, capsys, monkeypatch, cells, memory):
    # the grid is the same for every swept value: one config error before
    # --out is made, not an `invalid` row per value and exit 0
    if memory is not None:
        monkeypatch.setattr(cli, "_MEMORY", memory)
    cfg = _write_config(tmp_path, {
        "grid": {"num_cells": cells},
        "sweep": {"parameter": "m", "values": [0.2, 0.3]}})
    out_dir = tmp_path / "o"
    rc = main(["sweep", "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert ("config error: grid.num_cells = %d at --refine 0 is too large"
            % cells) in err
    assert not out_dir.exists()


def test_snapshot_stride_is_not_bounded(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "operator": SMALL_OPERATOR, "grid": {"num_cells": 16, "num_x": 4},
        "parabolic": {"steps": 3, "snapshot_stride": 10 ** 23}})
    out_dir = tmp_path / "o"
    assert main(["solve_parabolic", "--config", cfg, "--out",
                 str(out_dir)]) == 0
    assert sorted(os.listdir(str(out_dir))) == [
        "manifest.json", "snapshot_0000.csv", "snapshot_0003.csv"]


def test_sweep_writes_table_and_flags_inadmissible(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "operator": SMALL_OPERATOR,
        "sweep": {"parameter": "m", "values": [0.2, 2.5]},
    })
    d = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(d)]) == 0
    rows = (d / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "value,window_value,window_lower,window_upper," \
                      "admissible,sector_sup"
    assert len(rows) == 3
    flags = [r.split(",")[4] for r in rows[1:]]
    assert flags[0] == "yes" and flags[1] == "no"


def test_sweep_scans_on_the_configured_grid(tmp_path, capsys):
    sups = {}
    for cells in (64, 128):
        model = reduce_to_model(*config_to_problem(SMALL_OPERATOR))[0]
        amod = float(abs(model.mixing[0]))
        op = assemble_form(make_grid(cells, 1.0,
                                     default_grading(model.alpha)),
                           "model_mode", c=model.c_bessel, alpha=model.alpha,
                           mixing_freq=amod, freq_norm2=1.0)
        sups[cells] = sector_resolvent_scan(op, amod)["sup"]
    assert sups[64] != sups[128]
    grids = {64: {"grid": {"num_cells": 64}}, 128: {}}
    for cells, grid in grids.items():
        cfg = _write_config(tmp_path, dict(grid, operator=SMALL_OPERATOR,
                                           sweep=_SWEEP_M), "%d.json" % cells)
        d = tmp_path / str(cells)
        assert main(["sweep", "--config", cfg, "--out", str(d)]) == 0
        row = (d / "sweep.csv").read_text().strip().split("\n")[1]
        assert float(row.split(",")[-1]) == sups[cells]


@pytest.mark.filterwarnings("error")
def test_sweep_keeps_other_values_when_the_solver_refuses_one(tmp_path,
                                                              capsys):
    # drift_c -1.5 gives a model with c <= -1, which the solver refuses,
    # and 1e308 a model exponent beyond the config's range; each is an
    # invalid row and the valid value keeps its row
    cfg = _write_config(tmp_path, {
        "operator": SMALL_OPERATOR,
        "sweep": {"parameter": "drift_c", "values": [0.5, -1.5, 1e308]},
    })
    d = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(d)]) == 0
    rows = [r.split(",") for r in
            (d / "sweep.csv").read_text().strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["0.5", "-1.5", "1e+308"]
    assert rows[0][4] == "yes" and math.isfinite(float(rows[0][5]))
    for row in rows[1:]:
        assert row[4] == "invalid"
        assert all(math.isnan(float(cell)) for cell in row[1:4] + row[5:])


def test_sweep_table_does_not_depend_on_seed(tmp_path, capsys):
    # the sector column is an exact norm, so no seed enters sweep.csv
    cfg = _write_config(tmp_path, {
        "operator": SMALL_OPERATOR,
        "sweep": {"parameter": "m", "values": [0.2, 0.6]},
    })
    tables = []
    for seed in (0, 5):
        d = tmp_path / ("seed%d" % seed)
        assert main(["sweep", "--config", cfg, "--out", str(d),
                     "--seed", str(seed)]) == 0
        tables.append(_read_bytes(d, ["sweep.csv"]))
    assert tables[0] == tables[1]


def test_sweep_requires_section_and_valid_parameter(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"operator": SMALL_OPERATOR})
    assert main(["sweep", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "sweep requires a config" in capsys.readouterr().err
    cfg2 = _write_config(tmp_path, {
        "operator": SMALL_OPERATOR,
        "sweep": {"parameter": "q_matrix", "values": [1.0]},
    }, name="c2.json")
    assert main(["sweep", "--config", cfg2, "--out",
                 str(tmp_path / "o")]) == 2
    assert "sweep.parameter" in capsys.readouterr().err


@pytest.mark.parametrize("values", [
    [True, 0.5], ["0.5"], [[1, 2]], [10 ** 400], [],
])
def test_sweep_values_are_finite_numbers(tmp_path, capsys, values):
    # a boolean or a string is not swept as a number, and a nested list or
    # an int beyond the float range is bad input, not a traceback
    cfg = _write_config(tmp_path, {
        "operator": SMALL_OPERATOR,
        "sweep": {"parameter": "m", "values": values},
    })
    out_dir = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "config error: sweep.values must be" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_sweep_json_overflow_is_config_error(tmp_path, capsys):
    # JSON 1e400 parses to inf: rejected at the boundary, not an invalid row
    path = tmp_path / "config.json"
    path.write_text('{"sweep": {"parameter": "m", "values": [0.2, 1e400]}}')
    assert main(["sweep", "--config", str(path), "--out",
                 str(tmp_path / "o")]) == 2
    assert "sweep.values" in capsys.readouterr().err


VERTICAL_OPERATOR = dict(SMALL_OPERATOR, q_matrix=[], q_vector=[],
                         drift_b=[], dimension=0)


@pytest.mark.parametrize("command", ["solve_elliptic", "solve_parabolic"])
def test_dimension_zero_is_config_error_for_solves(tmp_path, capsys,
                                                   command):
    # the solve commands work on an x-box; a purely vertical operator is bad
    # input named at the config boundary, not an internal failure
    cfg = _write_config(tmp_path, {"operator": VERTICAL_OPERATOR})
    out_dir = tmp_path / "o"
    rc = main([command, "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: operator.dimension must be >= 1" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_sweep_accepts_dimension_zero(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "operator": VERTICAL_OPERATOR,
        "sweep": {"parameter": "m", "values": [0.2, 0.6]},
    })
    d = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(d)]) == 0
    rows = (d / "sweep.csv").read_text().strip().split("\n")
    assert len(rows) == 3
    assert all(r.split(",")[4] in ("yes", "no") for r in rows[1:])


@pytest.mark.parametrize("command", ["solve_elliptic", "solve_parabolic"])
def test_negative_refine_is_config_error(tmp_path, capsys, command):
    out_dir = tmp_path / "o"
    rc = main([command, "--out", str(out_dir), "--refine", "-3"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: --refine" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, named", [
    (["verify", "parameter_maps", "--refine", "3"], "--refine"),
    (["sweep", "--refine", "1"], "--refine"),
    (["solve_elliptic", "parameter_maps"], "'parameter_maps'"),
    (["solve_parabolic", "default"], "'default'"),
    (["sweep", "spectral_1d"], "'spectral_1d'"),
])
def test_argument_the_command_never_reads_is_config_error(tmp_path, capsys,
                                                          argv, named):
    # these arguments used to be dropped silently, with exit code 0
    out_dir = tmp_path / "o"
    rc = main(argv + ["--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: " in err and named in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["verify", "solve_elliptic"])
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    out_dir = tmp_path / "o"
    argv = [command] + (["spectral_1d"] if command == "verify" else [])
    rc = main(argv + ["--out", str(out_dir), "--seed", "-1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: --seed" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["solve_elliptic", "solve_parabolic",
                                     "verify", "sweep"])
@pytest.mark.parametrize("target", ["file", "under_file"])
def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, capsys,
                                                        command, target):
    # --out naming an existing file, or a path below one, used to run the
    # whole command and then exit 1 with a traceback from os.makedirs
    existing = tmp_path / "taken"
    existing.write_text("keep")
    out = existing if target == "file" else existing / "o"
    argv = [command] + (["spectral_1d"] if command == "verify" else [])
    if command == "sweep":
        argv += ["--config", _write_config(tmp_path, {
            "sweep": {"parameter": "m", "values": [0.2]}})]
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: --out %s is not a usable output directory" % out \
        in err
    assert "Traceback" not in err
    assert existing.read_text() == "keep"


@pytest.mark.parametrize("key,value", [
    ("gamma", float("nan")), ("gamma", float("inf")),
    ("drift_c", float("nan")), ("alpha1", float("-inf")),
    ("alpha2", float("nan")), ("p", float("nan")), ("m", float("inf")),
    ("q_matrix", [[float("nan")]]), ("q_vector", [float("nan")]),
    ("drift_b", [float("inf")]), ("gamma", "abc"), ("gamma", [1.0]),
    ("p", [2.0, 3.0]), ("dimension", 1.7), ("dimension", float("nan")),
    ("dimension", -1), ("dimension", "1"), ("dimension", True),
    ("gamma", "1.5"), ("alpha1", True), ("q_vector", ["0.25"]),
    ("drift_b", [False]), ("q_matrix", [["1.0"]]), ("m", False),
])
def test_non_finite_operator_number_is_config_error(tmp_path, capsys, key,
                                                    value):
    cfg = _write_config(tmp_path, {"operator": dict(SMALL_OPERATOR,
                                                    **{key: value})})
    out_dir = tmp_path / "o"
    rc = main(["solve_elliptic", "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: operator.%s must be" % key in err
    assert "Traceback" not in err
    assert not out_dir.exists()
