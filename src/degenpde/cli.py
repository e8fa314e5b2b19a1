"""Command-line entry point: solves, evolutions, verification suites, sweeps.

Commands
    solve_elliptic    (lam - L) u = f for the model form of the configured
                      operator, manufactured or configured forcing; prints a
                      residual line, writes solution.csv and manifest.json.
                      A lam outside the analytic sector is solved but
                      flagged: lam_in_sector false and a stderr warning.
    solve_parabolic   time evolution with snapshot CSVs and a manifest.
                      Both solves work on an x-box: operator.dimension >= 1.
    verify SUITE      run a registered check suite; exit 1 if any check fails.
                      Reads only the config's suite key; a config that sets
                      operator is rejected (each check builds its own).
    sweep             re-evaluate window margins and the sector sup while one
                      operator parameter ranges over configured values.

Config is a JSON file: {"operator": {flat keys as in the params module},
"grid": {num_cells, y_max, grading, num_x, box_length}, "elliptic": {...},
"parabolic": {...}, "sweep": {...}, "suite": name}.  Exit codes: 0 success,
1 check failure, 2 config error (the message names the offending key).
Outputs carry no timestamps: the same config and seed reproduce byte-identical
CSVs.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, harness, panels, semigroup
from .bessel1d import assemble_form, sector_angle, sector_resolvent_scan
from .grid import XBox, Field, make_grid, default_grading, lp_norm, \
    write_field_csv
from .harness import manufactured_mode_case, run_suite
from .multiplier import resolvent_nd
from .params import config_to_problem, reduce_to_model, validate_window


class ConfigError(ValueError):
    pass


DEFAULT_OPERATOR = {
    "q_matrix": [1.0],
    "q_vector": [0.0],
    "gamma": 1.0,
    "drift_b": [0.0],
    "drift_c": 0.0,
    "alpha1": 0.0,
    "alpha2": 0.0,
    "p": 2.0,
    "m": 0.0,
    "dimension": 1,
}

GRID_KEYS = {"num_cells": 128, "y_max": 1.0, "grading": None, "num_x": 16,
             "box_length": 2.0 * np.pi}
ELLIPTIC_KEYS = {"lam": [2.0, 0.0], "forcing": "manufactured", "mode": 2,
                 "center": 0.45, "width": 0.18}
PARABOLIC_KEYS = {"t_final": 0.5, "steps": 20, "scheme": "backward_euler",
                  "snapshot_stride": 5, "forcing_mode": 1}
SWEEP_KEYS = {"parameter": None, "values": None}
SWEEP_PARAMETERS = ("alpha1", "alpha2", "drift_c", "gamma", "m", "p")
TOP_KEYS = ("operator", "grid", "elliptic", "parabolic", "sweep", "suite")


def _section(cfg, name, defaults):
    sec = dict(defaults)
    got = cfg.get(name, {})
    if not isinstance(got, dict):
        raise ConfigError("config section %r must be a mapping" % name)
    for key, val in got.items():
        if key not in defaults:
            raise ConfigError("unknown config key: %s.%s" % (name, key))
        sec[key] = val
    return sec


def load_config(path):
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError("config file not found: %s" % path)
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    for key in cfg:
        if key not in TOP_KEYS:
            raise ConfigError("unknown config key: %s" % key)
    num_x = _check_grid(_section(cfg, "grid", GRID_KEYS))
    if "elliptic" in cfg:
        _check_elliptic(_section(cfg, "elliptic", ELLIPTIC_KEYS), num_x)
    if "parabolic" in cfg:
        _check_parabolic(_section(cfg, "parabolic", PARABOLIC_KEYS), num_x)
    if "sweep" in cfg:
        _check_sweep(_section(cfg, "sweep", SWEEP_KEYS))
    return cfg


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _finite_number(v):
    # int and float compare exactly, so an int beyond the float range fails
    # here instead of overflowing at its first float conversion; NaN and
    # the infinities fail too
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _check_positive(name, value):
    if not (_finite_number(value) and value > 0):
        raise ConfigError("%s must be a finite number > 0, got %r"
                          % (name, value))


def _check_mode(name, value, num_x):
    """A Fourier mode k with |k| < num_x / 2, so it is neither truncated nor
    aliased onto another mode of the x-grid."""
    if not (_integer(value) and 2 * abs(value) < num_x):
        raise ConfigError("%s must be an integer with |k| < num_x / 2 = %d, "
                          "got %r" % (name, num_x // 2, value))


def _check_grid(sec):
    """Integer num_cells >= 4, even integer num_x >= 2, finite positive
    y_max and box_length, grading null or finite >= 1; returns num_x."""
    if not (_integer(sec["num_cells"]) and sec["num_cells"] >= 4):
        raise ConfigError("grid.num_cells must be an integer >= 4, got %r"
                          % (sec["num_cells"],))
    num_x = sec["num_x"]
    if not (_integer(num_x) and num_x >= 2 and num_x % 2 == 0):
        raise ConfigError("grid.num_x must be an even integer >= 2, got %r"
                          % (num_x,))
    _check_positive("grid.y_max", sec["y_max"])
    _check_positive("grid.box_length", sec["box_length"])
    grading = sec["grading"]
    if grading is not None and not (_finite_number(grading)
                                    and grading >= 1):
        raise ConfigError("grid.grading must be null or a finite number "
                          ">= 1, got %r" % (grading,))
    return num_x


def _check_elliptic(sec, num_x):
    """lam = [Re lam, Im lam] finite with Re lam > 0, manufactured forcing,
    a resolvable mode, finite center and finite width > 0."""
    lam = sec["lam"]
    if not (isinstance(lam, list) and len(lam) == 2
            and all(_finite_number(v) for v in lam)):
        raise ConfigError("elliptic.lam must be two finite numbers "
                          "[re, im], got %r" % (lam,))
    if not lam[0] > 0:
        raise ConfigError("elliptic.lam needs Re lam > 0, got %r" % (lam,))
    if sec["forcing"] != "manufactured":
        raise ConfigError("unknown config key: elliptic.forcing value %r"
                          % (sec["forcing"],))
    _check_mode("elliptic.mode", sec["mode"], num_x)
    if not _finite_number(sec["center"]):
        raise ConfigError("elliptic.center must be a finite number, got %r"
                          % (sec["center"],))
    _check_positive("elliptic.width", sec["width"])


def _check_parabolic(sec, num_x):
    """Integer steps and stride >= 1, finite t_final > 0, a known scheme,
    a resolvable forcing_mode."""
    for key in ("steps", "snapshot_stride"):
        val = sec[key]
        if not (_integer(val) and val >= 1):
            raise ConfigError("parabolic.%s must be an integer >= 1, got %r"
                              % (key, val))
    _check_positive("parabolic.t_final", sec["t_final"])
    if sec["scheme"] not in semigroup.SCHEMES:
        raise ConfigError("parabolic.scheme must be one of %s, got %r"
                          % (", ".join(semigroup.SCHEMES), sec["scheme"]))
    _check_mode("parabolic.forcing_mode", sec["forcing_mode"], num_x)


def _check_sweep(sec):
    """A sweepable operator parameter and a non-empty list of finite
    numbers (no booleans, strings or nested lists)."""
    if sec["parameter"] not in SWEEP_PARAMETERS:
        raise ConfigError("unknown config key: sweep.parameter %r"
                          % (sec["parameter"],))
    values = sec["values"]
    if not (isinstance(values, list) and values
            and all(_finite_number(v) for v in values)):
        raise ConfigError("sweep.values must be a non-empty list of finite "
                          "numbers, got %r" % (values,))


def _problem(cfg):
    """(spec, space, model, chain) of the operator section for a solve
    command, which solves on an x-box and so needs at least one horizontal
    dimension; an operator the reduction refuses is a config error."""
    try:
        spec, space = config_to_problem(cfg["operator"])
        if spec.dim == 0:
            raise ValueError("operator.dimension must be >= 1 for the solve "
                             "commands, which solve on an x-box; got 0")
        return (spec, space) + reduce_to_model(spec, space)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _grid_for(cfg, model, refine=0):
    gsec = _section(cfg, "grid", GRID_KEYS)
    J = gsec["num_cells"] * 2 ** refine
    grading = gsec["grading"]
    if grading is None:
        grading = default_grading(model.alpha)
    box = XBox(gsec["box_length"], gsec["num_x"], model.dim)
    return make_grid(J, gsec["y_max"], grading, box)


def _write_manifest(out_dir, payload):
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def _manifest_base(command, cfg, seed, chain):
    return {
        "command": command,
        "config": cfg,
        "seed": int(seed),
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        "transform_chain": chain,
    }


def _manufactured(model, grid, lam, esec):
    """manufactured_mode_case for the elliptic section.  Its bump lives on
    (c - w, c + w), c = center y_max and w = width y_max, and its second
    derivative divides by w^2.  A w^2 beyond the float range, or a bump
    that is 0 or not finite at every node, is a config error naming
    elliptic.center when the support misses the nodes and elliptic.width
    otherwise."""
    c, w = esec["center"] * grid.y_max, esec["width"] * grid.y_max
    if not math.isfinite(w * w):
        raise ConfigError("elliptic.width = %r is out of range: the "
                          "manufactured bump's second derivative divides by "
                          "(width y_max)^2, beyond the float range"
                          % (esec["width"],))
    u_exact, f = manufactured_mode_case(model, grid, lam, esec["mode"],
                                        esec["center"], esec["width"])
    if np.any(u_exact.values) and np.isfinite(f.values).all():
        return u_exact, f
    y = grid.y_nodes
    if c + w <= y[0] or c - w >= y[-1]:
        raise ConfigError("elliptic.center = %r is out of range: the "
                          "manufactured bump's support (%g, %g) misses the "
                          "grid's nodes in [%g, %g]"
                          % (esec["center"], c - w, c + w, y[0], y[-1]))
    raise ConfigError("elliptic.width = %r is too narrow for the grid: the "
                      "manufactured bump is 0 or not finite at every node"
                      % (esec["width"],))


def cmd_solve_elliptic(cfg, out_dir, seed, refine):
    spec, space, model, chain = _problem(cfg)
    window = validate_window(spec, space)
    grid = _grid_for(cfg, model, refine)
    esec = _section(cfg, "elliptic", ELLIPTIC_KEYS)
    lam = complex(esec["lam"][0], esec["lam"][1])
    # the resolvent bounds hold in the analytic sector; a lam outside it is
    # solved, but flagged in the manifest and on stderr
    half_angle = sector_angle(float(np.linalg.norm(model.mixing)))
    in_sector = bool(abs(np.angle(lam)) < half_angle)
    if not in_sector:
        print("warning: lam = %r lies outside the analytic sector "
              "|arg lam| < %.4f" % (lam, half_angle), file=sys.stderr)
    u_exact, f = _manufactured(model, grid, lam, esec)
    u, info = resolvent_nd(lam, f, model, grid, return_info=True)
    err = (lp_norm(u.values - u_exact.values, model.p, model.m, grid)
           / lp_norm(u_exact.values, model.p, model.m, grid))
    os.makedirs(out_dir, exist_ok=True)
    sol_path = os.path.join(out_dir, "solution.csv")
    write_field_csv(sol_path, u)
    manifest = _manifest_base("solve_elliptic", cfg, seed, chain)
    manifest["outputs"] = ["solution.csv"]
    manifest["residual"] = info["residual"]
    manifest["manufactured_error"] = float(err)
    manifest["window"] = {"value": window.value, "lower": window.lower,
                          "upper": window.upper, "passed": window.passed}
    manifest["lam_in_sector"] = in_sector
    _write_manifest(out_dir, manifest)
    print("solve_elliptic: residual %.3e manufactured_error %.3e -> %s"
          % (info["residual"], err, sol_path))
    return 0


def cmd_solve_parabolic(cfg, out_dir, seed, refine):
    model, chain = _problem(cfg)[2:]
    grid = _grid_for(cfg, model, refine)
    psec = _section(cfg, "parabolic", PARABOLIC_KEYS)
    steps = psec["steps"] * 2 ** refine
    times = np.linspace(0.0, psec["t_final"], steps + 1)
    prof = panels.bump_profile(0.4 * grid.y_max, 0.15 * grid.y_max)
    wave = panels.plane_wave(grid.x_box, [psec["forcing_mode"]] * model.dim)
    u0 = Field(panels.tensor_values(grid, wave, prof), grid)
    run = semigroup.evolve(u0, None, model, grid, psec["scheme"], times,
                           stride=psec["snapshot_stride"])
    os.makedirs(out_dir, exist_ok=True)
    manifest = _manifest_base("solve_parabolic", cfg, seed, chain)
    sub = run.export_csvs(out_dir, model=model, chain=chain)
    manifest["evolution"] = sub
    manifest["residual"] = run.residual
    _write_manifest(out_dir, manifest)
    final_norm = lp_norm(run.final.values, model.p, model.m, grid)
    print("solve_parabolic: %d steps of %s, residual %.3e, final norm %.6g "
          "-> %s" % (steps, psec["scheme"], run.residual, final_norm, out_dir))
    return 0


def cmd_verify(cfg, suite, out_dir, seed):
    if "operator" in cfg:
        raise ConfigError("verify reads only the suite key; every check "
                          "builds its own operator, so 'operator' is not used")
    suite = suite or cfg.get("suite", "default")
    try:
        results = run_suite({"suite": suite, "out_dir": out_dir,
                             "seed": seed})
    except ValueError as exc:
        raise ConfigError(str(exc))
    bad = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = "%-36s %s  constant=%.6g drift=%.6g  seconds=%.3f" % (
            res.estimate_id, status, res.constant, res.drift, res.seconds)
        if res.error:
            line += "  error=%s" % res.error
        print(line)
        bad += 0 if res.passed else 1
    print("verify %s: %d/%d checks passed"
          % (suite, len(results) - bad, len(results)))
    return 1 if bad else 0


def cmd_sweep(cfg, out_dir, seed):
    if "sweep" not in cfg:
        raise ConfigError("sweep requires a config with a sweep section")
    param, values = cfg["sweep"]["parameter"], cfg["sweep"]["values"]
    rows = []
    for v in map(float, values):
        op_cfg = dict(cfg["operator"])
        op_cfg[param] = v
        # a value whose model the solver refuses (c <= -1, a zero pivot)
        # is an invalid row, like one the parameter maps refuse
        try:
            spec, space = config_to_problem(op_cfg)
            model, _ = reduce_to_model(spec, space)
            window = validate_window(spec, space)
            grid = make_grid(128, 1.0, default_grading(model.alpha))
            amod = float(np.linalg.norm(model.mixing)) if model.dim else 0.0
            op = assemble_form(grid, "model_mode", c=model.c_bessel,
                               alpha=model.alpha, mixing_freq=amod,
                               freq_norm2=1.0)
            scan = sector_resolvent_scan(op, amod)
        except (ValueError, RuntimeError):
            rows.append((v, float("nan"), float("nan"), float("nan"),
                         "invalid", float("nan")))
            continue
        rows.append((v, window.value, window.lower, window.upper,
                     "yes" if window.passed else "no", scan["sup"]))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sweep.csv")
    harness._write_csv(path, ("value", "window_value", "window_lower",
                              "window_upper", "admissible", "sector_sup"),
                       rows)
    manifest = _manifest_base("sweep", cfg, seed, None)
    manifest["outputs"] = ["sweep.csv"]
    manifest["parameter"] = param
    _write_manifest(out_dir, manifest)
    print("sweep %s over %d values -> %s" % (param, len(values), path))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="degenpde",
        description="Degenerate-operator solves, evolutions and estimate "
                    "verification.")
    parser.add_argument("command",
                        choices=["solve_elliptic", "solve_parabolic",
                                 "verify", "sweep"])
    parser.add_argument("suite", nargs="?", default=None,
                        help="suite name for `verify`")
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--refine", type=int, default=0)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.refine < 0:
            raise ConfigError("--refine must be an integer >= 0, got %d"
                              % args.refine)
        if args.seed < 0:
            raise ConfigError("--seed must be an integer >= 0, got %d"
                              % args.seed)
        cfg = load_config(args.config)
        # verify rejects a file that sets operator, so default it only here
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, args.out, args.seed)
        cfg.setdefault("operator", dict(DEFAULT_OPERATOR))
        if args.command == "solve_elliptic":
            return cmd_solve_elliptic(cfg, args.out, args.seed, args.refine)
        if args.command == "solve_parabolic":
            return cmd_solve_parabolic(cfg, args.out, args.seed, args.refine)
        return cmd_sweep(cfg, args.out, args.seed)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
