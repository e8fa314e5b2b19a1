"""Command-line entry point: solves, evolutions, verification suites, sweeps.

Commands
    solve_elliptic    (lam - L) u = f for the model form of the configured
                      operator, manufactured or configured forcing; prints a
                      residual line, writes solution.csv and manifest.json.
                      A lam outside the analytic sector is solved but
                      flagged: lam_in_sector false and a stderr warning.
    solve_parabolic   time evolution with snapshot CSVs and a manifest.
                      Both solves work on an x-box: operator.dimension >= 1.
                      Only they read --refine, and only verify a SUITE.
    verify SUITE      run a registered check suite; exit 1 if any check fails.
                      Reads only the config's suite key, and any other key
                      is rejected (each check builds its own models and
                      grids); the other commands reject a suite key.
    sweep             re-evaluate window margins and the sector sup while one
                      operator parameter ranges over configured values.

Config is a JSON file: {"operator": {the keys of params.OPERATOR_RULES},
"grid": {num_cells, y_max, grading, num_x, box_length}, "elliptic": {...},
"parabolic": {...}, "sweep": {...}, "suite": name}, checked by RULES.  Exit
codes: 0 success, 1 check failure, 2 config error (naming <section>.<key>).
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
from .params import (OPERATOR_RULES, REQUIRED, check_section,
                     config_to_problem, finite_number, integer,
                     reduce_to_model, validate_window)


class ConfigError(ValueError):
    pass


DEFAULT_OPERATOR = {"q_matrix": [1.0], "q_vector": [0.0], "gamma": 1.0,
                    "drift_b": [0.0], "drift_c": 0.0, "alpha1": 0.0,
                    "alpha2": 0.0, "p": 2.0, "m": 0.0, "dimension": 1}
SWEEP_PARAMETERS = ("alpha1", "alpha2", "drift_c", "gamma", "m", "p")


# each section's params.check_section rules, key -> (default, ok, what);
# the elliptic and parabolic modes are checked against num_x by _check_modes
_POSITIVE = (lambda v: finite_number(v) and v > 0, "a finite number > 0")
_COUNT = (lambda v: integer(v) and v >= 1, "an integer >= 1")
RULES = {
    "operator": OPERATOR_RULES,
    "grid": {
        "num_cells": (128, lambda v: integer(v) and v >= 4,
                      "an integer >= 4"),
        "y_max": (1.0, *_POSITIVE),
        "grading": (None, lambda v: v is None or finite_number(v) and v >= 1,
                    "null or a finite number >= 1"),
        "num_x": (16, lambda v: integer(v) and v >= 2 and v % 2 == 0,
                  "an even integer >= 2"),
        "box_length": (2.0 * np.pi, *_POSITIVE),
    },
    "elliptic": {
        "lam": ([2.0, 0.0], lambda v: isinstance(v, list) and len(v) == 2
                and all(map(finite_number, v)) and v[0] > 0,
                "two finite numbers [re, im] with re > 0"),
        "forcing": ("manufactured", lambda v: v == "manufactured",
                    "'manufactured'"),
        "mode": (2, integer, "an integer"),
        "center": (0.45, finite_number, "a finite number"),
        "width": (0.18, *_POSITIVE),
    },
    "parabolic": {
        "t_final": (0.5, *_POSITIVE),
        "steps": (20, *_COUNT),
        "scheme": ("backward_euler",
                   lambda v: isinstance(v, str) and v in semigroup.SCHEMES,
                   "one of " + ", ".join(semigroup.SCHEMES)),
        "snapshot_stride": (5, *_COUNT),
        "forcing_mode": (1, integer, "an integer"),
    },
    "sweep": {
        "parameter": (REQUIRED, lambda v: v in SWEEP_PARAMETERS,
                      "one of " + ", ".join(SWEEP_PARAMETERS)),
        "values": (REQUIRED, lambda v: isinstance(v, list) and v
                   and all(map(finite_number, v)),
                   "a non-empty list of finite numbers"),
    },
}
GRID_KEYS, ELLIPTIC_KEYS, PARABOLIC_KEYS = (
    {key: rule[0] for key, rule in RULES[name].items()}
    for name in ("grid", "elliptic", "parabolic"))
TOP_KEYS = tuple(RULES) + ("suite",)


def _section(cfg, name):
    """The named section of a config, merged over its defaults."""
    return check_section(name, cfg.get(name, {}), RULES[name])


def load_config(path):
    """The config file's dict as read, once every section in it, the
    operator's included, passes check_section and the modes _check_modes;
    any fault is a ConfigError naming its key."""
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError("config file not found: %s" % path)
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("config file %s cannot be read: %s"
                          % (path, exc.strerror or exc))
    except (ValueError, RecursionError) as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    for key in cfg:
        if key not in TOP_KEYS:
            raise ConfigError("unknown config key: %s" % key)
    if not isinstance(cfg.get("suite", ""), str):
        raise ConfigError("suite must be a string, got %r" % (cfg["suite"],))
    try:
        for name in RULES:
            if name in cfg:
                _section(cfg, name)
    except ValueError as exc:
        raise ConfigError(str(exc))
    _check_modes(cfg)
    return cfg


def _check_modes(cfg):
    """The mode k of an elliptic or parabolic section needs |k| < num_x / 2,
    so it is neither truncated nor aliased onto another mode of the x-grid."""
    num_x = _section(cfg, "grid")["num_x"]
    for name, key in (("elliptic", "mode"), ("parabolic", "forcing_mode")):
        k = _section(cfg, name)[key]
        if name in cfg and not 2 * abs(k) < num_x:
            raise ConfigError("%s.%s must be an integer with |k| < num_x / 2 "
                              "= %d, got %r" % (name, key, num_x // 2, k))


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


def _grid_for(cfg, model, refine, x_box):
    """The grid section's grid, J = num_cells 2^refine, a null grading the
    model's default: on its x-box for the solve commands, a y-grid alone
    (x_box false) for sweep, which accepts dimension 0."""
    gsec = _section(cfg, "grid")
    J = gsec["num_cells"] * 2 ** refine
    grading = gsec["grading"]
    if grading is None:
        grading = default_grading(model.alpha)
    box = XBox(gsec["box_length"], gsec["num_x"], model.dim) if x_box else None
    return make_grid(J, gsec["y_max"], grading, box)


# Field-sized complex arrays a solve holds at its peak (see the README); a
# march also keeps one per kept snapshot and a residual row per step; a
# sweep (one y-grid) about 115, mostly operator_norm's Lanczos bases.
_FIELDS = {"solve_elliptic": 7, "solve_parabolic": 10, "sweep": 115}
_MEMORY = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
           if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", ()) else None)


def _check_size(command, cfg, dim, refine):
    """Refuse a grid (J = num_cells 2^refine) or step count whose arrays
    cannot fit in physical memory, before a grid, array or --out is made."""
    gsec, psec = _section(cfg, "grid"), _section(cfg, "parabolic")
    nodes, xs = gsec["num_cells"] * 2 ** refine + 1, gsec["num_x"] ** dim
    key = ("grid", "num_cells" if nodes >= xs else "num_x")
    need, memory = 16 * _FIELDS[command] * nodes * xs, _MEMORY or math.inf
    if need <= memory and command == "solve_parabolic":
        steps, key = psec["steps"] * 2 ** refine, ("parabolic", "steps")
        need += 16 * nodes * (steps + xs * (steps // psec["snapshot_stride"]
                                            + 1))
    if need > memory:
        value = _section(cfg, key[0])[key[1]]
        raise ConfigError("%s.%s = %r at --refine %d is too large: the arrays"
                          " of %s would take more than the %d bytes of "
                          "physical memory"
                          % (*key, value, refine, command, memory))


def _write_manifest(out_dir, payload):
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
    return path


def _make_out_dir(out_dir):
    """Create the --out directory once the config is validated and before
    any solve, so a path that cannot be a directory is bad input (exit 2)
    and not a failure after the whole run."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out %s is not a usable output directory: %s"
                          % (out_dir, exc.strerror or exc))


def _check_residual(residual, key, value):
    """A residual not computed (NaN) is a config error naming the key that
    set the data's scale, raised before any output is written."""
    if math.isnan(residual):
        raise ConfigError("%s = %r is out of range: the weighted residual's "
                          "sums of squares leave the float range, so no "
                          "residual is computed" % (key, value))


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
    _check_size("solve_elliptic", cfg, model.dim, refine)
    grid = _grid_for(cfg, model, refine, True)
    esec = _section(cfg, "elliptic")
    lam = complex(esec["lam"][0], esec["lam"][1])
    # the resolvent bounds hold in the analytic sector; a lam outside it is
    # solved, but flagged in the manifest and on stderr
    half_angle = sector_angle(float(np.linalg.norm(model.mixing)))
    in_sector = bool(abs(np.angle(lam)) < half_angle)
    if not in_sector:
        print("warning: lam = %r lies outside the analytic sector "
              "|arg lam| < %.4f" % (lam, half_angle), file=sys.stderr)
    u_exact, f = _manufactured(model, grid, lam, esec)
    _make_out_dir(out_dir)
    u, info = resolvent_nd(lam, f, model, grid, return_info=True)
    _check_residual(info["residual"], "elliptic.lam", esec["lam"])
    err = (lp_norm(u.values - u_exact.values, model.p, model.m, grid)
           / lp_norm(u_exact.values, model.p, model.m, grid))
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
    _check_size("solve_parabolic", cfg, model.dim, refine)
    grid = _grid_for(cfg, model, refine, True)
    psec = _section(cfg, "parabolic")
    steps = psec["steps"] * 2 ** refine
    times = np.linspace(0.0, psec["t_final"], steps + 1)
    prof = panels.bump_profile(0.4 * grid.y_max, 0.15 * grid.y_max)
    wave = panels.plane_wave(grid.x_box, [psec["forcing_mode"]] * model.dim)
    u0 = Field(panels.tensor_values(grid, wave, prof), grid)
    _make_out_dir(out_dir)
    run = semigroup.evolve(u0, None, model, grid, psec["scheme"], times,
                           stride=psec["snapshot_stride"])
    _check_residual(run.residual, "parabolic.t_final", psec["t_final"])
    manifest = _manifest_base("solve_parabolic", cfg, seed, chain)
    sub = run.export_csvs(out_dir, model=model, chain=chain)
    manifest["evolution"] = sub
    manifest["residual"] = run.residual
    _write_manifest(out_dir, manifest)
    final_norm = lp_norm(run.final.values, model.p, model.m, grid)
    print("solve_parabolic: %d steps of %s, residual %.3e, final norm %.6g "
          "-> %s" % (steps, psec["scheme"], run.residual, final_norm, out_dir))
    return 0


def _check_sections(command, cfg):
    """verify reads only the suite key and no other command reads it, so a
    key the command would drop is a config error naming it."""
    for key in cfg:
        if (key == "suite") != (command == "verify"):
            raise ConfigError("%s does not read config key %r; verify reads "
                              "only 'suite', which no other command reads"
                              % (command, key))


def cmd_verify(cfg, suite, out_dir, seed):
    suite = suite or cfg.get("suite", "default")
    # an unknown suite is run_suite's config error, with no directory made
    if suite in harness.SUITES:
        _make_out_dir(out_dir)
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
    _check_size("sweep", cfg, 0, 0)
    _make_out_dir(out_dir)
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
            grid = _grid_for(cfg, model, 0, False)
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
    path = os.path.join(out_dir, "sweep.csv")
    harness.write_csv(path, ("value", "window_value", "window_lower",
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
        if args.refine and args.command in ("verify", "sweep"):
            raise ConfigError("--refine is read only by the solve commands, "
                              "not by %s" % args.command)
        if args.suite is not None and args.command != "verify":
            raise ConfigError("suite argument %r is read only by verify, not "
                              "by %s" % (args.suite, args.command))
        cfg = load_config(args.config)
        _check_sections(args.command, cfg)
        # verify rejects an operator key, so default it only here
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
