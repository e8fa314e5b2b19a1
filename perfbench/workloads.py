"""The three benchmark workloads: inputs, commands and output checks.

Each workload builds its inputs from the seed in `setup`, hands out one CLI
command per round through `command`, checks a finished round's outputs in
`check`, and runs one closed-form companion computation in `companion`
outside the timed region.  A check returns a list of problems; an empty list
means the outputs are correct.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

from degenpde import bessel1d, cli, harness, params
from degenpde.grid import make_grid

import oracles

# The 2-d operator of the README's config example.
README_OPERATOR = {
    "q_matrix": [[2.0, 0.3], [0.3, 1.5]],
    "q_vector": [0.4, -0.2],
    "gamma": 1.2,
    "drift_b": [0.5, -0.3],
    "drift_c": 1.4,
    "alpha1": 0.5,
    "alpha2": -0.3,
    "p": 2.5,
    "m": 0.6,
    "dimension": 2,
}
# Q = I, q = 0, b = 0, c = 0, alpha1 = alpha2 = 0: the plain heat operator.
HEAT_OPERATOR = {
    "q_matrix": [[1.0, 0.0], [0.0, 1.0]],
    "q_vector": [0.0, 0.0],
    "gamma": 1.0,
    "drift_b": [0.0, 0.0],
    "drift_c": 0.0,
    "alpha1": 0.0,
    "alpha2": 0.0,
    "p": 2.0,
    "m": 0.0,
    "dimension": 2,
}
NX = 32
J = 256
DEFAULT_CHECKS = 23


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _load_config(path):
    """The config as the CLI will read it, validated down to the model."""
    cfg = cli.load_config(path)
    spec, space = params.config_to_problem(cfg["operator"])
    params.reduce_to_model(spec, space)
    if not params.validate_window(spec, space).passed:
        raise ValueError("%s: operator outside the admissible window" % path)
    return cfg


class Workload:
    name = ""

    def __init__(self, seed, work_dir):
        self.seed = int(seed)
        self.work_dir = work_dir
        self.rng = np.random.default_rng(self.seed)
        os.makedirs(work_dir, exist_ok=True)

    def setup(self):
        """Build and validate the inputs before the first timed command."""

    def command(self, index, out_dir):
        """argv of round `index`, writing its outputs to out_dir."""
        raise NotImplementedError

    def check(self, index, out_dir, stdout):
        """Problems found in the outputs of round `index`."""
        raise NotImplementedError

    def companion(self):
        """Problems found by the closed-form companion computation."""
        return []


class VerifyDefault(Workload):
    """`degenpde verify default`: the 23 registered estimate checks."""

    name = "verify_default"

    def setup(self):
        suite = harness.SUITES["default"]
        if len(suite) != DEFAULT_CHECKS or len(set(suite)) != len(suite):
            raise ValueError("default suite has %d checks, expected %d"
                             % (len(suite), DEFAULT_CHECKS))

    def command(self, index, out_dir):
        return ["verify", "default", "--out", out_dir,
                "--seed", str(self.seed)]

    def check(self, index, out_dir, stdout):
        problems = []
        with open(os.path.join(out_dir, "summary.csv")) as fh:
            lines = fh.read().splitlines()
        if lines[0] != "estimate_id,pass,constant,drift":
            problems.append("summary.csv header %r" % lines[0])
        rows = [line.split(",") for line in lines[1:]]
        ids = {row[0] for row in rows}
        passed = sum(1 for row in rows if row[1] == "true")
        if len(rows) != DEFAULT_CHECKS or len(ids) != DEFAULT_CHECKS:
            problems.append("summary.csv has %d rows, %d distinct"
                            % (len(rows), len(ids)))
        if passed != len(rows):
            problems.append("summary.csv: %d of %d rows pass: %s" % (
                passed, len(rows),
                [row[0] for row in rows if row[1] != "true"]))
        last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        want = "verify default: %d/%d checks passed" % (DEFAULT_CHECKS,
                                                        DEFAULT_CHECKS)
        if last != want:
            problems.append("verify printed %r" % last)
        return problems

    def companion(self):
        """Dense expm kernel vs the closed-form Neumann Bessel heat kernel.

        On make_grid(J, 1, 2) at t = 0.004 the relative max error over
        y, rho < 0.5 falls by a factor near 4 from J = 256 to 512.
        """
        t = 0.004
        problems = []
        for c in (0.0, -0.5):
            errs = []
            for cells in (256, 512):
                grid = make_grid(cells, 1.0, 2.0)
                op = bessel1d.assemble_form(grid, "bessel", c=c)
                kern = bessel1d.expm_kernel(op, t)
                y = grid.y_nodes
                sel = y < 0.5
                exact = oracles.bessel_heat_kernel(y[sel], y[sel], c, t)
                got = kern.values[np.ix_(sel, sel)]
                errs.append(float(np.abs(got - exact).max()
                                  / np.abs(exact).max()))
            ratio = errs[0] / errs[1]
            if not (errs[0] <= 1e-3 and errs[1] <= 2.5e-4
                    and 3.5 <= ratio <= 4.5):
                problems.append("Bessel kernel c=%g: errors %r, ratio %.3f"
                                % (c, errs, ratio))
        return problems


class Elliptic2D(Workload):
    """A batch of `solve_elliptic` commands, one (lam, mode) pair each."""

    name = "elliptic_2d"
    POOL = 64
    CENTER, WIDTH = 0.45, 0.18

    def setup(self):
        spec, space = params.config_to_problem(README_OPERATOR)
        model, _ = params.reduce_to_model(spec, space)
        self.half_angle = bessel1d.sector_angle(
            float(np.linalg.norm(model.mixing)))
        self.draws = []
        self.configs = []
        self._extend(self.POOL)

    def _extend(self, count):
        """Draw (lam, mode) pairs: |lam| log-uniform in [1, 100], arg
        uniform in the analyticity sector less a 0.1 rad margin."""
        for _ in range(count):
            index = len(self.draws)
            modulus = 10.0 ** self.rng.uniform(0.0, 2.0)
            arg = self.rng.uniform(-1.0, 1.0) * (self.half_angle - 0.1)
            lam = modulus * complex(math.cos(arg), math.sin(arg))
            mode = int(self.rng.integers(1, 5))
            path = os.path.join(self.work_dir, "elliptic_%03d.json" % index)
            _write_json(path, {
                "operator": README_OPERATOR,
                "grid": {"num_cells": J, "num_x": NX},
                "elliptic": {"lam": [lam.real, lam.imag], "mode": mode,
                             "forcing": "manufactured",
                             "center": self.CENTER, "width": self.WIDTH},
            })
            cfg = _load_config(path)
            got = complex(*cfg["elliptic"]["lam"])
            if not (got.real > 0 and abs(math.atan2(got.imag, got.real))
                    < self.half_angle):
                raise ValueError("draw %d: lam %r outside the sector"
                                 % (index, got))
            self.draws.append((got, mode))
            self.configs.append(path)

    def command(self, index, out_dir):
        if index >= len(self.draws):
            self._extend(self.POOL)
        return ["solve_elliptic", "--config", self.configs[index],
                "--out", out_dir, "--seed", str(self.seed)]

    def check(self, index, out_dir, stdout):
        lam, mode = self.draws[index]
        problems = []
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        if not manifest["residual"] <= 1e-10:
            problems.append("residual %r" % manifest["residual"])
        y, u = oracles.read_field_csv(os.path.join(out_dir, "solution.csv"),
                                      NX, 2)
        w = oracles.partition_weights(y)
        u_ex = (oracles.plane_wave(NX, 2, mode)[..., None]
                * oracles.bump(y, self.CENTER, self.WIDTH))
        err = oracles.weighted_l2(u - u_ex, w) / oracles.weighted_l2(u_ex, w)
        if not err <= 5e-3:
            problems.append("lam %r mode %d: relative error %.3e"
                            % (lam, mode, err))
        share = oracles.off_mode_energy_share(u, mode, w)
        if not share <= 1e-20:
            problems.append("lam %r mode %d: energy share %.3e off the mode"
                            % (lam, mode, share))
        return problems


class Parabolic2D(Workload):
    """`solve_parabolic`, Crank-Nicolson, 40 steps to t = 0.5."""

    name = "parabolic_2d"
    STEPS, T_FINAL = 40, 0.5

    def _config(self, operator, num_x, cells, mode):
        return {
            "operator": operator,
            "grid": {"num_cells": cells, "num_x": num_x},
            "parabolic": {"t_final": self.T_FINAL, "steps": self.STEPS,
                          "scheme": "crank_nicolson",
                          "snapshot_stride": self.STEPS,
                          "forcing_mode": mode},
        }

    def setup(self):
        self.mode = int(self.rng.integers(1, 5))
        self.config = os.path.join(self.work_dir, "parabolic.json")
        _write_json(self.config,
                    self._config(README_OPERATOR, NX, J, self.mode))
        cfg = _load_config(self.config)
        if cfg["parabolic"]["forcing_mode"] != self.mode:
            raise ValueError("parabolic config did not round-trip")

    def command(self, index, out_dir):
        return ["solve_parabolic", "--config", self.config, "--out", out_dir,
                "--seed", str(self.seed)]

    def _snapshots(self, out_dir, num_x):
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            evo = json.load(fh)["evolution"]
        names = ["snapshot_%04d.csv" % k for k in (0, self.STEPS)]
        problems = []
        if evo["steps"] != self.STEPS or evo["snapshots"] != names:
            problems.append("manifest: %r steps, snapshots %r"
                            % (evo["steps"], evo["snapshots"]))
        fields = [oracles.read_field_csv(os.path.join(out_dir, n), num_x, 2)
                  for n in names]
        return evo, fields, problems

    def check(self, index, out_dir, stdout):
        evo, fields, problems = self._snapshots(out_dir, NX)
        model = evo["model"]
        norms = []
        for name, (y, u) in zip(("initial", "final"), fields):
            if not np.all(np.isfinite(u)):
                problems.append("%s snapshot is not finite" % name)
                continue
            w = oracles.partition_weights(y) * y ** (model["c_bessel"]
                                                     - model["alpha"])
            share = oracles.off_mode_energy_share(u, self.mode, w)
            if not share <= 1e-20:
                problems.append("%s snapshot: energy share %.3e off mode %d"
                                % (name, share, self.mode))
            norms.append(oracles.weighted_l2(u, w))
        if len(norms) == 2 and not norms[1] < norms[0]:
            problems.append("final L2(y^(c-alpha)) norm %.6g is not below "
                            "the initial %.6g" % (norms[1], norms[0]))
        return problems

    def companion(self):
        """The same command on the heat operator vs the CN-amplified cosine
        series of the bump; the error falls at first order in J."""
        num_x, mode = 8, 1
        xi2 = 2.0 * mode ** 2
        errs = []
        problems = []
        for cells in (128, 256):
            cfg_path = os.path.join(self.work_dir, "heat_%d.json" % cells)
            out_dir = os.path.join(self.work_dir, "heat_%d" % cells)
            _write_json(cfg_path, self._config(HEAT_OPERATOR, num_x, cells,
                                               mode))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["solve_parabolic", "--config", cfg_path,
                               "--out", out_dir])
            if rc != 0:
                return ["heat companion exited %r" % rc]
            _, fields, found = self._snapshots(out_dir, num_x)
            problems += found
            y, u = fields[1]
            exact = (oracles.plane_wave(num_x, 2, mode)[..., None]
                     * oracles.cn_heat_cosine_series(
                         y, self.T_FINAL, self.STEPS, xi2, 0.4, 0.15))
            w = oracles.partition_weights(y)
            errs.append(oracles.weighted_l2(u - exact, w)
                        / oracles.weighted_l2(exact, w))
        ratio = errs[0] / errs[1]
        if not (errs[1] <= 6e-3 and ratio >= 1.6):
            problems.append("heat companion errors %r, ratio %.3f"
                            % (errs, ratio))
        return problems


WORKLOADS = {cls.name: cls for cls in (VerifyDefault, Elliptic2D,
                                       Parabolic2D)}
