"""Graded mesh, weighted quadrature, stencils, field CSV export."""

import numpy as np
import pytest

from degenpde.grid import (XBox, Field, make_grid, default_grading, lp_norm,
                           linf_norm, diff1_matrix, diff2_matrix,
                           write_field_csv)


def test_uniform_grid_frozen_nodes():
    g = make_grid(4, 1.0, 1.0)
    assert np.allclose(g.y_nodes, [0.125, 0.375, 0.625, 0.875], atol=0)
    assert np.allclose(g.y_weights, 0.25, atol=0)
    assert g.y_weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_graded_grid_telescopes_and_clusters():
    g = make_grid(64, 2.0, 3.0)
    assert g.y_weights.sum() == pytest.approx(2.0, rel=1e-14)
    assert np.all(np.diff(g.y_nodes) > 0)
    # grading 3 puts the first node at 2 (1/128)^3
    assert g.y_nodes[0] == pytest.approx(2.0 * (0.5 / 64) ** 3, rel=1e-14)
    with pytest.raises(ValueError):
        make_grid(3)
    with pytest.raises(ValueError):
        make_grid(8, grading=0.5)


def test_default_grading_dichotomy():
    assert default_grading(0.0) == 1.0
    assert default_grading(-3.0) == 1.0          # never coarser than uniform
    assert default_grading(1.0) == 2.0
    assert default_grading(1.5) == 4.0


def test_quadrature_exactness_orders():
    # midpoint rule: exact on linears, second order on smooth integrands
    errs = []
    for J in (64, 128, 256):
        g = make_grid(J, 1.0, 1.0)
        val = float(np.sum(np.exp(g.y_nodes) * g.y_weights))
        errs.append(abs(val - (np.e - 1.0)))
    order = np.log(errs[0] / errs[-1]) / np.log(4.0)
    assert order > 1.9
    g = make_grid(32, 1.0, 1.0)
    lin = float(np.sum((2.0 * g.y_nodes + 1.0) * g.y_weights))
    assert lin == pytest.approx(2.0, rel=1e-14)


def test_lp_norm_weighted():
    g = make_grid(512, 1.0, 2.0)   # graded: resolves the singular weight
    u = np.ones(g.num_y)
    # int_0^1 y^m dy = 1/(m+1)
    for p, m in ((2.0, 0.0), (2.5, 1.0), (3.0, -0.5)):
        want = (1.0 / (m + 1.0)) ** (1.0 / p)
        assert lp_norm(u, p, m, g) == pytest.approx(want, rel=1e-3)
    assert linf_norm(Field((1j * u).astype(complex), g)) == 1.0


def test_stencil_orders_on_nonuniform_nodes():
    errs1, errs2 = [], []
    for J in (128, 256):
        g = make_grid(J, 1.0, 2.0)
        y = g.y_nodes
        u = np.sin(2.0 * y)
        d1 = diff1_matrix(y) @ u
        d2 = diff2_matrix(y) @ u
        sl = slice(2, -2)
        errs1.append(np.abs(d1 - 2.0 * np.cos(2.0 * y))[sl].max())
        errs2.append(np.abs(d2 + 4.0 * np.sin(2.0 * y))[sl].max())
    assert np.log2(errs1[0] / errs1[1]) > 1.8
    assert np.log2(errs2[0] / errs2[1]) > 0.9
    g = make_grid(64, 1.0, 2.0)
    quad = 3.0 * g.y_nodes ** 2 - g.y_nodes
    assert np.abs(diff2_matrix(g.y_nodes) @ quad - 6.0).max() < 1e-8


def test_field_shape_guard():
    box = XBox(2.0 * np.pi, 8, 1)
    g = make_grid(16, 1.0, 2.0, box)
    vals = np.zeros(g.shape, dtype=complex)
    Field(vals, g)
    with pytest.raises(ValueError):
        Field(vals[:, :-1], g)


def test_field_csv_deterministic(tmp_path):
    g = make_grid(8, 1.0, 1.0)
    f = Field(np.linspace(0.0, 1.0, 8) + 0.25j, g)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_field_csv(str(p1), f)
    write_field_csv(str(p2), f)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "y,re,im"


def _oracle_field_csv(path, field):
    """The per-row writer write_field_csv replaced, kept as its oracle."""
    g = field.grid
    dim = 0 if g.x_box is None else g.x_box.dim
    header = ",".join(["ix%d" % d for d in range(dim)] + ["y", "re", "im"])
    vals = field.values.reshape(-1, g.num_y)
    nx = 1 if dim == 0 else g.x_box.num_points
    lines = [header]
    for flat in range(vals.shape[0]):
        idx = np.unravel_index(flat, (nx,) * dim) if dim else ()
        prefix = "".join("%d," % i for i in idx)
        for j in range(g.num_y):
            v = vals[flat, j]
            lines.append(prefix + ("%.17g" % g.y_nodes[j]) + ","
                         + ("%.17g" % v.real) + "," + ("%.17g" % v.imag))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("box,header", [
    (None, "y,re,im"),
    (XBox(2.0 * np.pi, 4, 1), "ix0,y,re,im"),
    (XBox(3.0, 6, 2), "ix0,ix1,y,re,im"),
])
def test_field_csv_matches_per_row_oracle(tmp_path, box, header):
    g = make_grid(16 if box is None else 5, 1.3, 1.7, box)
    rng = np.random.default_rng(3)
    special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1e300, 0.0,
               3.0, -42.0, 2.0 ** 53, 0.12345678901234567,
               -9.8765432109876543e-7, 1.0000000000000002]
    parts = rng.standard_normal(2 * int(np.prod(g.shape)))
    parts *= 10.0 ** rng.uniform(-20, 20, parts.size)
    parts[:len(special)] = special
    parts[-len(special):] = special[::-1]
    f = Field(parts.view(complex).reshape(g.shape), g)
    got, want = tmp_path / "new.csv", tmp_path / "oracle.csv"
    write_field_csv(str(got), f)
    _oracle_field_csv(str(want), f)
    assert got.read_bytes() == want.read_bytes()
    lines = got.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + int(np.prod(g.shape))
    assert lines[1].endswith(",-0,inf")
