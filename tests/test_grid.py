"""Graded mesh, weighted quadrature, stencils, field CSV export."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degenpde import grid as grid_module
from degenpde.bessel1d import node_weights
from degenpde.grid import (XBox, Field, make_grid, default_grading, lp_norm,
                           partition_weights, diff1_matrix, diff2_matrix,
                           write_field_csv)


def test_uniform_grid_frozen_nodes():
    g = make_grid(4, 1.0, 1.0)
    assert np.allclose(g.y_nodes, [0.125, 0.375, 0.625, 0.875], atol=0)
    # partition weights: half the adjacent spacings
    assert np.allclose(g.y_weights, [0.125, 0.25, 0.25, 0.125], atol=0)
    assert g.y_weights.sum() == pytest.approx(0.75, abs=1e-15)


def test_graded_grid_telescopes_and_clusters():
    g = make_grid(64, 2.0, 3.0)
    # the weights telescope to the node span y_(J-1) - y_0
    assert g.y_weights.sum() == pytest.approx(g.y_nodes[-1] - g.y_nodes[0],
                                              rel=1e-14)
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
    # trapezoid rule on [y_0, y_(J-1)]: exact on linears, second order on
    # smooth integrands, uniform or graded
    for grading in (1.0, 2.0):
        errs = []
        for J in (64, 128, 256):
            g = make_grid(J, 1.0, grading)
            y = g.y_nodes
            val = float(np.sum(np.exp(y) * g.y_weights))
            errs.append(abs(val - (np.exp(y[-1]) - np.exp(y[0]))))
        order = np.log(errs[0] / errs[-1]) / np.log(4.0)
        assert order > 1.9
        g = make_grid(32, 1.0, grading)
        y = g.y_nodes
        lin = float(np.sum((2.0 * y + 1.0) * g.y_weights))
        assert lin == pytest.approx(y[-1] ** 2 + y[-1] - y[0] ** 2 - y[0],
                                    rel=1e-14)


def test_lp_norm_weighted():
    g = make_grid(512, 1.0, 2.0)   # graded: resolves the singular weight
    u = np.ones(g.num_y)
    y0, y1 = g.y_nodes[0], g.y_nodes[-1]
    # int_{y_0}^{y_(J-1)} y^m dy = (y_(J-1)^(m+1) - y_0^(m+1)) / (m+1)
    for p, m in ((2.0, 0.0), (2.5, 1.0), (3.0, -0.5)):
        want = ((y1 ** (m + 1.0) - y0 ** (m + 1.0)) / (m + 1.0)) ** (1.0 / p)
        assert lp_norm(u, p, m, g) == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("J", [64, 512])
def test_norm_and_solver_y_quadratures(J):
    # lp_norm and the solver weight y by the same P1 partition weights, so
    # at p = 2 the norm is the solver's W-norm, on every grading, for a
    # y-profile and for a field on an x-box
    rng = np.random.default_rng(J)
    box = XBox(2.0 * np.pi, 4, 2)
    # the README operator's default grading 2 / (2 - alpha) = 1.217, its
    # reduced alpha = 2 a1 / (a1 - a2 + 2) at a1 = 0.5, a2 = -0.3
    for grading in (1.0, 2.0, default_grading(2 * 0.5 / (0.5 + 0.3 + 2))):
        g = make_grid(J, 1.0, grading)
        assert np.array_equal(g.y_weights, partition_weights(g.y_nodes))
        for m in (0.0, 0.6, -0.4):
            w = node_weights(g, m)
            u = rng.standard_normal(J) + 1j * rng.standard_normal(J)
            want = float(np.sum(np.abs(u) ** 2 * w))
            assert lp_norm(u, 2.0, m, g) ** 2 == pytest.approx(want,
                                                               rel=1e-13)
            gx = make_grid(J, 1.0, grading, box)
            v = rng.standard_normal(gx.shape) + 1j * rng.standard_normal(
                gx.shape)
            want = float(np.sum(np.abs(v) ** 2 * w) * box.spacing ** 2)
            assert lp_norm(v, 2.0, m, gx) ** 2 == pytest.approx(want,
                                                                rel=1e-13)
            # a y-profile on the x-box grid is measured in y alone
            assert lp_norm(u, 2.0, m, gx) == lp_norm(u, 2.0, m, g)


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


def _special_field(box, J):
    """A field whose values put the %.17g corner cases at both ends."""
    g = make_grid(J, 1.3, 1.7, box)
    rng = np.random.default_rng(3)
    special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1e300, 0.0,
               3.0, -42.0, 2.0 ** 53, 0.12345678901234567,
               -9.8765432109876543e-7, 1.0000000000000002]
    parts = rng.standard_normal(2 * int(np.prod(g.shape)))
    parts *= 10.0 ** rng.uniform(-20, 20, parts.size)
    parts[:len(special)] = special
    parts[-len(special):] = special[::-1]
    return Field(parts.view(complex).reshape(g.shape), g)


@pytest.mark.parametrize("box,header", [
    (None, "y,re,im"),
    (XBox(2.0 * np.pi, 4, 1), "ix0,y,re,im"),
    (XBox(3.0, 6, 2), "ix0,ix1,y,re,im"),
])
def test_field_csv_matches_per_row_oracle(tmp_path, box, header):
    f = _special_field(box, 16 if box is None else 5)
    got, want = tmp_path / "new.csv", tmp_path / "oracle.csv"
    write_field_csv(str(got), f)
    _oracle_field_csv(str(want), f)
    assert got.read_bytes() == want.read_bytes()
    lines = got.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + int(np.prod(f.grid.shape))
    assert lines[1].endswith(",-0,inf")


def _assert_formats_like_percent(values):
    values = np.asarray(values, dtype=float)
    for lo in range(0, values.size, grid_module._CHUNK_FLOATS):
        chunk = values[lo:lo + grid_module._CHUNK_FLOATS]
        want = np.array([b"%.17g" % v for v in chunk.tolist()], dtype="S24")
        got = grid_module._format_17g(chunk)
        bad = np.flatnonzero(got != want)
        assert not bad.size, list(zip(chunk[bad], got[bad], want[bad]))[:5]


def test_format_17g_matches_percent_on_random_bit_patterns():
    bits = np.random.default_rng(24).integers(0, 2 ** 64, 10 ** 6,
                                              dtype=np.uint64)
    _assert_formats_like_percent(bits.view(np.float64))


def test_format_17g_matches_percent_at_powers_of_ten_and_specials():
    powers = np.array([float("1e%d" % k) for k in range(-323, 309)])
    near = [np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)]
    tiny = np.finfo(float).tiny
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, tiny,
                np.nextafter(tiny, 0.0), 1e-290, 1e290, np.finfo(float).max]
    subnormals = np.random.default_rng(7).integers(
        1, 2 ** 52, 1000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([powers, *near, specials, subnormals])
    _assert_formats_like_percent(np.concatenate([values, -values]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_format_17g_matches_percent_on_any_float(values):
    _assert_formats_like_percent(values)


def test_format_17g_hands_exact_ties_to_percent():
    # m 2^-k with m odd is m 5^k / 10^k: with 18 significant digits it ends
    # in 5, a tie at 17 digits that only Python's % rounds half-even
    rng = np.random.default_rng(5)
    ties, parities = [], set()
    for k in range(2, 26):
        low = -(-10 ** 17 // 5 ** k) // 2
        high = min(10 ** 18 // 5 ** k, 2 ** 53) // 2
        for m in rng.integers(low, high, 40).tolist():
            digits = str((2 * m + 1) * 5 ** k)
            if len(digits) == 18:
                ties.append((2 * m + 1) / 2 ** k)
                parities.add(int(digits[16]) % 2)
    ties = np.array(ties + [2.98023223876953125e-08])
    assert ties.size > 500 and parities == {0, 1}   # rounds down and up
    assert not grid_module._decimal_digits(ties)[2].any()
    _assert_formats_like_percent(np.concatenate([ties, -ties]))


def _split_three_ways(monkeypatch):
    """Split every field, over three reported cores; returns the fork log.

    Three ranges split 4 or 100 x-points unevenly; 2 x-points give two
    ranges, one per block.  A one-core machine still forks here.
    """
    monkeypatch.setattr(grid_module, "_SPLIT_FLOATS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forks = []
    real_fork = os.fork

    def logged_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", logged_fork)
    return forks


@pytest.mark.parametrize("box,J,children", [
    (XBox(2.0 * np.pi, 4, 1), 5, 2),     # ranges of 1, 1 and 2 x-points
    (XBox(3.0, 6, 2), 5, 2),             # 12 x-points each
    (XBox(3.0, 10, 2), 4, 2),            # 33, 33 and 34 x-points
    (XBox(1.0, 2, 1), 6, 1),             # two ranges of one x-point
    (None, 16, 0),                       # one x-point block: no fork
])
def test_split_field_csv_matches_per_row_oracle(tmp_path, monkeypatch, box,
                                                J, children):
    forks = _split_three_ways(monkeypatch)
    f = _special_field(box, J)
    got, want = tmp_path / "new.csv", tmp_path / "oracle.csv"
    write_field_csv(str(got), f)
    _oracle_field_csv(str(want), f)
    assert got.read_bytes() == want.read_bytes()
    assert len(forks) == children
    assert sorted(os.listdir(tmp_path)) == ["new.csv", "oracle.csv"]


def test_split_field_csv_leaves_existing_files_alone(tmp_path, monkeypatch):
    # two cores and a field above _SPLIT_FLOATS: one forked part writer,
    # whose part file gets a new unique name, so a file named like an old
    # `<path>.part1` is neither overwritten nor removed
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []
    real_fork = os.fork

    def logged_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", logged_fork)
    f = _special_field(XBox(2.0 * np.pi, 32, 1),
                       grid_module._SPLIT_FLOATS // 32)
    assert 2 * f.values.size > grid_module._SPLIT_FLOATS
    bystander = tmp_path / "solution.csv.part1"
    bystander.write_text("keep")
    got, want = tmp_path / "solution.csv", tmp_path / "oracle.csv"
    write_field_csv(str(got), f)
    _oracle_field_csv(str(want), f)
    assert len(forks) == 1
    assert bystander.read_text() == "keep"
    assert got.read_bytes() == want.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["oracle.csv", "solution.csv",
                                            "solution.csv.part1"]


@pytest.mark.parametrize("in_child,error", [(True, OSError),
                                              (False, RuntimeError)])
def test_split_field_csv_failure_leaves_no_part_or_child(tmp_path,
                                                         monkeypatch,
                                                         in_child, error):
    # a failed child surfaces as OSError naming the path, a failure in the
    # parent's own range as itself; either way every child is reaped
    _split_three_ways(monkeypatch)
    parent = os.getpid()
    real_write = grid_module._write_blocks

    def failing_write(*args):
        if (os.getpid() != parent) == in_child:
            raise RuntimeError("disk trouble")
        real_write(*args)

    monkeypatch.setattr(grid_module, "_write_blocks", failing_write)
    path = tmp_path / "field.csv"
    with pytest.raises(error) as info:
        write_field_csv(str(path), _special_field(XBox(3.0, 6, 2), 5))
    assert str(path if in_child else "disk trouble") in str(info.value)
    assert not [n for n in os.listdir(tmp_path) if ".part" in n]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("missing", [("fork",), ("sched_getaffinity",),
                                     ("fork", "sched_getaffinity")])
def test_field_csv_without_fork_or_affinity_writes_one_range(tmp_path,
                                                           monkeypatch,
                                                           missing):
    # macOS has no os.sched_getaffinity and Windows no os.fork: a field
    # large enough to split is written by this process alone
    forks = _split_three_ways(monkeypatch)
    for name in missing:
        monkeypatch.delattr(os, name)
    f = _special_field(XBox(3.0, 6, 2), 5)
    got, want = tmp_path / "new.csv", tmp_path / "oracle.csv"
    write_field_csv(str(got), f)
    _oracle_field_csv(str(want), f)
    assert got.read_bytes() == want.read_bytes()
    assert forks == []
    assert sorted(os.listdir(tmp_path)) == ["new.csv", "oracle.csv"]


def test_fork_ranges_runs_every_range_and_reaps_every_child(tmp_path,
                                                            monkeypatch):
    # range k writes its pid to a file; range 2 raises in its child, which
    # then exits with status 1 instead of running the parent's code on
    forks = _split_three_ways(monkeypatch)
    parent = os.getpid()

    def work(k):
        (tmp_path / ("r%d" % k)).write_text(str(os.getpid()))
        if k == 2:
            raise RuntimeError("range 2 fails")

    statuses = grid_module.fork_ranges(3, work)
    assert len(forks) == 2
    assert [os.WEXITSTATUS(s) for s in statuses] == [0, 1]
    pids = [int((tmp_path / ("r%d" % k)).read_text()) for k in range(3)]
    assert pids[0] == parent and parent not in pids[1:]
    assert grid_module.fork_ranges(1, work) == []
    assert len(forks) == 2
