"""Graded meshes, weighted norms and derivative evaluation.

The vertical direction (0, Y_max] is discretized by a graded node set
y_j = Y_max ((j+1/2)/J)^g, so all nodes are strictly inside (0, Y_max) and
the singular coefficients y^s are never evaluated at 0.  The grading exponent
g = 2/(2-a2) equalizes the mesh in the variable y^(1-a2/2), the natural
distance of the degenerate operator's heat kernel.  The horizontal directions
form a periodic box (torus) sampled uniformly.  The y-derivative matrices use
3-point nonuniform finite differences (one-sided quadratics at the ends).

Norms are the weighted Lebesgue norms of L^p(y^m dx dy), with the y-integral
by the P1 partition weights omega_j = Int phi_j dy on [y_0, y_(J-1)] (the
trapezoid rule on the nodes, the weights of the solver's forms), as the sum
|u|^p y^m omega_j, and the x-integral by the uniform trapezoid rule on the
torus (= uniform weights L/Nx).
"""

import contextlib
import gc
import itertools
import os
import shutil
import tempfile

import numpy as np
import scipy


class XBox:
    """Periodic horizontal box: dim axes of length `length`, num_points each."""

    def __init__(self, length, num_points, dim):
        length = float(length)
        num_points = int(num_points)
        dim = int(dim)
        if length <= 0:
            raise ValueError("box length must be positive")
        if num_points < 2 or num_points % 2:
            raise ValueError("num_points must be an even integer >= 2")
        if dim < 1:
            raise ValueError("x_box dimension must be >= 1")
        self.length = length
        self.num_points = num_points
        self.dim = dim

    @property
    def spacing(self):
        return self.length / self.num_points

    def nodes(self):
        """Uniform nodes i L / Nx on [0, L)."""
        return np.arange(self.num_points) * self.spacing

    def wavenumbers(self):
        """Fourier wavenumbers 2 pi k / L in FFT order (one axis)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.num_points, d=self.spacing)

    def __repr__(self):
        return ("XBox(length=%g, num_points=%d, dim=%d)"
                % (self.length, self.num_points, self.dim))


def partition_weights(y):
    """omega_j = Int phi_j dy on [y_0, y_(J-1)]: half the adjacent spacings.

    They sum to y_(J-1) - y_0 and make the trapezoid rule on the nodes.
    """
    y = np.asarray(y, dtype=float)
    h = np.diff(y)
    w = np.zeros(y.size)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return w


class Grid:
    """Graded vertical mesh, optionally tensored with an XBox.

    The y-weights are the P1 partition weights of the nodes.
    """

    def __init__(self, y_nodes, y_max, grading_exponent, x_box):
        y_nodes = np.asarray(y_nodes, dtype=float)
        if y_nodes.ndim != 1 or y_nodes.size < 2:
            raise ValueError("y_nodes must be 1-d with at least two nodes")
        if y_nodes[0] <= 0 or np.any(np.diff(y_nodes) <= 0):
            raise ValueError("y_nodes must be strictly increasing and positive")
        if y_nodes[-1] > y_max:
            raise ValueError("y_nodes must not exceed Y_max")
        self.y_nodes = y_nodes
        self.y_weights = partition_weights(y_nodes)
        self.y_max = float(y_max)
        self.grading_exponent = float(grading_exponent)
        self.x_box = x_box

    @property
    def num_y(self):
        return self.y_nodes.shape[0]

    @property
    def shape(self):
        """Shape of a Field on this grid: (Nx,)*dim + (J,)."""
        if self.x_box is None:
            return (self.num_y,)
        return (self.x_box.num_points,) * self.x_box.dim + (self.num_y,)

    def __repr__(self):
        return ("Grid(J=%d, Y_max=%g, grading=%s, x_box=%r)"
                % (self.num_y, self.y_max, self.grading_exponent, self.x_box))


class Field:
    """Complex values sampled on a Grid; shape (Nx,)*dim + (J,)."""

    def __init__(self, values, grid):
        values = np.asarray(values, dtype=complex)
        if values.shape != grid.shape:
            raise ValueError("values shape %r does not match grid shape %r"
                             % (values.shape, grid.shape))
        self.values = values
        self.grid = grid

    def copy(self):
        return Field(self.values.copy(), self.grid)

    def __repr__(self):
        return "Field(shape=%r)" % (self.values.shape,)


def default_grading(alpha2):
    """Grading exponent 2/(2-alpha2) resolving the intrinsic distance, >= 1."""
    return max(1.0, 2.0 / (2.0 - float(alpha2)))


def make_grid(num_cells, y_max=1.0, grading=1.0, x_box=None):
    """Build the graded mesh.

    Nodes y_j = Y_max ((j+1/2)/J)^grading, j = 0..J-1, weighted by their
    partition weights.  grading >= 1 concentrates nodes near the degenerate
    edge y = 0.

    Parameters
    ----------
    num_cells : int
        Number J of nodes (J >= 4).
    y_max : float
        Truncation height of the half line.
    grading : float
        Grading exponent, >= 1.
    x_box : XBox, optional
        Horizontal periodic box.
    """
    J = int(num_cells)
    if J < 4:
        raise ValueError("need at least 4 cells")
    y_max = float(y_max)
    grading = float(grading)
    if y_max <= 0:
        raise ValueError("Y_max must be positive")
    if grading < 1.0:
        raise ValueError("grading must be >= 1")
    j = np.arange(J, dtype=float)
    nodes = y_max * ((j + 0.5) / J) ** grading
    return Grid(nodes, y_max, grading, x_box)


def lp_norm(values, p, m, grid):
    """Weighted norm (sum |u|^p y^m dx dy)^(1/p) of grid values.

    The y-direction uses the partition weights grid.y_weights, so at p = 2
    the norm squared is u^H W_m u with W_m = bessel1d.node_weights(grid, m),
    the solver's inner product.  Values with x axes are summed over them with
    the uniform torus weight (L/Nx)^dim; a y-profile (1-d values) is measured
    in y alone, also on a grid with an x-box.
    """
    p = float(p)
    wy = grid.y_weights * grid.y_nodes ** float(m)
    s = np.sum(np.abs(values) ** p * wy, axis=-1)
    if np.ndim(s):
        s = np.sum(s) * grid.x_box.spacing ** grid.x_box.dim
    return float(s ** (1.0 / p))


def _three_point_matrix(y, interior, end):
    """CSR J x J matrix of 3-point stencils, built from its 3J entries.

    interior(hl, hr) gives the (left, centre, right) weights of rows
    1..J-2 from the spacings to the left and right neighbours; end(t, at)
    the weights of an end row on the nodes t = (t0, t1, t2) with `at` the
    row's own node.
    """
    y = np.asarray(y, dtype=float)
    J = y.size
    hl = y[1:-1] - y[:-2]
    hr = y[2:] - y[1:-1]
    rows = np.arange(1, J - 1)
    first, last = np.arange(3), np.arange(J - 3, J)
    cols = np.concatenate([first, rows - 1, rows, rows + 1, last])
    vals = np.concatenate([end(y[first], y[0]), *interior(hl, hr),
                           end(y[last], y[-1])])
    row_of = np.concatenate([[0, 0, 0], rows, rows, rows, [J - 1] * 3])
    return scipy.sparse.csr_array((vals, (row_of, cols)), shape=(J, J))


def diff1_matrix(y):
    """Sparse (CSR) first-derivative matrix, 3-point nonuniform stencils.

    Interior rows are the centered quadratic-fit formula; end rows
    differentiate the quadratic through the first/last three nodes.
    """
    def interior(hl, hr):
        return (-hr / (hl * (hl + hr)), (hr - hl) / (hl * hr),
                hl / (hr * (hl + hr)))

    def end(t, at):
        # derivative at `at` of the Lagrange quadratic through t0, t1, t2
        t0, t1, t2 = t - at
        return [(2 * t0 - t1 - t2) / ((t0 - t1) * (t0 - t2)),
                (2 * t1 - t0 - t2) / ((t1 - t0) * (t1 - t2)),
                (2 * t2 - t0 - t1) / ((t2 - t0) * (t2 - t1))]

    return _three_point_matrix(y, interior, end)


def diff2_matrix(y):
    """Sparse (CSR) second-derivative matrix, 3-point nonuniform stencils.

    End rows reuse the constant second derivative of the end quadratics.
    """
    def interior(hl, hr):
        return 2.0 / (hl * (hl + hr)), -2.0 / (hl * hr), 2.0 / (hr * (hl + hr))

    def end(t, at):
        t0, t1, t2 = t
        return [2.0 / ((t0 - t1) * (t0 - t2)), 2.0 / ((t1 - t0) * (t1 - t2)),
                2.0 / ((t2 - t0) * (t2 - t1))]

    return _three_point_matrix(y, interior, end)


# A field of fewer than this many formatted floats (Re and Im of every
# point) is written by one process.  Formatting costs about 0.8 us per float;
# forking a ~100 MB process and reaping it, plus the part file, about 6.5 ms,
# which is about 8k floats.  Two cores halve the formatting, so the split
# breaks even near 16k floats.  Medians of 50 writes, 2 cores, Python 3.11.7,
# J = 1024: 8 192 floats 9.9 ms split against 6.5 ms in one process, 16 384
# floats 14.0 against 13.9 ms, 65 536 floats 34.6 against 55.5 ms.  The
# README's 32 x 32 x 256 field holds 524 288 floats.
_SPLIT_FLOATS = 16384


def _write_blocks(fh, rows, indices, blocks):
    """Write one x-point block of J rows per (index tuple, Re/Im row)."""
    for idx, vals in zip(indices, blocks):
        prefix = "".join("%d," % i for i in idx)
        fh.write((prefix + prefix.join(rows)) % tuple(vals.tolist()))


def fork_ranges(ranges, work):
    """Run work(k) for k = 1 .. ranges - 1, each in a forked child, and
    work(0) in this process; returns the children's wait statuses.

    The children are forked before work(0) starts, so nothing it allocates
    is copied to them.  A child runs with the collector off, so no
    finalizer of an object inherited from the parent runs there, and ends
    by os._exit, which skips the parent's unflushed buffers and exit
    handlers: status 0 once work(k) has returned, 1 if it raised.  Its
    results must reach the parent through files or shared memory made
    before the fork, and it must not call BLAS, whose threads the fork did
    not copy.  Every child is reaped in a `finally`, also when work(0) or a
    fork raises, so no child outlives the call.  One range forks nothing.
    """
    pids = []
    try:
        for k in range(1, ranges):
            pid = os.fork()
            if pid == 0:
                _run_child(work, k)
            pids.append(pid)
        work(0)
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    return statuses


def _run_child(work, k):
    """Forked child: run work(k) and end the process (see fork_ranges)."""
    status = 1
    try:
        gc.disable()
        work(k)
        status = 0
    finally:
        os._exit(status)


def usable_cores():
    """Cores this process may run on, or 1 where os.fork or
    os.sched_getaffinity is missing (Windows, macOS): every parallel path
    of degenpde forks, so without fork there is one core to use."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def write_field_csv(path, field):
    """Write a Field as CSV with columns: x index per axis, y, Re, Im.

    Numbers are printed with %.17g, so they read back exactly.  The y column
    is formatted once; each x-point's J rows are then filled from one
    template with a single % call and written straight to the file.

    Formatting is nearly all of the time and holds the interpreter lock, so
    threads cannot share it.  A field of at least _SPLIT_FLOATS numbers
    (where a fork starts to pay; timings at the constant) is split instead
    into one contiguous range of x-points per usable core; a smaller field,
    a 1-d field (one x-point block), one core, or a platform without os.fork
    or os.sched_getaffinity (Windows, macOS) writes one range and forks
    nothing.  The ranges run through fork_ranges: the ranges after the first
    are written to part files by children forked before `path` is opened,
    each running only Python formatting and file writes and exiting with
    status 0 only after its part is closed.  Each part is a new file of a
    unique name next to `path` (`<name>.<random>.part`), created before the
    fork by tempfile.mkstemp, so no existing file is opened or removed.
    This process writes the header and the first range, appends the parts
    in order once every child is reaped, and deletes them, so the bytes are
    those of one process.  A failed child raises OSError naming `path`; no
    part file and no child process outlives the call.
    """
    g = field.grid
    dim = 0 if g.x_box is None else g.x_box.dim
    header = ",".join(["ix%d" % d for d in range(dim)] + ["y", "re", "im"])
    rows = ["%.17g,%%.17g,%%.17g\n" % y for y in g.y_nodes.tolist()]
    blocks = np.ascontiguousarray(field.values).view(float).reshape(
        -1, 2 * g.num_y)
    nx = 1 if dim == 0 else g.x_box.num_points
    indices = list(itertools.product(range(nx), repeat=dim))
    ranges = 1
    if blocks.size >= _SPLIT_FLOATS:
        ranges = min(usable_cores(), len(blocks))
    cuts = [len(blocks) * k // ranges for k in range(ranges + 1)]
    parts = []

    def write(k):
        lo, hi = cuts[k], cuts[k + 1]
        with open(parts[k - 1] if k else path, "w") as fh:
            if not k:
                fh.write(header + "\n")
            _write_blocks(fh, rows, indices[lo:hi], blocks[lo:hi])

    try:
        for _ in range(1, ranges):
            fd, part = tempfile.mkstemp(".part", os.path.basename(path) + ".",
                                        os.path.dirname(path) or ".")
            os.close(fd)
            parts.append(part)
        statuses = fork_ranges(ranges, write)
        if any(statuses):
            raise OSError("writing %s: part writers exited with status %r"
                          % (path, statuses))
        with open(path, "ab") as out:
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, out)
    finally:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)
