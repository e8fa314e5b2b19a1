"""Graded meshes, weighted norms and derivative evaluation.

The vertical direction (0, Y_max] is discretized by a cell-centered graded
mesh: cell edges E_j = Y_max (j/J)^g and nodes y_j = Y_max ((j+1/2)/J)^g, so
all nodes are strictly inside (0, Y_max) and the singular coefficients y^s are
never evaluated at 0.  The grading exponent g = 2/(2-a2) equalizes the mesh in
the variable y^(1-a2/2), the natural distance of the degenerate operator's
heat kernel.  The horizontal directions form a periodic box (torus) sampled
uniformly.  The y-derivative matrices use 3-point nonuniform finite
differences (one-sided quadratics at the ends).

Norms are the weighted Lebesgue norms of L^p(y^m dx dy), with the y-integral
by the cell-length quadrature sum |u|^p y^m (E_{j+1} - E_j) and the x-integral
by the uniform trapezoid rule on the torus (= uniform weights L/Nx).
"""

import itertools

import numpy as np


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


class Grid:
    """Cell-centered graded vertical mesh, optionally tensored with an XBox.

    The y-weights are the cell lengths E_{j+1} - E_j of the edges y_edges.
    """

    def __init__(self, y_nodes, y_edges, y_max, grading_exponent, x_box):
        y_nodes = np.asarray(y_nodes, dtype=float)
        y_edges = np.asarray(y_edges, dtype=float)
        if y_nodes.ndim != 1 or y_edges.shape != (y_nodes.size + 1,):
            raise ValueError("y_nodes must be 1-d with one more y_edge")
        if y_nodes[0] <= 0 or np.any(np.diff(y_nodes) <= 0):
            raise ValueError("y_nodes must be strictly increasing and positive")
        if y_nodes[-1] > y_max:
            raise ValueError("y_nodes must not exceed Y_max")
        y_weights = np.diff(y_edges)
        if np.any(y_weights <= 0):
            raise ValueError("y_edges must increase strictly")
        self.y_nodes = y_nodes
        self.y_edges = y_edges
        self.y_weights = y_weights
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
    """Build the cell-centered graded mesh.

    Nodes y_j = Y_max ((j+1/2)/J)^grading, weights = cell lengths
    E_{j+1} - E_j with E_j = Y_max (j/J)^grading, so the weights telescope to
    Y_max.  grading >= 1 concentrates nodes near the degenerate edge y = 0.

    Parameters
    ----------
    num_cells : int
        Number J of cells (J >= 4).
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
    edges = y_max * (np.arange(J + 1, dtype=float) / J) ** grading
    return Grid(nodes, edges, y_max, grading, x_box)


def _split_field(u, grid):
    if isinstance(u, Field):
        return u.values, u.grid
    if grid is None:
        raise ValueError("pass a Field or (values, grid)")
    return np.asarray(u), grid


def lp_norm(u, p, m, grid=None):
    """Weighted norm (sum |u|^p y^m dx dy)^(1/p) on the grid quadrature.

    The y-direction uses the cell-length weights, the x-directions the uniform
    torus weight (L/Nx)^dim.
    """
    values, g = _split_field(u, grid)
    p = float(p)
    wy = g.y_weights * g.y_nodes ** float(m)
    s = np.sum(np.abs(values) ** p * wy, axis=-1)
    if g.x_box is not None:
        s = np.sum(s) * g.x_box.spacing ** g.x_box.dim
    return float(s ** (1.0 / p))


def linf_norm(u):
    """Max-modulus norm of a Field or array."""
    values = u.values if isinstance(u, Field) else np.asarray(u)
    return float(np.abs(values).max())


def diff1_matrix(y):
    """Dense first-derivative matrix, 3-point nonuniform stencils.

    Interior rows are the centered quadratic-fit formula; end rows
    differentiate the quadratic through the first/last three nodes.
    """
    y = np.asarray(y, dtype=float)
    J = y.size
    D = np.zeros((J, J))
    hl = y[1:-1] - y[:-2]
    hr = y[2:] - y[1:-1]
    rows = np.arange(1, J - 1)
    D[rows, rows - 1] = -hr / (hl * (hl + hr))
    D[rows, rows] = (hr - hl) / (hl * hr)
    D[rows, rows + 1] = hl / (hr * (hl + hr))
    for row, (i0, i1, i2) in ((0, (0, 1, 2)), (J - 1, (J - 3, J - 2, J - 1))):
        t0, t1, t2 = y[[i0, i1, i2]] - y[row]
        # derivative at t=row of the Lagrange quadratic through t0,t1,t2
        D[row, i0] = (2 * t0 - t1 - t2) / ((t0 - t1) * (t0 - t2))
        D[row, i1] = (2 * t1 - t0 - t2) / ((t1 - t0) * (t1 - t2))
        D[row, i2] = (2 * t2 - t0 - t1) / ((t2 - t0) * (t2 - t1))
    return D


def diff2_matrix(y):
    """Dense second-derivative matrix, 3-point nonuniform stencils.

    End rows reuse the constant second derivative of the end quadratics.
    """
    y = np.asarray(y, dtype=float)
    J = y.size
    D = np.zeros((J, J))
    hl = y[1:-1] - y[:-2]
    hr = y[2:] - y[1:-1]
    rows = np.arange(1, J - 1)
    D[rows, rows - 1] = 2.0 / (hl * (hl + hr))
    D[rows, rows] = -2.0 / (hl * hr)
    D[rows, rows + 1] = 2.0 / (hr * (hl + hr))
    for row, (i0, i1, i2) in ((0, (0, 1, 2)), (J - 1, (J - 3, J - 2, J - 1))):
        t0, t1, t2 = y[[i0, i1, i2]]
        D[row, i0] = 2.0 / ((t0 - t1) * (t0 - t2))
        D[row, i1] = 2.0 / ((t1 - t0) * (t1 - t2))
        D[row, i2] = 2.0 / ((t2 - t0) * (t2 - t1))
    return D


def write_field_csv(path, field):
    """Write a Field as CSV with columns: x index per axis, y, Re, Im.

    Numbers are printed with %.17g, so they read back exactly.  The y column
    is formatted once; each x-point's J rows are then filled from one
    template with a single % call and written straight to the file.
    """
    g = field.grid
    dim = 0 if g.x_box is None else g.x_box.dim
    header = ",".join(["ix%d" % d for d in range(dim)] + ["y", "re", "im"])
    rows = ["%.17g,%%.17g,%%.17g\n" % y for y in g.y_nodes.tolist()]
    reim = np.ascontiguousarray(field.values).view(float)
    nx = 1 if dim == 0 else g.x_box.num_points
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for idx, vals in zip(itertools.product(range(nx), repeat=dim),
                             reim.reshape(-1, 2 * g.num_y)):
            prefix = "".join("%d," % i for i in idx)
            fh.write((prefix + prefix.join(rows)) % tuple(vals.tolist()))
