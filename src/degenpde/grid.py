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
import functools
import gc
import itertools
import math
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
# point) is written by one process.  Formatting, filling and writing cost
# about 0.35 us per float; forking a ~100 MB process and reaping it, plus the
# part file, about 11 ms, because a new child also waits on its parent's CPU
# for a while.  Two cores halve the per-float cost, so the split breaks even
# near 64k floats.  Medians of 50 writes, 2 cores, Python 3.11.7, numpy
# 2.4.6, J = 1024: 16 384 floats 18.5 ms split against 6.8 ms in one
# process, 32 768 floats 17.1 against 12.3 ms, 65 536 floats 23.3 against
# 22.4 ms, 131 072 floats 35.2 against 42.4 ms.  The README's 32 x 32 x 256
# field holds 524 288 floats.
_SPLIT_FLOATS = 65536


# Floats formatted per numpy pass: about 16 x-points of the README's J = 256,
# small enough that the pass's temporaries stay in cache.
_CHUNK_FLOATS = 8192
# Exponents k of the 10^k table: |v| in [1e-290, 1e290] has its decimal
# exponent X in [-291, 291] after one correction, and scales by 10^(16 - X).
_K_MIN, _K_MAX = -276, 308


@functools.cache
def _format_tables():
    """The lookup tables of _format_17g, built on the first field write.

    - hi, lo: 10^k = hi + lo to about 2^-106 relative, each correctly
      rounded from exact integer ratios; hi_top, hi_bot: hi split into a
      26-bit top and the rest, so Dekker's product needs no split of hi;
    - dig4: the ASCII of every 4-digit group as one little-endian word, and
      zeros: its trailing zero count (4 for 0000);
    - head: b"-0.d" per leading digit d;
    - exp: "e%+03d" % X, NUL-padded to 8 bytes, as two words per X in
      [-300, 300], and key: the layout key of a positive number of exponent
      X and 17 significant digits;
    - layout: for each (sign, case, significant digits) the 24 source-row
      bytes of the %g string, padded with the NUL byte 31 (see _format_17g).
    """
    ks = range(_K_MIN, _K_MAX + 1)
    num = [10 ** max(k, 0) for k in ks]
    den = [10 ** max(-k, 0) for k in ks]
    hi = [n / d for n, d in zip(num, den)]
    lo = []
    for n, d, h in zip(num, den, hi):
        p, q = h.as_integer_ratio()
        lo.append((n * q - p * d) / (d * q))
    hi_top = []
    for h in hi:
        mant, e = math.frexp(h)
        hi_top.append(math.ldexp(int(mant * 2 ** 53) >> 27, e - 26))
    hi = np.array(hi)
    hi_top = np.array(hi_top)
    words = b"".join(b"%04d" % i for i in range(10000))
    dig4 = np.frombuffer(words, dtype="<u4")
    zeros = np.array([4] + [len(s) - len(s.rstrip(b"0"))
                            for s in (b"%04d" % i for i in range(1, 10000))])
    head = np.frombuffer(b"".join(b"-0.%d" % d for d in range(10)),
                         dtype="<u4")
    xs = range(-300, 301)
    exp = np.frombuffer(b"".join((b"e%+03d" % x).ljust(8, b"\0")
                                 for x in xs), dtype="<u4").reshape(-1, 2)
    key = np.array([18 * (x + 4 if -4 <= x <= 16 else 21) + 17 for x in xs])
    layout = np.full((2, 22, 18, 24), 31, dtype=np.intp)
    for neg, case, nd in itertools.product((0, 1), range(22), range(1, 18)):
        x = case - 4
        src = [0] if neg else []
        if case == 21:
            src += [3] + ([2] + list(range(4, 3 + nd)) if nd > 1 else [])
            src += [20, 21, 22, 23, 24]
        elif x >= 0:
            src += list(range(3, 4 + x))
            src += [2] + list(range(4 + x, 3 + nd)) if nd > x + 1 else []
        else:
            src += [1, 2] + [1] * (-x - 1) + list(range(3, 3 + nd))
        layout[neg, case, nd, :len(src)] = src
    return (hi, hi_top, hi - hi_top, np.array(lo), dig4, zeros, head, exp,
            key, layout.reshape(-1, 24))


def _scaled(a, x, tables):
    """(p, s) with p + s = a 10^(16 - x) to within 2^-46 for a 17-digit
    result: p = fl(a hi) is an integer, s its Dekker error plus a lo."""
    at = 16 - x - _K_MIN
    hi, hi_top, hi_bot, lo = (np.take(t, at) for t in tables[:4])
    split = a * 134217729.0                      # Veltkamp: 2^27 + 1
    a_top = split - (split - a)
    a_bot = a - a_top
    p = a * hi
    err = (((a_top * hi_top - p) + a_top * hi_bot + a_bot * hi_top)
           + a_bot * hi_bot)
    return p, err + a * lo


def _decimal_digits(a):
    """(N, X, certified) for floats a in [1e-290, 1e290]: N is a rounded to
    17 significant digits as an integer in [1e16, 1e17), a ~ N 10^(X - 16).

    X starts at floor(log10 a) and is corrected once when the scaled value
    falls outside [1e16, 1e17); a value that rounds up to 1e17 renormalises.
    The scaled value's error is below 2^-46, so the rounding is certified
    unless its fraction lies within 1e-9 of 1/2.
    """
    tables = _format_tables()
    x = np.floor(np.log10(a)).astype(np.int64)
    p, s = _scaled(a, x, tables)
    # compared as p + s exactly: p alone may round onto 1e16 or 1e17
    up = (p > 1e17) | ((p == 1e17) & (s >= 0))
    down = (p < 1e16) | ((p == 1e16) & (s < 0))
    fix = up | down
    if fix.any():
        x += up
        x -= down
        p[fix], s[fix] = _scaled(a[fix], x[fix], tables)
    whole = np.floor(s)
    frac = s - whole
    n = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    big = n == 10 ** 17
    n[big] = 10 ** 16
    x += big
    return n, x, np.abs(frac - 0.5) > 1e-9


def _format_17g(values):
    """'%.17g' % v of every float64 v of `values`, as a NUL-padded S24 array.

    The 17 digits of N (see _decimal_digits) come from 4-digit ASCII groups,
    written with the sign, "0.", the leading digit and the exponent into a
    32-byte source row per number: b"-0." d0 | d1..d16 | e+XXX | NULs.  One
    gather through the layout table of the number's sign, case (fixed
    notation at X in [-4, 16], exponential otherwise) and significant digits
    makes its %g string.  Zeros take their own branch; a value outside
    [1e-290, 1e290], inf, nan or an uncertified rounding is formatted by
    Python's %.  Elementwise numpy, no BLAS, so forked part writers may call
    it.
    """
    dig4, zeros, head, exp, key, layout = _format_tables()[4:]
    v = np.ravel(values)
    a = np.abs(v)
    fast = (a >= 1e-290) & (a <= 1e290)
    n, x, certified = _decimal_digits(np.where(fast, a, 1.0))
    fast &= certified
    top = n // 10 ** 8
    low = n - top * 10 ** 8
    d01 = top // 10 ** 4
    g2 = top - d01 * 10 ** 4
    d0 = d01 // 10 ** 4
    g1 = d01 - d0 * 10 ** 4
    g3 = low // 10 ** 4
    g4 = low - g3 * 10 ** 4
    src = np.empty((v.size, 8), dtype="<u4")
    src[:, 0] = np.take(head, d0)
    for col, group in enumerate((g1, g2, g3, g4), 1):
        src[:, col] = np.take(dig4, group)
    x += 300
    src[:, 5:7] = np.take(exp, x, axis=0)
    src[:, 7] = 0
    # the layout key: sign, case and 17 minus the trailing zeros of N
    k = np.take(key, x)
    k -= np.take(zeros, g4)
    run = g4 == 0
    for group in (g3, g2, g1):
        at = np.flatnonzero(run)
        if not at.size:
            break
        k[at] -= np.take(zeros, group[at])
        run &= group == 0
    k += np.signbit(v) * (22 * 18)
    idx = np.take(layout, k, axis=0)
    idx += np.arange(0, 32 * v.size, 32)[:, None]
    out = np.take(src.view(np.uint8), idx).view("S24").ravel()
    zero = v == 0
    out[zero] = np.where(np.signbit(v[zero]), b"-0", b"0")
    slow = np.flatnonzero(~(fast | zero))
    for i, val in zip(slow.tolist(), v[slow].tolist()):
        out[i] = b"%.17g" % val
    return out


def _write_blocks(fh, rows, indices, blocks):
    """Write one x-point block of J rows per (index tuple, Re/Im row),
    formatting _CHUNK_FLOATS numbers per _format_17g call."""
    width = blocks.shape[1]
    step = max(1, _CHUNK_FLOATS // width)
    for lo in range(0, len(blocks), step):
        texts = _format_17g(blocks[lo:lo + step]).tolist()
        for k, idx in enumerate(indices[lo:lo + step]):
            prefix = b"".join(b"%d," % i for i in idx)
            fh.write((prefix + prefix.join(rows))
                     % tuple(texts[k * width:(k + 1) * width]))


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
    is formatted once by Python's %; the field's numbers are formatted by
    _format_17g, the same bytes from one numpy pass per chunk of about
    _CHUNK_FLOATS numbers, and each x-point's J rows are then filled from
    one bytes template with a single % call and written straight to the
    file.

    Formatting and filling are nearly all of the time, about 0.35 us per
    float in all (Python's % per float took about 0.8 us), and hold the
    interpreter lock, so threads cannot share them.  A field of at least
    _SPLIT_FLOATS numbers (where a fork starts to pay; timings at the
    constant) is split instead into one contiguous range of x-points per
    usable core; a smaller field, a 1-d field (one x-point block), one core,
    or a platform without os.fork or os.sched_getaffinity (Windows, macOS)
    writes one range and forks nothing.  The formatter's tables are built
    before any fork, so every range shares them.  The ranges run through
    fork_ranges: the ranges after the first are written to part files by
    children forked before `path` is opened, each running only elementwise
    numpy, Python formatting and file writes and exiting with status 0 only
    after its part is closed.  Each part is a new file of a unique name next
    to `path` (`<name>.<random>.part`), created before the fork by
    tempfile.mkstemp, so no existing file is opened or removed.  This
    process writes the header and the first range, appends the parts in
    order once every child is reaped, and deletes them, so the bytes are
    those of one process.  A failed child raises OSError naming `path`; no
    part file and no child process outlives the call.
    """
    g = field.grid
    dim = 0 if g.x_box is None else g.x_box.dim
    header = ",".join(["ix%d" % d for d in range(dim)] + ["y", "re", "im"])
    header = header.encode() + b"\n"
    rows = [b"%.17g,%%s,%%s\n" % y for y in g.y_nodes.tolist()]
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
        with open(parts[k - 1] if k else path, "wb") as fh:
            if not k:
                fh.write(header)
            _write_blocks(fh, rows, indices[lo:hi], blocks[lo:hi])

    try:
        for _ in range(1, ranges):
            fd, part = tempfile.mkstemp(".part", os.path.basename(path) + ".",
                                        os.path.dirname(path) or ".")
            os.close(fd)
            parts.append(part)
        _format_tables()                # built once, before any fork
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
