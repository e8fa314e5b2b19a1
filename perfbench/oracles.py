"""Independent reference computations for the benchmark's output checks.

Nothing here imports degenpde: every formula is written out from its source
so that a check compares the program against a computation it did not make.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ive


def bump(y, center, width):
    """exp(-1/(1-t^2)) with t = (y - center)/width, zero outside |t| < 1."""
    t = (np.asarray(y, dtype=float) - center) / width
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def partition_weights(y):
    """Half the adjacent spacings at each node: the P1 quadrature on [y0, yJ-1]."""
    h = np.diff(y)
    w = np.zeros(y.size)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return w


def read_field_csv(path, nx, dim):
    """(y, values) from a field CSV with columns ix0..ix{dim-1}, y, re, im.

    values has shape (nx,)*dim + (J,); the x-indices are checked to run in
    C order so the reshape is the layout the file claims.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = nx ** dim
    J = data.shape[0] // rows
    if J * rows != data.shape[0] or data.shape[1] != dim + 3:
        raise ValueError("%s: %r is not a %d-d field on %d x-points"
                         % (path, data.shape, dim, nx))
    idx = np.indices((nx,) * dim).reshape(dim, -1)
    for d in range(dim):
        if not np.array_equal(data[:, d], np.repeat(idx[d], J)):
            raise ValueError("%s: x-index column %d out of order" % (path, d))
    y = data[:J, dim]
    if not np.array_equal(data[:, dim], np.tile(y, rows)):
        raise ValueError("%s: y column differs between x-points" % path)
    values = (data[:, dim + 1] + 1j * data[:, dim + 2]).reshape(
        (nx,) * dim + (J,))
    return y, values


def plane_wave(nx, dim, k):
    """exp(2 pi i k (ix0 + ... + ix{dim-1}) / nx) on the index lattice."""
    idx = np.indices((nx,) * dim).sum(axis=0)
    return np.exp(2j * np.pi * k * idx / nx)


def off_mode_energy_share(values, k, y_weights):
    """Share of the weighted energy outside the x-mode (k, ..., k)."""
    dim = values.ndim - 1
    fh = np.fft.fftn(values, axes=tuple(range(dim)))
    energy = np.sum(np.abs(fh) ** 2 * y_weights, axis=-1)
    mask = np.ones(energy.shape, dtype=bool)
    mask[(k % values.shape[0],) * dim] = False
    return float(energy[mask].sum()) / float(energy.sum())


def weighted_l2(values, y_weights):
    return float(np.sqrt(np.sum(np.abs(values) ** 2 * y_weights)))


def bessel_heat_kernel(y, rho, c, t):
    """Neumann Bessel heat kernel of Dyy + (c/y) Dy w.r.t. rho^c d rho.

    p = (2t)^-1 (y rho)^-nu exp(-(y-rho)^2/4t) ive(nu, y rho/2t),
    nu = (c-1)/2 (Borodin & Salminen, Handbook of Brownian Motion).
    """
    nu = 0.5 * (c - 1.0)
    Y, R = np.meshgrid(y, rho, indexing="ij")
    z = Y * R / (2.0 * t)
    return ((2.0 * t) ** -1 * (Y * R) ** -nu
            * np.exp(-(Y - R) ** 2 / (4.0 * t)) * ive(nu, z))


def cn_heat_cosine_series(y, t_final, steps, xi2, center, width,
                          y_max=1.0, terms=300):
    """y-profile of the CN-evolved bump under the Neumann heat operator.

    The bump's cosine series on [0, y_max] (Gauss-Legendre on its support),
    each term amplified by ((1 - dt lam/2)/(1 + dt lam/2))^steps with
    lam = xi2 + (n pi / y_max)^2: the time-discrete, space-exact solution.
    """
    xg, wg = leggauss(200)
    lo, hi = center - width, center + width
    yq = 0.5 * (hi - lo) * xg + 0.5 * (hi + lo)
    wq = 0.5 * (hi - lo) * wg
    n = np.arange(terms)
    kn = n * np.pi / y_max
    coef = (wq * bump(yq, center, width)) @ np.cos(np.outer(yq, kn))
    coef *= 2.0 / y_max
    coef[0] *= 0.5
    dt = t_final / steps
    lam = xi2 + kn ** 2
    amp = ((1.0 - 0.5 * dt * lam) / (1.0 + 0.5 * dt * lam)) ** steps
    return np.cos(np.outer(y, kn)) @ (coef * amp)
