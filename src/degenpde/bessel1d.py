"""One-dimensional weighted operators on the truncated half line.

Everything reduces to operators built from B = Dyy + (c/y) Dy acting in
L^2(y^w dy) on (0, Y_max]:

  * the pure Bessel operator B in L^2(y^c);
  * the frozen-frequency model operator y^alpha (B + 2i s Dy - k2), s = a . xi,
    k2 = |xi|^2, acting in L^2(y^(c-alpha));
  * its potential form (k2 - B - 2i s Dy + lam y^(-alpha)) in L^2(y^c);
  * the graded oblique family  A = B - i (b(c+beta)/2) y^(beta-1) - mu y^(2beta)
    in L^2(y^c), generated by the sesquilinear form
      a(u,v) = Int Dyu conj(Dyv) y^c - i(b/2) Int Dy(u conj v) y^(c+beta)
               + mu Int u conj v y^(c+2beta),
    whose imaginary part is controlled by its real part (sectoriality with an
    angle independent of b, beta).

Discretization: P1 finite elements on the graded node set, with *exact*
closed-form power-moment integrals for the stiffness and transport matrices
(so symmetry and skewness hold to rounding), and diagonal node-power weights
W_w[j] = y_j^w int(phi_j) for all mass-type terms.  The diagonal weights obey
W_c[j] y_j^(-alpha) = W_(c-alpha)[j] exactly in floating point, which makes
the two resolvent routes (frozen frequency vs potential form) assemble the
same linear system: their agreement then tests only the independent code
paths, not the discretization error.  The natural (Neumann-type) flux
condition y^c Dy u -> 0 is built into the form; no boundary rows are needed.

Every operator is a TridiagForm: the tridiagonal form bands F and the
diagonal weights W, with M = -W^(-1) F.  One operator is solved by LAPACK's
pivoted tridiagonal LU (gttrf / gttrs), a batch of Fourier modes by a
vectorised Thomas LU; resolve gates every solve on its componentwise
backward error.  Semigroup kernels never form a dense matrix exponential,
so J is not capped, and each is built at its numerical rank.  Self-adjoint
forms are diagonalised through their symmetrised tridiagonal pencil, keeping
the eigenpairs with Re z (lambda - lambda_0) <= 40: the dropped modes weigh at
most e^{-40} ~ 4.2e-18 of ||e^{zM}||_W.  Oblique forms use a parabolic-contour
quadrature of the resolvent applied to a thin randomized sketch; a
Halko-Martinsson-Tropp a-posteriori estimate of the sketch's relative error
must be <= 1e-10, the tolerance of the contour itself, or the sketch grows,
up to the identity.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import zgttrf, zgttrs
from scipy.sparse.linalg import LinearOperator, svds

from .grid import lp_norm, make_grid, default_grading
from . import panels


# ---------------------------------------------------------------------------
# exact P1 element integrals


def power_moment(a, b, s):
    """Exact integral of y^s over [a, b], 0 < a < b, any real s.

    Stable for b - a << a via expm1/log1p; s = -1 uses the logarithm.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ratio = np.log1p((b - a) / a)
    if s == -1.0:
        return ratio
    t = s + 1.0
    return a ** t * np.expm1(t * ratio) / t


def _element_moments(y, s):
    """I_k = Int_{y_j}^{y_{j+1}} y^(s+k) dy for k = 0, 1 (per element)."""
    a, b = y[:-1], y[1:]
    return power_moment(a, b, s), power_moment(a, b, s + 1.0)


def _accumulate(J, ll, lr, rl, rr):
    """Scatter per-element 2x2 blocks into tridiagonal (sub, diag, sup)."""
    diag = np.zeros(J)
    sub = np.zeros(J - 1)
    sup = np.zeros(J - 1)
    diag[:-1] += ll
    diag[1:] += rr
    sup += lr
    sub += rl
    return sub, diag, sup


def stiffness_tridiag(y, s):
    """K[i,j] = Int Dphi_i Dphi_j y^s, exact, as (sub, diag, sup)."""
    y = np.asarray(y, dtype=float)
    h = np.diff(y)
    i0 = power_moment(y[:-1], y[1:], s)
    k = i0 / h ** 2
    return _accumulate(y.size, k, -k, -k, k)


def transport_tridiag(y, s):
    """P[i,j] = Int Dphi_j phi_i y^s (trial derivative, test value), exact."""
    y = np.asarray(y, dtype=float)
    a, b = y[:-1], y[1:]
    h = b - a
    i0, i1 = _element_moments(y, s)
    left = (b * i0 - i1) / h ** 2    # Int phi_L y^s / h
    right = (i1 - a * i0) / h ** 2   # Int phi_R y^s / h
    return _accumulate(y.size, -left, left, -right, right)


def partition_weights(y):
    """omega_j = Int phi_j dy on [y_0, y_Jm1]: half the adjacent spacings."""
    y = np.asarray(y, dtype=float)
    h = np.diff(y)
    w = np.zeros(y.size)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return w


def node_weights(y, w_exponent):
    """Diagonal inner-product weights W_w[j] = y_j^w omega_j."""
    y = np.asarray(y, dtype=float)
    return y ** float(w_exponent) * partition_weights(y)


# ---------------------------------------------------------------------------
# tridiagonal forms


def _rows(v, ndim):
    """v with trailing unit axes: it broadcasts along axis 0 of ndim arrays."""
    return v.reshape(v.shape + (1,) * (ndim - v.ndim))


def _band_apply(sub, diag, sup, u):
    """Tridiagonal (sub, diag, sup) product along axis 0 of u."""
    sub, diag, sup = (_rows(b, u.ndim) for b in (sub, diag, sup))
    out = diag * u
    out[:-1] += sup * u[1:]
    out[1:] += sub * u[:-1]
    return out


class SingularFormError(np.linalg.LinAlgError):
    """lam W + F has a zero or non-finite pivot; `column` is the first
    operator of the batch where it appeared (0 for a single operator)."""

    def __init__(self, column):
        super().__init__("zero or non-finite pivot in column %d" % column)
        self.column = int(column)


class TridiagForm:
    """Tridiagonal form F and diagonal weight W of a 1-d operator M.

    <-M u, v>_W = v^H F u, so M = -W^(-1) F, with W the node weights of the
    measure y^w dy.  Bands of shape (J,) (sub and sup (J - 1,)) describe one
    operator; bands of shape (J, modes) a batch of Fourier modes sharing W,
    one column per mode.  Every product and solve acts along axis 0.
    """

    def __init__(self, sub, diag, sup, weight, grid=None):
        self.sub = np.asarray(sub, dtype=complex)
        self.diag = np.asarray(diag, dtype=complex)
        self.sup = np.asarray(sup, dtype=complex)
        self.weight = np.asarray(weight, dtype=float)
        self.grid = grid

    @property
    def size(self):
        return self.diag.shape[0]

    def apply(self, u):
        """F u along axis 0 of u."""
        return _band_apply(self.sub, self.diag, self.sup, u)

    def apply_adjoint(self, u):
        """F^H u along axis 0 of u: the conjugate-transposed bands."""
        return _band_apply(np.conj(self.sup), np.conj(self.diag),
                           np.conj(self.sub), u)

    def dense(self):
        """F of one operator as a dense matrix."""
        return (np.diag(self.diag) + np.diag(self.sub, -1)
                + np.diag(self.sup, 1))

    def hermitian_defect(self):
        """max |F - F^H| relative to max |F|; 0 for self-adjoint operators."""
        scale = max(abs(self.diag).max(), abs(self.sub).max(),
                    abs(self.sup).max())
        d = max(abs(self.diag.imag).max(),
                abs(self.sub - np.conj(self.sup)).max())
        return float(d / scale)

    def symmetric_bands(self):
        """(diag, sub, sup) of W^(-1/2) F W^(-1/2), a matrix similar to -M."""
        w = self.weight
        r = np.sqrt(w[:-1] * w[1:])
        return self.diag / w, self.sub / r, self.sup / r

    def _shifted_diag(self, lam):
        return self.diag + lam * _rows(self.weight, self.diag.ndim)

    def factor(self, lam):
        """LU factors of lam W + F.

        One operator: LAPACK gttrf (partial pivoting), whose factors also
        solve the adjoint system.  A batch: a Thomas LU without pivoting,
        one forward and one backward sweep over the J rows, each row a vector
        over all modes; for Re lam > 0 the Hermitian part of lam W + F is
        positive definite (the form is accretive), so no pivoting is needed
        (Golub & Van Loan, section 4.2).  A zero pivot, or in a batch a
        non-finite one, raises SingularFormError.
        """
        with np.errstate(all="ignore"):
            diag = self._shifted_diag(lam)
        if diag.ndim == 1:
            return _PivotedLU(self.sub, diag, self.sup)
        return _ThomasLU(self.sub, diag, self.sup)

    def backward_error(self, lam, u, b):
        """Componentwise backward error of u for (lam W + F) u = b.

        max_i |b - A u|_i / (|A| |u| + |b|)_i with A = lam W + F (Oettli &
        Prager, Numer. Math. 6 (1964)): the smallest relative perturbation
        of the entries of A and b that u solves exactly.  Unlike a weighted
        residual it does not grow with the spread of the weights.
        """
        diag = self._shifted_diag(lam)
        r = np.abs(b - _band_apply(self.sub, diag, self.sup, u))
        scale = _band_apply(np.abs(self.sub), np.abs(diag), np.abs(self.sup),
                            np.abs(u)) + np.abs(b)
        return float(np.max(r / np.where(scale > 0, scale, 1.0)))


class _PivotedLU:
    """gttrf factors of one tridiagonal matrix; solve and adjoint solve."""

    def __init__(self, sub, diag, sup):
        *self._lu, info = zgttrf(sub, diag, sup, overwrite_d=True)
        if info > 0:
            raise SingularFormError(0)

    def solve(self, b, overwrite_b=False):
        """A^(-1) b for b of shape (J,) or (J, k)."""
        return zgttrs(*self._lu, b, overwrite_b=overwrite_b)[0]

    def solve_adjoint(self, b):
        """A^(-H) b from the same factors."""
        return zgttrs(*self._lu, b, trans="C")[0]


class _ThomasLU:
    """Thomas LU of a (J, modes) batch: multipliers and inverse pivots."""

    def __init__(self, sub, piv, sup):
        mult = np.empty_like(sub)
        with np.errstate(all="ignore"):
            for i in range(1, piv.shape[0]):
                np.divide(sub[i - 1], piv[i - 1], out=mult[i - 1])
                piv[i] -= mult[i - 1] * sup[i - 1]
        bad = np.flatnonzero(~np.all(np.isfinite(piv) & (piv != 0), axis=0))
        if bad.size:
            raise SingularFormError(bad[0])
        self.sup = sup
        self.mult = mult
        self.inv_piv = np.reciprocal(piv, out=piv)

    def solve(self, b, overwrite_b=False):
        """A^(-1) b for (J, modes) b, by one forward and one backward sweep.

        Each row update writes in place through row views taken once, with
        one scratch row, so the sweep allocates nothing per row.
        """
        u = b if overwrite_b else np.array(b, dtype=complex)
        rows = list(u)
        sup, mult = list(self.sup), list(self.mult)
        inv_piv = list(self.inv_piv)
        tmp = np.empty_like(rows[0])
        for i in range(1, len(rows)):
            np.multiply(mult[i - 1], rows[i - 1], out=tmp)
            np.subtract(rows[i], tmp, out=rows[i])
        np.multiply(rows[-1], inv_piv[-1], out=rows[-1])
        for i in range(len(rows) - 2, -1, -1):
            np.multiply(sup[i], rows[i + 1], out=tmp)
            np.subtract(rows[i], tmp, out=rows[i])
            np.multiply(rows[i], inv_piv[i], out=rows[i])
        return u


def assemble_form(grid, kind, **params):
    """Assemble a weighted 1-d operator from its sesquilinear form.

    Kinds
    -----
    'bessel' (c):
        B in L^2(y^c); form Int Dyu Dyv y^c.  Self-adjoint, nonnegative.
    'model_mode' (c, alpha, mixing_freq, freq_norm2):
        y^alpha (B + 2i s Dy - k2) in L^2(y^(c-alpha)) with s = mixing_freq,
        k2 = freq_norm2;  form K_c - 2i s P_c + k2 W_c.
    'model_potential' (c, alpha, mixing_freq, freq_norm2, lam):
        (k2 - B - 2i s Dy + lam y^(-alpha)) in L^2(y^c); the potential route
        of the same resolvent (note: this operator is -M for 'model_mode'
        shifted, so resolve() is not used on it; see two_route_resolvent).
    'bessel_drift' (c, beta, drift_b, potential_coeff):
        A = B - i (b(c+beta)/2) y^(beta-1) - mu y^(2beta) in L^2(y^c); form
        K_c - i(b/2)(P_{c+beta} + P_{c+beta}^T) + mu W_{c+2beta}.  The graded
        transport is exactly skew-Hermitian, so Re of the form is b-free.

    c > -1 is required (integrability of the measure at the edge).
    """
    y = grid.y_nodes
    J = y.size
    omega = partition_weights(y)

    def W(s):
        return y ** float(s) * omega

    c = float(params["c"])
    if not c > -1.0:
        raise ValueError("need c > -1")

    if kind == "bessel":
        return TridiagForm(*stiffness_tridiag(y, c), W(c), grid)

    if kind in ("model_mode", "model_potential"):
        alpha = float(params["alpha"])
        s_mix = float(params["mixing_freq"])
        k2 = float(params["freq_norm2"])
        ks, kd, ku = stiffness_tridiag(y, c)
        ps, pd, pu = transport_tridiag(y, c)
        sub = ks - 2j * s_mix * ps
        diag = kd - 2j * s_mix * pd + k2 * W(c)
        sup = ku - 2j * s_mix * pu
        if kind == "model_mode":
            return TridiagForm(sub, diag, sup, W(c - alpha), grid)
        lam = complex(params["lam"])
        diag = diag + lam * W(c - alpha)
        return TridiagForm(sub, diag, sup, W(c), grid)

    if kind == "bessel_drift":
        beta = float(params["beta"])
        b = float(params["drift_b"])
        mu = float(params["potential_coeff"])
        if not beta > -1.0:
            raise ValueError("need beta > -1")
        ks, kd, ku = stiffness_tridiag(y, c)
        gs, gd, gu = transport_tridiag(y, c + beta)
        # symmetrized graded transport: P + P^T multiplies -i b/2
        sub = ks - 0.5j * b * (gs + gu)
        diag = kd - 1j * b * gd
        sup = ku - 0.5j * b * (gu + gs)
        diag = diag + mu * W(c + 2.0 * beta)
        return TridiagForm(sub, diag, sup, W(c), grid)

    raise ValueError("unknown form kind %r" % (kind,))


# Gate on the componentwise backward error of every resolve: rounding keeps
# it near the unit roundoff (at most 8.1e-16 over the default suite), so a
# solve above this bound is not a rounding effect.
BACKWARD_ERROR_TOL = 1e-13


def resolve(op, lam, f):
    """Solve (lam - M) u = f, i.e. (lam W + F) u = W f, by pivoted LU.

    f has shape (J,) or (..., J), one right-hand side per leading index.
    Raises RuntimeError when the componentwise backward error of any
    right-hand side exceeds BACKWARD_ERROR_TOL.
    """
    f = np.asarray(f, dtype=complex)
    rhs = (op.weight * f).reshape(-1, op.size).T
    u = op.factor(lam).solve(rhs)
    err = op.backward_error(lam, u, rhs)
    if not err <= BACKWARD_ERROR_TOL:
        raise RuntimeError("resolvent backward error %.3e exceeds %.0e"
                           % (err, BACKWARD_ERROR_TOL))
    return u.T.reshape(f.shape)


# ---------------------------------------------------------------------------
# semigroup kernels


class Kernel1D:
    """Dense semigroup kernel with respect to the weighted measure.

    values[i, j] approximates p(z, y_i, rho_j) in
    (e^{zM} f)(y_i) = sum_j p(z, y_i, rho_j) f(rho_j) W_j,
    where W = weight holds the node weights of the measure.
    """

    def __init__(self, z, values, grid, weight):
        self.z = complex(z)
        self.values = np.asarray(values, dtype=complex)
        self.grid = grid
        self.weight = np.asarray(weight, dtype=float)

    def apply(self, f):
        """e^{zM} f for f of shape (J,) or (J, k), one profile per column."""
        f = np.asarray(f, dtype=complex)
        return self.values @ (f * _rows(self.weight, f.ndim))

    def __repr__(self):
        return "Kernel1D(z=%s, J=%d)" % (self.z, self.values.shape[0])


# Parabolic contour s(theta) = N (0.1309 - 0.1194 theta^2 + 0.25 i theta),
# trapezoidal rule at the N midpoints theta_k of (-pi, pi) (Weideman &
# Trefethen, Math. Comp. 76 (2007) 1341-1356): c_k = e^{s_k} s'(theta_k)/(iN)
# and r(w) = sum_k c_k / (s_k - w) is a rational approximation of e^w,
# accurate to ~1e-14 on the negative axis and to 1e-10 in a 40-degree sector
# around it.
CONTOUR_NODES = 32
_THETA = np.pi * (2.0 * np.arange(CONTOUR_NODES) + 1.0
                  - CONTOUR_NODES) / CONTOUR_NODES
_NODES = CONTOUR_NODES * (0.1309 - 0.1194 * _THETA ** 2 + 0.25j * _THETA)
_COEFFS = np.exp(_NODES) * (-0.2388 * _THETA + 0.25j) / 1j
_CONTOUR_TOL = 1e-10
_RANGE_DIRECTIONS = 64


def _numerical_range_polygon(d, sub, sup):
    """Polygon containing the numerical range of the tridiagonal (d, sub, sup).

    For each of _RANGE_DIRECTIONS angles a the support value h(a) =
    max Re(e^{-ia} <Tu, u>) / <u, u> is the top eigenvalue of the Hermitian
    part of e^{-ia} T, a Hermitian tridiagonal matrix whose spectrum is that
    of the real one with the moduli of its off-diagonal.  The supporting
    lines of adjacent angles meet at the returned vertices; `angles` and
    `support` describe the same polygon as half-planes.
    """
    J = d.size
    angles = 2.0 * np.pi * np.arange(_RANGE_DIRECTIONS) / _RANGE_DIRECTIONS
    support = np.empty(_RANGE_DIRECTIONS)
    for k, a in enumerate(angles):
        rot = np.exp(-1j * a)
        off = 0.5 * np.abs(rot * sub + np.conj(rot * sup))
        support[k] = eigh_tridiagonal((rot * d).real, off, eigvals_only=True,
                                      select="i", select_range=(J - 1, J - 1))[0]
    a2, h2 = np.roll(angles, -1), np.roll(support, -1)
    det = np.sin(a2 - angles)
    vertices = ((support * np.sin(a2) - h2 * np.sin(angles))
                + 1j * (h2 * np.cos(angles) - support * np.cos(a2))) / det
    return angles, support, vertices


def _contour_error_bound(op, z):
    """Bound on ||e^{zM} - r(zM)||_W for the contour approximant r.

    zM is similar to -zT with T = W^(-1/2) F W^(-1/2), so its numerical range
    lies in -z P for the polygon P of _numerical_range_polygon.  When no pole
    s_k of r lies in that set, the Crouzeix-Palencia theorem bounds the error
    by (1 + sqrt 2) max |r(w) - e^w| over it, and by the maximum principle the
    max is taken on the boundary, sampled here geometrically from each vertex.
    Returns inf when a pole lies inside.
    """
    z = complex(z)
    angles, support, vertices = _numerical_range_polygon(
        *op.symmetric_bands())
    poles = -_NODES / z
    inside = (np.real(np.exp(-1j * angles)[:, None] * poles[None, :])
              <= support[:, None]).all(axis=0)
    if inside.any():
        return float("inf")
    ends = np.roll(vertices, -1)
    # 8 points a decade: edges run from |w| ~ 1e-2 out to |w| ~ 1e10
    u = np.concatenate(([0.0], np.logspace(-14.0, 0.0, 113)))
    edges = np.concatenate([vertices[:, None] + (ends - vertices)[:, None] * u,
                            ends[:, None] + (vertices - ends)[:, None] * u])
    w = -z * edges.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        r = (_COEFFS / (_NODES - w[:, None])).sum(axis=1)
        err = np.abs(r - np.exp(w)).max()
    return float((1.0 + np.sqrt(2.0)) * err) if np.isfinite(err) \
        else float("inf")


# Self-adjoint kernels keep the modes with Re z (lambda - lambda_0) <= this:
# a dropped mode weighs at most e^{-40} ~ 4.2e-18 of ||e^{zM}||_W
_SPECTRAL_CUTOFF = 40.0
# Oblique kernels: first sketch width l, oversampling p (the estimator's test
# columns) and the seed of the Gaussian test matrix
_SKETCH_RANK = 24
_SKETCH_OVERSAMPLE = 8
_SKETCH_SEED = 20230925


def _contour_kernel(zform):
    """Kernel K = sum_k c_k (s_k W + zF)^(-1) of e^{zM} at its numerical rank.

    The 32 node forms are factored once.  A fixed-seed complex Gaussian
    Omega of l + p columns is mapped to Y = K Omega (one solve with l + p
    right-hand sides per node), Q = orth(Y[:, :l]), and the last p columns
    test it (Halko, Martinsson & Tropp, SIAM Rev. 53 (2011), Lemma 4.1):

        e = 10 sqrt(2/pi) max_i ||(I - Q Q^H) y_(l+i)|| / s,
        s = max_i ||y_i|| / ||omega_i|| <= ||K||,

    bounds ||(I - Q Q^H) K|| / ||K|| with probability >= 1 - 10^(-p).  When
    e <= _CONTOUR_TOL the kernel is Q (Q^H K), Q^H K from the adjoint solves
    of Q; otherwise l doubles with fresh columns on the same factors, and
    once l + p >= J the sketch is the identity: the full kernel.
    """
    J = zform.size
    lus = [zform.factor(s) for s in _NODES]

    def combine(solvers, coeffs, rhs):
        """sum_k coeffs[k] solvers[k](rhs), one node at a time."""
        out = np.zeros(rhs.shape, dtype=complex, order="F")
        for solve, c in zip(solvers, coeffs):
            X = solve(rhs)
            X *= c
            out += X
        return out

    solves = [lu.solve for lu in lus]
    rng = np.random.default_rng(_SKETCH_SEED)
    rank = _SKETCH_RANK
    omega = Y = np.empty((J, 0), dtype=complex)
    while rank + _SKETCH_OVERSAMPLE < J:
        shape = (J, rank + _SKETCH_OVERSAMPLE - omega.shape[1])
        fresh = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        omega = np.hstack([omega, fresh])
        Y = np.hstack([Y, combine(solves, _COEFFS, fresh)])
        Q = np.linalg.qr(Y[:, :rank])[0]
        test = Y[:, rank:]
        miss = np.linalg.norm(test - Q @ (Q.conj().T @ test), axis=0).max()
        scale = (np.linalg.norm(Y, axis=0)
                 / np.linalg.norm(omega, axis=0)).max()
        if 10.0 * np.sqrt(2.0 / np.pi) * miss <= _CONTOUR_TOL * scale:
            KhQ = combine([lu.solve_adjoint for lu in lus], np.conj(_COEFFS),
                          Q)
            return Q @ KhQ.conj().T
        rank *= 2
    return combine(solves, _COEFFS, np.eye(J, dtype=complex, order="F"))


def expm_kernel(op, z):
    """Kernel of e^{zM} (Re z > 0) at its numerical rank, without a dense
    matrix exponential.

    Self-adjoint forms (hermitian_defect <= 1e-12) are diagonalised through
    the symmetrised tridiagonal pencil, T = V Lambda V^T, keeping only the
    eigenpairs with Re z (lambda - lambda_0) <= 40, lambda_0 the smallest
    eigenvalue:

        values = W^(-1/2) V e^{-z Lambda} V^T W^(-1/2).

    ||e^{zM}||_W = e^{-Re z lambda_0}, so the dropped modes weigh at most
    e^{-40} ~ 4.2e-18 of it in the W-norm.  The kept eigenpairs come from
    LAPACK's MRRR (stemr): with a selected range scipy's default,
    bisection and inverse iteration (stebz + stein), moves the kernel fits
    on these graded matrices far beyond the spread between full-spectrum
    drivers.

    Other (oblique) forms use the parabolic-contour quadrature of the
    resolvent, e^{zM} W^(-1) = sum_k c_k (s_k W + z F)^(-1), applied to a
    thin randomized sketch with an a-posteriori error estimate <= 1e-10
    (_contour_kernel).  The quadrature is used only when
    _contour_error_bound(op, z) <= 1e-10; a z whose rotated numerical range
    the contour cannot enclose raises ValueError instead.
    """
    z = complex(z)
    if z.real <= 0:
        raise ValueError("need Re z > 0")
    w = op.weight
    if op.hermitian_defect() <= 1e-12:
        d, e, _ = op.symmetric_bands()
        d, e = d.real, e.real
        lam0 = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                select_range=(0, 0))[0]
        lam, V = eigh_tridiagonal(
            d, e, select="v", lapack_driver="stemr",
            select_range=(-np.inf, lam0 + _SPECTRAL_CUTOFF / z.real))
        V /= np.sqrt(w)[:, None]
        g = np.exp(-z * lam)
        values = (V * g.real) @ V.T
        if z.imag:
            values = values + 1j * ((V * g.imag) @ V.T)
    else:
        bound = _contour_error_bound(op, z)
        if not bound <= _CONTOUR_TOL:
            raise ValueError("contour quadrature cannot enclose the rotated "
                             "numerical range of z M at z = %s (error bound "
                             "%.1e > %.0e)" % (z, bound, _CONTOUR_TOL))
        values = _contour_kernel(
            TridiagForm(z * op.sub, z * op.diag, z * op.sup, w))
    return Kernel1D(z, values, op.grid, w)


# ---------------------------------------------------------------------------
# norm probes and scans


# ARPACK's stopping tolerance on the top singular value, and its fixed start
_NORM_TOL = 1e-12
_NORM_SEED = 20230925


def operator_norm(apply, apply_adjoint, weights):
    """Exact operator norm of T on l^2(W): the top singular value of
    W^(1/2) T W^(-1/2), with W = diag(weights), computed matrix-free.

    `apply` is the product T u and `apply_adjoint` the Euclidean adjoint
    product T^H u, each on one vector of length J.  svds runs ARPACK on the
    Gram operator of the scaled map with k = 1, tolerance _NORM_TOL and a
    fixed start vector, so a rerun is bitwise equal; no dense matrix is
    formed.  When ARPACK does not converge it raises ArpackNoConvergence,
    and the zero map, whose Krylov space is empty, raises ArpackError:
    callers skip maps that vanish by construction.
    """
    sqw = np.sqrt(np.asarray(weights, dtype=float))
    n = sqw.size
    start = np.random.default_rng(_NORM_SEED).standard_normal(n)
    scaled = LinearOperator(
        (n, n), dtype=complex,
        matvec=lambda x: sqw * apply(np.ravel(x) / sqw),
        rmatvec=lambda x: apply_adjoint(sqw * np.ravel(x)) / sqw)
    sigma = svds(scaled, k=1, tol=_NORM_TOL, v0=start,
                 return_singular_vectors=False)
    return float(sigma[0])


def weighted_opnorm_estimate(op, lam, rng, probes=16, iters=3):
    """Estimate ||lam (lam - M)^(-1)|| in the W-weighted operator norm.

    Randomized power iteration on T* T (T = lam R_lam, adjoint in the W inner
    product): `probes` random starts, `iters` power steps each, max taken.
    The probes run as one block, rows of a (probes, J) array: a power step is
    one resolve and one adjoint solve for all of them.
    """
    w = op.weight
    v = np.array([rng.standard_normal(op.size)
                  + 1j * rng.standard_normal(op.size) for _ in range(probes)])
    v /= np.sqrt(np.sum(np.abs(v) ** 2 * w, axis=1))[:, None]
    # T* = conj(lam) (conj(lam) - M*)^(-1), and (conj(lam) - M*)^(-1) g
    # solves (lam W + F)^H u = W g
    adjoint = op.factor(lam).solve_adjoint
    absl2 = abs(lam) ** 2
    for _ in range(iters):
        tv = resolve(op, lam, v)
        sigma2 = absl2 * np.real(np.sum(tv * np.conj(tv) * w, axis=1))
        v = absl2 * adjoint((w * tv).T).T
        v /= np.sqrt(np.sum(np.abs(v) ** 2 * w, axis=1))[:, None]
    return float(np.sqrt(max(sigma2.max(), 0.0)))


def sector_angle(mixing_norm):
    """Half-angle of analyticity: pi/2 - arctan(|a| / sqrt(1 - |a|^2))."""
    a = float(mixing_norm)
    if not 0.0 <= a < 1.0:
        raise ValueError("need |mixing| < 1")
    return np.pi / 2.0 - np.arctan(a / np.sqrt(1.0 - a * a))


def sector_resolvent_scan(op, mixing_norm, rng, n_radii=8, n_angles=8,
                          probes=4, iters=3):
    """sup ||lam R_lam||_W over the sector of half-angle (analyticity - 0.1).

    lam ranges over 8 log-spaced moduli in [1e-2, 1e2] and 8 arguments
    filling the sector (64 samples).  Returns the supremum, the estimate
    grid and the half-angle used.
    """
    theta = sector_angle(mixing_norm) - 0.1
    radii = np.logspace(-2, 2, n_radii)
    angles = np.linspace(-theta, theta, n_angles)
    estimates = np.zeros((n_radii, n_angles))
    for i, r in enumerate(radii):
        for k, phi in enumerate(angles):
            lam = r * np.exp(1j * phi)
            estimates[i, k] = weighted_opnorm_estimate(
                op, lam, rng, probes=probes, iters=iters)
    return {"sup": float(estimates.max()), "estimates": estimates,
            "angle": float(theta)}


def semigroup_domination_check(grid, c, beta, drift_b, potential_coeff, t):
    """Check |e^{tA} f| <= (e^{tB} |f|) + slack, pointwise, plus kernels.

    A is the graded oblique operator, B the pure Bessel operator in the same
    L^2(y^c).  Returns the largest relative pointwise excess over a panel of
    six profiles and the kernel-level excess max(|p_A| - p_B) / max p_B,
    both signed (a negative excess is the margin by which domination holds;
    a positive one should be small and vanish under refinement).
    """
    op_b = assemble_form(grid, "bessel_drift", c=c, beta=beta,
                         drift_b=drift_b, potential_coeff=potential_coeff)
    op_0 = assemble_form(grid, "bessel", c=c)
    ker_b = expm_kernel(op_b, t)
    ker_0 = expm_kernel(op_0, t)
    f = np.stack([prof(grid.y_nodes)
                  for prof in panels.vertical_panel(grid.y_max, count=6)],
                 axis=1)
    lhs = np.abs(ker_b.apply(f))
    rhs = np.abs(ker_0.apply(np.abs(f)))
    excess_f = float(((lhs - rhs).max(axis=0)
                      / np.maximum(rhs.max(axis=0), 1e-300)).max())
    pk = np.abs(ker_b.values)
    p0 = ker_0.values.real
    excess_k = float((pk - p0).max() / p0.max())
    return {"field_excess": excess_f, "kernel_excess": excess_k}


def gaussian_envelope_fit(kernel, t, dist, prefactor):
    """Fit |p| <= C prefactor(rho) exp(-dist(y, rho)^2 / (kappa t)).

    dist: (y_i, rho_j) -> separation in the kernel's natural distance;
    prefactor: rho_j -> on-diagonal envelope (t-dependence included by the
    caller).  Envelope regression over the entries |p| >= 1e-13 max |p|:
    bin s = dist^2/t into 20 bins, regress the per-bin max of
    log(|p| / prefactor) linearly in s; kappa = -1/slope and C is the
    uniform max of |p| / (prefactor exp(-s/kappa)).

    Returns dict with C, kappa and the masked-point count.  kappa = inf when
    no Gaussian decay is visible (slope >= 0): callers treat that as failure.
    """
    y = kernel.grid.y_nodes
    P = np.abs(kernel.values)
    pref = prefactor(y)[None, :] * np.ones((y.size, 1))
    s = dist(y[:, None], y[None, :]) ** 2 / t
    mask = P >= 1e-13 * P.max()
    g = np.log(P[mask] / pref[mask])
    sv = s[mask]
    bins = 20
    edges = np.linspace(0.0, sv.max() * (1 + 1e-12), bins + 1)
    # bin k holds edges[k] <= s < edges[k+1]; index `bins` only catches
    # s = 0 = every edge, a kernel with no off-diagonal entry left
    idx = np.searchsorted(edges, sv, side="right") - 1
    top = np.full(bins + 1, -np.inf)
    np.maximum.at(top, idx, g)
    hit = np.bincount(idx, minlength=bins + 1)[:bins] > 0
    smax = 0.5 * (edges[:-1] + edges[1:])[hit]
    gmax = top[:bins][hit]
    if smax.size < 3:
        return {"C": float("inf"), "kappa": float("inf"), "points": int(mask.sum())}
    slope, intercept = np.polyfit(smax, gmax, 1)
    if slope >= 0:
        return {"C": float(np.exp(gmax.max())), "kappa": float("inf"),
                "points": int(mask.sum())}
    kappa = -1.0 / slope
    C = float(np.exp((g + sv / kappa).max()))
    return {"C": C, "kappa": float(kappa), "points": int(mask.sum())}


def bessel_kernel_fit(kernel, c, t):
    """Gaussian-envelope fit for the Bessel kernel, distance |y - rho|.

    Envelope C t^(-1/2) rho^(-c) min(rho/sqrt(t), 1)^c exp(-|y-rho|^2/(kappa t)),
    stated with respect to the measure rho^c d rho.
    """
    rt = np.sqrt(t)

    def pref(rho):
        return t ** -0.5 * rho ** -float(c) * np.minimum(rho / rt, 1.0) ** float(c)

    return gaussian_envelope_fit(kernel, t, lambda yy, rr: np.abs(yy - rr),
                                 pref)


def model_kernel_fit(kernel, c, alpha, t):
    """Gaussian-envelope fit for the degenerate model kernel.

    The substitution z = y^e with e = 1 - alpha/2 turns y^alpha B_c into
    e^2 B_ct, ct = (c - alpha/2)/e, so the kernel is exactly
    e * p_bessel(e^2 t, y^e, rho^e) and inherits the Bessel envelope

        C (e^2 t)^(-1/2) rho^(-e ct) min(rho^e / (e sqrt(t)), 1)^ct
          exp(-|y^e - rho^e|^2 / (kappa e^2 t)),

    with respect to the measure rho^(c-alpha) d rho.
    """
    a = float(alpha)
    e = 1.0 - a / 2.0
    ct = (float(c) - a / 2.0) / e
    te = e * e * t
    rte = np.sqrt(te)

    def pref(rho):
        ze = rho ** e
        return te ** -0.5 * ze ** -ct * np.minimum(ze / rte, 1.0) ** ct

    return gaussian_envelope_fit(
        kernel, te, lambda yy, rr: np.abs(yy ** e - rr ** e), pref)


# ---------------------------------------------------------------------------
# estimate checks (strong-form panels, grid-converged)


def equivalence_transform_check(alpha, c, mixing_freq, freq_norm2, J):
    """Conjugation identity between the model mode and the graded oblique form.

    Checks, on a panel of six edge-avoiding test functions f on (0, 1],

        y^alpha (B_c + 2i s Dy - k2) f
          = (T o S) [ (beta+1)^(-2) A_{bt,beta} ] (T o S)^(-1) f,

    with beta = alpha/(2-alpha), ct = (2c-alpha)/(2-alpha),
    bt = 2 s (beta+1), mu = (beta+1)^2 (k2 - s^2): T the vertical power
    isometry of exponent -alpha/2 (L^2(y^ct) -> L^2(y^(c-alpha))) and S the
    unimodular phase exp(-i s y^(2/(2-alpha))).  Both sides are evaluated with
    the 3-point nonuniform stencils on matched J-cell grids.

    Returns the max relative discrepancy over the panel; it must decay at
    first order or better under refinement.
    """
    from .transforms import apply_power, apply_phase, power_image_grid
    from .grid import Field, diff1_matrix, diff2_matrix

    a = float(alpha)
    if not a < 2:
        raise ValueError("need alpha < 2")
    s = float(mixing_freq)
    k2 = float(freq_norm2)
    beta = a / (2.0 - a)
    ct = (2.0 * c - a) / (2.0 - a)
    bt = 2.0 * s * (beta + 1.0)
    mu = (beta + 1.0) ** 2 * (k2 - s * s)

    g = make_grid(J, 1.0, default_grading(a))
    gt = power_image_grid(g, -a / 2.0)   # nodes y^(1-alpha/2)
    y = g.y_nodes
    rho = gt.y_nodes
    D1, D2 = diff1_matrix(y), diff2_matrix(y)
    D1t, D2t = diff1_matrix(rho), diff2_matrix(rho)
    worst = 0.0
    for prof in panels.vertical_panel(1.0, count=6, kind="interior"):
        f = prof(y).astype(complex)
        lhs = y ** a * (D2 @ f + (c / y) * (D1 @ f)
                        + 2j * s * (D1 @ f) - k2 * f)
        # (T o S)^(-1) f: power map back, then remove the phase
        w = apply_power(Field(f, g), -a / 2.0, p=2.0, inverse=True,
                        target_grid=gt).values
        w = apply_phase(Field(w, gt), mixing_freq=s,
                        power=2.0 / (2.0 - a), inverse=True).values
        aw = (D2t @ w + (ct / rho) * (D1t @ w)
              - 0.5j * bt * (ct + beta) * rho ** (beta - 1.0) * w
              - mu * rho ** (2.0 * beta) * w)
        aw /= (beta + 1.0) ** 2
        back = apply_phase(Field(aw, gt), mixing_freq=s,
                           power=2.0 / (2.0 - a)).values
        rhs = apply_power(Field(back, gt), -a / 2.0, p=2.0,
                          target_grid=g).values
        scale = np.abs(lhs).max()
        worst = max(worst, float(np.abs(lhs - rhs).max() / scale))
    return worst


def interpolation_constant(alpha, c, p, m, J):
    """Best constant in ||y^a Dy u|| <= C ||y^a B u||^(1/2) ||y^a u||^(1/2).

    Norms in L^p(y^m) by quadrature on one J-cell grid over (0, 1];
    derivatives exact (a closed-form panel of 20 profiles).  The constant
    must be finite and stable under refinement.
    """
    g = make_grid(J, 1.0, default_grading(alpha))
    y = g.y_nodes
    best = 0.0
    for prof in panels.vertical_panel(1.0, count=20):
        u = prof(y)
        du = prof.d1(y)
        bu = prof.d2(y) + (c / y) * du
        num = lp_norm(y ** alpha * du, p, m, g)
        den = (lp_norm(y ** alpha * bu, p, m, g) ** 0.5
               * lp_norm(y ** alpha * u, p, m, g) ** 0.5)
        if den > 0:
            best = max(best, num / den)
    return float(best)


def uniform_frequency_bound_scan(alpha, c, mixing, p, m, J=256, y_max=1.0,
                                 exponents=range(-3, 7), lams=(0.1, 1.0, 10.0),
                                 panel_count=8):
    """Scan of || |xi|^2 y^a u || / || (lam - y^a L + |xi|^2 y^a) u ||.

    xi = 2^k e1 for k in `exponents`; the constant must stay bounded
    uniformly in xi (and lam with Re lam > 0).  Operator applied in strong
    form with exact panel derivatives; norms by grid quadrature.
    """
    g = make_grid(J, y_max, default_grading(alpha))
    y = g.y_nodes
    a1 = float(np.atleast_1d(mixing)[0])
    per_xi = []
    prof_panel = panels.vertical_panel(y_max, count=panel_count)
    for k in exponents:
        xi = 2.0 ** k
        s = a1 * xi
        k2 = xi * xi
        best = 0.0
        for lam in lams:
            for prof in prof_panel:
                u = prof(y).astype(complex)
                du, d2u = prof.d1(y), prof.d2(y)
                lu = y ** alpha * (d2u + (c / y) * du + 2j * s * du - k2 * u)
                f = lam * u - lu
                num = lp_norm(k2 * y ** alpha * u, p, m, g)
                den = lp_norm(f, p, m, g)
                best = max(best, num / den)
        per_xi.append(float(best))
    return {"exponents": list(exponents), "constants": per_xi,
            "max": float(max(per_xi))}


def two_route_resolvent(grid, alpha, c, mixing_freq, freq_norm2, lam, f):
    """Solve the frozen-mode resolvent by both routes; return (u1, u2).

    Route 1: (lam - y^a(B + 2i s Dy - k2))^(-1) f directly in L^2(y^(c-a)).
    Route 2: (k2 - B - 2i s Dy + lam y^(-a))^(-1) (f y^(-a)) in L^2(y^c).
    The two solutions agree up to solver rounding.
    """
    f = np.asarray(f, dtype=complex)
    op1 = assemble_form(grid, "model_mode", c=c, alpha=alpha,
                        mixing_freq=mixing_freq, freq_norm2=freq_norm2)
    u1 = resolve(op1, lam, f)
    op2 = assemble_form(grid, "model_potential", c=c, alpha=alpha,
                        mixing_freq=mixing_freq, freq_norm2=freq_norm2,
                        lam=lam)
    rhs = op2.weight * (f * grid.y_nodes ** (-float(alpha)))
    u2 = op2.factor(0.0).solve(rhs)
    return u1, u2
