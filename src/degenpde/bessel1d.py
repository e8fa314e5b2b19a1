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

Every operator is a TridiagForm: the tridiagonal form bands F and the diagonal
weights W of one operator, with M = -W^(-1) F, solved by LAPACK's pivoted
tridiagonal LU (gttrf / gttrs).  ModeOperators builds every frozen-frequency
model form from one assembly of K_c and P_c, a batch of Fourier modes as a
BatchForm (sup stored, sub and diag built per row block or kept); the Bessel
and potential-route forms are its alpha = 0, xi = 0 mode and its shifted form.
_band_block is every band product; _factor_batch alone picks a batch's LU: one
stacked gttrf for at most _STACK_MODES modes, else a Thomas LU.
resolvent_pair is the one W-weighted resolvent (lam W + F)^(-1) W, and resolve
gates every solve on its componentwise backward error.  Semigroup kernels
never form a dense matrix exponential, so J is not capped, and each is built
at its numerical rank.  Self-adjoint forms are diagonalised through their
symmetrised tridiagonal pencil, keeping the eigenpairs with Re z (lambda -
lambda_0) <= 40: the dropped modes weigh at most e^{-40} ~ 4.2e-18 of
||e^{zM}||_W.  Oblique forms use a parabolic-contour quadrature of the
resolvent applied to a thin randomized sketch; a Halko-Martinsson-Tropp
a-posteriori estimate of the sketch's relative error must be <= 1e-10, the
tolerance of the contour itself, or the sketch grows, up to the identity.
"""

import numpy as np
import scipy

from .grid import (Field, default_grading, diff1_matrix, diff2_matrix,
                   lp_norm, make_grid)
from .transforms import apply_phase, apply_power, power_image_grid
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


def node_weights(grid, w_exponent):
    """Diagonal inner-product weights W_w[j] = y_j^w omega_j, with omega
    the grid's partition weights grid.y_weights."""
    return grid.y_nodes ** float(w_exponent) * grid.y_weights


# ---------------------------------------------------------------------------
# tridiagonal forms


def _rows(v, ndim):
    """v with trailing unit axes: it broadcasts along axis 0 of ndim arrays."""
    return v if v.ndim == ndim else v.reshape(v.shape + (1,) * (ndim - v.ndim))


def _band_block(band, u, a, b, o, x):
    """Rows a:b of F u along axis 0 of u, each diag u + sup u_(+1) + sub
    u_(-1) summed in that order, into o (a new array if o is None).
    band(name, rows, out) returns rows `rows` of the band `name` ("sub",
    "diag" or "sup"), broadcasting along u's rows; it may build them into
    out, a view of the scratch x, which has o's shape."""
    lo, m = max(a, 1), min(b, u.shape[0] - 1) - a
    o = np.multiply(band("diag", slice(a, b), x), u[a:b], out=o)
    head, xm = o[:m], x[:m]
    np.multiply(band("sup", slice(a, a + m), xm), u[a + 1:a + m + 1], out=xm)
    head += xm
    tail, xs = o[lo - a:], x[lo - a:]
    np.multiply(band("sub", slice(lo - 1, b - 1), xs), u[lo - 1:b - 1],
                out=xs)
    tail += xs
    return o


def _band_apply(sub, diag, sup, u):
    """(sub, diag, sup) u along axis 0 of u for explicit bands of one
    operator, all of u one _band_block; the scratch takes the dtype of
    diag u."""
    bands = {"sub": sub, "diag": diag, "sup": sup}
    return _band_block(lambda name, rows, x: _rows(bands[name][rows], x.ndim),
                       u, 0, u.shape[0], None,
                       np.empty_like(u, np.result_type(diag, u)))


class SingularFormError(np.linalg.LinAlgError):
    """lam W + F has a zero or non-finite pivot; `column` is the first
    operator of the batch where it appeared (0 for a single operator)."""

    def __init__(self, column):
        super().__init__("zero or non-finite pivot in column %d" % column)
        self.column = int(column)


class TridiagForm:
    """Tridiagonal form F and diagonal weight W of one 1-d operator M.

    <-M u, v>_W = v^H F u, so M = -W^(-1) F, with W the node weights of the
    measure y^w dy.  diag and weight have shape (J,), sub and sup (J - 1,);
    every product and solve acts along axis 0 of a (J,) or (J, k) array.
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
        """F as a dense matrix."""
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

    def factor(self, lam):
        """LAPACK gttrf factors (partial pivoting) of lam W + F, which also
        solve the adjoint system; a zero or non-finite pivot raises
        SingularFormError."""
        with np.errstate(all="ignore"):
            diag = self.diag + lam * self.weight
        return _PivotedLU(self.sub, diag, self.sup)

    def backward_error(self, lam, u, b):
        """Componentwise backward error of u for (lam W + F) u = b.

        max_i |b - A u|_i / (|A| |u| + |b|)_i with A = lam W + F (Oettli &
        Prager, Numer. Math. 6 (1964)): the smallest relative perturbation
        of the entries of A and b that u solves exactly.  Unlike a weighted
        residual it does not grow with the spread of the weights.
        """
        diag = self.diag + lam * self.weight
        r = np.abs(b - _band_apply(self.sub, diag, self.sup, u))
        scale = _band_apply(np.abs(self.sub), np.abs(diag), np.abs(self.sup),
                            np.abs(u)) + np.abs(b)
        return float(np.max(r / np.where(scale > 0, scale, 1.0)))


# A batch of at most this many modes is factored as one block-diagonal gttrf,
# a wider one by the Thomas sweep.  Medians at (J, modes) = (256, 32), 2 cores,
# scipy 1.17.1: factor 0.30 ms stacked against 1.11 ms by Thomas, solve 0.20
# against 1.27 ms; at 64 modes the stacked factor already loses (1.58 against
# 1.29 ms), and factor plus one solve loses from 96 modes at J = 128.  The
# Thomas LU for every batch (_STACK_MODES = 0) slowed run_suite at seed 0
# from 0.93 to 1.16 s and maximal_regularity_ratio from 0.083 to 0.21 s.
_STACK_MODES = 32

# Entries per row block of a BatchForm product and its residual (256 KiB a
# complex buffer).  Medians of 7 at (J, modes) = (257, 1024), one core, numpy
# 2.4.6, for 4096, 16384, 65536 and 262144 entries: resolvent_nd 47.7, 41.5,
# 48.3 and 47.9 ms, a 40-step Crank-Nicolson evolve 667, 625, 682, 846 ms.
_BLOCK = 16384


def thomas_batch(modes):
    """Whether a batch of `modes` modes, and every column range of it, is
    factored by the Thomas sweep: more than _STACK_MODES modes."""
    return modes > _STACK_MODES


def _factor_batch(sub, diag, sup, modes=None):
    """LU factors of the (J, columns) bands (sub, diag, sup) of lam W + F,
    one matrix per column, for a batch of `modes` modes (the columns, unless
    they are a range of the batch): one stacked gttrf (_PivotedLU) unless
    thomas_batch(modes), else a Thomas LU (_ThomasLU) that overwrites sub
    and diag with its factors, so a range's factors are bitwise the batch's
    columns.  It need not pivot: for Re lam > 0 the Hermitian
    part of lam W + F is positive definite, the form being accretive (Golub
    & Van Loan, section 4.2).  A zero or non-finite pivot raises
    SingularFormError naming its column among these.  Either factor's
    solve(b, overwrite_b=True) writes into b and returns b."""
    if not thomas_batch(diag.shape[1] if modes is None else modes):
        return _PivotedLU(sub, diag, sup)
    with np.errstate(all="ignore"):
        for i in range(1, diag.shape[0]):
            sub[i - 1] /= diag[i - 1]
            diag[i] -= sub[i - 1] * sup[i - 1]
    bad = np.flatnonzero(~np.all(np.isfinite(diag) & (diag != 0), axis=0))
    if bad.size:
        raise SingularFormError(bad[0])
    return _ThomasLU(sup, sub, np.reciprocal(diag, out=diag))


class _PivotedLU:
    """gttrf factors of one tridiagonal matrix or of a (J, modes) batch.

    A batch is factored as one block-diagonal matrix of size modes J, its
    bands in mode-major order with zero couplings between the blocks.  No
    pivot crosses a zero coupling, so each column of a solve is bitwise the
    single-operator solve of its mode.
    """

    def __init__(self, sub, diag, sup):
        self._batch = diag.ndim == 2
        J = diag.shape[0]
        if self._batch:
            bands = np.zeros((3, diag.shape[1], J), complex)
            bands[0, :, :-1], bands[1], bands[2, :, :-1] = sub.T, diag.T, sup.T
            sub, sup = bands[0].ravel()[:-1], bands[2].ravel()[:-1]
            diag = bands[1].ravel()
        *self._lu, info = scipy.linalg.lapack.zgttrf(sub, diag, sup,
                                                     overwrite_d=True)
        piv = self._lu[1]
        if info > 0 or not np.isfinite(piv).all():
            bad = np.flatnonzero(~np.isfinite(piv) | (piv == 0))
            raise SingularFormError(bad[0] // J)

    def _gttrs(self, b, trans, overwrite_b):
        zgttrs = scipy.linalg.lapack.zgttrs
        if not self._batch:
            return zgttrs(*self._lu, b, trans=trans, overwrite_b=overwrite_b)[0]
        x = zgttrs(*self._lu, b.T.flatten(), trans=trans, overwrite_b=True)[0]
        if not overwrite_b:
            return x.reshape(b.shape[::-1]).T
        b[...] = x.reshape(b.shape[::-1]).T
        return b

    def solve(self, b, overwrite_b=False):
        """A^(-1) b for b of shape (J,) or (J, k), or (J, modes) for a batch."""
        return self._gttrs(b, "N", overwrite_b)

    def solve_adjoint(self, b):
        """A^(-H) b from the same factors."""
        return self._gttrs(b, "C", False)


class _ThomasLU:
    """Thomas LU of a wide batch, made by _factor_batch: multipliers and
    inverse pivots, one column per mode."""

    def __init__(self, sup, mult, inv_piv):
        self.sup = sup
        self.mult = mult
        self.inv_piv = inv_piv

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

    def solve_adjoint(self, b):
        """A^(-H) b for (J, modes) b, A^H = U^H L^H: a forward sweep with
        conj(sup) and conj(inv_piv), then a backward one with conj(mult)."""
        u = np.array(b, dtype=complex)
        sup, mult, ip = map(np.conj, (self.sup, self.mult, self.inv_piv))
        u[0] *= ip[0]
        for i in range(1, u.shape[0]):
            u[i] = (u[i] - sup[i - 1] * u[i - 1]) * ip[i]
        for i in range(u.shape[0] - 2, -1, -1):
            u[i] -= mult[i] * u[i + 1]
        return u


class ModeOperators:
    """The frozen-frequency model forms on a grid, their pieces assembled once.

    form(s, k2) is the TridiagForm of F(xi) = K_c - 2i s P_c + k2 W_c with
    s = a . xi, k2 = |xi|^2 and weight W = W_(c-alpha), so
    M(xi) = -W^(-1) F(xi); for arrays of modes s, k2 it is their BatchForm.
    Every model-mode form of the package, of one frequency or many, is
    built here, and the apply, solve and derivative helpers reuse the same
    arrays, so every consumer sees the identical discretization.
    """

    def __init__(self, grid, c, alpha):
        y = grid.y_nodes
        self.grid = grid
        self.c = float(c)
        self.alpha = float(alpha)
        if not self.c > -1.0:
            raise ValueError("need c > -1")
        self.w_pot = node_weights(grid, self.c)    # |xi|^2 potential weight
        self.weight = node_weights(grid, self.c - self.alpha)
        self.y_alpha = y ** self.alpha
        self.stiff = TridiagForm(*stiffness_tridiag(y, self.c), self.weight)
        self.trans = TridiagForm(*transport_tridiag(y, self.c), self.weight)

    @property
    def size(self):
        return self.weight.size

    def band(self, name, rows, s, k2, out=None):
        """Rows `rows` of the band `name` ("sub", "diag" or "sup") of F(xi) =
        K - 2 i s P + k2 W_c, into `out` when given: one mode's for scalars
        s, k2, or (rows, modes) for arrays of modes."""
        n = np.ndim(s) + 1
        K, P = (_rows(getattr(f, name)[rows], n) for f in (self.stiff,
                                                           self.trans))
        out = np.subtract(K, np.multiply(2j * s, P, out=out), out=out)
        if name == "diag":
            out += k2 * _rows(self.w_pot[rows], n)
        return out

    def form_bands(self, s, k2):
        """(sub, diag, sup) of F(xi) for one mode; see band."""
        return tuple(self.band(b, slice(None), s, k2)
                     for b in ("sub", "diag", "sup"))

    def form(self, s, k2):
        """TridiagForm of F(xi), weight W_(c-alpha); a BatchForm for arrays
        of modes s, k2."""
        if np.ndim(s):
            return BatchForm(self, np.asarray(s, dtype=float),
                             np.asarray(k2, dtype=float))
        return TridiagForm(*self.form_bands(s, k2), self.weight, self.grid)

    def solve(self, s, k2, lam, fhat):
        """(lam - M(xi))^(-1) fhat for one mode."""
        return resolvent_pair(self.form(s, k2), lam)[0](fhat)

    def apply(self, s, k2, u):
        """M(xi) u = -W^(-1) F(xi) u."""
        return -self.form(s, k2).apply(u) / self.weight

    def grad_term(self, u):
        """y^alpha Dy u in the weak (form) realization W^(-1) P u.

        u is one mode's profile or a (rows, modes) batch."""
        u = np.asarray(u, dtype=complex)
        return self.trans.apply(u) / _rows(self.weight, u.ndim)

    def bessel_term(self, u):
        """y^alpha B u in the weak realization -W^(-1) K u (one or a batch)."""
        u = np.asarray(u, dtype=complex)
        return -self.stiff.apply(u) / _rows(self.weight, u.ndim)


def _field(J, n):
    """An empty (J, n) complex array; a batch's (J - 1, n) band lives in its
    first rows, so every field-sized array has one size and glibc reuses
    any freed one (with two sizes, elliptic_2d rounds peaked 7 MB higher)."""
    return np.empty((J, n), complex)


class BatchForm:
    """The form F(xi) of a batch of modes, one column each, that stores only
    sup (a Thomas LU keeps it too): sub and diag are None, and their rows
    are built by ModeOperators.band per row block, bit for bit the rows
    keep_bands stores."""

    def __init__(self, ops, s, k2, sup=None):
        self.ops, self.s, self.k2 = ops, s, k2
        self.sub = self.diag = None
        self.sup = sup if sup is not None else ops.band(
            "sup", slice(None), s, k2, _field(ops.size, s.size)[:-1])

    def _whole(self):
        """sub and diag built whole in _field arrays, diag by row blocks so
        the float temporary of its k2 W_c term stays block-sized."""
        J, n = self.ops.size, self.s.size
        sub = self.ops.band("sub", slice(None), self.s, self.k2,
                            _field(J, n)[:-1])
        diag, step = _field(J, n), max(1, _BLOCK // n)
        for a in range(0, J, step):
            self.ops.band("diag", slice(a, a + step), self.s, self.k2,
                          diag[a:a + step])
        return sub, diag

    def keep_bands(self):
        """This form, sup shared, with its sub and diag built once and kept.
        A march applies F at every step, and building the rows per block
        cost 0.8 ms of a 5.7 ms step at (257, 512)."""
        form = BatchForm(self.ops, self.s, self.k2, self.sup)
        form.sub, form.diag = form._whole()
        return form

    def factor(self, lam, modes=None):
        """_factor_batch's LU of lam W + F for a batch of `modes` modes (these
        columns unless they are a range of it), its sub and shifted diag built
        in the arrays a Thomas LU overwrites with its factors."""
        sub, diag = self._whole()
        with np.errstate(all="ignore"):
            diag += lam * self.ops.weight[:, None]
        return _factor_batch(sub, diag, self.sup, modes)

    def _band(self, name, rows, out):
        """Rows of the band `name`: the stored band's, or built into out."""
        band = getattr(self, name)
        if band is None:
            return self.ops.band(name, rows, self.s, self.k2, out)
        return band[rows]

    def row_blocks(self, u, out=None):
        """Yield (rows, F u rows, spare) for blocks of about _BLOCK entries
        of rows of a (J, modes) u, each a _band_block: into out[rows] if
        `out` is given, else into a buffer the next block reuses; spare is
        a block buffer free until the next block."""
        J, n = u.shape
        step = max(1, _BLOCK // n)
        x = np.empty((step, n), complex)
        own = np.empty((step, n), complex) if out is None else None
        for a in range(0, J, step):
            b = min(a + step, J)
            o = own[:b - a] if out is None else out[a:b]
            yield slice(a, b), _band_block(self._band, u, a, b, o,
                                           x[:b - a]), x[:b - a]

    def apply(self, u, out=None):
        """F u along axis 0 of a (J, modes) u, into `out` when given."""
        out = np.empty(u.shape, complex) if out is None else out
        for _ in self.row_blocks(u, out):
            pass
        return out


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

    The first three are ModeOperators forms (B is the alpha = 0, xi = 0
    mode).  c > -1 is required (integrability of the measure at the edge).
    """
    c = float(params["c"])
    if kind == "bessel":
        return ModeOperators(grid, c, 0.0).form(0.0, 0.0)

    if kind in ("model_mode", "model_potential"):
        ops = ModeOperators(grid, c, params["alpha"])
        form = ops.form(float(params["mixing_freq"]),
                        float(params["freq_norm2"]))
        if kind == "model_mode":
            return form
        diag = form.diag + complex(params["lam"]) * ops.weight
        return TridiagForm(form.sub, diag, form.sup, ops.w_pot, grid)

    if kind == "bessel_drift":
        beta = float(params["beta"])
        b = float(params["drift_b"])
        mu = float(params["potential_coeff"])
        if not c > -1.0:
            raise ValueError("need c > -1")
        if not beta > -1.0:
            raise ValueError("need beta > -1")
        y = grid.y_nodes
        ks, kd, ku = stiffness_tridiag(y, c)
        gs, gd, gu = transport_tridiag(y, c + beta)
        # symmetrized graded transport: P + P^T multiplies -i b/2
        sub = ks - 0.5j * b * (gs + gu)
        diag = kd - 1j * b * gd + mu * node_weights(grid, c + 2.0 * beta)
        sup = ku - 0.5j * b * (gu + gs)
        return TridiagForm(sub, diag, sup, node_weights(grid, c), grid)

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
# the direction counts of the nested numerical-range polygons, coarse to fine
_RANGE_LADDER = (16, 32, 64)


def _numerical_range_polygon(d, sub, sup, n, coarse):
    """Polygon containing the numerical range of the tridiagonal (d, sub, sup).

    For each of the n angles a = 2 pi k / n the support value h(a) =
    max Re(e^{-ia} <Tu, u>) / <u, u> is the top eigenvalue of the Hermitian
    part of e^{-ia} T, a Hermitian tridiagonal matrix whose spectrum is that
    of the real one with the moduli of its off-diagonal.  `coarse` (or None)
    holds the support values of the n/2 angles, bitwise the even ones here.
    The supporting lines of adjacent angles meet at the returned vertices;
    `angles` and `support` describe the same polygon as half-planes.
    """
    J = d.size
    angles = 2.0 * np.pi * np.arange(n) / n
    support = np.empty(n)
    fresh = range(n)
    if coarse is not None:
        support[::2], fresh = coarse, range(1, n, 2)
    for k in fresh:
        rot = np.exp(-1j * angles[k])
        off = 0.5 * np.abs(rot * sub + np.conj(rot * sup))
        support[k] = scipy.linalg.eigh_tridiagonal(
            (rot * d).real, off, eigvals_only=True, select="i",
            select_range=(J - 1, J - 1))[0]
    a2, h2 = np.roll(angles, -1), np.roll(support, -1)
    det = np.sin(a2 - angles)
    vertices = ((support * np.sin(a2) - h2 * np.sin(angles))
                + 1j * (h2 * np.cos(angles) - support * np.cos(a2))) / det
    return angles, support, vertices


def _contour_error_bound(op, z):
    """Estimate of ||e^{zM} - r(zM)||_W for the contour approximant r.

    zM is similar to -zT with T = W^(-1/2) F W^(-1/2), so its numerical range
    lies in -z P for each polygon P of _numerical_range_polygon.  When no pole
    s_k of r lies in that set, the Crouzeix-Palencia theorem bounds the error
    by (1 + sqrt 2) max |r(w) - e^w| over it, and by the maximum principle the
    max is taken on the boundary, sampled here geometrically from each vertex.
    The sampled max is an estimate, not a bound: on 4 of kernel_domination's
    12 forms it reads up to 5% below the polygon's true max.  It is at most
    1.3e-13 there, against the _CONTOUR_TOL = 1e-10 gate.  The polygons of
    _RANGE_LADDER, each inside the last, are tried in turn: the first
    estimate <= _CONTOUR_TOL is returned, else the finest polygon's, inf
    when a pole lies inside it.
    """
    z = complex(z)
    d, sub, sup = op.symmetric_bands()
    poles = -_NODES / z
    # 8 points a decade: edges run from |w| ~ 1e-2 out to |w| ~ 1e10
    u = np.concatenate(([0.0], np.logspace(-14.0, 0.0, 113)))
    support = None
    for n in _RANGE_LADDER:
        angles, support, vertices = _numerical_range_polygon(
            d, sub, sup, n, support)
        bound = float("inf")
        if (np.real(np.exp(-1j * angles)[:, None] * poles[None, :])
                <= support[:, None]).all(axis=0).any():
            continue
        ends = np.roll(vertices, -1)
        edges = np.concatenate([
            vertices[:, None] + (ends - vertices)[:, None] * u,
            ends[:, None] + (vertices - ends)[:, None] * u])
        w = -z * edges.ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            r = (_COEFFS / (_NODES - w[:, None])).sum(axis=1)
            bound = float((1.0 + np.sqrt(2.0)) * np.abs(r - np.exp(w)).max())
        if bound <= _CONTOUR_TOL:
            break
    return bound if np.isfinite(bound) else float("inf")


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
        eigh_tridiagonal = scipy.linalg.eigh_tridiagonal
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
# exact operator norms and the sector scan


# the stopping tolerance on the top singular value, and the fixed seed of the
# start vector and of any restart
_NORM_TOL = 1e-12
_NORM_SEED = 20230925
# the step cap of the first Lanczos run: the suite's maps converge within 15
_NORM_STEPS = 40


def operator_norm(apply, apply_adjoint, weights):
    """Exact operator norm of T on l^2(W): the top singular value of
    W^(1/2) T W^(-1/2), with W = diag(weights), computed matrix-free.

    `apply` is the product T u and `apply_adjoint` the Euclidean adjoint
    product T^H u, each on one vector of length J.  svds runs PROPACK's
    Golub-Kahan-Lanczos bidiagonalization of the scaled map (Larsen 1998)
    with k = 1, tolerance _NORM_TOL, a fixed start vector and a fixed
    generator for restarts, so a rerun is bitwise equal; no dense matrix is
    formed.  The bidiagonalization of a J x J map ends within J steps, so
    J is the step cap.  A first run is capped at _NORM_STEPS steps, and only
    when it stops unconverged (svds raises LinAlgError) does a second run
    get all J: the value stays exact, and the Lanczos basis is J x
    _NORM_STEPS in the usual case.  A LinAlgError of the second run
    propagates; the zero map returns 0.

    A Krylov space that closes after a step or two (3 times the identity,
    say) can make PROPACK report a value above every singular value.  The
    returned right singular vector v certifies the value instead: ||T v||_W
    can never exceed ||T||_W, so a value that v does not attain to
    _NORM_TOL raises LinAlgError.
    """
    sqw = np.sqrt(np.asarray(weights, dtype=float))
    n = sqw.size
    start = np.random.default_rng(_NORM_SEED).standard_normal(n)
    scaled = scipy.sparse.linalg.LinearOperator(
        (n, n), dtype=complex,
        matvec=lambda x: sqw * apply(np.ravel(x) / sqw),
        rmatvec=lambda x: apply_adjoint(sqw * np.ravel(x)) / sqw)

    def top_triplet(maxiter):
        return scipy.sparse.linalg.svds(
            scaled, k=1, tol=_NORM_TOL, v0=start, maxiter=maxiter,
            solver="propack", rng=np.random.default_rng(_NORM_SEED),
            return_singular_vectors="vh")

    try:
        _, sigma, vh = top_triplet(min(n, _NORM_STEPS))
    except np.linalg.LinAlgError:
        _, sigma, vh = top_triplet(n)
    attained = np.linalg.norm(scaled.matvec(np.conj(vh[0])))
    if not attained >= (1.0 - _NORM_TOL) * sigma[0]:
        raise np.linalg.LinAlgError(
            "top singular value %.17g is not attained by its singular vector "
            "(%.17g)" % (sigma[0], attained))
    return float(sigma[0])


def resolvent_pair(form, lam):
    """(apply, apply_adjoint) of R = (lam W + F)^(-1) W from one factor(lam)
    of a single-mode form; its Euclidean adjoint is W (lam W + F)^(-H)."""
    lu = form.factor(lam)
    w = form.weight
    return (lambda u: lu.solve(w * u)), (lambda u: w * lu.solve_adjoint(u))


def sector_angle(mixing_norm):
    """Half-angle of analyticity: pi/2 - arctan(|a| / sqrt(1 - |a|^2))."""
    a = float(mixing_norm)
    if not 0.0 <= a < 1.0:
        raise ValueError("need |mixing| < 1")
    return np.pi / 2.0 - np.arctan(a / np.sqrt(1.0 - a * a))


def sector_resolvent_scan(op, mixing_norm):
    """sup ||lam R_lam||_W over the sector of half-angle (analyticity - 0.1).

    lam ranges over 8 log-spaced moduli in [1e-2, 1e2] and 8 arguments
    filling the sector (64 samples); each cell is |lam| times the exact
    operator_norm of R_lam from one factorisation.  Returns the supremum,
    the (8, 8) grid of norms and the half-angle used.
    """
    theta = sector_angle(mixing_norm) - 0.1
    radii = np.logspace(-2, 2, 8)
    angles = np.linspace(-theta, theta, 8)
    norms = np.zeros((radii.size, angles.size))
    for i, r in enumerate(radii):
        for k, phi in enumerate(angles):
            norms[i, k] = r * operator_norm(
                *resolvent_pair(op, r * np.exp(1j * phi)), op.weight)
    return {"sup": float(norms.max()), "norms": norms,
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


def _bessel_envelope_fit(kernel, z, c, t):
    """Fit |p| <= C t^(-1/2) zr^(-c) min(zr / sqrt(t), 1)^c
    exp(-|z - zr|^2 / (kappa t)), the Bessel envelope in the node
    coordinate z (zr the coordinate of the column's node rho).

    Envelope regression over the entries |p| >= 1e-13 max |p|: bin
    s = |z - zr|^2/t into 20 bins, regress the per-bin max of
    log(|p| / prefactor) linearly in s; kappa = -1/slope and C is the
    uniform max of |p| / (prefactor exp(-s/kappa)).

    Returns dict with C, kappa and the masked-point count.  kappa = inf when
    no Gaussian decay is visible (slope >= 0): callers treat that as failure.
    """
    P = np.abs(kernel.values)
    pref = np.broadcast_to(
        t ** -0.5 * z ** -c * np.minimum(z / np.sqrt(t), 1.0) ** c, P.shape)
    s = np.abs(z[:, None] - z[None, :]) ** 2 / t
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
    return _bessel_envelope_fit(kernel, kernel.grid.y_nodes, float(c), t)


def model_kernel_fit(kernel, c, alpha, t):
    """Gaussian-envelope fit for the degenerate model kernel.

    The substitution z = y^e with e = 1 - alpha/2 turns y^alpha B_c into
    e^2 B_ct, ct = (c - alpha/2)/e, so the kernel is exactly
    e * p_bessel(e^2 t, y^e, rho^e) and is fitted with the Bessel envelope
    in z at time e^2 t,

        C (e^2 t)^(-1/2) rho^(-e ct) min(rho^e / (e sqrt(t)), 1)^ct
          exp(-|y^e - rho^e|^2 / (kappa e^2 t)),

    with respect to the measure rho^(c-alpha) d rho.
    """
    e = 1.0 - float(alpha) / 2.0
    ct = (float(c) - float(alpha) / 2.0) / e
    return _bessel_envelope_fit(kernel, kernel.grid.y_nodes ** e, ct,
                                e * e * t)


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
