"""Parameter calculus for degenerate operators on the half space.

The full operator on R^N x (0, oo) is

    L u = y^a1 Tr(Q Dxx u) + 2 y^((a1+a2)/2) q . Dx(Dy u)
          + gamma y^a2 Dyy u + y^(a2-1) (b . Dx u + c Dy u),

with diffusion block [[Q, q], [q^T, gamma]] positive definite, a2 < 2 and
a2 - a1 < 2.  Solvability in L^p(y^m dx dy) holds exactly on the open window

    max(-a1, 0) < (m + 1) / p < c / gamma + 1 - a2,

with strict inequalities.  Three changes of variables reduce L to a model
operator y^alpha (Dxx + 2 a . Dx(Dy) + B) with B = Dyy + (c_b / y) Dy:

  * a vertical shear x -> x - (b/c) y removes the oblique drift b . Dx;
    on the diffusion block it is the congruence M -> A M A^T with
    A = [[I, -b/c], [0, 1]], hence ellipticity is preserved exactly;
  * a linear change of x whitens the sheared Q and turns the mixed coupling
    into a single vector `a` with |a| < 1 (the Schur complement condition);
  * the vertical power substitution y -> y^(beta+1) with beta = (a1 - a2)/2
    equalizes the two degeneracy powers.

Each map is an isometry between weighted L^p spaces, so it acts on the
parameters (a1, a2, c, m) by explicit rational formulas collected here.  The
power maps form a one-parameter group: applying beta1 then beta2 equals the
single map with (beta+1) = (beta1+1)(beta2+1).
"""

import math
import sys

import numpy as np


_CONFIG_KEYS = (
    "q_matrix", "q_vector", "gamma", "drift_b", "drift_c",
    "alpha1", "alpha2", "p", "m", "dimension",
)


class OperatorSpec:
    """Coefficients of the full operator on R^N x (0, oo).

    Parameters
    ----------
    q_matrix : (N, N) array_like
        Symmetric horizontal diffusion matrix Q.
    q_vector : (N,) array_like
        Mixed-diffusion coupling vector q.
    gamma : float
        Vertical diffusion coefficient, > 0.
    drift_b : (N,) array_like
        Oblique drift vector (coefficient of y^(a2-1) b . Dx).
    drift_c : float
        Vertical drift coefficient (of y^(a2-1) Dy).
    alpha1, alpha2 : float
        Degeneracy powers; require alpha2 < 2 and alpha2 - alpha1 < 2.

    Invariants checked on construction: the (N+1) x (N+1) block
    [[Q, q], [q^T, gamma]] is positive definite; drift_b vanishes when
    drift_c = 0 (otherwise no shear can remove it).
    """

    def __init__(self, q_matrix, q_vector, gamma, drift_b, drift_c,
                 alpha1, alpha2):
        Q = np.atleast_2d(np.asarray(q_matrix, dtype=float))
        n = Q.shape[0] if Q.size else 0
        if Q.size == 0:
            Q = np.zeros((0, 0))
        if Q.shape != (n, n):
            raise ValueError("q_matrix must be square, got shape %r" % (Q.shape,))
        q = np.asarray(q_vector, dtype=float).reshape(-1)
        b = np.asarray(drift_b, dtype=float).reshape(-1)
        if q.shape != (n,) or b.shape != (n,):
            raise ValueError("q_vector and drift_b must have length %d" % n)
        scale = max(1.0, abs(Q).max() if Q.size else 0.0)
        if Q.size and abs(Q - Q.T).max() > 1e-12 * scale:
            raise ValueError("q_matrix must be symmetric")
        Q = 0.5 * (Q + Q.T) if Q.size else Q
        gamma = float(gamma)
        drift_c = float(drift_c)
        alpha1 = float(alpha1)
        alpha2 = float(alpha2)
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        if not alpha2 < 2:
            raise ValueError("alpha2 must be < 2")
        if not alpha2 - alpha1 < 2:
            raise ValueError("alpha2 - alpha1 must be < 2")
        if drift_c == 0.0 and b.size and abs(b).max() != 0.0:
            raise ValueError("drift_b requires a nonzero drift_c to shear away")
        block = diffusion_block(Q, q, gamma)
        eigs = np.linalg.eigvalsh(block)
        if eigs.min() <= 0:
            raise ValueError("diffusion block [[Q, q], [q^T, gamma]] must be "
                             "positive definite (min eig %.3e)" % eigs.min())
        self.q_matrix = Q
        self.q_vector = q
        self.gamma = gamma
        self.drift_b = b
        self.drift_c = drift_c
        self.alpha1 = alpha1
        self.alpha2 = alpha2

    @property
    def dim(self):
        """Horizontal dimension N (0 means purely vertical)."""
        return self.q_matrix.shape[0]

    def __repr__(self):
        return ("OperatorSpec(dim=%d, gamma=%g, drift_c=%g, alpha1=%g, "
                "alpha2=%g)" % (self.dim, self.gamma, self.drift_c,
                                self.alpha1, self.alpha2))


class SpaceSpec:
    """Weighted Lebesgue space L^p(y^m dx dy): exponent p in (1, oo), weight m."""

    def __init__(self, p, m):
        p = float(p)
        m = float(m)
        if not (1.0 < p < np.inf):
            raise ValueError("p must lie in (1, oo)")
        self.p = p
        self.m = m

    def __repr__(self):
        return "SpaceSpec(p=%g, m=%g)" % (self.p, self.m)


class ModelParams:
    """Parameters of the reduced model operator in L^p(y^m dx dy).

    The model is y^alpha (Dxx + 2 mixing . Dx(Dy) + B) with
    B = Dyy + (c_bessel / y) Dy, |mixing| < 1 and alpha < 2.
    """

    def __init__(self, mixing, alpha, c_bessel, m, p):
        a = np.asarray(mixing, dtype=float).reshape(-1)
        alpha = float(alpha)
        if np.linalg.norm(a) >= 1.0:
            raise ValueError("|mixing| must be < 1 (got %g)" % np.linalg.norm(a))
        if not alpha < 2:
            raise ValueError("alpha must be < 2")
        self.mixing = a
        self.alpha = alpha
        self.c_bessel = float(c_bessel)
        self.m = float(m)
        self.p = float(p)

    @property
    def dim(self):
        return self.mixing.shape[0]

    def __repr__(self):
        return ("ModelParams(|mixing|=%g, alpha=%g, c_bessel=%g, m=%g, p=%g)"
                % (np.linalg.norm(self.mixing), self.alpha, self.c_bessel,
                   self.m, self.p))


class WindowReport:
    """Outcome of the admissibility-window test, with signed margins.

    value = (m+1)/p must satisfy lower < value < upper strictly; margins are
    value - lower and upper - value.  Comparisons are exact float comparisons:
    sitting on an endpoint fails.
    """

    def __init__(self, value, lower, upper):
        self.value = float(value)
        self.lower = float(lower)
        self.upper = float(upper)
        self.lower_margin = self.value - self.lower
        self.upper_margin = self.upper - self.value
        self.passed = (self.value > self.lower) and (self.value < self.upper)

    def __repr__(self):
        return ("WindowReport(passed=%s, value=%.6g, lower=%.6g, upper=%.6g)"
                % (self.passed, self.value, self.lower, self.upper))


def diffusion_block(Q, q, gamma):
    """Assemble the (N+1) x (N+1) diffusion block [[Q, q], [q^T, gamma]]."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.size == 0:
        Q = np.zeros((0, 0))
    q = np.asarray(q, dtype=float).reshape(-1, 1)
    n = Q.shape[0]
    block = np.zeros((n + 1, n + 1))
    block[:n, :n] = Q
    block[:n, n:] = q
    block[n:, :n] = q.T
    block[n, n] = float(gamma)
    return block


def validate_window(spec, space=None):
    """Admissibility window for L^p(y^m dx dy) solvability.

    For an OperatorSpec the window is
        max(0, -alpha1) < (m+1)/p < c/gamma + 1 - alpha2,
    and `space` must be given.  For ModelParams (which carries its own m, p)
    it is max(0, -alpha) < (m+1)/p < c_bessel + 1 - alpha.  The lower end
    is +0.0 at alpha = 0 (max returns its first argument on a tie).

    Returns
    -------
    WindowReport
        Strict pass/fail with signed margins to both endpoints.
    """
    if isinstance(spec, ModelParams):
        p, m = spec.p, spec.m
        lower = max(0.0, -spec.alpha)
        upper = spec.c_bessel + 1.0 - spec.alpha
    else:
        if space is None:
            raise ValueError("validate_window(OperatorSpec, ...) needs a SpaceSpec")
        p, m = space.p, space.m
        lower = max(0.0, -spec.alpha1)
        upper = spec.drift_c / spec.gamma + 1.0 - spec.alpha2
    return WindowReport((m + 1.0) / p, lower, upper)


def beta_map(beta, alpha1, alpha2, c, m):
    """Parameter action of the vertical power substitution y -> y^(beta+1).

    The substitution is an isometry of L^p(y^m dy) onto L^p(y^mt dy) for
    every p, and maps the operator class into itself with

        a1 -> a1 / (beta+1),          a2 -> (a2 + 2 beta) / (beta+1),
        c  -> (c + beta) / (beta+1),  m  -> (m - beta) / (beta+1),

    none of which involves p.  beta = -1 is the degenerate collapse and is
    rejected.

    Returns
    -------
    tuple
        (alpha1_new, alpha2_new, c_new, m_new).
    """
    beta = float(beta)
    if beta == -1.0:
        raise ValueError("beta = -1 collapses the substitution")
    s = beta + 1.0
    return (alpha1 / s, (alpha2 + 2.0 * beta) / s, (c + beta) / s,
            (m - beta) / s)


def invert_beta(beta):
    """Exponent of the inverse power substitution: -beta / (beta+1)."""
    beta = float(beta)
    if beta == -1.0:
        raise ValueError("beta = -1 has no inverse")
    return -beta / (beta + 1.0)


def compose_beta(beta1, beta2):
    """Exponent of beta2-after-beta1: (1+b3) = (1+b1)(1+b2)."""
    return (beta1 + 1.0) * (beta2 + 1.0) - 1.0


def shear_map(spec):
    """Remove the oblique drift by the vertical shear x -> x - (b/c) y.

    On the diffusion block [[Q, q], [q^T, gamma]] the shear acts as the
    congruence A M A^T with A = [[I, -b/c], [0, 1]], so

        q -> q - (gamma/c) b,
        Q -> Q - (b q^T + q b^T)/c + (gamma/c^2) b b^T,

    gamma, c and the powers are unchanged and the new drift_b is zero.
    Positive definiteness is preserved exactly (congruence); its loss would be
    an internal error and raises.

    Returns
    -------
    OperatorSpec
        Sheared coefficients with drift_b = 0.  If drift_b is already zero the
        spec is returned unchanged (same parameters, new object).
    """
    b = spec.drift_b
    if b.size == 0 or abs(b).max() == 0.0:
        return OperatorSpec(spec.q_matrix, spec.q_vector, spec.gamma,
                            np.zeros(spec.dim), spec.drift_c,
                            spec.alpha1, spec.alpha2)
    c = spec.drift_c
    if c == 0.0:
        raise ValueError("shear requires drift_c != 0")
    q = spec.q_vector
    g = spec.gamma
    q_new = q - (g / c) * b
    Q_new = (spec.q_matrix - (np.outer(b, q) + np.outer(q, b)) / c
             + (g / c ** 2) * np.outer(b, b))
    eigs = np.linalg.eigvalsh(diffusion_block(Q_new, q_new, g))
    if eigs.min() <= 0:
        raise RuntimeError("shear lost ellipticity; must not occur "
                           "(min eig %.3e)" % eigs.min())
    return OperatorSpec(Q_new, q_new, g, np.zeros(spec.dim), c,
                        spec.alpha1, spec.alpha2)


def _inv_sqrt_sym(M):
    """Symmetric inverse square root of a positive definite matrix."""
    w, V = np.linalg.eigh(M)
    if w.min() <= 0:
        raise ValueError("matrix not positive definite")
    return (V * w ** -0.5) @ V.T


def reduce_to_model(spec, space):
    """Reduce the full operator to model form; return parameters and the chain.

    The pipeline is: shear away drift_b (if present), whiten the horizontal
    diffusion with the linear x-map A = (beta+1) sqrt(gamma) Q^(-1/2)
    (Q the sheared matrix, beta = (alpha1-alpha2)/2), then apply the vertical
    power substitution with that beta.  The result is

        L = s . T [ y^alpha (Dxx + 2 mixing . Dx(Dy) + B_{c_bessel}) ] T^(-1),

    with scale s = gamma (beta+1)^2, alpha = 2 alpha1 / (alpha1 - alpha2 + 2),
    c_bessel = (c/gamma + beta) / (beta+1), mixing = Q^(-1/2) q / sqrt(gamma),
    and m mapped to (m - beta)/(beta+1).  |mixing| < 1 is exactly the Schur
    complement condition gamma - q^T Q^(-1) q > 0, hence guaranteed in
    exact arithmetic; a shear whose rounding takes |mixing| to 1 raises
    ValueError naming operator.drift_c.

    Returns
    -------
    (ModelParams, dict)
        The chain {"scale": s, "p": p, "steps": [...]}, the form the
        manifests record.  Each step is a dict with its "kind" ("shear",
        "linear_x" or "power") and payload, outer to inner as the reduction
        applies them; the chain applies right-to-left to model-side
        functions: u = T v.
    """
    steps = []
    work = spec
    if spec.dim and abs(spec.drift_b).max() != 0.0:
        shift = spec.drift_b / spec.drift_c
        work = shear_map(spec)
        steps.append({"kind": "shear", "shift": shift.tolist()})

    beta = 0.5 * (work.alpha1 - work.alpha2)
    g = work.gamma
    if work.dim:
        A = (beta + 1.0) * np.sqrt(g) * _inv_sqrt_sym(work.q_matrix)
        mixing = _inv_sqrt_sym(work.q_matrix) @ work.q_vector / np.sqrt(g)
        steps.append({"kind": "linear_x", "matrix": A.tolist(),
                      "det": float(np.linalg.det(A))})
    else:
        mixing = np.zeros(0)

    steps.append({"kind": "power", "beta": beta})

    alpha1_t, alpha2_t, c_t, m_t = beta_map(
        beta, work.alpha1, work.alpha2, work.drift_c / g, space.m)
    # beta = (a1-a2)/2 equalizes the powers: alpha1_t == alpha2_t == alpha.
    alpha = alpha1_t
    if work is not spec and not np.linalg.norm(mixing) < 1.0:
        # 1 - |mixing| falls like drift_c^2 while the shear's rounding grows
        # like eps (|drift_b|/|drift_c|)^2: a small drift_c can round the
        # sheared mixing up to 1
        raise ValueError("operator.drift_c = %r is out of range: the shear "
                         "of drift_b rounds |mixing| to %g, and the model "
                         "needs |mixing| < 1"
                         % (spec.drift_c, np.linalg.norm(mixing)))
    model = ModelParams(mixing, alpha, c_t, m_t, space.p)
    chain = {"scale": g * (beta + 1.0) ** 2, "p": space.p, "steps": steps}
    return model, chain


_SCALAR_KEYS = ("gamma", "drift_c", "alpha1", "alpha2", "p", "m")


def _leaves(value):
    """The scalars of a value nested in lists or tuples."""
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _check_finite(key, value):
    """Reject a non-numeric or non-finite operator number, or a list where
    one number belongs, naming its key.  Strings and booleans are not
    numbers, even where numpy would convert them."""
    if any(isinstance(v, (str, bool, np.bool_)) for v in _leaves(value)):
        raise ValueError("operator.%s must be numeric, got %r" % (key, value))
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("operator.%s must be numeric, got %r" % (key, value))
    if key in _SCALAR_KEYS and arr.ndim:
        raise ValueError("operator.%s must be a single number, got %r"
                         % (key, value))
    if not np.all(np.isfinite(arr)):
        raise ValueError("operator.%s must be finite, got %r" % (key, value))


# The model's Bessel exponent c enters the solver as node weights y^c and
# power moments of y^(c+1).  For |c| > 308 a weight leaves the double range
# (about 10^308) within one decade of y, so no grid resolves it.
_MAX_MODEL_C = 308.0

# The shear x -> x - (b/c) y adds (gamma/c^2) b b^T to Q, a term that
# outgrows the diffusion block by the squared slope (|b|/|c|)^2, and so
# does its rounding.  From the slope 1/sqrt(eps) = 2^26 on, that rounding
# is as large as the block itself and the sheared block is positive
# definite only by chance: the README operator's shear fails from
# drift_c = 1e-9 (slope 5.8e8).  Below the bound, a reduction that rounds
# |mixing| to 1 is still refused by reduce_to_model.
_MAX_SHEAR_SLOPE = 2.0 ** 26


def _check_drift_c(spec):
    """Reject a drift_c that no solve can use, naming its key: one whose
    model exponent c = (drift_c / gamma + beta) / (beta + 1) has
    |c| > _MAX_MODEL_C, or, with a nonzero drift_b, one whose square the
    shear cannot take in floats or whose shear slope |drift_b| / |drift_c|
    exceeds _MAX_SHEAR_SLOPE."""
    beta = 0.5 * (spec.alpha1 - spec.alpha2)
    c = beta_map(beta, spec.alpha1, spec.alpha2, spec.drift_c / spec.gamma,
                 0.0)[2]
    if not abs(c) <= _MAX_MODEL_C:
        raise ValueError("operator.drift_c = %r is out of range: the model "
                         "exponent (drift_c/gamma + beta)/(beta + 1) = %g "
                         "must have |c| <= %g" % (spec.drift_c, c,
                                                  _MAX_MODEL_C))
    b = math.hypot(*spec.drift_b)
    if b == 0.0:
        return
    if not abs(spec.drift_c) <= math.sqrt(sys.float_info.max):
        raise ValueError("operator.drift_c = %r is out of range: the shear "
                         "of drift_b squares it beyond the float range"
                         % (spec.drift_c,))
    slope = b / abs(spec.drift_c)   # OperatorSpec: drift_c != 0 here
    if not slope <= _MAX_SHEAR_SLOPE:
        raise ValueError("operator.drift_c = %r is out of range: the shear "
                         "slope |drift_b|/|drift_c| = %g must be <= %g "
                         "(1/sqrt(eps)), beyond which rounding swamps the "
                         "sheared diffusion block"
                         % (spec.drift_c, slope, _MAX_SHEAR_SLOPE))


def config_to_problem(cfg):
    """Parse the flat config dict; unknown or missing keys raise ValueError.

    q_matrix is a flat row-major list of length dimension^2.  A drift_c
    whose model exponent no grid resolves, or whose shear no float block
    holds, is rejected here (_check_drift_c).
    """
    if not isinstance(cfg, dict):
        raise ValueError("config must be a mapping")
    for key in cfg:
        if key not in _CONFIG_KEYS:
            raise ValueError("unknown config key: %r" % (key,))
    for key in _CONFIG_KEYS:
        if key not in cfg:
            raise ValueError("missing config key: %r" % (key,))
    for key in _CONFIG_KEYS:
        if key != "dimension":
            _check_finite(key, cfg[key])
    n = cfg["dimension"]
    if isinstance(n, bool) or not (isinstance(n, (int, np.integer))
                                   and n >= 0):
        raise ValueError("operator.dimension must be an integer >= 0, got %r"
                         % (n,))
    qm = np.asarray(cfg["q_matrix"], dtype=float).reshape(-1)
    if qm.size != n * n:
        raise ValueError("q_matrix must have dimension^2 = %d entries, got %d"
                         % (n * n, qm.size))
    spec = OperatorSpec(qm.reshape(n, n) if n else np.zeros((0, 0)),
                        cfg["q_vector"], cfg["gamma"], cfg["drift_b"],
                        cfg["drift_c"], cfg["alpha1"], cfg["alpha2"])
    _check_drift_c(spec)
    space = SpaceSpec(cfg["p"], cfg["m"])
    return spec, space
