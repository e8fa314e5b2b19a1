"""Solvers and estimate checks for degenerate elliptic/parabolic operators.

The operators live on the upper half space R^N x (0, oo) and degenerate at
y = 0 with power weights:

    L u = y^a1 Tr(Q Dxx u) + 2 y^((a1+a2)/2) q . Dx Dy u + g y^a2 Dyy u
          + y^(a2-1) (b . Dx u + c Dy u),

with [[Q, q], [q^T, g]] positive definite, a2 < 2, a2 - a1 < 2.  The library
reduces L, by explicit isometries of weighted Lebesgue spaces, to the model
operator

    y^alpha (Dxx + 2 a . Dx Dy + Byy),   B = Dyy + (c/y) Dy,

solves elliptic and parabolic problems for it through a Fourier transform in x
and one-dimensional weighted solves in y, and verifies at desk scale the
quantitative estimates that make the reduction work: admissibility windows for
L^p(y^m dx dy), sectoriality and kernel bounds for the one-dimensional
operators, two-route resolvent identities, Fourier-multiplier boundedness, and
parabolic contraction / maximal-regularity ratios.
"""

from .params import (
    OperatorSpec,
    SpaceSpec,
    ModelParams,
    WindowReport,
    validate_window,
    beta_map,
    shear_map,
    reduce_to_model,
)
from .grid import Grid, Field, make_grid, lp_norm
from .bessel1d import TridiagForm, Kernel1D, assemble_form, resolve, expm_kernel
from .transforms import apply_power, apply_phase, apply_shear
from .multiplier import FrequencySolvePlan, resolvent_nd, derived_multipliers
from .semigroup import EvolutionRun, evolve
from .harness import EstimateResult, run_suite, square_function_ratio

__version__ = "0.1.0"

__all__ = [
    "OperatorSpec", "SpaceSpec", "ModelParams", "WindowReport",
    "validate_window", "beta_map", "shear_map", "reduce_to_model",
    "Grid", "Field", "make_grid", "lp_norm",
    "TridiagForm", "Kernel1D", "assemble_form", "resolve", "expm_kernel",
    "apply_power", "apply_phase", "apply_shear",
    "FrequencySolvePlan", "resolvent_nd", "derived_multipliers",
    "EvolutionRun", "evolve",
    "EstimateResult", "run_suite", "square_function_ratio",
]
