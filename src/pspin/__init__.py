"""Exact computation of spin intersection numbers from matrix-model correlators.

The package computes intersection numbers of the moduli space of p-spin
curves with one and two marked points from Gaussian random-matrix
correlators with an external source: exact symbolic expansion and
reduction, tautological-equation verification, continuation in p, and
numerical cross-checks, with a command-line front end (``pspin``).
"""

from .airy import CONTOUR, REAL, phi_deriv_zero
from .correlators import (
    CalibrationError,
    DegreeInsufficientError,
    FiniteNSource,
    TauCorrelator,
    calibration_constant,
    extract_intersections,
    finite_n_evaluate,
    general_p_interpolate,
    one_point_table,
    two_point_low_value,
    two_point_table,
)
from .density import (
    DensityConfig,
    bernoulli_leading,
    binet_check,
    blackhole_density_compare,
    central_charge,
    central_charge_negative_branch,
    large_p_check,
    log_sinh_series,
    rho_density,
)
from .exact import (
    CycloA,
    DomainError,
    ExactScalar,
    LaurentP,
    Monomial,
    PoleError,
    UsageError,
)
from .moments import (
    AssembledGrade,
    CancellationError,
    MomentSymbol,
    assemble_grade,
    reduce_moment,
)
from .onepoint import one_point_series, one_point_value
from .oracle import McConfig, mc_trace_moments, quad_moment
from .tautology import (
    TautologyReport,
    dilaton_check,
    selection_rule,
    string_check,
)
from .twopoint import two_point_grade, two_point_low_orders, two_point_series

__version__ = "0.1.0"
