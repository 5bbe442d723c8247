"""Floquet spectral data of the self-adjoint third-order periodic operator

    i y''' + i p y' + i (p y)' + q y

with real 1-periodic coefficients.  The package computes the period map of
the modified fundamental system, its multipliers and Lyapunov values, the
discriminant that separates spectral multiplicity one from three on the
real axis, and the eigenvalue curves of the quasi-periodic fibers.
"""

__version__ = "0.1.0"

from .bands import BandPoint, band_point, scan_real_axis
from .coeffs import PeriodicCoefficients, load_coefficients, parse_coefficients, zero_coefficients
from .discriminant import (
    Sigma3Interval,
    Sigma3Result,
    default_search_interval,
    rho_at,
    rho_product_formula,
    rho_trace_formula,
    sigma3_intervals,
)
from .floquet import (
    DiskCountResult,
    FloquetEigenvalue,
    FloquetSolveResult,
    char_real_function,
    count_in_disk,
    eigenvalues_at_k,
)
from .freecase import FreeCaseValues, free_case, free_eigenvalues, free_trace
from .monodromy import (
    OMEGA,
    SYMPLECTIC_J,
    MonodromyResult,
    PicardTruncationError,
    PropagationMethod,
    PropagationOverflowError,
    SpectralParameter,
    char_poly,
    free_diagonalizer,
    picard_monodromy,
    propagate,
    propagate_pair,
    symplectic_residual,
    trace_at,
)
from .multipliers import (
    Classification,
    MultiplierSet,
    classify_on_circle,
    continue_branches,
    free_multipliers,
    lyapunov_and_quasimomenta,
    multiplier_set,
    solve_multipliers,
)

__all__ = [
    "BandPoint",
    "Classification",
    "DiskCountResult",
    "FloquetEigenvalue",
    "FloquetSolveResult",
    "FreeCaseValues",
    "MonodromyResult",
    "MultiplierSet",
    "OMEGA",
    "PeriodicCoefficients",
    "PicardTruncationError",
    "PropagationMethod",
    "PropagationOverflowError",
    "Sigma3Interval",
    "Sigma3Result",
    "SpectralParameter",
    "SYMPLECTIC_J",
    "band_point",
    "char_poly",
    "char_real_function",
    "classify_on_circle",
    "continue_branches",
    "count_in_disk",
    "default_search_interval",
    "eigenvalues_at_k",
    "free_case",
    "free_diagonalizer",
    "free_eigenvalues",
    "free_multipliers",
    "free_trace",
    "load_coefficients",
    "lyapunov_and_quasimomenta",
    "multiplier_set",
    "parse_coefficients",
    "picard_monodromy",
    "propagate",
    "propagate_pair",
    "rho_at",
    "rho_product_formula",
    "rho_trace_formula",
    "scan_real_axis",
    "sigma3_intervals",
    "solve_multipliers",
    "symplectic_residual",
    "trace_at",
    "zero_coefficients",
]
