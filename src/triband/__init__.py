"""Floquet spectral data of the self-adjoint third-order periodic operator

    i y''' + i p y' + i (p y)' + q y

with real 1-periodic coefficients.  The package computes the period map of
the modified fundamental system, its multipliers and Lyapunov values, the
discriminant that separates spectral multiplicity one from three on the
real axis, and the eigenvalue curves of the quasi-periodic fibers.

Importing the package loads none of its modules.  A name of ``__all__`` is
resolved on first access (PEP 562), so ``triband.cli`` and each of its
commands load only the modules they use.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "BandPoint",
    "DiskCountResult",
    "FloquetEigenvalue",
    "FloquetSolveResult",
    "FreeCaseValues",
    "MonodromyResult",
    "OMEGA",
    "PeriodicCoefficients",
    "PicardTruncationError",
    "PropagationOverflowError",
    "Sigma3Interval",
    "Sigma3Result",
    "SpectralParameter",
    "SYMPLECTIC_J",
    "band_point",
    "char_poly",
    "char_real_function",
    "continue_branches",
    "count_in_disk",
    "default_search_interval",
    "det_residual",
    "eigenvalues_at_k",
    "free_case",
    "free_eigenvalues",
    "free_multipliers",
    "free_trace",
    "load_coefficients",
    "parse_coefficients",
    "picard_monodromy",
    "rho_at",
    "rho_product_formula",
    "rho_trace_formula",
    "scan_real_axis",
    "sigma3_intervals",
    "solve_multipliers",
    "spectral_norms",
    "symplectic_residual",
    "trace_at",
    "traces_at",
    "zero_coefficients",
]

# the modules that define __all__, each after every one it imports, so the
# first that binds a name is the one that defines it
_API_MODULES = ("coeffs", "monodromy", "floquet", "discriminant", "multipliers", "freecase",
                "bands")


def __getattr__(name: str):
    """A public name, from the first of _API_MODULES that binds it; that module and those
    ahead of it are imported, and the name is then bound here."""
    if name in __all__:
        for module in _API_MODULES:
            namespace = vars(importlib.import_module(f"{__name__}.{module}"))
            if name in namespace:
                globals()[name] = namespace[name]
                return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
