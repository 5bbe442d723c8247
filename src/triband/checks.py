"""Self-verification suites behind the `verify` CLI command.

Every suite exercises an exact structural identity or a proved bound on a
sampled grid and reports the worst residual against a fixed threshold.
The suites are deliberately redundant with the unit tests: they run against
user-supplied coefficients, where no precomputed expected values exist.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import multipliers as mult
from .coeffs import PeriodicCoefficients, zero_coefficients
from .discriminant import rho_product_formula, rho_trace_formula
from .floquet import char_real_function, count_in_disk
from .freecase import free_case, free_trace
from .monodromy import (
    SpectralParameter,
    _traces,
    char_poly,
    det_residual,
    free_diagonalizer,
    period_maps,
    picard_maps,
    symplectic_residual,
    traces_at,
)
from ._linalg import EXTENDED, det3
from .util import hausdorff_distance

# bound checks allow machine-epsilon slack: several are equalities at
# isolated points (e.g. |T| = 3 exp(z0) in the free case at lambda = 0)
_BOUND_SLACK = 1e-9
# requested tail bound of the series route, and the index N of root counting
_PICARD_TOL = 1e-10
_ROOT_COUNT_N = 5
# threshold of the scaled det and symplectic residuals, which stay at
# roundoff of the period map's dtype at every |lambda|
_ROUNDOFF = 100.0 * float(np.finfo(EXTENDED).eps)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    threshold: float
    detail: str = ""

    def __post_init__(self) -> None:
        # numpy scalars leak in from the grids; keep the record JSON-clean
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "worst", float(self.worst))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: worst {self.worst:.3e} "
            f"(threshold {self.threshold:.3e}) {self.detail}".rstrip()
        )


def _real_grid() -> np.ndarray:
    return np.linspace(-500.0, 500.0, 80)  # an even count keeps lambda = 0 out


@dataclass(frozen=True)
class SuiteMaps:
    """One suite's points with their period maps and traces, in the suite's order."""

    c: PeriodicCoefficients
    lams: list[complex]
    M: np.ndarray
    T: list[complex]


@functools.cache
def _fixed_grids() -> tuple[list[complex], dict[str, np.ndarray], list[complex]]:
    """Each suite's fixed points as rows of their union without repeats, and the char-poly taus;
    the real-axis suites share one grid, the complex suites one set of points and conjugates."""
    rng = np.random.default_rng(7)
    lams, taus = zip(*[(complex(rng.uniform(-350, 350), rng.uniform(-350, 350)),
                        complex(rng.normal(), rng.normal())) for _ in range(20)])
    real, pairs = _real_grid(), [*lams, *np.conj(lams)]
    # suites in run_verify's order: the growth guard refuses the point a suite alone would
    grids = {
        "determinant-identity": real,
        "symplectic-identity": [*real, *pairs],
        "characteristic-polynomial": pairs,
        "discriminant-consistency": real,
        "growth-bounds": real,
        "series-vs-steps": np.linspace(-100.0, 100.0, 9),
        "multiplier-symmetry": real,
        "determinant-reduction": np.linspace(-150.0, 150.0, 16),
    }
    index: dict[complex, int] = {}  # row of each lambda
    rows = {name: np.array([index.setdefault(complex(lam), len(index)) for lam in grid])
            for name, grid in grids.items()}
    return list(index), rows, list(taus)


def suite_maps(c: PeriodicCoefficients) -> dict[str, SuiteMaps]:
    """SuiteMaps of every fixed-grid suite, by name, from one period_maps call."""
    lams, rows, _ = _fixed_grids()
    M = period_maps(c, lams)
    T = _traces(M)
    return {name: SuiteMaps(c, [lams[i] for i in r], M[r], [T[i] for i in r])
            for name, r in rows.items()}


def check_determinant_identity(maps: SuiteMaps) -> CheckResult:
    worst = det_residual(maps.M).max()
    return CheckResult("determinant-identity", worst <= _ROUNDOFF, worst, _ROUNDOFF)


def check_symplectic_identity(maps: SuiteMaps) -> CheckResult:
    """The real grid, each point its own pair, then 20 complex points and their conjugates."""
    partner = np.r_[: len(maps.lams) - 40, -20:0, -40:-20]  # index of the map at conj(lambda)
    worst = symplectic_residual(maps.M, maps.M[partner]).max()
    return CheckResult("symplectic-identity", worst <= _ROUNDOFF, worst, _ROUNDOFF)


def check_char_poly_identity(maps: SuiteMaps) -> CheckResult:
    """det(M - tau) against the trace form of the cubic, complex lambda included."""
    worst = 0.0  # the points come first, then their conjugates
    for M, T, T_conj, tau in zip(maps.M, maps.T, maps.T[len(maps.T) // 2 :], _fixed_grids()[2]):
        direct = complex(det3(np.asarray(M, dtype=complex) - tau * np.eye(3)))
        worst = max(worst, abs(direct - char_poly(T, T_conj, tau)) / (1.0 + abs(direct)))
    return CheckResult("characteristic-polynomial", worst <= 1e-8, worst, 1e-8)


@functools.cache
def check_free_trace() -> CheckResult:
    """Propagated trace against the closed form, zero coefficients, |lam| <= 1e6."""
    c = zero_coefficients()
    worst = 0.0
    grid = [float(lam) for lam in np.linspace(-1e6, 1e6, 80) if lam != 0.0]
    for lam, T in zip(grid, traces_at(c, grid)):
        T0 = free_trace(lam)
        worst = max(worst, abs(T - T0) / abs(T0))
    return CheckResult("free-case-trace", worst <= 1e-10, worst, 1e-10)


def check_discriminant_consistency(maps: SuiteMaps) -> CheckResult:
    worst = 0.0
    for T, taus in zip(maps.T, mult.solve_multipliers(maps.T, np.conj(maps.T))):
        rt = rho_trace_formula(T)
        rp = rho_product_formula(taus)
        scale = 1.0 + abs(rt)
        worst = max(worst, abs(rt - rp.real) / scale, abs(rp.imag) / scale * 1e2)
    # the 1e2 factor folds the tighter imaginary-part threshold (1e-8
    # against 1e-6) into a single worst number
    return CheckResult("discriminant-consistency", worst <= 1e-6, worst, 1e-6)


def check_trace_bounds(maps: SuiteMaps) -> CheckResult:
    """|T| <= 3 e^{z0+kappa} everywhere; perturbation bounds for |lambda| >= 1.

    The perturbation bounds are |T - T0| <= 3 kappa e^{z0+kappa} / |z| and,
    in the frame that diagonalizes the free system, a matching bound on the
    full matrix deviation from the diagonal free propagator.
    """
    kappa = maps.c.kappa
    params = [SpectralParameter.from_lambda(lam) for lam in maps.lams]
    M, T = maps.M, np.array(maps.T)
    z0 = np.array([prm.z0 for prm in params])
    worst = float(np.max(np.abs(T) / (3.0 * np.exp(z0 + kappa))))
    far = [i for i, prm in enumerate(params) if abs(prm.lam) >= 1.0]
    if kappa > 0 and far:
        z = np.array([params[i].z for i in far])
        matrix_cap = kappa * np.exp(z0[far] + kappa) / np.abs(z)
        T0 = np.array([sum(mult.free_multipliers(params[i])) for i in far])
        worst = max(worst, float(np.max(np.abs(T[far] - T0) / (3.0 * matrix_cap))))
        V, V_inv, B = free_diagonalizer([params[i] for i in far])
        frame = V_inv @ M[far].astype(complex) @ V
        diag_free = np.exp(1j * z[:, np.newaxis] * np.diag(B))[:, np.newaxis] * np.eye(3)
        deviation = np.linalg.norm(frame - diag_free, 2, axis=(-2, -1))
        worst = max(worst, float(np.max(deviation / matrix_cap)))
    return CheckResult("growth-bounds", worst <= 1.0 + _BOUND_SLACK, worst, 1.0,
                       detail="(ratios to the proved caps)")


def check_picard_agreement(maps: SuiteMaps) -> CheckResult:
    worst = np.abs(maps.M.astype(complex) - picard_maps(maps.c, maps.lams, tol=_PICARD_TOL)).max()
    threshold = max(1e-8, 10.0 * _PICARD_TOL)
    return CheckResult("series-vs-steps", worst <= threshold, worst, threshold)


@functools.cache
def check_free_closed_forms() -> CheckResult:
    """Solved multipliers and both discriminant routes against the closed forms."""
    c = zero_coefficients()
    worst = 0.0
    grid = [float(lam) for lam in np.linspace(-900.0, 900.0, 40) if lam != 0.0]
    for lam, T in zip(grid, traces_at(c, grid)):
        ref = free_case(lam)
        taus = mult.solve_multipliers(T, np.conj(T))
        worst = max(worst, hausdorff_distance(taus, ref.taus0))
        rt = rho_trace_formula(ref.T0)
        worst = max(worst, abs(rt - ref.rho0.real) / (1.0 + abs(rt)))
    return CheckResult("free-case-closed-forms", worst <= 1e-8, worst, 1e-8)


def check_multiplier_symmetry(maps: SuiteMaps) -> CheckResult:
    """Invariance of the multiplier set under tau -> 1/conj(tau), real lambda."""
    taus = mult.solve_multipliers(maps.T, np.conj(maps.T))
    worst = hausdorff_distance(taus, 1.0 / np.conj(taus)).max()
    return CheckResult("multiplier-symmetry", worst <= 1e-8, worst, 1e-8)


def check_reduction_identity(maps: SuiteMaps) -> CheckResult:
    """det(M - e^{ik}) == 2i e^{3ik/2} F(k, lambda) on the real axis."""
    worst = 0.0
    maps_c = maps.M.astype(complex)
    for k in (0.0, 0.3, 1.0, math.pi, 5.0):
        shift = np.exp(1j * k) * np.eye(3)
        for M, T in zip(maps_c, maps.T):
            direct = complex(det3(M - shift))
            reduced = 2j * np.exp(1.5j * k) * char_real_function(k, T)
            worst = max(worst, abs(direct - reduced) / (1.0 + abs(direct)))
    return CheckResult("determinant-reduction", worst <= 1e-8, worst, 1e-8)


def check_root_counts(c: PeriodicCoefficients) -> CheckResult:
    """Exact root counts in the two canonical disks (2N+1 and 2N roots).

    The exact counts are guaranteed only above an unquantified
    coefficient-dependent index threshold; for strong coefficients a
    mismatch at small N is a regime problem, not a solver bug.
    """
    detail = []
    ok = True
    worst = 0.0
    for k in (0.3, 2.0):
        res = count_in_disk(c, k, _ROOT_COUNT_N)
        ok = ok and res.count == res.expected and res.reliable
        worst = max(worst, float(abs(res.count - res.expected)))
        detail.append(f"k={k}: {res.count}/{res.expected}")
    return CheckResult(
        "root-counting", ok, worst, 0.0, detail="(" + ", ".join(detail) + ")"
    )


def run_verify(c: PeriodicCoefficients) -> list[CheckResult]:
    maps = suite_maps(c)  # popped, so each suite's maps are freed once it has run
    return [
        check_determinant_identity(maps.pop("determinant-identity")),
        check_symplectic_identity(maps.pop("symplectic-identity")),
        check_char_poly_identity(maps.pop("characteristic-polynomial")),
        check_free_trace(),
        check_discriminant_consistency(maps.pop("discriminant-consistency")),
        check_trace_bounds(maps.pop("growth-bounds")),
        check_picard_agreement(maps.pop("series-vs-steps")),
        check_free_closed_forms(),
        check_multiplier_symmetry(maps.pop("multiplier-symmetry")),
        check_reduction_identity(maps.pop("determinant-reduction")),
        check_root_counts(c),
    ]
