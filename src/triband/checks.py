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
    OMEGA,
    SpectralParameter,
    _FRAME_POWERS,
    _traces,
    char_poly,
    det_residual,
    period_maps,
    picard_maps,
    spectral_norms,
    symplectic_residual,
    traces_at,
)
from ._linalg import EXTENDED, det3
from .util import hausdorff_distance

# requested tail bound of the series route, and the index N of root counting
_PICARD_TOL = 1e-10
_ROOT_COUNT_N = 5
# threshold of the scaled det and symplectic residuals, which stay at
# roundoff of the period map's dtype at every |lambda|
_ROUNDOFF = 100.0 * float(np.finfo(EXTENDED).eps)
# Roundoff allowances of the growth-bounds caps, which vanish with kappa while the computed
# differences do not; first-order counts in eps of complex128, where the suite compares.  Per
# e^{z0+kappa} (1 + |z|): T0 and C take exponents i w^j z off by 12 eps (z 4, w^2 5, the
# product 3); sums, casts and the map's own few eps z0 (see _linalg) fill 16.  Per sum |M||W|
# >= ||M o W||, and >= ||C|| = max |tau| to first order: M's cast 1, W = (iz)^(l-k) 13 (z 4 per
# power, the square 2, the reciprocal 3), the product 2 and the subtraction 1 per |M_kl||W_kl|;
# per max |tau|, C 13 (a row, whose sum bounds a circulant's norm: three 3-term sums 22.5 and
# w, w^2 12, over 3, then the /3 1.5) and the subtraction 3 (sum |C_kl| <= 3 sqrt(3) max |tau|).
_FREE_ROUNDOFF, _FRAME_ROUNDOFF = (n * float(np.finfo(np.complex128).eps) for n in (16, 33))


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


def _free_bound_data(lams: np.ndarray) -> tuple[np.ndarray, ...]:
    """The growth-bounds suite's grid-only data from one SpectralParameter and one row of free
    multipliers tau per lambda != 0: z0, z, T0, W = (iz)^(l-k) and the circulant
    C = U diag(tau) U^H, whose entry (k, l) is sum_j tau_j w^(j(k-l)) / 3 (check_trace_bounds)."""
    params = [SpectralParameter.from_lambda(lam) for lam in lams]
    z = np.array([prm.z for prm in params])
    taus = np.array([mult.free_multipliers(prm) for prm in params])
    W = (1j * z)[:, np.newaxis, np.newaxis] ** _FRAME_POWERS
    circulant = OMEGA ** (np.arange(3)[:, np.newaxis, np.newaxis] * -_FRAME_POWERS % 3)
    C = (taus[..., np.newaxis, np.newaxis] * circulant).sum(axis=1) / 3
    return np.array([prm.z0 for prm in params]), z, taus.sum(axis=1), W, C


@functools.cache
def _fixed_grids() -> tuple[np.ndarray, tuple[np.ndarray, ...], list[complex], tuple]:
    """verify's fixed points as one array without repeats, the char-poly taus and the
    growth-bounds data of the real grid (_free_bound_data).

    Four row arrays index it: the real grid, 20 complex points then their conjugates, the
    series points and the reduction points.  The union opens at the real grid's first point,
    so the growth guard refuses the point the determinant suite alone would.
    """
    rng = np.random.default_rng(7)
    lams, taus = zip(*[(complex(rng.uniform(-350, 350), rng.uniform(-350, 350)),
                        complex(rng.normal(), rng.normal())) for _ in range(20)])
    grids = (_real_grid(), [*lams, *np.conj(lams)],
             np.linspace(-100.0, 100.0, 9), np.linspace(-150.0, 150.0, 16))
    index: dict[complex, int] = {}  # row of each lambda
    rows = tuple(np.array([index.setdefault(complex(lam), len(index)) for lam in grid])
                 for grid in grids)
    return np.array(list(index)), rows, list(taus), _free_bound_data(grids[0])


def _shifted(rows: list[list[complex]], tau: complex) -> tuple[tuple[complex, ...], ...]:
    """Rows of M - tau I from the rows of M, in Python complex numbers."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    return (m00 - tau, m01, m02), (m10, m11 - tau, m12), (m20, m21, m22 - tau)


def check_determinant_identity(M: np.ndarray, norms: np.ndarray) -> CheckResult:
    worst = det_residual(M, norms).max()
    return CheckResult("determinant-identity", worst <= _ROUNDOFF, worst, _ROUNDOFF)


def check_symplectic_identity(M: np.ndarray, M_conj: np.ndarray, norms: np.ndarray,
                              norms_conj: np.ndarray) -> CheckResult:
    """Rows paired by index: a real point with itself, a complex one with its conjugate."""
    worst = symplectic_residual(M, M_conj, norms, norms_conj).max()
    return CheckResult("symplectic-identity", worst <= _ROUNDOFF, worst, _ROUNDOFF)


def check_char_poly_identity(M_pairs: np.ndarray, T_pairs: np.ndarray,
                             taus: list[complex]) -> CheckResult:
    """det(M - tau) against the trace form of the cubic, complex lambda included."""
    worst = 0.0  # the points come first, then their conjugates
    maps, T = M_pairs.astype(complex).tolist(), T_pairs.tolist()
    for rows, T_lam, T_conj, tau in zip(maps, T, T[len(T) // 2 :], taus):
        direct = det3(_shifted(rows, tau))
        worst = max(worst, abs(direct - char_poly(T_lam, T_conj, tau)) / (1.0 + abs(direct)))
    return CheckResult("characteristic-polynomial", worst <= 1e-8, worst, 1e-8)


@functools.cache
def check_free_trace() -> CheckResult:
    """Propagated trace against the closed form, zero coefficients, |lam| <= 1e6."""
    grid = np.linspace(-1e6, 1e6, 80).tolist()
    worst = 0.0
    for lam, T in zip(grid, traces_at(zero_coefficients(), grid)):
        T0 = free_trace(lam)
        worst = max(worst, abs(T - T0) / abs(T0))
    return CheckResult("free-case-trace", worst <= 1e-10, worst, 1e-10)


def check_discriminant_consistency(T: np.ndarray, roots: np.ndarray) -> CheckResult:
    """Both routes of rho on the real grid, the product route from its roots (L, 3)."""
    worst = 0.0
    for T_lam, taus in zip(T.tolist(), roots.tolist()):
        rt = rho_trace_formula(T_lam)
        rp = rho_product_formula(taus)
        scale = 1.0 + abs(rt)
        worst = max(worst, abs(rt - rp.real) / scale, abs(rp.imag) / scale * 1e2)
    # the 1e2 factor folds the tighter imaginary-part threshold (1e-8
    # against 1e-6) into a single worst number
    return CheckResult("discriminant-consistency", worst <= 1e-6, worst, 1e-6)


def check_trace_bounds(kappa: float, free: tuple, M: np.ndarray, T: np.ndarray) -> CheckResult:
    """|T| <= 3 e^{z0+kappa}, and perturbation bounds, which hold for |lambda| >= 1.

    The perturbation bounds are |T - T0| <= 3 kappa e^{z0+kappa} / |z| and a matching bound
    on ||V^-1 M V - D||, each plus its roundoff allowance.  V = Z U diagonalizes the free
    system (Z = diag(1, iz, (iz)^2), U the unitary 3-point DFT) and D = diag(tau) holds the
    free multipliers.  Z^-1 M Z is M o W with W_kl = (iz)^(l-k), and the spectral norm is
    unitarily invariant, so the suite reads ||M o W - C|| with C = U D U^H, the circulant of
    the free multipliers.  free is the _free_bound_data of the grid, which holds no point
    with |lambda| < 1.
    """
    z0, z, T0, W, C = free
    growth, MW = np.exp(z0 + kappa), M.astype(complex) * W
    cap = (kappa / np.abs(z) + _FREE_ROUNDOFF * (1 + np.abs(z))) * growth
    frame_cap = cap + _FRAME_ROUNDOFF * np.abs(MW).sum(axis=(-2, -1))
    worst = max(np.max(np.abs(T) / (3.0 * growth)), np.max(np.abs(T - T0) / (3.0 * cap)),
                np.max(spectral_norms(MW - C) / frame_cap))
    return CheckResult("growth-bounds", worst <= 1.0, worst, 1.0,
                       detail="(ratios to the proved caps)")


def check_picard_agreement(c: PeriodicCoefficients, lams: np.ndarray,
                           M: np.ndarray) -> CheckResult:
    worst = np.abs(M.astype(complex) - picard_maps(c, lams, tol=_PICARD_TOL)).max()
    threshold = max(1e-8, 10.0 * _PICARD_TOL)
    return CheckResult("series-vs-steps", worst <= threshold, worst, threshold)


@functools.cache
def check_free_closed_forms() -> CheckResult:
    """Solved multipliers and both discriminant routes against the closed forms."""
    grid = np.linspace(-900.0, 900.0, 40).tolist()
    T = traces_at(zero_coefficients(), grid)
    worst = 0.0
    for lam, taus in zip(grid, mult.solve_multipliers(T, np.conj(T))):
        ref = free_case(lam)
        worst = max(worst, hausdorff_distance(taus, ref.taus0))
        rt = rho_trace_formula(ref.T0)
        worst = max(worst, abs(rt - ref.rho0.real) / (1.0 + abs(rt)))
    return CheckResult("free-case-closed-forms", worst <= 1e-8, worst, 1e-8)


def check_multiplier_symmetry(roots: np.ndarray) -> CheckResult:
    """Invariance of the multiplier set under tau -> 1/conj(tau), real lambda."""
    worst = hausdorff_distance(roots, 1.0 / np.conj(roots)).max()
    return CheckResult("multiplier-symmetry", worst <= 1e-8, worst, 1e-8)


def check_reduction_identity(M: np.ndarray, T: np.ndarray) -> CheckResult:
    """det(M - e^{ik}) == 2i e^{3ik/2} F(k, lambda) on the real axis."""
    worst = 0.0
    maps, traces = M.astype(complex).tolist(), T.tolist()
    for k in (0.0, 0.3, 1.0, math.pi, 5.0):
        shift, factor = complex(np.exp(1j * k)), complex(2j * np.exp(1.5j * k))
        for rows, T_lam in zip(maps, traces):
            direct = det3(_shifted(rows, shift))
            reduced = factor * char_real_function(k, T_lam)
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
        ok = ok and res.count == res.expected and not res.missed
        worst = max(worst, float(abs(res.count - res.expected)))
        detail.append(f"k={k}: {res.count}/{res.expected}")
    return CheckResult(
        "root-counting", ok, worst, 0.0, detail="(" + ", ".join(detail) + ")"
    )


def run_verify(c: PeriodicCoefficients) -> list[CheckResult]:
    """Eleven suites on c; the fixed-grid ones read rows of one map, norm and root stack."""
    lams, (real, pairs, series, reduction), taus, free = _fixed_grids()
    M = period_maps(c, lams)
    norms = spectral_norms(M)  # every map's norm, once
    T = np.array(_traces(M))
    roots = mult.solve_multipliers(T[real], np.conj(T[real]))  # the real grid's cubics, once
    # symplectic pairs: each real point with itself, complex points with their conjugates
    rows = np.concatenate((real, pairs))
    partner = np.concatenate((real, np.roll(pairs, len(pairs) // 2)))
    return [
        check_determinant_identity(M[real], norms[real]),
        check_symplectic_identity(M[rows], M[partner], norms[rows], norms[partner]),
        check_char_poly_identity(M[pairs], T[pairs], taus),
        check_free_trace(),
        check_discriminant_consistency(T[real], roots),
        check_trace_bounds(c.kappa, free, M[real], T[real]),
        check_picard_agreement(c, lams[series], M[series]),
        check_free_closed_forms(),
        check_multiplier_symmetry(roots),
        check_reduction_identity(M[reduction], T[reduction]),
        check_root_counts(c),
    ]
