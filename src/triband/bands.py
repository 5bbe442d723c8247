"""Band-structure tables: per-point spectral diagnostics on a real grid.

Every real lambda is in the spectrum; the table records with which
multiplicity it is covered: the discriminant rho, the count of unimodular
multipliers (one or three), and the Lyapunov values of the branches, with
branch labels continued consistently along the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import multipliers as mult
from .coeffs import PeriodicCoefficients
from .discriminant import rho_formula_scale, rho_trace_formula
from .monodromy import SpectralParameter, growth_refusal, traces_at
from .util import uniform_grid

FLAG_NEAR_BRANCH_POINT = mult.FLAG_NEAR_BRANCH_POINT
FLAG_AMBIGUOUS_MATCH = mult.FLAG_AMBIGUOUS_MATCH
FLAG_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class BandPoint:
    """Diagnostics at one real lambda.

    multiplicity is 3 exactly when rho <= 0, else 1; points where rho is
    within the degeneracy tolerance of zero are flagged near-branch-point
    (both classifications are unreliable there by construction, so the
    consistency invariant multiplicity == on_circle_count holds off the
    flagged set).  lyapunov_branches lists all three Lyapunov values in
    branch-label order with branch_on_circle marking the unimodular ones;
    lyapunov_real_branches keeps just those values, clipped into [-1, 1].
    """

    lam: float
    rho: Optional[float] = None
    multiplicity: Optional[int] = None
    on_circle_count: Optional[int] = None
    lyapunov_branches: Optional[tuple[complex, complex, complex]] = None
    branch_on_circle: Optional[tuple[bool, bool, bool]] = None
    lyapunov_real_branches: tuple[float, ...] = ()
    flags: frozenset[str] = frozenset()
    error: Optional[str] = None


def _assemble(
    lam: float,
    ms: mult.MultiplierSet,
    rho: float,
    circle_tol: Optional[float],
    degeneracy_rtol: float,
) -> BandPoint:
    tol = mult.circle_tolerance(ms.taus, circle_tol)
    on_circle = tuple(bool(abs(abs(tau) - 1.0) <= tol) for tau in ms.taus)

    flags = set(ms.flags)
    if abs(rho) <= degeneracy_rtol * rho_formula_scale(ms.trace):
        flags.add(FLAG_NEAR_BRANCH_POINT)
    if ms.classification is mult.Classification.DEGENERATE:
        flags.add(FLAG_DEGENERATE)

    real_branches = tuple(
        float(min(1.0, max(-1.0, delta.real)))
        for delta, unimod in zip(ms.lyapunov, on_circle)
        if unimod
    )
    return BandPoint(
        lam=lam,
        rho=rho,
        multiplicity=3 if rho <= 0 else 1,
        on_circle_count=int(sum(on_circle)),
        lyapunov_branches=ms.lyapunov,
        branch_on_circle=on_circle,
        lyapunov_real_branches=real_branches,
        flags=frozenset(flags),
    )


def _evaluate(
    c: PeriodicCoefficients, lams: list[float], circle_tol: Optional[float]
) -> list[tuple[Optional[tuple[mult.MultiplierSet, float]], Optional[str]]]:
    """Per lambda ((multiplier set, rho), None), or (None, overflow message).

    The lambdas that propagation accepts go to the core in one call.
    """
    refusals = [growth_refusal(c, SpectralParameter.from_lambda(lam)) for lam in lams]
    traces = iter(traces_at(c, [lam for lam, err in zip(lams, refusals) if err is None]))
    out = []
    for lam, err in zip(lams, refusals):
        if err is not None:
            out.append((None, str(err)))
            continue
        T = next(traces)
        ms = mult.multiplier_set(lam, T, circle_tol=circle_tol)
        out.append(((ms, rho_trace_formula(T)), None))
    return out


def band_point(
    c: PeriodicCoefficients,
    lam: float,
    circle_tol: Optional[float] = None,
    degeneracy_rtol: float = 1e-9,
) -> BandPoint:
    """Diagnostics at a single point (branch order as solved, not continued)."""
    lam = float(lam)
    [(ms_rho, err)] = _evaluate(c, [lam], circle_tol)
    if err is not None:
        return BandPoint(lam=lam, error=err)
    ms, rho = ms_rho
    return _assemble(lam, ms, rho, circle_tol, degeneracy_rtol)


def scan_real_axis(
    c: PeriodicCoefficients,
    interval: tuple[float, float],
    points: int,
    circle_tol: Optional[float] = None,
    degeneracy_rtol: float = 1e-9,
) -> list[BandPoint]:
    """Uniform-grid scan: one period-map evaluation per point.

    Branch labels are continued along the grid (anchored at the largest
    lambda by the free-case asymptotics), so column j of the Lyapunov data
    follows one branch.  The grid is deliberately not adaptive; refinement
    around sign changes of rho belongs to the interval finder in the
    discriminant module.  Propagation overflow at extreme lambda is
    recorded on the affected row and the scan continues.
    """
    grid = uniform_grid(float(interval[0]), float(interval[1]), points)
    lams = [float(lam) for lam in grid]
    evaluated = [(lam, *result) for lam, result in zip(lams, _evaluate(c, lams, circle_tol))]

    good = [(lam, ms_rho) for lam, ms_rho, err in evaluated if err is None]
    continued = iter(
        mult.continue_branches([lam for lam, _ in good], [ms for _, (ms, _) in good])
    )
    return [
        BandPoint(lam=lam, error=err)
        if err is not None
        else _assemble(lam, next(continued), ms_rho[1], circle_tol, degeneracy_rtol)
        for lam, ms_rho, err in evaluated
    ]
