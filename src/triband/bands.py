"""Band-structure tables: per-point spectral diagnostics on a real grid.

Every real lambda is in the spectrum; the table records with which
multiplicity it is covered: the discriminant rho, the count of unimodular
multipliers (one or three), and the Lyapunov values of the branches, with
branch labels continued consistently along the grid.  Every row is built by
_assemble from a triple of multipliers: the only code that computes
Delta = (tau + 1/tau)/2 and the only code that names the flags below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import multipliers as mult
from .coeffs import PeriodicCoefficients
from .discriminant import rho_formula_scale, rho_trace_formula
from .monodromy import growth_refusal, trace_at, traces_at
from .util import uniform_grid

FLAG_NEAR_BRANCH_POINT = "near-branch-point"
FLAG_AMBIGUOUS_MATCH = "ambiguous-match"
FLAG_DEGENERATE = "degenerate"

# |rho| within this share of the formula's scale flags a point near-branch-point;
# on the real axis this also covers |rho| <= 1e-9 (1 + |T|)^4, as the scale is larger
_DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class BandPoint:
    """Diagnostics at one real lambda.

    multiplicity is 3 exactly when rho <= 0, else 1; points where rho is
    within the degeneracy tolerance of zero are flagged near-branch-point
    (both classifications are unreliable there by construction, so the
    consistency invariant multiplicity == on_circle_count holds off the
    flagged set).  That flag, on_circle_count and the degenerate flag (a
    count other than one or three) are decided here alone, for band_point
    and scan alike; ambiguous-match marks a scan row whose branch labels
    were a near tie (continue_branches).
    lyapunov_branches lists all three Lyapunov values in branch-label order
    with branch_on_circle marking the unimodular ones;
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


def _assemble(lam: float, taus: tuple[complex, complex, complex], tie: bool,
              T: complex) -> BandPoint:
    """The row at lam from its multipliers in branch order, their labelling's tie, and T."""
    assert all(tau != 0 for tau in taus), "zero multiplier contradicts det M = 1"
    on_circle = mult.on_circle(taus)
    count = sum(on_circle)
    lyapunov = tuple((tau + 1.0 / tau) / 2.0 for tau in taus)
    rho = rho_trace_formula(T)
    flags = frozenset(flag for flag, on in (
        (FLAG_AMBIGUOUS_MATCH, tie),
        (FLAG_NEAR_BRANCH_POINT, abs(rho) <= _DEGENERACY_RTOL * rho_formula_scale(T)),
        (FLAG_DEGENERATE, count not in (1, 3))) if on)

    real_branches = tuple(
        float(min(1.0, max(-1.0, delta.real)))
        for delta, unimod in zip(lyapunov, on_circle)
        if unimod
    )
    return BandPoint(
        lam=lam,
        rho=rho,
        multiplicity=3 if rho <= 0 else 1,
        on_circle_count=count,
        lyapunov_branches=lyapunov,
        branch_on_circle=on_circle,
        lyapunov_real_branches=real_branches,
        flags=flags,
    )


def band_point(c: PeriodicCoefficients, lam: float) -> BandPoint:
    """Diagnostics at a single point (branch order as solved, not continued)."""
    lam = float(lam)
    if (err := growth_refusal(c, lam)) is not None:
        return BandPoint(lam=lam, error=str(err))
    T = trace_at(c, lam)
    return _assemble(lam, tuple(mult.solve_multipliers(T, np.conj(T))), False, T)


def scan_real_axis(
    c: PeriodicCoefficients,
    interval: tuple[float, float],
    points: int,
) -> list[BandPoint]:
    """Uniform-grid scan: one period-map evaluation per point.

    The accepted points go to the core in one call and their cubics to one
    stacked solve_multipliers call.  Branch labels are continued along the
    grid (anchored at the largest lambda by the free-case asymptotics), so
    column j of the Lyapunov data follows one branch.  The grid is
    deliberately not adaptive; refinement around sign changes of rho
    belongs to the interval finder in the discriminant module.  Propagation overflow at extreme lambda is
    recorded on the affected row and the scan continues.
    """
    grid = uniform_grid(float(interval[0]), float(interval[1]), points)
    lams = [float(lam) for lam in grid]
    refusals = [growth_refusal(c, lam) for lam in lams]
    good = [lam for lam, err in zip(lams, refusals) if err is None]
    traces = traces_at(c, good)
    taus, ties = mult.continue_branches(good, mult.solve_multipliers(traces, np.conj(traces)))
    rows = iter([_assemble(*row) for row in zip(good, taus, ties, traces)])
    return [BandPoint(lam=lam, error=str(err)) if err is not None else next(rows)
            for lam, err in zip(lams, refusals)]
