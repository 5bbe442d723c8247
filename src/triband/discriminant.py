"""Discriminant of the multiplier cubic and the triple-multiplicity set.

Two independent evaluations of the same entire function rho(lambda):

  * trace route (real lambda):  |T|^4 - 8 Re T^3 + 18 |T|^2 - 27,
  * product route:              (t1-t2)^2 (t1-t3)^2 (t2-t3)^2

over the solved multipliers.  rho is real on the real axis, negative or
zero exactly where all three multipliers are unimodular, i.e. where the
spectrum has multiplicity three.  That set is bounded; scans locate it by
sign changes of the trace route (one period-map evaluation per point) and
refine every bracket by Brent, keeping the product route for
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._rootfind import brent_steps, drive, lockstep
from .coeffs import PeriodicCoefficients
from .monodromy import trace_at, traces_at
from .util import uniform_grid

_LD = np.longdouble


def rho_trace_formula(T: complex) -> float:
    """|T|^4 - 8 Re(T^3) + 18 |T|^2 - 27, for real lambda.

    Evaluated in extended precision: the leading terms reach 1e300 well
    inside the propagation range and float64 would overflow to inf - inf.
    """
    tr = _LD(T.real)
    ti = _LD(T.imag)
    mod2 = tr * tr + ti * ti
    re_t3 = tr * (tr * tr - 3.0 * ti * ti)
    return float(mod2 * mod2 - 8.0 * re_t3 + 18.0 * mod2 - 27.0)


def rho_product_formula(taus: Sequence[complex]) -> complex:
    """(t1-t2)^2 (t1-t3)^2 (t2-t3)^2; imaginary part is a residual on the real axis."""
    t1, t2, t3 = (complex(t) for t in taus)
    return ((t1 - t2) * (t1 - t3) * (t2 - t3)) ** 2


def rho_formula_scale(T: complex) -> float:
    """Magnitude scale of the trace formula, for roundoff-aware zero tests."""
    a = _LD(abs(T))
    value = float(((a + 8.0) * a + 18.0) * a * a + 27.0)
    return value if math.isfinite(value) else 1e300


def rho_at(c: PeriodicCoefficients, lam: float) -> float:
    """One-point evaluation of the discriminant via the trace route."""
    return rho_trace_formula(trace_at(c, float(lam)))


def _ask_one(lam: float):
    """A drive probe that hands lam on to the lockstep round and takes rho back."""
    [rho] = yield [lam]
    return rho


@dataclass(frozen=True)
class Sigma3Interval:
    """One maximal interval where rho <= 0, endpoints refined to tolerance."""

    lo: float
    hi: float
    rho_lo: float
    rho_hi: float
    lo_clipped: bool = False  # True when the interval runs into the scan edge
    hi_clipped: bool = False


@dataclass(frozen=True)
class Sigma3Result:
    """Triple-multiplicity intervals plus zero-width touch points.

    A touch point is a grid location where rho vanishes to roundoff without
    changing sign; it belongs to the set {rho <= 0} but has measure zero,
    so it is reported separately from genuine intervals.  Features narrower
    than the scan step cannot be certified (documented limitation of the
    sign scan, not an error).
    """

    intervals: tuple[Sigma3Interval, ...]
    touch_points: tuple[float, ...]
    search_interval: tuple[float, float]
    scan_points: int
    interval_was_default: bool = False


def default_search_interval(c: PeriodicCoefficients) -> tuple[float, float]:
    """Heuristic scan window [-(10+10k)^3, (10+10k)^3], k the coefficient norm.

    No rigorous radius for the triple-multiplicity set is available; the
    cube matches the natural lambda ~ (scale)^3 growth and is generous for
    small coefficients.  Callers get the choice surfaced, not hidden.
    """
    r = (10.0 + 10.0 * c.kappa) ** 3
    return (-r, r)


def sigma3_intervals(
    c: PeriodicCoefficients,
    search_interval: Optional[tuple[float, float]] = None,
    scan_points: int = 2001,
    tol: float = 1e-6,
    zero_rtol: float = 1e-12,
) -> Sigma3Result:
    """Locate {lambda real : rho(lambda) <= 0} inside the search interval.

    Sign-scans rho on a uniform grid, classifies roundoff-size values as
    zeros (threshold zero_rtol times the formula's magnitude scale),
    refines every sign-change bracket by Brent down to width tol, all
    endpoints in lockstep, and assembles maximal nonpositive runs into
    intervals.  Runs of zeros with positive neighbours on both sides come
    back as zero-width touch points.
    """
    was_default = search_interval is None
    if search_interval is None:
        search_interval = default_search_interval(c)
    a, b = float(search_interval[0]), float(search_interval[1])
    if scan_points < 2:
        raise ValueError("scan_points must be at least 2")
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = uniform_grid(a, b, scan_points)

    traces = traces_at(c, grid)
    rho = np.array([rho_trace_formula(T) for T in traces])
    scale = np.array([rho_formula_scale(T) for T in traces])

    # sign with a roundoff-aware zero band: -1, 0, +1 per grid point
    signs = np.zeros(len(grid), dtype=int)
    signs[rho > zero_rtol * scale] = 1
    signs[rho < -zero_rtol * scale] = -1

    # maximal runs i..j of non-positive signs, with their negative points
    runs: list[tuple[int, int, list[int]]] = []
    touches: list[float] = []
    n = len(grid)
    i = 0
    while i < n:
        if signs[i] == 1:
            i += 1
            continue
        j = i
        while j + 1 < n and signs[j + 1] != 1:
            j += 1
        negative = [k for k in range(i, j + 1) if signs[k] == -1]
        if negative:
            runs.append((i, j, negative))
        else:
            # zeros only: rho touches 0 without crossing
            k = i + int(np.argmin(np.abs(rho[i : j + 1])))
            touches.append(float(grid[k]))
        i = j + 1

    def refine(i: int, j: int):
        """Search for (root, rho there) between grid points i < j of opposite strict signs."""
        steps = brent_steps(float(grid[i]), float(grid[j]), xtol=tol,
                            fa=float(rho[i]), fb=float(rho[j]))
        return drive(steps, _ask_one)

    def rho_of(lams: list[float]) -> list[float]:
        return [rho_trace_formula(T) for T in traces_at(c, lams)]

    # every endpoint inside the scan refines in lockstep, one core call per
    # round; ends clipped at the scan edge keep the grid point and its rho
    searches = []
    for i, j, negative in runs:
        if i > 0:
            searches.append(refine(i - 1, negative[0]))
        if j + 1 < n:
            searches.append(refine(negative[-1], j + 1))
    refined = iter(lockstep(rho_of, searches))
    intervals = []
    for i, j, _ in runs:
        lo, rho_lo = next(refined) if i > 0 else (float(grid[0]), float(rho[0]))
        hi, rho_hi = next(refined) if j + 1 < n else (float(grid[-1]), float(rho[-1]))
        intervals.append(Sigma3Interval(lo, hi, rho_lo, rho_hi, i == 0, j + 1 == n))

    return Sigma3Result(
        intervals=tuple(intervals),
        touch_points=tuple(touches),
        search_interval=(a, b),
        scan_points=scan_points,
        interval_was_default=was_default,
    )
