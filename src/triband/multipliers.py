"""Multipliers (eigenvalues of the period map) and the Lyapunov data.

The three multipliers tau_j solve the cubic

    -tau^3 + tau^2 T - tau * conj(T(conj(lambda))) + 1 = 0,

have product 1, and for real lambda the set is invariant under
tau -> 1/conj(tau).  Exactly one or all three lie on the unit circle at a
real spectral point; in the one-on-circle case the remaining pair is
(e^{ik}, e^{i conj(k)}) with nonreal k.  Each multiplier carries a Lyapunov
value Delta = (tau + 1/tau)/2 = cos(k) and a quasimomentum k with
Re k normalized to [0, 2pi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .monodromy import OMEGA, SpectralParameter

FLAG_NEAR_BRANCH_POINT = "near-branch-point"
FLAG_AMBIGUOUS_MATCH = "ambiguous-match"

_PERMUTATIONS_3 = (
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)
)


class Classification(Enum):
    ALL_ON_CIRCLE = "all-on-circle"
    ONE_ON_CIRCLE = "one-on-circle"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class MultiplierSet:
    """Multipliers at one spectral point, with branch bookkeeping.

    labels[i] is the branch tag of taus[i]; after continuation the tags
    follow the asymptotic convention (branch j tends to exp(i z w^(j-1))).
    classification is meaningful for real lambda only.
    """

    lam: complex
    taus: tuple[complex, complex, complex]
    labels: tuple[int, int, int] = (1, 2, 3)
    classification: Optional[Classification] = None
    lyapunov: Optional[tuple[complex, complex, complex]] = None
    quasimomenta: Optional[tuple[complex, complex, complex]] = None
    flags: frozenset[str] = frozenset()

    @property
    def trace(self) -> complex:
        return sum(self.taus)


def _newton_step(tau: complex, a: complex, b: complex) -> Optional[complex]:
    """Newton step at tau for tau^3 - a tau^2 + b tau - 1, or None.

    None when the slope is zero, or when the value or the slope is not
    finite: tau^3 overflows once |T| exceeds ~1e102, and such a step could
    never pass the callers' size test anyway.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value = ((tau - a) * tau + b) * tau - 1.0
        slope = (3.0 * tau - 2.0 * a) * tau + b
    if slope == 0 or not (cmath.isfinite(value) and cmath.isfinite(slope)):
        return None
    return value / slope


def _companion_roots(a: complex, b: complex) -> np.ndarray:
    """Eigenvalue roots of tau^3 - a tau^2 + b tau - 1 with Newton polish."""
    companion = np.array(
        [[0.0, 0.0, 1.0], [1.0, 0.0, -b], [0.0, 1.0, a]], dtype=complex
    )
    taus = np.linalg.eigvals(companion)
    for i, tau in enumerate(taus):
        step = _newton_step(tau, a, b)
        # a polish step larger than the root itself means the slope is
        # noise (multiple root); leave the eigenvalue alone
        if step is not None and abs(step) <= 0.5 * (1.0 + abs(tau)):
            taus[i] = tau - step
    return taus


# Above this coefficient size the companion eigensolver's absolute error
# (eps * |T|) wipes out all but the largest root; switch to the scaled path.
_LARGE_TRACE = 1e5


def solve_multipliers(T: complex, T_conj_bar: complex) -> np.ndarray:
    """Roots of -tau^3 + T tau^2 - T_conj_bar tau + 1.

    Companion-matrix eigenvalues plus one Newton step per root.  The
    companion route stays stable near triple roots where the closed-form
    cubic formulas cancel catastrophically; the polish restores the last
    couple of digits lost by the eigensolver.

    Two guarded departures from the plain recipe:

    * a cubic matching the perfect cube (tau - T/3)^3 to roundoff is
      collapsed to its exact triple root (an eigensolver splits a triple
      root into a ring of radius ~eps^(1/3) that no local polish can
      shrink, while the collapsed root is exact);
    * for |T| beyond ~1e5 the small root is recovered from the reversed
      polynomial tau^3 - conj-coefficient-swapped cubic (whose largest
      root is its reciprocal) and the middle root from the product
      identity tau1 tau2 tau3 = 1.  Eigenvalues far below the matrix norm
      carry absolute errors ~eps*|T|, so without this the small and
      unimodular multipliers lose all relative accuracy at large lambda.
    """
    T = complex(T)
    T_conj_bar = complex(T_conj_bar)
    if not (cmath.isfinite(T) and cmath.isfinite(T_conj_bar)):
        raise ValueError("polynomial coefficients must be finite")
    center = T / 3.0
    # distance to the perfect cube (tau - T/3)^3, relative to (1 + |T|)^2
    # and (1 + |T|)^3; scaled first so that no power can overflow
    s = 1.0 + abs(T)
    u = center / s
    cube_defect = max(
        abs(T_conj_bar / s / s - 3.0 * u**2),
        abs(u**3 - (1.0 / s) ** 3),
    )
    if cube_defect <= 1e-10:
        return np.array([center, center, center])

    taus = _companion_roots(T, T_conj_bar)
    if max(abs(T), abs(T_conj_bar)) <= _LARGE_TRACE:
        return taus

    tau_big = taus[int(np.argmax(np.abs(taus)))]
    # roots of the reversed cubic are the reciprocals of the original ones
    sigma = _companion_roots(T_conj_bar, T)
    tau_small = 1.0 / sigma[int(np.argmax(np.abs(sigma)))]
    tau_mid = 1.0 / (tau_big * tau_small)
    step = _newton_step(tau_mid, T, T_conj_bar)
    if step is not None and abs(step) <= 0.1 * (1.0 + abs(tau_mid)):
        tau_mid = tau_mid - step
    return np.array([tau_big, tau_mid, tau_small])


def circle_tolerance(taus: Sequence[complex], tol: Optional[float] = None) -> float:
    """Default unit-circle tolerance 1e-8 * (1 + |T|), capped.

    The |T| factor absorbs the eigensolver noise of the unimodular root,
    which scales with the companion-matrix norm.  Beyond |T| ~ 1e6 the
    scaled solve keeps all roots relatively accurate, so the factor is
    capped there; otherwise the tolerance would swallow the whole circle
    once |T| reaches exponential size.
    """
    if tol is not None:
        return tol
    return 1e-8 * (1.0 + min(abs(sum(taus)), _LARGE_TRACE))


def classify_on_circle(ms: MultiplierSet, tol: Optional[float] = None) -> Classification:
    """Count unimodular multipliers at a real spectral point.

    DEGENERATE marks a tolerance outcome of zero or two on-circle roots,
    which only happens inside the uncertainty band around a branch point;
    it is a request for refinement, never a final band classification.
    """
    if complex(ms.lam).imag != 0.0:
        raise ValueError("on-circle classification is defined for real lambda only")
    tol = circle_tolerance(ms.taus, tol)
    on_circle = sum(1 for tau in ms.taus if abs(abs(tau) - 1.0) <= tol)
    if on_circle == 3:
        return Classification.ALL_ON_CIRCLE
    if on_circle == 1:
        return Classification.ONE_ON_CIRCLE
    return Classification.DEGENERATE


def lyapunov_and_quasimomenta(ms: MultiplierSet) -> MultiplierSet:
    """Fill Delta_j = (tau_j + 1/tau_j)/2 and k_j with Re k_j in [0, 2pi).

    tau = 0 cannot occur (the product of the multipliers is 1), so the
    reciprocal is safe; Delta = cos(k) holds for every branch of the log.
    """
    lyap = []
    quasi = []
    for tau in ms.taus:
        assert tau != 0, "zero multiplier contradicts det M = 1"
        lyap.append((tau + 1.0 / tau) / 2.0)
        k = -1j * cmath.log(tau)
        if k.real < 0:
            k += 2 * math.pi
        quasi.append(k)
    return replace(ms, lyapunov=tuple(lyap), quasimomenta=tuple(quasi))


def multiplier_set(
    lam: complex,
    T: complex,
    T_conj_bar: Optional[complex] = None,
    circle_tol: Optional[float] = None,
) -> MultiplierSet:
    """Solve, attach Lyapunov data, and classify (classification: real lam)."""
    lam = complex(lam)
    if T_conj_bar is None:
        if lam.imag != 0.0:
            raise ValueError("complex lambda: supply T_conj_bar = conj(T(conj(lambda)))")
        T_conj_bar = np.conj(T)
    taus = tuple(solve_multipliers(T, T_conj_bar))
    ms = MultiplierSet(lam=lam, taus=taus)
    ms = lyapunov_and_quasimomenta(ms)
    if lam.imag == 0.0:
        ms = replace(ms, classification=classify_on_circle(ms, circle_tol))
    return ms


def free_multipliers(param: SpectralParameter) -> tuple[complex, complex, complex]:
    """Zero-coefficient multipliers exp(i z w^(j-1)), j = 1, 2, 3."""
    return tuple(cmath.exp(1j * OMEGA**j * param.z) for j in range(3))


def _match_permutation(
    current: Sequence[complex], reference: Sequence[complex]
) -> tuple[tuple[int, int, int], float, float]:
    """Permutation of current minimizing scaled distance to reference."""
    best, second = None, math.inf
    best_perm = _PERMUTATIONS_3[0]
    best_cost = math.inf
    for perm in _PERMUTATIONS_3:
        cost = sum(
            abs(current[perm[j]] - reference[j]) / (1.0 + abs(reference[j]))
            for j in range(3)
        )
        if cost < best_cost:
            second = best_cost
            best_cost = cost
            best_perm = perm
        elif cost < second:
            second = cost
    return best_perm, best_cost, second


def _apply_permutation(ms: MultiplierSet, perm: tuple[int, int, int]) -> MultiplierSet:
    pick = lambda tup: tuple(tup[perm[j]] for j in range(3)) if tup else tup
    return replace(
        ms,
        taus=pick(ms.taus),
        labels=(1, 2, 3),
        lyapunov=pick(ms.lyapunov) if ms.lyapunov else None,
        quasimomenta=pick(ms.quasimomenta) if ms.quasimomenta else None,
    )


def continue_branches(
    lams: Sequence[float],
    sets: Sequence[MultiplierSet],
    branch_point_rtol: float = 1e-9,
    tie_rtol: float = 1e-3,
) -> list[MultiplierSet]:
    """Assign consistent branch labels along a real-lambda grid.

    Labels are anchored at the largest grid point by proximity to the
    zero-coefficient multipliers exp(i z w^(j-1)) and swept downward by
    nearest matching between consecutive points.  Points whose discriminant
    (product of squared multiplier differences) is within
    branch_point_rtol * (1 + |T|)^4 of zero are flagged near-branch-point:
    label continuity through such a point is not asserted.  A matching
    whose best and runner-up permutations are within tie_rtol of each
    other is flagged ambiguous, not rejected.

    The result is returned in the input order; the matching itself works on
    the sorted grid, so a reversed grid yields identical labels.
    """
    if len(lams) != len(sets):
        raise ValueError("grid and multiplier sets must have equal length")
    if not sets:
        return []
    order = np.argsort(lams)
    sorted_sets = [sets[i] for i in order]

    out: list[MultiplierSet] = [None] * len(sets)  # type: ignore[list-item]
    anchor_param = SpectralParameter.from_lambda(float(lams[order[-1]]))
    reference: Sequence[complex] = free_multipliers(anchor_param)
    for pos in range(len(sorted_sets) - 1, -1, -1):
        ms = sorted_sets[pos]
        perm, best, second = _match_permutation(ms.taus, reference)
        relabeled = _apply_permutation(ms, perm)
        flags = set(relabeled.flags)
        if second < math.inf and (second - best) <= tie_rtol * (1.0 + best):
            flags.add(FLAG_AMBIGUOUS_MATCH)
        # rho / (1 + |T|)^4, scaled before squaring: rho itself grows like
        # |T|^4 and overflows long before the propagation guard
        t1, t2, t3 = relabeled.taus
        s = 1.0 + abs(relabeled.trace)
        rho_scaled = ((t1 - t2) / s * (t1 - t3) / s * (t2 - t3)) ** 2
        if abs(rho_scaled) <= branch_point_rtol:
            flags.add(FLAG_NEAR_BRANCH_POINT)
        relabeled = replace(relabeled, flags=frozenset(flags))
        out[order[pos]] = relabeled
        reference = relabeled.taus
    return out
