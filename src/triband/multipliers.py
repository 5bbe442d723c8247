"""Multipliers: the eigenvalues of the period map, solved and labelled by branch.

The three multipliers tau_j solve the cubic

    -tau^3 + tau^2 T - tau * conj(T(conj(lambda))) + 1 = 0,

have product 1, and for real lambda the set is invariant under
tau -> 1/conj(tau).  Exactly one or all three lie on the unit circle at a
real spectral point; in the one-on-circle case the remaining pair is
(e^{ik}, e^{i conj(k)}) with nonreal k.  This module solves the cubics, says
which roots are on the circle (on_circle) and labels the roots of a real grid
by branch (continue_branches).  bands alone computes the Lyapunov values
Delta = (tau + 1/tau)/2 = cos(k) and the on-circle count, and names every flag.
"""

from __future__ import annotations

import cmath
from typing import Optional, Sequence

import numpy as np

from .monodromy import OMEGA, SpectralParameter

# best and runner-up matching costs this close (relative) make a point a tie
_TIE_RTOL = 1e-3

_PERMUTATIONS_3 = (
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)
)


def _newton_step(tau: complex, a: complex, b: complex) -> Optional[complex]:
    """Newton step at tau for tau^3 - a tau^2 + b tau - 1, or None.

    None when the slope is zero, or when the value or the slope is not finite
    (solve_multipliers ignores overflow): tau^3 overflows once |T| exceeds
    ~1e102, and such a step could never pass the callers' size test anyway.
    """
    value = ((tau - a) * tau + b) * tau - 1.0
    slope = (3.0 * tau - 2.0 * a) * tau + b
    if slope == 0 or not (cmath.isfinite(value) and cmath.isfinite(slope)):
        return None
    return value / slope


# Above this coefficient size the companion eigensolver's absolute error
# (eps * |T|) wipes out all but the largest root; switch to the scaled path.
_LARGE_TRACE = 1e5


@np.errstate(over="ignore", invalid="ignore")
def solve_multipliers(T, T_conj_bar) -> np.ndarray:
    """Roots (..., 3) of -tau^3 + T tau^2 - T_conj_bar tau + 1 for T, T_conj_bar of shape (...).

    Companion-matrix eigenvalues plus one Newton step per root; a stack takes one eigensolve,
    and each row is the one-cubic result bit for bit (the polish stays scalar).  The
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
    T, T_conj_bar = np.asarray(T, dtype=complex), np.asarray(T_conj_bar, dtype=complex)
    cubics = list(zip(T.ravel().tolist(), T_conj_bar.ravel().tolist(), strict=True))
    if not all(cmath.isfinite(a) and cmath.isfinite(b) for a, b in cubics):
        raise ValueError("polynomial coefficients must be finite")
    large = [i for i, (a, b) in enumerate(cubics) if max(abs(a), abs(b)) > _LARGE_TRACE]
    # the reversed cubics of the large rows, with reciprocal roots, join the eigensolve
    stack = cubics + [cubics[i][::-1] for i in large]
    companion = np.array([(0, 0, 1, 1, 0, -b, 0, 1, a) for a, b in stack], dtype=complex)
    roots = np.linalg.eigvals(companion.reshape(-1, 3, 3))
    for row, (a, b) in zip(roots, stack):
        for j, tau in enumerate(row):
            step = _newton_step(tau, a, b)
            # a polish step larger than the root itself means the slope is
            # noise (multiple root); leave the eigenvalue alone
            if step is not None and abs(step) <= 0.5 * (1.0 + abs(tau)):
                row[j] = tau - step
    taus = roots[: len(cubics)]
    for i, sigma in zip(large, roots[len(cubics) :]):
        tau_big = taus[i, int(np.argmax(np.abs(taus[i])))]
        tau_small = 1.0 / sigma[int(np.argmax(np.abs(sigma)))]
        tau_mid = 1.0 / (tau_big * tau_small)
        step = _newton_step(tau_mid, *cubics[i])
        if step is not None and abs(step) <= 0.1 * (1.0 + abs(tau_mid)):
            tau_mid = tau_mid - step
        taus[i] = tau_big, tau_mid, tau_small
    for i, (a, b) in enumerate(cubics):
        # distance to the perfect cube (tau - a/3)^3, relative to (1 + |a|)^2
        # and (1 + |a|)^3; scaled first so that no power can overflow
        s = 1.0 + abs(a)
        u = a / 3.0 / s
        if max(abs(b / s / s - 3.0 * u**2), abs(u**3 - (1.0 / s) ** 3)) <= 1e-10:
            taus[i] = a / 3.0
    return taus.reshape(T.shape + (3,))


def on_circle(taus: Sequence[complex]) -> tuple[bool, ...]:
    """Per multiplier: whether it lies on the unit circle to 1e-8 (1 + |T|), capped.

    The |T| factor absorbs the eigensolver noise of the unimodular root,
    which scales with the companion-matrix norm.  Beyond |T| ~ 1e5 the
    scaled solve keeps all roots relatively accurate, so the factor is
    capped there; otherwise the tolerance would swallow the whole circle
    once |T| reaches exponential size.
    """
    tol = 1e-8 * (1.0 + min(abs(sum(taus)), _LARGE_TRACE))
    return tuple(bool(abs(abs(tau) - 1.0) <= tol) for tau in taus)


def free_multipliers(param: SpectralParameter) -> tuple[complex, complex, complex]:
    """Zero-coefficient multipliers exp(i z w^(j-1)), j = 1, 2, 3."""
    return tuple(cmath.exp(1j * OMEGA**j * param.z) for j in range(3))


def continue_branches(lams: Sequence[float], roots: np.ndarray) -> tuple[list[tuple], list[bool]]:
    """Branch-labelled rows and ties along a real-lambda grid for roots (L, 3) of solve_multipliers.

    rows[i] is row i of roots permuted so that rows[i][j - 1] is branch j of
    the asymptotic convention (branch j tends to exp(i z w^(j-1))), a tuple
    of the stack's own numpy scalars.  Labels are anchored at the largest
    grid point by proximity to the zero-coefficient multipliers and swept
    downward by nearest matching between consecutive points: the
    permutation of the row with the least scaled distance to the previous
    labels, the first of equal ones.  ties[i] says whether the best and
    runner-up permutations at point i were within 1e-3 relative of each
    other; such a point is labelled all the same, and bands flags it.

    Both lists are in the input order; the matching itself works on the
    sorted grid, so a reversed grid yields identical labels.
    """
    if len(lams) != len(roots):
        raise ValueError("grid and root stack must have equal length")
    order = np.argsort(lams)
    rows: list = [None] * len(lams)
    ties = [False] * len(lams)
    if not rows:
        return rows, ties
    reference: Sequence[complex] = free_multipliers(
        SpectralParameter.from_lambda(float(lams[order[-1]])))
    for i in order[::-1]:
        row = roots[i]
        weights = [1.0 + abs(ref) for ref in reference]
        (best, p), (second, _) = sorted(
            (sum(abs(row[perm[j]] - reference[j]) / weights[j] for j in range(3)), p)
            for p, perm in enumerate(_PERMUTATIONS_3))[:2]
        rows[i] = reference = tuple(row[j] for j in _PERMUTATIONS_3[p])
        ties[i] = bool(second - best <= _TIE_RTOL * (1.0 + best))
    return rows, ties
