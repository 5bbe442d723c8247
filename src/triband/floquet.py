"""Eigenvalue curves lambda_n(k) of the quasi-periodic boundary problem.

A real lambda belongs to the fiber spectrum at quasimomentum k exactly when
e^{ik} is a multiplier, i.e. when det(M(1, lambda) - e^{ik}) vanishes.
On the real axis that determinant collapses to a real scalar:

    det(M - e^{ik}) = 2i e^{3ik/2} F(k, lambda),
    F(k, lambda)    = Im(e^{ik/2} T(lambda)) - sin(3k/2),

so the curves are plain real root-finding problems.  (The factorization is
an algebraic identity of the characteristic cubic with conjugate-symmetric
coefficients; test_floquet verifies it against the determinant directly.)

Roots are tracked in the real cube-root variable s = cbrt(lambda), near
the seeds s = xi = 2 pi n + k: the zero-coefficient curves are exactly
lambda = xi^3.  The symbol gives lambda ~ xi^3 - 2<p>xi + <q> with the
cell means <p>, <q>, exact for constant coefficients; every search
starts at the cube root of that corrected seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Generator

import numpy as np

from ._rootfind import brent_steps, lockstep
from .coeffs import PeriodicCoefficients
from .monodromy import traces_at


def char_real_function(k: float, T: complex) -> float:
    """F(k, lambda) = Im(e^{ik/2} T(lambda)) - sin(3k/2), for real lambda."""
    k = float(k)
    e = complex(math.cos(k / 2.0), math.sin(k / 2.0))
    return (e * T).imag - math.sin(1.5 * k)


@dataclass(frozen=True)
class FloquetEigenvalue:
    """One root lambda_n(k), indexed ascending with multiplicity.

    residual is |F(k, lambda_n)| / (1 + |T(lambda_n)|): the raw |F| scales
    like exp(z0) and is meaningless as an absolute number at large n.
    cube_root_gap = cbrt(lambda_n) - (2 pi n + k) is the deviation from the
    bare (zero-coefficient) seed and decays like O(1/n).
    """

    n: int
    k: float
    lambda_n: float
    residual: float
    cube_root_gap: float
    multiplicity: int = 1


@dataclass(frozen=True)
class MissedRoot:
    """Diagnostics for a seed whose bracket never produced a sign change."""

    n: int
    k: float
    seed_lambda: float
    min_abs_f: float
    at_lambda: float
    note: str


@dataclass(frozen=True)
class FloquetSolveResult:
    eigenvalues: tuple[FloquetEigenvalue, ...]
    missed: tuple[MissedRoot, ...]

    def lambdas(self) -> np.ndarray:
        return np.array([e.lambda_n for e in self.eigenvalues])


_GROW = 1.45
_FINE_SCAN = 48
# half-width in s of the tight pair; wider or seed-dependent widths end
# Brent elsewhere in its xtol window, past the golden eigs tolerances
_TIGHT = 1e-2
_TOL = 1e-10  # relative lambda accuracy of the Brent stage, unless a caller asks otherwise

# a search stage yields lists of probe points s = cbrt(lambda) and is sent
# their (F, T) values; every point it has values for sits in its cache
_Stage = Generator[list[float], list[tuple[float, complex]], object]


def _probe(cache: dict[float, tuple[float, complex]], points: list[float]):
    """F at the points, asking only for the ones not yet in the cache."""
    missing = [s for s in points if s not in cache]
    if missing:
        cache.update(zip(missing, (yield missing)))
    return [cache[s][0] for s in points]


def _bracket(k: float, n: int, p_mean: float, q_mean: float, cache: dict) -> _Stage:
    """Sign-change bracket (a, b) of F near the seed s = 2 pi n + k, or a MissedRoot.

    It asks for its points in lists: the tight pair s0 -+ _TIGHT around the
    corrected seed alone (unless the pair reaches past the bracket ends
    [lo, hi]), then, without a sign change on the pair, [lo, hi], each
    9-point subdivision and the fine scan.  Both ends of the bracket are
    in cache.
    """
    seed = 2.0 * math.pi * n + k
    # bracket stays inside the midpoints to the neighbouring seeds so a
    # root cannot be captured from the wrong index
    w_max = math.pi * (1.0 - 1e-9)
    w = 0.35 * math.pi
    s0 = float(np.cbrt(seed**3 - 2.0 * p_mean * seed + q_mean))
    if abs(s0 - seed) + _TIGHT < w:
        f_a, f_b = yield from _probe(cache, [s0 - _TIGHT, s0 + _TIGHT])
        if (f_a > 0) != (f_b > 0):
            return s0 - _TIGHT, s0 + _TIGHT
    while True:
        lo, hi = seed - w, seed + w
        f_lo, f_hi = yield from _probe(cache, [lo, hi])
        if (f_lo > 0) != (f_hi > 0):
            return lo, hi
        # same sign at the edges: an interior pair of roots would still
        # show up on a subdivision
        pts = np.linspace(lo, hi, 9)
        vals = yield from _probe(cache, [float(s) for s in pts])
        for a, b, fa, fb in zip(pts, pts[1:], vals, vals[1:]):
            if (fa > 0) != (fb > 0):
                return float(a), float(b)
        if w >= w_max:
            break
        w = min(w * _GROW, w_max)

    # last resort: fine scan, mostly to diagnose an even-order touch
    pts = np.linspace(seed - w_max, seed + w_max, _FINE_SCAN + 1)
    vals = yield from _probe(cache, [float(s) for s in pts])
    for a, b, fa, fb in zip(pts, pts[1:], vals, vals[1:]):
        if (fa > 0) != (fb > 0):
            return float(a), float(b)
    i_min = int(np.argmin(np.abs(vals)))
    return MissedRoot(n=n, k=k, seed_lambda=seed**3, min_abs_f=float(abs(vals[i_min])),
                      at_lambda=float(pts[i_min]) ** 3, note="no sign change in the allowed "
                      "bracket (possible even-multiplicity touch)")


def _refine(k: float, n: int, tol: float, bracket: tuple[float, float], cache: dict) -> _Stage:
    """Brent's root in a bracket from _bracket, one step at a time, as a FloquetEigenvalue."""
    seed = 2.0 * math.pi * n + k
    xtol_s = max(tol * max(1.0, abs(seed)) / 3.0, 6e-16 * max(1.0, abs(seed)))
    steps = brent_steps(bracket[0], bracket[1], xtol=xtol_s,
                        fa=cache[bracket[0]][0], fb=cache[bracket[1]][0])
    # Brent's points go through _probe, which keeps the trace beside each F
    try:
        points = next(steps)
        while True:
            points = steps.send((yield from _probe(cache, points)))
    except StopIteration as done:
        s_root, _ = done.value
    # Brent returns a point it has evaluated, so its trace is cached
    f_val, trace = cache[s_root]
    return FloquetEigenvalue(n=n, k=k, lambda_n=s_root**3, residual=abs(f_val) / (1.0 + abs(trace)),
                             cube_root_gap=s_root - seed)


def _solve_one(k: float, n: int, tol: float, p_mean: float, q_mean: float) -> _Stage:
    """_bracket, then _refine, on one cache: (root, None) or (None, MissedRoot)."""
    cache: dict[float, tuple[float, complex]] = {}
    bracket = yield from _bracket(k, n, p_mean, q_mean, cache)
    if isinstance(bracket, MissedRoot):
        return None, bracket
    return (yield from _refine(k, n, tol, bracket, cache)), None


def _f_in_s(c: PeriodicCoefficients, k: float):
    """F(k, .) with the trace alongside, at a list of points s = cbrt(lambda).

    The points go to the period-map core in one call.
    """

    def g(points: list[float]) -> list[tuple[float, complex]]:
        traces = traces_at(c, [s**3 for s in points])
        return [(char_real_function(k, T), T) for T in traces]

    return g


def eigenvalues_at_k(
    c: PeriodicCoefficients,
    k: float,
    n_range: tuple[int, int],
    tol: float = _TOL,
) -> FloquetSolveResult:
    """Roots of F(k, .) near every seed (2 pi n + k)^3 for n in n_range.

    A tight bracket around the corrected seed (module docstring) comes
    first, alone, 2 points per seed; without a sign change there, brackets
    grow adaptively around the seed, capped at the midpoints to the
    neighbouring seeds.  Each sign change is refined by Brent to a
    relative lambda accuracy of about tol.
    Two roots that land within 10 * tol of each other (relative) are a
    degenerate eigenvalue and are both reported with multiplicity 2.  Seeds
    without any sign change are returned as missed-root diagnostics, which
    is the expected signature of an even-order touch of F at a double
    eigenvalue.  The seeds advance in lockstep: each round's probe points
    go to the period-map core in one call.
    """
    k = float(k)
    if not 0.0 <= k < 2.0 * math.pi:
        raise ValueError("quasimomentum k must lie in [0, 2*pi)")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo > n_hi:
        raise ValueError("empty index range")

    means = float(np.mean(c.p_samples)), float(np.mean(c.q_samples))
    searches = [_solve_one(k, n, tol, *means) for n in range(n_lo, n_hi + 1)]
    outcomes = lockstep(_f_in_s(c, k), searches)
    found = [e for e, _ in outcomes if e is not None]
    missed = tuple(miss for _, miss in outcomes if miss is not None)

    found.sort(key=lambda e: e.lambda_n)
    merged: list[FloquetEigenvalue] = []
    i = 0
    while i < len(found):
        j = i
        while (
            j + 1 < len(found)
            and abs(found[j + 1].lambda_n - found[i].lambda_n)
            <= 10.0 * tol * max(1.0, abs(found[i].lambda_n))
        ):
            j += 1
        group = found[i : j + 1]
        if len(group) > 1:
            group = [replace(e, multiplicity=len(group)) for e in group]
        merged.extend(group)
        i = j + 1
    return FloquetSolveResult(eigenvalues=tuple(merged), missed=missed)


@dataclass(frozen=True)
class DiskCountResult:
    """Root count of F(k, .) in |lambda| < radius, with multiplicity.

    expected is the theoretical count for the disk radius tied to N:
    2N+1 on (pi(2N+1))^3 for k in [0, pi/2) or (3pi/2, 2pi), 2N on
    (2 pi N)^3 for k in [pi/2, 3pi/2].  The theory guarantees the count
    only above an unquantified index threshold, so N is caller input;
    missed holds the seeds whose search found no sign change, and
    reliable goes False whenever there are any.
    """

    count: int
    expected: int
    radius: float
    reliable: bool
    missed: tuple[MissedRoot, ...]


def count_in_disk(c: PeriodicCoefficients, k: float, N: int) -> DiskCountResult:
    """The roots of eigenvalues_at_k with |cbrt(lambda)| below the disk radius.

    The count is decided by brackets: each seed's search of
    eigenvalues_at_k stops at its sign-change bracket, which counts 1 if
    both ends lie inside the radius and 0 if both lie outside (a bracket is
    narrower than the disk).  Brent runs only on a bracket that crosses the
    radius, with the arithmetic of eigenvalues_at_k; its root lies in the
    bracket, so every count is the one of the refined roots.  A bracket
    stays within pi of its seed, so the search takes every seed within pi
    of the disk, and reliable covers the seeds whose brackets can reach it.
    """
    k = float(k)
    if N < 1:
        raise ValueError("N must be at least 1")
    if not 0.0 <= k < 2.0 * math.pi:
        raise ValueError("quasimomentum k must lie in [0, 2*pi)")
    if k < math.pi / 2 or k > 3 * math.pi / 2:
        s_radius = math.pi * (2 * N + 1)
        expected = 2 * N + 1
    else:
        s_radius = 2.0 * math.pi * N
        expected = 2 * N
    # from the last seed at or below -s_radius to the first at or above it
    n_lo = math.floor((-s_radius - k) / (2 * math.pi))
    n_hi = math.ceil((s_radius - k) / (2 * math.pi))
    seeds = [(n, {}) for n in range(n_lo, n_hi + 1)]  # index and probe cache
    means = float(np.mean(c.p_samples)), float(np.mean(c.q_samples))
    brackets = lockstep(_f_in_s(c, k), [_bracket(k, n, *means, cache) for n, cache in seeds])
    missed = tuple(b for b in brackets if isinstance(b, MissedRoot))
    count, crossing = 0, []
    for (n, cache), bracket in zip(seeds, brackets):
        if isinstance(bracket, MissedRoot):
            continue
        a_in, b_in = (bool(abs(np.cbrt(s**3)) < s_radius) for s in bracket)
        if a_in == b_in:
            count += a_in
        else:
            crossing.append(_refine(k, n, _TOL, bracket, cache))
    roots = lockstep(_f_in_s(c, k), crossing)
    count += sum(1 for e in roots if abs(np.cbrt(e.lambda_n)) < s_radius)
    return DiskCountResult(count=count, expected=expected, radius=s_radius**3,
                           reliable=not missed, missed=missed)
