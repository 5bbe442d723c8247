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
import operator
from dataclasses import dataclass, replace
from typing import Callable, Generator

import numpy as np

from ._rootfind import brent_steps, lockstep
from .coeffs import PeriodicCoefficients
from .monodromy import MAX_GROWTH_EXPONENT, _check_growth, traces_at


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
    seed_lambda: float
    min_abs_f: float
    at_lambda: float
    note: str


@dataclass(frozen=True)
class FloquetSolveResult:
    eigenvalues: tuple[FloquetEigenvalue, ...]
    missed: tuple[MissedRoot, ...]


_FINE_SCAN = 48
# half-widths in s of the tight pair and of the inner pair inside it, both
# around the corrected seed; the inner pair holds the root for about 70% of
# the seeds on step sets (median distance 6e-8), where a wider one (1e-5)
# moves the median root error 100-fold and a narrower one holds fewer roots
_TIGHT = 1e-2
_INNER = 1e-6
_TOL = 1e-10  # relative lambda accuracy of the Brent stage, unless a caller asks otherwise
# Brent's early-ask window in _refine, in units of its tol: the first step
# from an inner-pair bracket is at most _INNER (half its width), and at the
# default tol Brent's tol is at least 0.5 xtol_s >= _TOL / 6, so the window
# takes in that step: 6e4 against brent_steps' 1e3
_INNER_ASK_WITHIN = _INNER / (_TOL / 6.0)

# a search stage yields lists of points s = cbrt(lambda) and is sent their F
# values; the traces behind them sit in the trace record of _seed_searches
_Stage = Generator[list[float], list[float], object]


def _scans(seed: float, s0: float, inner: bool):
    """The three point lists of one bracket search around seed, in order.

    The opening at the corrected seed s0, however far from seed: the tight
    pair s0 -+ _TIGHT, with the inner pair s0 -+ _INNER when inner, as one
    sorted list; the 9-point rung of seed -+ 0.35 pi; the fine scan of seed
    -+ pi, the last resort, mostly to diagnose an even-order touch.
    """
    yield ([s0 - _TIGHT, s0 - _INNER, s0 + _INNER, s0 + _TIGHT] if inner
           else [s0 - _TIGHT, s0 + _TIGHT])
    yield np.linspace(seed - 0.35 * math.pi, seed + 0.35 * math.pi, 9).tolist()
    # the rung and the fine scan stay inside the midpoints to the
    # neighbouring seeds, so they capture no root from the wrong index
    w = math.pi * (1.0 - 1e-9)
    yield np.linspace(seed - w, seed + w, _FINE_SCAN + 1).tolist()


def _bracket(k: float, n: int, p_mean: float, q_mean: float, inner: bool) -> _Stage:
    """Sign-change bracket (a, b, f(a), f(b)) of F near the seed s = 2 pi n + k, or a MissedRoot.

    It yields the lists of _scans in turn, up to the first with a sign
    change, and returns that list's first adjacent pair of opposite signs:
    with the inner pair, a root within _INNER of the corrected seed gets a
    bracket 2 _INNER wide, any other root within _TIGHT one no wider than
    _TIGHT, and a root the opening misses a step of the rung or fine scan.
    """
    seed = 2.0 * math.pi * n + k
    s0 = float(np.cbrt(seed**3 - 2.0 * p_mean * seed + q_mean))
    for pts in _scans(seed, s0, inner):
        vals = yield pts
        for a, b, fa, fb in zip(pts, pts[1:], vals, vals[1:]):
            if (fa > 0) != (fb > 0):
                return a, b, fa, fb
    i_min = int(np.argmin(np.abs(vals)))
    return MissedRoot(n=n, seed_lambda=seed**3, min_abs_f=float(abs(vals[i_min])),
                      at_lambda=pts[i_min] ** 3, note="no sign change in the allowed "
                      "bracket (possible even-multiplicity touch)")


def _refine(k: float, n: int, tol: float, bracket: tuple, traces: dict) -> _Stage:
    """Brent's root in a bracket (a, b, f(a), f(b)) from _bracket, as a FloquetEigenvalue.

    Brent asks early for its confirming points after steps up to
    _INNER_ASK_WITHIN times its tol, and returns a point it was sent F at,
    whose trace the record holds.
    """
    seed = 2.0 * math.pi * n + k
    xtol_s = max(tol * max(1.0, abs(seed)) / 3.0, 6e-16 * max(1.0, abs(seed)))
    a, b, fa, fb = bracket
    s_root, f_val = yield from brent_steps(a, b, xtol=xtol_s, fa=fa, fb=fb,
                                           ask_within=_INNER_ASK_WITHIN)
    return FloquetEigenvalue(n=n, k=k, lambda_n=s_root**3, cube_root_gap=s_root - seed,
                             residual=abs(f_val) / (1.0 + abs(traces[s_root])))


def _f_in_s(c: PeriodicCoefficients, k: float, traces: dict[float, complex]):
    """F(k, .) at a list of points s = cbrt(lambda), from one period-map core call.

    The evaluator of _seed_searches: lockstep sends each point once, so every
    point sent is mapped and its trace recorded in traces, where _refine
    reads the residual of its root.  F is char_real_function's arithmetic,
    with e^{ik/2} and sin(3k/2) taken once per call of the driver.
    """
    e, sin_k = complex(math.cos(k / 2.0), math.sin(k / 2.0)), math.sin(1.5 * k)

    def g(points: list[float]) -> list[float]:
        found = traces_at(c, [s**3 for s in points])
        traces.update(zip(points, found))
        return [(e * T).imag - sin_k for T in found]

    return g


def _seed_searches(c: PeriodicCoefficients, k: float, seeds: range, inner: bool,
                   finish: Callable[[int, tuple, dict], _Stage]) -> list:
    """Per seed n, in order: the MissedRoot of _bracket, or finish(n, bracket, traces)'s outcome.

    Every search opens at its corrected seed in the first round, which the
    growth guard refuses whole, so the guard is asked first about the
    openings of the two end seeds before any search is built: their ends
    alone, since the guard grows with |lambda| and an inner pair (when
    inner) lies between them.  (A strong <p> can put a middle seed's opening
    further out; the core then refuses the first round with the same
    error.)  The searches then advance in one lockstep on one trace record,
    traces: each round's points not yet mapped go to the core together.
    """
    means = float(np.mean(c.p_samples)), float(np.mean(c.q_samples))
    _check_growth(c, [s**3 for n in (seeds[0], seeds[-1])
                      for s in next(_bracket(k, n, *means, False))])
    traces: dict[float, complex] = {}

    def search(n: int) -> _Stage:
        bracket = yield from _bracket(k, n, *means, inner)
        if isinstance(bracket, MissedRoot):
            return bracket
        return (yield from finish(n, bracket, traces))

    return lockstep(_f_in_s(c, k, traces), [search(n) for n in seeds])


def eigenvalues_at_k(
    c: PeriodicCoefficients,
    k: float,
    n_range: tuple[int, int],
    tol: float = _TOL,
) -> FloquetSolveResult:
    """Roots of F(k, .) near every seed (2 pi n + k)^3 for n in n_range.

    Every seed opens with a tight pair around its corrected seed (module
    docstring) and the inner pair within it, 4 points per seed, and then
    asks the 9-point rung and the fine scan of _scans up to a sign change,
    which Brent refines to a relative lambda accuracy of about tol; a root
    within _INNER of the corrected seed gets a bracket 2 _INNER wide, from
    which Brent's widened early ask (_INNER_ASK_WITHIN) serves the
    confirming step.  Two roots that land within 10 * tol of each other
    (relative) are a degenerate eigenvalue and are both reported with
    multiplicity 2.  Seeds without any sign change are returned as
    missed-root diagnostics, which is the expected signature of an
    even-order touch of F at a double eigenvalue.  The searches run in
    _seed_searches, whose growth guard refuses a range before any search is
    built.  n_range holds integers.
    """
    k = float(k)
    if not 0.0 <= k < 2.0 * math.pi:
        raise ValueError("quasimomentum k must lie in [0, 2*pi)")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    seeds = range(n_range[0], n_range[1] + 1)  # refuses a float rather than truncate it
    if not seeds:
        raise ValueError("empty index range")

    outcomes = _seed_searches(c, k, seeds, True,
                              lambda n, b, traces: _refine(k, n, tol, b, traces))
    found = [o for o in outcomes if isinstance(o, FloquetEigenvalue)]
    missed = tuple(o for o in outcomes if isinstance(o, MissedRoot))

    groups: list[list[FloquetEigenvalue]] = []  # roots within 10 tol of the group's first
    for e in sorted(found, key=lambda e: e.lambda_n):
        first = groups[-1][0].lambda_n if groups else None
        if first is not None and abs(e.lambda_n - first) <= 10.0 * tol * max(1.0, abs(first)):
            groups[-1].append(e)
        else:
            groups.append([e])
    merged = [replace(e, multiplicity=len(group)) for group in groups for e in group]
    return FloquetSolveResult(eigenvalues=tuple(merged), missed=missed)


@dataclass(frozen=True)
class DiskCountResult:
    """Root count of F(k, .) in |lambda| < radius, with multiplicity.

    expected is the theoretical count for the disk radius tied to N:
    2N+1 on (pi(2N+1))^3 for k in [0, pi/2) or (3pi/2, 2pi), 2N on
    (2 pi N)^3 for k in [pi/2, 3pi/2].  The theory guarantees the count
    only above an unquantified index threshold, so N is caller input;
    missed holds the seeds whose search found no sign change, and the
    count is reliable only when it is empty.
    """

    count: int
    expected: int
    radius: float
    missed: tuple[MissedRoot, ...]


def count_in_disk(c: PeriodicCoefficients, k: float, N: int) -> DiskCountResult:
    """The roots of eigenvalues_at_k with |cbrt(lambda)| below the disk radius.

    The count is decided by brackets: each seed's search of
    eigenvalues_at_k, opened with the tight pair alone (an inner pair
    would only add points), stops at its sign-change bracket, which counts 1 if
    both ends lie inside the radius and 0 if both lie outside (a bracket is
    narrower than the disk).  Brent runs only on a bracket that crosses the
    radius, with the arithmetic of eigenvalues_at_k; its root lies in the
    bracket, so every count is the one of the refined roots.  The searches
    run in _seed_searches, as in eigenvalues_at_k, whose growth guard
    refuses a disk before any search is built.  The seed range takes every
    seed whose brackets can reach the disk (comment there), so missed
    covers them all.  N is an integer.
    """
    k = float(k)
    N = operator.index(N)
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
    # per side from the first seed at or past the radius, beyond which no
    # rung or fine scan reaches in, out past every seed whose opening can lie
    # inside (a strong <p> pulls s0 in; past the turn of xi^3 - 2<p>xi + <q>
    # s0 moves out).  A mean past the guard is refused; the clip bounds this.
    p_mean, q_mean = np.clip([np.mean(c.p_samples), np.mean(c.q_samples)],
                             -MAX_GROWTH_EXPONENT, MAX_GROWTH_EXPONENT).tolist()
    turn, edge = math.sqrt(max(0.0, 2.0 * p_mean / 3.0)), (s_radius + _TIGHT) ** 3
    ends = []
    for side in (-1, 1):
        n = side * math.ceil((s_radius - side * k) / (2 * math.pi))
        while (side * (xi := 2.0 * math.pi * n + k) < turn
               or side * (xi**3 - 2.0 * p_mean * xi + q_mean) < edge):
            n += side
        ends.append(n)

    def count_one(n: int, bracket: tuple, traces: dict) -> _Stage:
        """1 or 0 for the root in seed n's bracket; Brent only if it crosses the radius."""
        a_in, b_in = (bool(abs(np.cbrt(s**3)) < s_radius) for s in bracket[:2])
        if a_in == b_in:
            return int(a_in)
        root = yield from _refine(k, n, _TOL, bracket, traces)
        return int(abs(np.cbrt(root.lambda_n)) < s_radius)

    outcomes = _seed_searches(c, k, range(ends[0], ends[1] + 1), False, count_one)
    missed = tuple(o for o in outcomes if isinstance(o, MissedRoot))
    count = sum(o for o in outcomes if not isinstance(o, MissedRoot))
    return DiskCountResult(count=count, expected=expected, radius=s_radius**3, missed=missed)
