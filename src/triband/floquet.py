"""Eigenvalue curves lambda_n(k) of the quasi-periodic boundary problem.

A real lambda belongs to the fiber spectrum at quasimomentum k exactly when
e^{ik} is a multiplier, i.e. when det(M(1, lambda) - e^{ik}) vanishes.
On the real axis that determinant collapses to a real scalar:

    det(M - e^{ik}) = 2i e^{3ik/2} F(k, lambda),
    F(k, lambda)    = Im(e^{ik/2} T(lambda)) - sin(3k/2),

so the curves are plain real root-finding problems.  (The factorization is
an algebraic identity of the characteristic cubic with conjugate-symmetric
coefficients; test_floquet verifies it against the determinant directly.)

Roots are tracked in the real cube-root variable s = cbrt(lambda), where
they sit near the uniformly spaced seeds s = 2 pi n + k; the zero-
coefficient curves are exactly lambda = (2 pi n + k)^3 and the general
ones approach them like O(1/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Generator, Optional

import numpy as np

from ._rootfind import brent_steps, drive
from .coeffs import PeriodicCoefficients
from .monodromy import traces_at
from .util import real_cbrt


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
    zero-coefficient seed and decays like O(1/n).
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

# one seed's search: yields lists of probe points s = cbrt(lambda), is sent
# their (F, T) values, returns (root, None) or (None, missed-root record)
_Search = Generator[
    list[float],
    list[tuple[float, complex]],
    tuple[Optional[FloquetEigenvalue], Optional[MissedRoot]],
]


def _solve_one(k: float, n: int, tol: float) -> _Search:
    """Root search near the seed s = 2 pi n + k in the cube-root variable.

    It asks for its points in lists: the bracket ends [lo, hi], then each
    9-point subdivision, then the fine scan, then one Brent step at a
    time.  Points it has been sent values for are never asked for again.
    """
    cache: dict[float, tuple[float, complex]] = {}

    def probe(points: list[float]):
        """F at the points, asking only for the ones not yet evaluated."""
        missing = [s for s in points if s not in cache]
        if missing:
            cache.update(zip(missing, (yield missing)))
        return [cache[s][0] for s in points]

    def probe_one(s: float):
        [f_s] = yield from probe([s])
        return f_s

    seed = 2.0 * math.pi * n + k
    # bracket stays inside the midpoints to the neighbouring seeds so a
    # root cannot be captured from the wrong index
    w_max = math.pi * (1.0 - 1e-9)
    w = 0.35 * math.pi
    bracket = None
    while True:
        lo, hi = seed - w, seed + w
        f_lo, f_hi = yield from probe([lo, hi])
        if (f_lo > 0) != (f_hi > 0):
            bracket = (lo, hi)
            break
        # same sign at the edges: an interior pair of roots would still
        # show up on a subdivision
        pts = np.linspace(lo, hi, 9)
        vals = yield from probe([float(s) for s in pts])
        for a, b, fa, fb in zip(pts, pts[1:], vals, vals[1:]):
            if (fa > 0) != (fb > 0):
                bracket = (float(a), float(b))
                break
        if bracket is not None or w >= w_max:
            break
        w = min(w * _GROW, w_max)

    if bracket is None:
        # last resort: fine scan, mostly to diagnose an even-order touch
        pts = np.linspace(seed - w_max, seed + w_max, _FINE_SCAN + 1)
        vals = yield from probe([float(s) for s in pts])
        for a, b, fa, fb in zip(pts, pts[1:], vals, vals[1:]):
            if (fa > 0) != (fb > 0):
                bracket = (float(a), float(b))
                break
        if bracket is None:
            i_min = int(np.argmin(np.abs(vals)))
            return None, MissedRoot(
                n=n,
                k=k,
                seed_lambda=seed**3,
                min_abs_f=float(abs(vals[i_min])),
                at_lambda=float(pts[i_min]) ** 3,
                note="no sign change in the allowed bracket "
                "(possible even-multiplicity touch)",
            )

    xtol_s = max(tol * max(1.0, abs(seed)) / 3.0, 6e-16 * max(1.0, abs(seed)))
    steps = brent_steps(bracket[0], bracket[1], xtol=xtol_s,
                        fa=cache[bracket[0]][0], fb=cache[bracket[1]][0])
    s_root, _ = yield from drive(steps, probe_one)
    # Brent returns a point it has evaluated, so its trace is cached
    f_val, trace = cache[s_root]
    lam = s_root**3
    return (
        FloquetEigenvalue(
            n=n,
            k=k,
            lambda_n=lam,
            residual=abs(f_val) / (1.0 + abs(trace)),
            cube_root_gap=s_root - seed,
        ),
        None,
    )


def _f_in_s(c: PeriodicCoefficients, k: float):
    """F(k, .) with the trace alongside, at a list of points s = cbrt(lambda).

    The points go to the period-map core in one call.
    """

    def g(points: list[float]) -> list[tuple[float, complex]]:
        traces = traces_at(c, [s**3 for s in points])
        return [(char_real_function(k, T), T) for T in traces]

    return g


def _run_lockstep(c: PeriodicCoefficients, k: float, searches: list[_Search]) -> list:
    """Advance all searches together; the points of each round go to one core call."""
    g = _f_in_s(c, k)
    outcomes = [None] * len(searches)
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        values = iter(g([s for probes in pending.values() for s in probes]))
        advanced = {}
        for i, probes in pending.items():
            try:
                advanced[i] = searches[i].send(list(islice(values, len(probes))))
            except StopIteration as done:
                outcomes[i] = done.value
        pending = advanced
    return outcomes


def eigenvalues_at_k(
    c: PeriodicCoefficients,
    k: float,
    n_range: tuple[int, int],
    tol: float = 1e-10,
) -> FloquetSolveResult:
    """Roots of F(k, .) near every seed (2 pi n + k)^3 for n in n_range.

    Brackets grow adaptively around each seed, capped at the midpoints to
    the neighbouring seeds; each sign change is refined by Brent to a
    relative lambda accuracy of about tol.  Two roots that land within
    10 * tol of each other (relative) are a degenerate eigenvalue and are
    both reported with multiplicity 2.  Seeds without any sign change are
    returned as missed-root diagnostics, which is the expected signature of
    an even-order touch of F at a double eigenvalue.  The seeds advance in
    lockstep: each round's probe points go to the period-map core in one
    call.
    """
    k = float(k)
    if not 0.0 <= k < 2.0 * math.pi:
        raise ValueError("quasimomentum k must lie in [0, 2*pi)")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo > n_hi:
        raise ValueError("empty index range")

    outcomes = _run_lockstep(
        c, k, [_solve_one(k, n, tol) for n in range(n_lo, n_hi + 1)]
    )
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
    only above an unquantified index threshold, so N is caller input and
    reliable goes False whenever the underlying solver reported misses.
    """

    count: int
    expected: int
    radius: float
    reliable: bool
    result: FloquetSolveResult


def count_in_disk(c: PeriodicCoefficients, k: float, N: int) -> DiskCountResult:
    k = float(k)
    if not 0.0 <= k < 2.0 * math.pi:
        raise ValueError("quasimomentum k must lie in [0, 2*pi)")
    if N < 1:
        raise ValueError("N must be at least 1")
    if k < math.pi / 2 or k > 3 * math.pi / 2:
        s_radius = math.pi * (2 * N + 1)
        expected = 2 * N + 1
    else:
        s_radius = 2.0 * math.pi * N
        expected = 2 * N
    # seeds within the disk sit at |2 pi n + k| < s_radius; pad by one index
    n_lo = math.floor((-s_radius - k) / (2 * math.pi)) - 1
    n_hi = math.ceil((s_radius - k) / (2 * math.pi)) + 1
    res = eigenvalues_at_k(c, k, (n_lo, n_hi))
    count = sum(1 for e in res.eigenvalues if abs(real_cbrt(e.lambda_n)) < s_radius)
    return DiskCountResult(
        count=count,
        expected=expected,
        radius=s_radius**3,
        reliable=not res.missed,
        result=res,
    )
