"""Scalar bracketing root finder (Brent-Dekker), no external dependencies."""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Generator, Optional, Sequence

_EPS = 2.220446049250313e-16
_MAX_ITER = 200


def brent_steps(
    a: float,
    b: float,
    xtol: float,
    fa: Optional[float] = None,
    fb: Optional[float] = None,
) -> Generator[float, float, tuple[float, float]]:
    """Brent's iteration on the sign-change bracket [a, b], as a generator.

    It yields each point x at which it needs f and is sent f(x) back
    (``fb = yield b``), so a caller can evaluate the points of many
    iterations together.  It returns (x, f(x)) with x within about
    2*eps*|x| + xtol of a zero; x is always a point whose f it was given.
    Inverse-quadratic / secant steps guarded by bisection, after Brent.
    """
    fa = (yield a) if fa is None else fa
    fb = (yield b) if fb is None else fb
    if fa == 0.0:
        return a, fa
    if fb == 0.0:
        return b, fb
    if (fa > 0) == (fb > 0):
        raise ValueError(f"not a bracket: f({a})={fa}, f({b})={fb}")

    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        mid = 0.5 * (c - b)
        if abs(mid) <= tol or fb == 0.0:
            return b, fb
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = mid
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * mid * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * mid * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * mid * q - abs(tol * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = mid
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if mid > 0 else -tol)
        fb = yield b
    return b, fb


def drive(
    steps: Generator[float, float, tuple[float, float]],
    probe: Callable[[float], Generator[Any, Any, float]],
) -> Generator[Any, Any, tuple[float, float]]:
    """Run brent_steps to its result, taking each f(x) as ``yield from probe(x)``.

    probe is a generator function, so a caller that runs drive with
    ``yield from`` can hand every point on to its own caller, as the
    lockstep searches of floquet and discriminant do.
    """
    try:
        x = next(steps)
        while True:
            x = steps.send((yield from probe(x)))
    except StopIteration as done:
        return done.value


def lockstep(
    evaluate: Callable[[list], list],
    searches: Sequence[Generator[list, list, Any]],
) -> list:
    """Run searches together; the points of each round go to one evaluate call.

    Each search yields a list of points, is sent their values as a list,
    and returns its outcome; a search may return before its first yield.
    evaluate maps a list of points to the list of their values.  Returns
    the outcomes in the order of searches.
    """
    outcomes: list = [None] * len(searches)
    replies: dict[int, Optional[list]] = dict.fromkeys(range(len(searches)))
    while replies:
        asks = {}
        for i, reply in replies.items():
            try:
                asks[i] = searches[i].send(reply)
            except StopIteration as done:
                outcomes[i] = done.value
        if not asks:
            break
        values = iter(evaluate([x for points in asks.values() for x in points]))
        replies = {i: list(islice(values, len(points))) for i, points in asks.items()}
    return outcomes


def brent(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    fa: Optional[float] = None,
    fb: Optional[float] = None,
) -> tuple[float, float]:
    """Root of f in the sign-change bracket [a, b]: brent_steps driven by f.

    Returns (x, f(x)) with x within about 2*eps*|x| + xtol of a zero.
    """
    steps = brent_steps(a, b, xtol, fa, fb)
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as done:
        return done.value
