"""Scalar bracketing root finder (Brent-Dekker), no external dependencies."""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence

_EPS = 2.220446049250313e-16
_MAX_ITER = 200


def brent_steps(
    a: float,
    b: float,
    xtol: float,
    fa: float,
    fb: float,
) -> Generator[list[float], list[float], tuple[float, float]]:
    """Brent's iteration on the sign-change bracket [a, b], as a lockstep search.

    It starts from the caller's values fa = f(a) and fb = f(b).  It yields
    a list [x, ...] for each further point x at which it needs f, is sent
    their values and reads only f(x), so lockstep can evaluate the points of
    many searches in one call.  After a step d with tol < |d| <= 1e3 tol the
    next step is most likely the confirming x -+ t, t = 2*eps*|x| + 0.5*xtol:
    the list then also holds those of x + t, x - t that lie in the bracket
    whose ends it holds values at (where a guard that grows with |x| and
    passed both ends passes them too), and lockstep's table serves the
    confirming step one round later.  It returns (x, f(x)) with x within
    about 2*eps*|x| + xtol of a zero, a point whose f it was given.
    Secant / inverse-quadratic steps guarded by bisection.
    """
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
        t = 2.0 * _EPS * abs(b) + 0.5 * xtol  # the tol of the next step
        lo, hi = min(a, c), max(a, c)  # the bracket, with values at both ends
        ahead = [x for x in (b + t, b - t) if lo <= x <= hi] if tol < abs(d) <= 1e3 * tol else []
        fb = (yield [b, *ahead])[0]
    return b, fb


def lockstep(
    evaluate: Callable[[list], list],
    searches: Sequence[Generator[list, list, Any]],
) -> list:
    """Run searches together; the new points of each round go to one evaluate call.

    Each search is a generator that yields a list of points, is sent their
    values as a list, and returns its outcome; a search may return before
    its first yield.  brent_steps is one such search, and so is any
    generator that hands its points on to it.  evaluate maps a list of
    points to the list of their values.  It is sent only the points of a
    round that no earlier round asked for, each once and in the order they
    were first asked, and is not called in a round without one; every
    search is answered from the table of values so found, which serves
    repeats across searches and rounds and brent_steps' early asks alike.
    Returns the outcomes in the order of searches.
    """
    outcomes: list = [None] * len(searches)
    table: dict = {}
    replies: dict[int, Optional[list]] = dict.fromkeys(range(len(searches)))
    while replies:
        asks = {}
        for i, reply in replies.items():
            try:
                asks[i] = searches[i].send(reply)
            except StopIteration as done:
                outcomes[i] = done.value
        new = list(dict.fromkeys(x for points in asks.values() for x in points if x not in table))
        if new:
            table.update(zip(new, evaluate(new)))
        replies = {i: [table[x] for x in points] for i, points in asks.items()}
    return outcomes
