"""Brent's early ask for its confirming step changes no result.

brent_steps asks for x + t and x - t along with x after a step d with
tol < |d| <= ask_within tol, and reads only f(x): ask_within is 1e3 by
default and 6e4 in eigenvalues_at_k, whose inner-pair brackets are narrow
from the start.  lockstep keeps a table of the
values it found, so the confirming step one round later finds its value
there.  Every result must be the one of searches that ask for x alone, which
a wrapper local to these tests makes of brent_steps.
"""

from pathlib import Path

import numpy as np
import pytest

import triband.discriminant as discriminant
import triband.floquet as fl
from triband import PeriodicCoefficients
from triband._rootfind import ASK_WITHIN, brent_steps
from triband.coeffs import load_coefficients
from triband.discriminant import sigma3_intervals
from triband.floquet import count_in_disk, eigenvalues_at_k

STEPS = Path(__file__).parent / "golden" / "steps.json"


def _wrapped(asked: list, first_only: bool):
    """brent_steps that logs each list it asks for in asked, cut to its first point
    when first_only."""
    def steps(*args, **kwargs):
        search = brent_steps(*args, **kwargs)
        try:
            points = next(search)
            while True:
                asked.append(points)
                points = search.send((yield points[:1] if first_only else points))
        except StopIteration as done:
            return done.value

    return steps


def _random_steps(rng: np.random.Generator, n: int = 32) -> PeriodicCoefficients:
    """Step coefficients with 1 to 4 levels, |p| <= 4 and |q| <= 2."""
    cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, 4)), replace=False))
    bounds = [0, *cuts.tolist(), n]
    p, q = np.empty(n), np.empty(n)
    for a, b in zip(bounds, bounds[1:]):
        p[a:b], q[a:b] = rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0)
    return PeriodicCoefficients.from_samples(p, q)


def _results(c: PeriodicCoefficients, k: float) -> tuple:
    return (eigenvalues_at_k(c, k, (-3, 3)), count_in_disk(c, k, 2),
            sigma3_intervals(c, (-60.0, 60.0), 121))


def test_prefetch_changes_no_root(const_c, small_c, sin_c, monkeypatch):
    """eigenvalues_at_k, count_in_disk and sigma3_intervals on the golden step
    set, the conftest fixtures and 20 random step sets equal (==) their runs
    with searches that ask for their first point alone."""
    rng = np.random.default_rng(29)
    sets = [load_coefficients(STEPS), const_c, small_c, sin_c]
    sets += [_random_steps(rng) for _ in range(20)]
    ks = rng.uniform(0.0, 2.0 * np.pi, len(sets)).tolist()
    prefetched, alone = [], []
    with monkeypatch.context() as patch:
        patch.setattr(fl, "brent_steps", _wrapped(prefetched, first_only=False))
        patch.setattr(discriminant, "brent_steps", _wrapped(prefetched, first_only=False))
        results = [_results(c, k) for c, k in zip(sets, ks)]
    monkeypatch.setattr(fl, "brent_steps", _wrapped(alone, first_only=True))
    monkeypatch.setattr(discriminant, "brent_steps", _wrapped(alone, first_only=True))
    for c, k, got in zip(sets, ks, results):
        assert got == _results(c, k), k
    # the same path, point for point; the early asks are not idle
    assert [points[0] for points in prefetched] == [points[0] for points in alone]
    assert sum(len(points) == 3 for points in prefetched) > 100
    assert all(len(points) in (1, 3) for points in prefetched)


def _held(log: list, window=None):
    """brent_steps that logs, per search, each list it asks for with the values
    it holds by then: f at its two ends and at the first point of each earlier
    list, the only value of a list it reads.  It forwards the caller's
    early-ask window, or runs every search with window when one is given."""
    def steps(a, b, xtol, fa, fb, ask_within=ASK_WITHIN):
        held, asked = {a: fa, b: fb}, []
        log.append(asked)
        search = brent_steps(a, b, xtol, fa, fb, window or ask_within)
        try:
            points = next(search)
            while True:
                asked.append((points, dict(held)))
                values = yield points
                held[points[0]] = values[0]
                points = search.send(values)
        except StopIteration as done:
            return done.value

    return steps


@pytest.mark.parametrize("confirmed, window", [
    (False, None), (True, None),
    (False, fl._INNER_ASK_WITHIN), (True, fl._INNER_ASK_WITHIN),
], ids=["idle-side", "confirming-side", "idle-side-floquet-window",
        "confirming-side-floquet-window"])
def test_every_early_ask_lies_in_a_held_bracket(const_c, small_c, sin_c, confirmed, window,
                                                monkeypatch):
    """Each early-ask point of x -+ t, the one the next step confirms and the
    idle one alike, lies between two points of opposite sign at which the
    search already holds values, in eigenvalues_at_k, count_in_disk and
    sigma3_intervals on the golden step set, the conftest fixtures and 20
    random step sets: with each caller's window, and with the wider window
    of eigenvalues_at_k in every search.

    On the real axis the growth guard grows with |lambda|, and lambda = s^3
    is monotone in s, so the guard admits every such point once it admitted
    the bracket's ends: the searches need no guard of their own.
    """
    rng = np.random.default_rng(31)
    sets = [load_coefficients(STEPS), const_c, small_c, sin_c]
    sets += [_random_steps(rng) for _ in range(20)]
    ks = rng.uniform(0.0, 2.0 * np.pi, len(sets)).tolist()
    log = []
    monkeypatch.setattr(fl, "brent_steps", _held(log, window))
    monkeypatch.setattr(discriminant, "brent_steps", _held(log, window))
    for c, k in zip(sets, ks):
        _results(c, k)
    early = []
    for asked in log:
        firsts = {points[0] for points, _ in asked}
        early += [(y, held) for points, held in asked for y in points[1:]
                  if (y in firsts) == confirmed]
    assert len(early) > 100
    for y, held in early:
        below = [f for x, f in held.items() if x <= y]
        above = [f for x, f in held.items() if x >= y]
        assert any((f > 0) != (g > 0) for f in below for g in above), y
