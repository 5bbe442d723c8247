"""Brent's early ask for its confirming step changes no result.

brent_steps asks for x + t and x - t along with x after a step d with
tol < |d| <= 1e3 tol, and reads only f(x).  The lockstep evaluators keep a
table of the traces they found, so the confirming step one round later finds
its trace there.  Every result must be the one of searches that ask for x
alone, which a wrapper local to these tests makes of brent_steps.
"""

from pathlib import Path

import numpy as np
import pytest

import triband.discriminant as discriminant
import triband.floquet as fl
import triband.monodromy as monodromy
from triband import PeriodicCoefficients
from triband._rootfind import brent_steps
from triband.coeffs import load_coefficients
from triband.discriminant import sigma3_intervals
from triband.floquet import count_in_disk, eigenvalues_at_k
from triband.monodromy import PropagationOverflowError

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


@pytest.mark.parametrize("confirmed", [False, True], ids=["idle-side", "confirming-side"])
def test_a_guarded_early_ask_is_dropped(const_c, confirmed, monkeypatch):
    """A guard that refuses one of x -+ t keeps it from the core on the early
    ask, and the search ends as the one that asks for x alone ends: with the
    same endpoints where the refused point is never needed, with the same
    refusal where it is the confirming step.

    On the real axis the growth guard cannot refuse either: x -+ t lies
    strictly inside a bracket whose ends were mapped, and the guard grows
    with |lambda|.  So a guard that refuses that one point stands in for it.
    """
    window, points = (-3.0, 2.0), 11
    asked = []
    with monkeypatch.context() as patch:
        patch.setattr(discriminant, "brent_steps", _wrapped(asked, first_only=False))
        unguarded = sigma3_intervals(const_c, window, points)
    firsts = {pts[0] for pts in asked}
    # an early ask whose confirming step came: one of x -+ t was asked for again
    ahead = next(pts[1:] for pts in asked if len(pts) == 3 and firsts.intersection(pts[1:]))
    [refused] = [y for y in ahead if (y in firsts) == confirmed]

    real_guard, core = monodromy.growth_refusal, monodromy.period_maps
    mapped = []

    def guard(c, lam):
        if lam == refused:
            return PropagationOverflowError(f"refused {lam!r}")
        return real_guard(c, lam)

    def counting(c, lams, *args, **kwargs):
        mapped.append(list(lams))
        return core(c, lams, *args, **kwargs)

    monkeypatch.setattr(monodromy, "growth_refusal", guard)
    monkeypatch.setattr(discriminant, "growth_refusal", guard)
    monkeypatch.setattr(monodromy, "period_maps", counting)

    def outcome():
        try:
            return sigma3_intervals(const_c, window, points)
        except PropagationOverflowError as exc:
            return repr(exc)

    got = outcome()
    # only the confirming step itself, asked for alone, takes the refused point to the core
    assert [lams for lams in mapped if refused in lams] == ([[refused]] if confirmed else [])
    with monkeypatch.context() as patch:
        patch.setattr(discriminant, "brent_steps", _wrapped([], first_only=True))
        assert got == outcome()
    assert got == (f"PropagationOverflowError('refused {refused!r}')" if confirmed
                   else unguarded)
