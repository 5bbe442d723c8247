"""The lockstep runner's point table and the exits of brent_steps."""

import math

import pytest

from triband._rootfind import _MAX_ITER, brent_steps, lockstep


def _asking(rounds: list[list[float]]):
    """A search that asks for each list of rounds in turn and returns the values it was sent."""
    got = []
    for points in rounds:
        got.append((yield points))
    return got


def test_lockstep_sends_each_point_to_evaluate_once():
    """A point asked by two searches in one round, or again in a later round,
    reaches evaluate once, in first-seen order; a round with no new point makes
    no call, and every search is answered in its own order from the table."""
    calls = []

    def evaluate(points):
        calls.append(list(points))
        return [10.0 * x for x in points]

    searches = [
        _asking([[1.0, 2.0, 1.0], [3.0], [2.0, 1.0]]),
        _asking([[2.0, 4.0], [1.0, 3.0], [4.0]]),
        _asking([]),
    ]
    outcomes = lockstep(evaluate, searches)
    assert calls == [[1.0, 2.0, 4.0], [3.0]]
    assert outcomes == [
        [[10.0, 20.0, 10.0], [30.0], [20.0, 10.0]],
        [[20.0, 40.0], [10.0, 30.0], [40.0]],
        [],
    ]


def test_lockstep_without_a_point_makes_no_call():
    def evaluate(points):
        raise AssertionError(f"evaluate called with {points}")

    assert lockstep(evaluate, [_asking([[]]), _asking([])]) == [[[]], []]


@pytest.mark.parametrize("zero_at", ["a", "b"])
def test_brent_returns_an_exact_zero_end_before_any_yield(zero_at):
    fa, fb = (0.0, 1.0) if zero_at == "a" else (-1.0, 0.0)
    search = brent_steps(-1.0, 2.0, 1e-9, fa, fb)
    with pytest.raises(StopIteration) as done:
        next(search)
    assert done.value.value == ((-1.0, 0.0) if zero_at == "a" else (2.0, 0.0))


def test_brent_refuses_a_non_bracket():
    with pytest.raises(ValueError, match="not a bracket"):
        next(brent_steps(-1.0, 2.0, 1e-9, 1.0, 3.0))


def test_brent_stops_after_max_iter_at_the_last_point_it_was_sent():
    """A sign function on [-1, 1] with xtol = 0 never meets the tolerance: Brent
    stops after _MAX_ITER rounds with the last point whose value it was sent."""
    def f(x):
        return math.copysign(1.0, x)

    asked = []

    def logged():
        search = brent_steps(-1.0, 1.0, 0.0, f(-1.0), f(1.0))
        points = next(search)
        try:
            while True:
                asked.append(points)
                points = search.send((yield points))
        except StopIteration as done:
            return done.value

    [(x, fx)] = lockstep(lambda points: [f(x) for x in points], [logged()])
    assert len(asked) == _MAX_ITER
    assert (x, fx) == (asked[-1][0], f(asked[-1][0]))
    assert 0.0 < abs(x) < 1e-50
