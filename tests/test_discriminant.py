import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from triband import (
    Classification,
    OMEGA,
    PeriodicCoefficients,
    SpectralParameter,
    default_search_interval,
    free_trace,
    multiplier_set,
    propagate,
    rho_at,
    rho_product_formula,
    rho_trace_formula,
    sigma3_intervals,
    solve_multipliers,
    zero_coefficients,
)
from triband import monodromy
from triband._rootfind import brent
from triband.util import uniform_grid


def P(lam):
    return SpectralParameter.from_lambda(lam)


@dataclass(frozen=True)
class DiscriminantValue:
    """Both discriminant routes at one real lambda, with their disagreement."""

    lam: float
    rho_trace: float
    rho_product: complex
    residual: float

    @classmethod
    def from_trace(cls, lam: float, T: complex) -> "DiscriminantValue":
        rt = rho_trace_formula(T)
        taus = solve_multipliers(T, np.conj(T))
        rp = rho_product_formula(taus)
        return cls(lam=float(lam), rho_trace=rt, rho_product=rp, residual=abs(rt - rp.real))


def test_rho_trace_simple_values():
    assert rho_trace_formula(3.0) == pytest.approx(0.0, abs=1e-12)
    assert rho_trace_formula(0.0) == pytest.approx(-27.0)


def test_rho_trace_free_case_oracle(zero_c):
    # oracle: direct evaluation of 64 sinh^2(sqrt3 z/2) over the three
    # rotated arguments, at z = 1
    z = 1.0
    s = math.sqrt(3) / 2
    oracle = (
        64
        * cmath.sinh(s * z) ** 2
        * cmath.sinh(s * OMEGA * z) ** 2
        * cmath.sinh(s * OMEGA**2 * z) ** 2
    )
    assert abs(oracle.imag) < 1e-12
    T = propagate(zero_c, P(1.0)).trace_T
    assert rho_trace_formula(T) == pytest.approx(oracle.real, abs=1e-8)


def test_rho_product_simple_values():
    assert rho_product_formula((1.0, 1.0, 1.0)) == 0.0
    w = cmath.exp(2j * cmath.pi / 3)
    # oracle: direct complex arithmetic, (1-w)^2 (1-w^2)^2 (w-w^2)^2 = -27
    direct = ((1 - w) * (1 - w**2) * (w - w**2)) ** 2
    assert direct == pytest.approx(-27.0, abs=1e-12)
    assert rho_product_formula((1.0, w, w**2)) == pytest.approx(direct, abs=1e-12)


def test_rho_positive_in_one_on_circle_case(coefficient_sets):
    for c in coefficient_sets:
        for lam in (25.0, -60.0, 333.0):
            ms = multiplier_set(lam, propagate(c, P(lam)).trace_T)
            if ms.classification is Classification.ONE_ON_CIRCLE:
                assert rho_product_formula(ms.taus).real > 0


def test_trace_and_product_routes_agree(coefficient_sets):
    for c in coefficient_sets:
        for lam in np.linspace(-500, 500, 60):
            if lam == 0:
                continue
            T = propagate(c, P(float(lam))).trace_T
            rt = rho_trace_formula(T)
            rp = rho_product_formula(solve_multipliers(T, np.conj(T)))
            assert abs(rt - rp.real) <= 1e-6 * (1 + abs(rt))
            assert abs(rp.imag) <= 1e-8 * (1 + abs(rt))


def test_discriminant_value_record(const_c):
    T = propagate(const_c, P(10.0)).trace_T
    dv = DiscriminantValue.from_trace(10.0, T)
    assert dv.residual <= 1e-6 * (1 + abs(dv.rho_trace))
    assert dv.rho_trace == pytest.approx(dv.rho_product.real, rel=1e-6)


def test_free_rho_positive_off_zero(zero_c):
    for lam in (-80.0, -1.0, 0.5, 7.0, 95.0):
        assert rho_at(zero_c, lam) > 0


def test_classification_matches_rho_sign(const_c, sin_c):
    for c in (const_c, sin_c):
        for lam in np.linspace(-90, 90, 37):
            if lam == 0:
                continue
            T = propagate(c, P(float(lam))).trace_T
            rho = rho_trace_formula(T)
            ms = multiplier_set(float(lam), T)
            if abs(rho) <= 1e-9 * (1 + abs(rho)):
                continue  # boundary band: classification may be degenerate
            if rho > 0:
                assert ms.classification is Classification.ONE_ON_CIRCLE
            else:
                assert ms.classification is Classification.ALL_ON_CIRCLE


# ------------------------------------------------------------- sigma3 scan


def test_sigma3_free_case_single_touch(zero_c):
    res = sigma3_intervals(zero_c, (-100.0, 100.0), 2001, 1e-6)
    assert res.intervals == ()
    assert len(res.touch_points) == 1
    assert abs(res.touch_points[0]) <= 0.1  # one grid step


def test_sigma3_strong_perturbation_intervals():
    c = PeriodicCoefficients.from_constants(5.0, 0.0, 64)
    res = sigma3_intervals(c, (-100.0, 100.0), 2001, 1e-6)
    assert len(res.intervals) >= 1
    for iv in res.intervals:
        assert iv.lo < iv.hi
        assert rho_at(c, 0.5 * (iv.lo + iv.hi)) < 0
        # just outside the refined endpoints the discriminant is positive
        assert rho_at(c, iv.lo - 2e-6) > 0
        assert rho_at(c, iv.hi + 2e-6) > 0
        # and the interval genuinely brackets the sign change
        assert rho_at(c, iv.lo + 2e-6) < 0
        assert rho_at(c, iv.hi - 2e-6) < 0


def test_sigma3_endpoints_refine_in_lockstep(monkeypatch):
    """Both endpoints share each round's core call and land where Brent alone lands.

    On this asymmetric constant set Brent takes 5 evaluations for the
    lower end and 4 for the upper one, so the grid plus lockstep rounds
    make 1 + 5 core calls where one endpoint after the other makes 1 + 9.
    """
    c = PeriodicCoefficients.from_constants(3.0, 0.7, 8)
    window, points, tol = (-40.0, 41.0), 41, 1e-6
    calls = []
    period_maps = monodromy.period_maps

    def counting(c_arg, params, *args, **kwargs):
        calls.append(len(params))
        return period_maps(c_arg, params, *args, **kwargs)

    monkeypatch.setattr(monodromy, "period_maps", counting)
    [iv] = sigma3_intervals(c, window, points, tol).intervals
    assert not (iv.lo_clipped or iv.hi_clipped)
    # the grid, then one round per Brent step with both ends until the upper one stops
    core_calls = list(calls)
    assert core_calls == [points] + [2] * 4 + [1]

    grid = uniform_grid(*window, points)
    evaluations = []
    for end in (iv.lo, iv.hi):
        k = int(np.searchsorted(grid, end))
        count = [0]

        def rho(lam, count=count):
            count[0] += 1
            return rho_at(c, lam)

        a, b = float(grid[k - 1]), float(grid[k])
        assert brent(rho, a, b, tol, rho_at(c, a), rho_at(c, b))[0] == end
        evaluations.append(count[0])
    assert evaluations == [5, 4]
    assert len(core_calls) == 1 + max(evaluations)


def test_sigma3_window_inside_triple_set_is_clipped():
    # a scan window strictly inside {rho <= 0} yields one run clipped at
    # both edges, reported as such rather than with fake endpoints
    c = PeriodicCoefficients.from_constants(5.0, 0.0, 32)
    res = sigma3_intervals(c, (-5.0, 5.0), 101, 1e-6)
    assert len(res.intervals) == 1
    iv = res.intervals[0]
    assert (iv.lo, iv.hi) == (-5.0, 5.0)
    assert iv.lo_clipped and iv.hi_clipped
    assert iv.rho_lo < 0 and iv.rho_hi < 0


def test_sigma3_far_window_is_empty(const_c):
    res = sigma3_intervals(const_c, (50_000.0, 100_000.0), 301, 1e-6)
    assert res.intervals == ()
    assert res.touch_points == ()


def test_sigma3_default_interval_heuristic(const_c):
    lo, hi = default_search_interval(const_c)
    assert hi == pytest.approx((10 + 10 * const_c.kappa) ** 3)
    assert lo == -hi
    res = sigma3_intervals(zero_coefficients(2), scan_points=51, tol=1e-4)
    assert res.interval_was_default
    assert res.search_interval == (-1000.0, 1000.0)


def test_sigma3_rejects_bad_arguments(const_c):
    with pytest.raises(ValueError):
        sigma3_intervals(const_c, (0.0, 1.0), 1, 1e-6)
    with pytest.raises(ValueError):
        sigma3_intervals(const_c, (0.0, 1.0), 10, -1.0)
    with pytest.raises(ValueError):
        sigma3_intervals(const_c, (1.0, 0.0), 10, 1e-6)


@pytest.mark.xfail(strict=True, reason="D3: a sigma3 endpoint can land on a touch of rho")
def test_sigma3_endpoints_are_sign_changes_of_rho():
    """Every sigma3 endpoint inside the scan is a sign change of rho at tol.

    Live reproducer of D3 (ROADMAP): on this constant set the nine-point
    scan puts an interior touch of rho (about -11.925, rho <= 0 on both
    sides) and the true start of the set (about -12.618) into one bracket,
    and Brent stops on the touch.  The fix must make this test pass.
    """
    c = PeriodicCoefficients.from_constants(5.942823370666968, 3.1544276746960014, 64)
    tol = 1e-6
    res = sigma3_intervals(c, (-15.691997430662607, 20.86053824692716), 9, tol)
    assert res.intervals
    for iv in res.intervals:
        for x, inward, clipped in ((iv.lo, 1.0, iv.lo_clipped), (iv.hi, -1.0, iv.hi_clipped)):
            if not clipped:
                assert rho_at(c, x - inward * tol) > 0 > rho_at(c, x + inward * tol), x
