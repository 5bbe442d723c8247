import math
from typing import Optional

import pytest

from triband import PeriodicCoefficients, band_point, scan_real_axis
from triband.bands import FLAG_NEAR_BRANCH_POINT, BandPoint


def multiplicity_is_locally_constant(points: list[BandPoint]) -> bool:
    """True when multiplicity only changes across flagged or error rows."""
    prev: Optional[int] = None
    for pt in points:
        if pt.error is not None or pt.flags:
            prev = None
            continue
        if prev is not None and pt.multiplicity != prev:
            return False
        prev = pt.multiplicity
    return True


def test_free_scan_is_simple_spectrum(zero_c):
    points = scan_real_axis(zero_c, (1.0, 1000.0), 100)
    for pt in points:
        assert pt.error is None
        assert pt.multiplicity == 1
        assert pt.on_circle_count == 1
        assert pt.rho > 0
        assert len(pt.lyapunov_real_branches) == 1
        assert -1 <= pt.lyapunov_real_branches[0] <= 1


def test_free_point_at_eight(zero_c):
    pt = band_point(zero_c, 8.0)
    assert pt.lyapunov_real_branches == pytest.approx((math.cos(2.0),), abs=1e-9)
    assert pt.multiplicity == 1


def test_flag_at_free_branch_point(zero_c):
    points = scan_real_axis(zero_c, (-10.0, 10.0), 21)
    by_lam = {round(pt.lam, 6): pt for pt in points}
    assert FLAG_NEAR_BRANCH_POINT in by_lam[0.0].flags
    for lam, pt in by_lam.items():
        if lam != 0.0:
            assert pt.multiplicity == 1
            # label-matching ambiguity flags may appear next to the branch
            # point, but the degeneracy flag itself must not
            assert FLAG_NEAR_BRANCH_POINT not in pt.flags


def test_multiplicity_three_inside_strong_perturbation_window():
    c = PeriodicCoefficients.from_constants(5.0, 0.0, 64)
    points = scan_real_axis(c, (-20.0, 20.0), 81)
    inner = [pt for pt in points if abs(pt.lam) <= 10.0]
    outer = [pt for pt in points if abs(pt.lam) >= 14.0]
    assert all(pt.multiplicity == 3 for pt in inner)
    assert all(pt.on_circle_count == 3 for pt in inner if not pt.flags)
    assert all(pt.multiplicity == 1 for pt in outer)
    # three real Lyapunov values inside the triple window, all in [-1, 1]
    for pt in inner:
        if pt.flags:
            continue
        assert len(pt.lyapunov_real_branches) == 3
        assert all(-1 <= d <= 1 for d in pt.lyapunov_real_branches)


def test_on_circle_count_is_one_or_three(coefficient_sets):
    for c in coefficient_sets:
        for pt in scan_real_axis(c, (-60.0, 60.0), 41):
            if pt.flags or pt.error:
                continue
            assert pt.on_circle_count in (1, 3)
            assert pt.on_circle_count == pt.multiplicity


def test_multiplicity_locally_constant_between_flags():
    c = PeriodicCoefficients.from_constants(5.0, 0.0, 64)
    points = scan_real_axis(c, (-30.0, 30.0), 121)
    # the multiplicity flips inside this window, so the invariant only
    # holds because the transition points are flagged
    assert {pt.multiplicity for pt in points} == {1, 3}
    assert multiplicity_is_locally_constant(points)


def test_scan_far_outside_is_simple(const_c):
    for pt in scan_real_axis(const_c, (5_000.0, 6_000.0), 11):
        assert pt.multiplicity == 1
        # far from the triple set the multipliers are well separated
        assert FLAG_NEAR_BRANCH_POINT not in pt.flags
        assert pt.on_circle_count == pt.multiplicity


@pytest.mark.parametrize("lam", [2.0e7, 5e7, -5e7, 1e8, -1e8, 3e8, -3e8])
@pytest.mark.parametrize("coeffs", ["zero_c", "const_c"])
def test_classification_survives_discriminant_saturation(request, coeffs, lam):
    # between the float64 range of rho (|lambda| ~ 8.6e6) and the
    # propagation guard (~5e8) the discriminant saturates to +inf but the
    # multiplicity and circle count must stay correct
    pt = band_point(request.getfixturevalue(coeffs), lam)
    assert pt.error is None
    assert pt.rho == float("inf")
    assert pt.multiplicity == 1
    assert pt.on_circle_count == 1
    assert len(pt.lyapunov_real_branches) == 1


def test_overflow_rows_are_reported_not_raised(const_c):
    points = scan_real_axis(const_c, (1e11, 2e12), 5)
    assert all(pt.error is not None for pt in points)
    assert all(pt.multiplicity is None for pt in points)


def test_branch_columns_follow_continuation(zero_c):
    # with continued labels the first branch column is cos(z) throughout
    points = scan_real_axis(zero_c, (30.0, 300.0), 40)
    for pt in points:
        z = pt.lam ** (1 / 3)
        assert pt.lyapunov_branches[0].real == pytest.approx(math.cos(z), abs=1e-8)
        assert abs(pt.lyapunov_branches[0].imag) <= 1e-8
        assert pt.branch_on_circle[0]
