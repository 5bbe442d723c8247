import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from triband import (
    OMEGA,
    PeriodicCoefficients,
    SpectralParameter,
    char_real_function,
    count_in_disk,
    eigenvalues_at_k,
    free_eigenvalues,
    load_coefficients,
    multiplier_set,
    propagate,
)
from triband.util import real_cbrt

TWO_PI = 2 * math.pi


def P(lam):
    return SpectralParameter.from_lambda(lam)


# ------------------------------------------------------ the scalar reduction


def test_reduction_identity_against_determinant(coefficient_sets):
    """Contract check: det(M - e^{ik}) = 2i e^{3ik/2} F(k, lambda), real lambda."""
    for c in coefficient_sets:
        for k in (0.0, 0.3, 1.0, math.pi, 5.0):
            for lam in np.linspace(-180, 180, 13):
                m = propagate(c, P(float(lam)))
                direct = np.linalg.det(
                    np.asarray(m.M, complex) - cmath.exp(1j * k) * np.eye(3)
                )
                reduced = 2j * cmath.exp(1.5j * k) * char_real_function(k, m.trace_T)
                assert abs(direct - reduced) <= 1e-8 * (1 + abs(direct))


def test_free_function_at_k_zero(zero_c):
    # for z = lambda^(1/3) real: F(0, lambda) = sin z - 2 cosh(sqrt3 z/2) sin(z/2)
    for lam in (0.5, 8.0, 55.0, 300.0):
        z = lam ** (1 / 3)
        expected = math.sin(z) - 2 * math.cosh(math.sqrt(3) * z / 2) * math.sin(z / 2)
        T = propagate(zero_c, P(lam)).trace_T
        assert char_real_function(0.0, T) == pytest.approx(
            expected, rel=1e-10, abs=1e-10
        )
    # zeros exactly at z = 2 pi n
    for n in (1, 2):
        T = propagate(zero_c, P((TWO_PI * n) ** 3)).trace_T
        scale = 1 + abs(T)
        assert abs(char_real_function(0.0, T)) <= 1e-10 * scale


def test_function_vanishes_when_multiplier_matches(zero_c):
    for n, k in ((0, 1.0), (2, 0.7), (-3, 4.0)):
        lam = (TWO_PI * n + k) ** 3
        T = propagate(zero_c, P(lam)).trace_T
        assert abs(char_real_function(k, T)) <= 1e-9 * (1 + abs(T))


def test_function_at_k_pi_with_real_trace():
    # e^{i pi/2} = i, so F(pi, lambda) = Re... = T + 1 for real T
    for T in (-2.0, 0.0, 3.5):
        assert char_real_function(math.pi, T) == pytest.approx(T + 1.0, abs=1e-12)


# ---------------------------------------------------------- eigenvalue solve


def test_free_eigenvalues_exact(zero_c):
    for k in (0.0, 1.0, math.pi, 5.0):
        res = eigenvalues_at_k(zero_c, k, (-5, 5))
        assert not res.missed
        exact = free_eigenvalues(k, (-5, 5))
        assert len(res.eigenvalues) == len(exact)
        for e, x in zip(res.eigenvalues, exact):
            assert abs(e.lambda_n - x) <= 1e-8 * max(1.0, abs(x))
            assert e.residual <= 1e-9


def test_free_eigenvalue_at_origin(zero_c):
    res = eigenvalues_at_k(zero_c, 0.0, (0, 0))
    assert abs(res.eigenvalues[0].lambda_n) <= 1e-8


def test_eigenvalues_come_back_ascending(small_c):
    res = eigenvalues_at_k(small_c, 2.0, (-4, 4))
    lams = res.lambdas()
    assert np.all(np.diff(lams) > 0)


def test_cube_root_gap_decays(small_c):
    # |cbrt(lambda_n) - (2 pi n + k)| * |n| stays bounded along n
    res = eigenvalues_at_k(small_c, 1.0, (8, 20))
    weighted = [abs(e.cube_root_gap) * abs(e.n) for e in res.eigenvalues]
    assert max(weighted[7:]) <= 1.5 * max(weighted[:7]) + 1e-9


def test_roots_are_spectrum_points(small_c):
    # at each root, e^{ik} is a multiplier: one |tau| sits on the circle,
    # the determinant vanishes (evaluated in extended precision: the naive
    # float64 determinant has roundoff eps * exp(2 z0), which passes 1e-6
    # already near lambda ~ 3e3), and the reduction-identity route
    # 2|F(k, lambda_n)| confirms it independently
    from triband._linalg import det3

    k = 0.9
    res = eigenvalues_at_k(small_c, k, (-3, 3), tol=1e-13)
    assert len(res.eigenvalues) == 7
    for e in res.eigenvalues:
        m = propagate(small_c, P(e.lambda_n))
        ms = multiplier_set(e.lambda_n, m.trace_T)
        assert min(abs(abs(t) - 1) for t in ms.taus) <= 1e-6
        assert 2 * abs(char_real_function(k, m.trace_T)) <= 1e-6
        if abs(e.n) <= 1:
            det = complex(det3(m.M - cmath.exp(1j * k) * np.eye(3, dtype=m.M.dtype)))
            assert abs(det) <= 1e-6


def test_eigenvalue_curves_cover_the_axis(small_c):
    """Union spot-check: every sampled real point lies on some curve.

    The quasimomentum of the unimodular multiplier at lambda gives the k
    whose eigenvalue list must contain lambda itself.
    """
    for lam in (6.5, 31.0, 77.7):
        ms = multiplier_set(lam, propagate(small_c, P(lam)).trace_T)
        j = int(np.argmin([abs(abs(t) - 1) for t in ms.taus]))
        k = ms.quasimomenta[j].real % TWO_PI
        n_center = round((real_cbrt(lam) - k) / TWO_PI)
        res = eigenvalues_at_k(small_c, k, (n_center - 1, n_center + 1))
        assert min(abs(e.lambda_n - lam) for e in res.eigenvalues) <= 1e-6 * max(
            1.0, abs(lam)
        )


def test_k_range_validation(small_c):
    with pytest.raises(ValueError):
        eigenvalues_at_k(small_c, -0.1, (0, 1))
    with pytest.raises(ValueError):
        eigenvalues_at_k(small_c, TWO_PI, (0, 1))
    with pytest.raises(ValueError):
        eigenvalues_at_k(small_c, 1.0, (2, 1))
    with pytest.raises(ValueError):
        eigenvalues_at_k(small_c, 1.0, (0, 1), tol=0.0)


# -------------------------------------------------------------- reflection


def test_k_reflection_via_spectrum_negation():
    """The valid k-reflection law for this operator class.

    Complex conjugation maps the fiber at k to the negated fiber at
    2 pi - k with the sign of q flipped, so the eigenvalue curves obey

        lambda_n(2 pi - k; p, -q) = -lambda_{-n-1}(k; p, q),

    exactly.  The naive list equality lambda_n(k) = lambda_n(2 pi - k) does
    NOT hold.  Criterion 10 checks the law on constant coefficients; here
    p and q are three-level steps with no odd symmetry about x = 0 (on odd
    coefficients such as sin_c the law holds even without the q flip).
    """
    p = np.repeat([0.6, -0.4, 0.2], [20, 25, 19])
    q = np.repeat([0.3, -0.2, 0.5], [12, 30, 22])
    c = PeriodicCoefficients.from_samples(p, q)
    c_reflected = PeriodicCoefficients.from_samples(p, -q)
    for k in (0.5, 1.3):
        at_k = {e.n: e.lambda_n for e in eigenvalues_at_k(c, k, (-6, 5)).eigenvalues}
        at_rk = {
            e.n: e.lambda_n
            for e in eigenvalues_at_k(c_reflected, TWO_PI - k, (-6, 5)).eigenvalues
        }
        for n in range(-5, 5):
            lhs = at_rk[n]
            rhs = -at_k[-n - 1]
            assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))


# ------------------------------------------------- degenerate-root handling


def test_even_order_touch_is_reported_missed(zero_c, monkeypatch):
    """A root where F touches zero without a sign change cannot be bracketed.

    Synthetic reduction: replace F by a function of lambda alone whose only
    zero near the n = 1 seed is a perfect square touch.  The solver must
    come back with a missed-root diagnostic instead of a wrong root or an
    exception.
    """
    import triband.floquet as fl

    touch = 2 * math.pi * 1 + 0.5 + 0.2345  # off every sampling lattice

    def fake_factory(c, k):
        def g(points):
            return [((s - touch) ** 2, 1.0 + 0j) for s in points]
        return g

    monkeypatch.setattr(fl, "_f_in_s", fake_factory)
    res = fl.eigenvalues_at_k(zero_c, 0.5, (1, 1))
    assert res.eigenvalues == ()
    assert len(res.missed) == 1
    miss = res.missed[0]
    assert miss.n == 1
    assert miss.min_abs_f <= 0.05
    assert "sign change" in miss.note


def test_colliding_roots_get_multiplicity_two(zero_c, monkeypatch):
    """Roots from adjacent seeds that land together are a double eigenvalue."""
    import triband.floquet as fl

    k = 0.5
    mid = 2 * math.pi * 1.5 + k  # halfway between the n=1 and n=2 seeds
    delta = 1e-8  # wide enough that both brackets can reach their root

    def fake_factory(c, k_arg):
        def g(points):
            return [((s - (mid - delta)) * (s - (mid + delta)), 1.0 + 0j) for s in points]
        return g

    monkeypatch.setattr(fl, "_f_in_s", fake_factory)
    res = fl.eigenvalues_at_k(zero_c, k, (1, 2), tol=1e-8)
    assert len(res.eigenvalues) == 2
    assert all(e.multiplicity == 2 for e in res.eigenvalues)
    assert res.eigenvalues[0].lambda_n == pytest.approx(mid**3, rel=1e-9)


# Period maps the search made at the commit before the root value was read
# from Brent's cache, which was one more per root: (k, maps, roots) over
# n = -4..4 on the strong step set of tests/golden, one seed missed each;
# the golden case holds the roots.
_STEPS_MAPS_BEFORE = (("eigs-steps-k2", 2.0, 171, 8), ("eigs-steps-k5", 5.2, 173, 8))


@pytest.mark.parametrize("case, k, maps_before, roots", _STEPS_MAPS_BEFORE)
def test_root_value_comes_from_the_brent_cache(case, k, maps_before, roots, monkeypatch):
    """Each root costs one period map less, and the roots stay bit-identical."""
    import triband.floquet as fl

    golden = Path(__file__).parent / "golden"
    c = load_coefficients(golden / "steps.json")
    counted = []
    traces_at = fl.traces_at

    def counting(c_arg, lams):
        counted.append(len(lams))
        return traces_at(c_arg, lams)

    monkeypatch.setattr(fl, "traces_at", counting)
    res = eigenvalues_at_k(c, k, (-4, 4))
    assert len(res.eigenvalues) == roots and len(res.missed) == 1
    assert sum(counted) == maps_before - roots
    recorded = json.loads((golden / f"{case}.json").read_text(encoding="utf-8"))
    assert [e.lambda_n for e in res.eigenvalues] == [
        e["lambda_n"] for e in recorded["eigenvalues"]
    ]


# ----------------------------------------------------------------- counting


def test_count_free_case(zero_c):
    res_a = count_in_disk(zero_c, 0.3, 5)
    assert (res_a.count, res_a.expected) == (11, 11)
    assert res_a.radius == pytest.approx((11 * math.pi) ** 3)
    res_b = count_in_disk(zero_c, 2.0, 5)
    assert (res_b.count, res_b.expected) == (10, 10)
    assert res_b.radius == pytest.approx((10 * math.pi) ** 3)


def test_count_small_perturbation():
    c = PeriodicCoefficients.from_constants(0.1, 0.0, 32)
    assert count_in_disk(c, 0.3, 5).count == 11
    assert count_in_disk(c, 2.0, 5).count == 10


def test_count_case_boundaries(zero_c):
    # k exactly at pi/2 belongs to the 2N case
    res = count_in_disk(zero_c, math.pi / 2, 3)
    assert res.expected == 6
    assert res.count == 6


def test_count_flags_strong_coupling_regime():
    # kappa = 5 is far below any index threshold where the exact counts
    # are guaranteed: inside the triple-multiplicity window the free-seed
    # indexing breaks down and the solver must flag the count rather than
    # fabricate a root
    c = PeriodicCoefficients.from_constants(5.0, 0.0, 32)
    res = count_in_disk(c, 2.0, 5)
    assert not res.reliable
    assert res.result.missed
    assert res.count < res.expected


def test_count_input_validation(zero_c):
    with pytest.raises(ValueError):
        count_in_disk(zero_c, 0.3, 0)
    with pytest.raises(ValueError):
        count_in_disk(zero_c, 7.0, 3)
