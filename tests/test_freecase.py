import cmath
import math

import numpy as np
import pytest

from triband import (
    free_case,
    free_eigenvalues,
    free_trace,
    rho_trace_formula,
    traces_at,
)


def test_values_at_zero():
    fc = free_case(0.0)
    assert fc.taus0 == (1.0, 1.0, 1.0)
    assert fc.T0 == 3.0
    assert fc.rho0 == 0.0


def test_values_at_eight():
    fc = free_case(8.0)
    w = cmath.exp(2j * cmath.pi / 3)
    assert fc.z == pytest.approx(2.0)
    assert fc.taus0[0] == pytest.approx(cmath.exp(2j), rel=1e-12)
    assert fc.taus0[1] == pytest.approx(cmath.exp(2j * w), rel=1e-12)
    assert fc.taus0[2] == pytest.approx(cmath.exp(2j * w**2), rel=1e-12)
    assert np.prod(fc.taus0) == pytest.approx(1.0, rel=1e-12)
    assert fc.T0 == pytest.approx(sum(fc.taus0), rel=1e-14)


def test_values_at_minus_one():
    fc = free_case(-1.0)
    assert fc.z == pytest.approx(cmath.exp(1j * cmath.pi / 3), rel=1e-12)
    # z*w is real and z*w^2 = conj(z) there, so rho0 is real and positive
    assert abs(fc.rho0.imag) <= 1e-12
    assert fc.rho0.real > 0


def test_lyapunov_values_are_cosines():
    fc = free_case(27.0)
    w = cmath.exp(2j * cmath.pi / 3)
    for j in range(3):
        assert fc.lyapunov0[j] == pytest.approx(cmath.cos(w**j * fc.z), rel=1e-12)
        # Delta = (tau + 1/tau)/2 consistency
        tau = fc.taus0[j]
        assert fc.lyapunov0[j] == pytest.approx((tau + 1 / tau) / 2, rel=1e-12)


def test_trace_matches_propagation(zero_c):
    lams = [float(lam) for lam in np.linspace(-1e6, 1e6, 41) if lam != 0]
    for lam, T in zip(lams, traces_at(zero_c, lams)):
        T0 = free_trace(lam)
        assert abs(T - T0) <= 1e-10 * abs(T0)


def test_trace_matches_propagation_at_complex_points(zero_c):
    # entire-function agreement across all four quadrants checks the
    # cube-root branch handling, not just the real axis
    rng = np.random.default_rng(31)
    lams = [complex(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)) for _ in range(24)]
    for lam, T in zip(lams, traces_at(zero_c, lams)):
        T0 = free_trace(lam)
        assert abs(T - T0) <= 1e-10 * abs(T0)


def test_rho0_matches_trace_formula():
    for lam in np.geomspace(1.0, 1e6, 25):
        for sign in (1.0, -1.0):
            fc = free_case(sign * lam)
            rt = rho_trace_formula(fc.T0)
            assert abs(rt - fc.rho0.real) <= 1e-8 * max(1.0, abs(rt))
            assert abs(fc.rho0.imag) <= 1e-8 * max(1.0, abs(rt))


def test_free_eigenvalues():
    assert free_eigenvalues(0.0, (0, 0)) == [0.0]
    assert free_eigenvalues(1.0, (1, 1))[0] == pytest.approx((2 * math.pi + 1) ** 3)
    lam = free_eigenvalues(1.0, (-1, -1))[0]
    assert lam == pytest.approx((1 - 2 * math.pi) ** 3)
    assert lam < 0
    ev = free_eigenvalues(2.5, (-4, 4))
    assert ev == sorted(ev)


def test_free_eigenvalues_validation():
    with pytest.raises(ValueError):
        free_eigenvalues(-0.5, (0, 1))
    with pytest.raises(ValueError):
        free_eigenvalues(2 * math.pi, (0, 1))
    with pytest.raises(ValueError):
        free_eigenvalues(1.0, (3, 2))
