import math

import numpy as np
import pytest

import triband.checks as checks
from triband import SpectralParameter, free_diagonalizer, free_trace, propagate_pairs, trace_at
from triband.monodromy import period_maps
from triband._linalg import EXTENDED, det3
from triband.checks import _real_grid, check_trace_bounds


def _trace_bounds_worst_per_point(c):
    """The growth-bounds ratio one grid point at a time: the reference loop."""
    worst = 0.0
    kappa = c.kappa
    for lam in _real_grid(n=50):
        [M], T = period_maps(c, [lam]), trace_at(c, lam)
        param = SpectralParameter.from_lambda(lam)
        worst = max(worst, abs(T) / (3.0 * math.exp(param.z0 + kappa)))
        if abs(param.lam) >= 1.0 and kappa > 0:
            dev_cap = 3.0 * kappa * math.exp(param.z0 + kappa) / abs(param.z)
            worst = max(worst, abs(T - free_trace(param.lam)) / dev_cap)
            [V], [V_inv], B = free_diagonalizer([param])
            frame = V_inv @ np.asarray(M, dtype=complex) @ V
            diag_free = np.diag(np.exp(1j * param.z * np.diag(B)))
            matrix_cap = kappa * math.exp(param.z0 + kappa) / abs(param.z)
            worst = max(worst, np.linalg.norm(frame - diag_free, 2) / matrix_cap)
    return worst


@pytest.mark.parametrize("name", ["const_c", "sin_c", "small_c"])
def test_growth_bounds_suite_matches_per_point_loop(name, request):
    """The stacked growth-bounds suite reads the per-point worst ratio to 1e-12."""
    c = request.getfixturevalue(name)
    assert check_trace_bounds(checks.suite_maps(c)["growth-bounds"]).worst == pytest.approx(
        _trace_bounds_worst_per_point(c), rel=1e-12
    )


def test_identity_suites_read_the_scaled_residuals(const_c, monkeypatch):
    """The det and symplectic suites hold at roundoff beyond |lambda| ~ 1e3.

    On a grid out to +-2e3 the raw determinant residual of const_c reaches
    about 7e-7, far past the former threshold 1e-9; the scaled residuals
    stay below 100 eps of the extended dtype.
    """
    monkeypatch.setattr(checks, "_real_grid", lambda n=60: np.linspace(-2e3, 2e3, n))
    maps, _ = propagate_pairs(const_c, checks._real_grid())
    assert max(abs(complex(det3(M)) - 1.0) for M in maps) > 1e-9
    suites = checks.suite_maps(const_c)  # the fixed grids are rebuilt under the patch
    assert max(abs(lam) for lam in suites["determinant-identity"].lams) == 2e3
    for suite, name in ((checks.check_determinant_identity, "determinant-identity"),
                        (checks.check_symplectic_identity, "symplectic-identity")):
        result = suite(suites[name])
        assert result.passed
        assert result.threshold == 100 * np.finfo(EXTENDED).eps
