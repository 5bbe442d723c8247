import math

import numpy as np
import pytest

import triband.checks as checks
from triband import SpectralParameter, free_diagonalizer, free_trace, propagate_pairs, trace_at
from triband.monodromy import period_maps
from triband._linalg import EXTENDED, det3
from triband.checks import check_trace_bounds


def _trace_bounds_worst_per_point(c):
    """The growth-bounds ratio one point of the suite at a time: the reference loop."""
    worst = 0.0
    kappa = c.kappa
    for lam in checks.suite_maps(c)["growth-bounds"].lams:
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
    monkeypatch.setattr(checks, "_real_grid", lambda: np.linspace(-2e3, 2e3, 60))
    maps, _ = propagate_pairs(const_c, checks._real_grid())
    assert max(abs(complex(det3(M)) - 1.0) for M in maps) > 1e-9
    suites = checks.suite_maps(const_c)  # the fixed grids are rebuilt under the patch
    assert max(abs(lam) for lam in suites["determinant-identity"].lams) == 2e3
    for suite, name in ((checks.check_determinant_identity, "determinant-identity"),
                        (checks.check_symplectic_identity, "symplectic-identity")):
        result = suite(suites[name])
        assert result.passed
        assert result.threshold == 100 * np.finfo(EXTENDED).eps


def test_fixed_grids_share_one_real_grid_and_one_complex_set():
    """verify's real-axis suites read one grid, its complex suites one point set.

    Every suite keeps at least the points it had with a grid of its own, and
    the union still opens at lambda = -500, where the growth guard refuses.
    """
    lams, rows, taus = checks._fixed_grids()
    real = rows["determinant-identity"]
    assert len(real) == 80 and all(lams[i].imag == 0.0 for i in real)
    for name in ("discriminant-consistency", "growth-bounds", "multiplier-symmetry"):
        assert np.array_equal(rows[name], real), name
    symplectic, pairs = rows["symplectic-identity"], rows["characteristic-polynomial"]
    assert np.array_equal(symplectic[:80], real)
    assert np.array_equal(symplectic[80:], pairs)
    assert len(pairs) == 40 and len(taus) == 20
    for i, j in zip(pairs[:20], pairs[20:]):
        assert lams[i].imag != 0.0 and lams[j] == lams[i].conjugate()
    former = {"determinant-identity": 60, "symplectic-identity": 60,
              "characteristic-polynomial": 40, "discriminant-consistency": 80,
              "growth-bounds": 50, "series-vs-steps": 9, "multiplier-symmetry": 60,
              "determinant-reduction": 16}
    assert list(rows) == list(former)
    assert all(len(rows[name]) >= n for name, n in former.items())
    assert len(lams) == 143 and lams[0] == -500.0
