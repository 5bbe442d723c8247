import math

import numpy as np
import pytest

from triband import free_diagonalizer, free_trace, propagate_pairs
from triband.checks import _real_grid, check_trace_bounds


def _trace_bounds_worst_per_point(c):
    """The growth-bounds ratio one grid point at a time: the reference loop."""
    worst = 0.0
    kappa = c.kappa
    for lam in _real_grid(n=50):
        [(m, _)] = propagate_pairs(c, [lam])
        param = m.param
        worst = max(worst, abs(m.trace_T) / (3.0 * math.exp(param.z0 + kappa)))
        if abs(param.lam) >= 1.0 and kappa > 0:
            dev_cap = 3.0 * kappa * math.exp(param.z0 + kappa) / abs(param.z)
            worst = max(worst, abs(m.trace_T - free_trace(param.lam)) / dev_cap)
            [V], [V_inv], B = free_diagonalizer([param])
            frame = V_inv @ np.asarray(m.M, dtype=complex) @ V
            diag_free = np.diag(np.exp(1j * param.z * np.diag(B)))
            matrix_cap = kappa * math.exp(param.z0 + kappa) / abs(param.z)
            worst = max(worst, np.linalg.norm(frame - diag_free, 2) / matrix_cap)
    return worst


@pytest.mark.parametrize("name", ["const_c", "sin_c", "small_c"])
def test_growth_bounds_suite_matches_per_point_loop(name, request):
    """The stacked growth-bounds suite reads the per-point worst ratio to 1e-12."""
    c = request.getfixturevalue(name)
    assert check_trace_bounds(c).worst == pytest.approx(
        _trace_bounds_worst_per_point(c), rel=1e-12
    )
