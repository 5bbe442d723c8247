"""Fiber eigenvalue counts from the arguments of the unimodular multipliers.

A real lambda is an eigenvalue of the fiber at quasimomentum k exactly when e^{ik} is a
multiplier of M(1, lambda).  Along a real window the unimodular multipliers move on the
circle, and each time one branch's argument passes k, one eigenvalue lambda_n(k) lies there.
So the crossings of the continued branches over one scan count the fiber eigenvalues in the
window for every k at once, and `eigs` must report as many: the check joins `scan`'s branch
continuation and the Floquet root search, which share nothing after the traces.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from triband import continue_branches, eigenvalues_at_k, solve_multipliers, traces_at
from triband.coeffs import load_coefficients
from triband.multipliers import on_circle

# the window (-9 pi + 0.1, 9 pi + 0.1] in s = cbrt(lambda), 64 points per 2 pi of s: the
# arguments move like s, so each step stays far below pi
_S_LO, _S_HI = -9 * math.pi + 0.1, 9 * math.pi + 0.1
_S = np.linspace(_S_LO, _S_HI, 9 * 64 + 1)
_KS = (np.arange(24) + 0.5) * (2 * math.pi / 24)  # the midpoints of 24 cells of [0, 2 pi)
_N_RANGE = (-7, 6)  # every seed 2 pi n + k whose root can lie in the window


def _on_arc(k: float, a: float, b: float) -> bool:
    """Whether angle k lies on the shorter arc from angle a to angle b, a excluded."""
    u, v = math.remainder(k - a, 2 * math.pi), math.remainder(b - a, 2 * math.pi)
    return 0 < u <= v or v <= u < 0


def _crossings(c) -> list[int]:
    """Crossings of each k by the arguments of the unimodular branches over the window.

    Between grid points i and i + 1 a branch on the circle at both crosses k when k lies on
    the shorter arc between its two arguments.  Where a pair joins or leaves the circle
    (the fold rule), its branches meet at a branch point whose argument lies between their
    arguments at the on-circle end, so one of them crosses k when k lies on the shorter arc
    between those two arguments.
    """
    lams = _S**3
    T = np.array(traces_at(c, lams))
    rows, _ = continue_branches(lams, solve_multipliers(T, np.conj(T)))
    args = np.angle(np.array(rows, dtype=complex)).tolist()
    unit = np.array([on_circle(row) for row in rows])
    counts = []
    for k in _KS.tolist():
        count = 0
        for i in range(len(rows) - 1):
            both = unit[i] & unit[i + 1]
            count += sum(_on_arc(k, args[i][j], args[i + 1][j]) for j in np.flatnonzero(both))
            if unit[i].sum() != unit[i + 1].sum():
                end = i if unit[i].sum() > unit[i + 1].sum() else i + 1
                a, b = (args[end][j] for j in np.flatnonzero(~both))
                count += _on_arc(k, a, b)
        counts.append(count)
    return counts


def _eigs_counts(c) -> list[int]:
    """The `eigs` roots in the window at each k, with multiplicity."""
    return [sum(_S_LO < np.cbrt(e.lambda_n) <= _S_HI
                for e in eigenvalues_at_k(c, k, _N_RANGE).eigenvalues) for k in _KS.tolist()]


@pytest.mark.parametrize("name", [
    "const_c", "small_c", "sin_c",
    pytest.param("steps.json", marks=pytest.mark.xfail(
        strict=True, reason="D7: eigs misses a simple root pushed out of its seed's bracket")),
])
def test_crossing_counts_are_the_eigs_root_counts(name, request):
    """At each of 24 k the crossing count equals the number of `eigs` roots in the window."""
    if name.endswith(".json"):
        c = load_coefficients(Path(__file__).parent / "golden" / name)
    else:
        c = request.getfixturevalue(name)
    assert _crossings(c) == _eigs_counts(c)
