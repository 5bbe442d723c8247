"""Closed forms for zero coefficients (p = q = 0), used as test oracles.

With z the cube root of lambda on the standard branch and w = e^{2 pi i/3}:

    multipliers    tau_j = exp(i w^(j-1) z),        j = 1, 2, 3
    trace          T0    = tau_1 + tau_2 + tau_3
    Lyapunov       Delta_j = cos(w^(j-1) z)
    discriminant   rho0  = 64 sinh^2(sqrt3 z/2) sinh^2(sqrt3 w z/2)
                              sinh^2(sqrt3 w^2 z/2)
    eigenvalues    lambda_n(k) = (2 pi n + k)^3

sinh is evaluated directly through exponentials with no rescaling, so the
closed forms are trustworthy for |lambda| up to about 1e8 on the real axis
(double-precision exponent range; rho0 itself saturates earlier).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .monodromy import OMEGA, SpectralParameter
from .multipliers import free_multipliers


@dataclass(frozen=True)
class FreeCaseValues:
    lam: complex
    z: complex
    taus0: tuple[complex, complex, complex]
    T0: complex
    lyapunov0: tuple[complex, complex, complex]
    rho0: complex


def free_case(lam: complex) -> FreeCaseValues:
    """All zero-coefficient closed forms at one spectral point."""
    param = SpectralParameter.from_lambda(lam)
    z = param.z
    taus0 = free_multipliers(param)
    lyap0 = tuple(cmath.cos(OMEGA**j * z) for j in range(3))
    s = math.sqrt(3.0) / 2.0
    rho0 = (
        64.0
        * cmath.sinh(s * z) ** 2
        * cmath.sinh(s * OMEGA * z) ** 2
        * cmath.sinh(s * OMEGA**2 * z) ** 2
    )
    return FreeCaseValues(
        lam=param.lam, z=z, taus0=taus0, T0=sum(taus0), lyapunov0=lyap0, rho0=rho0
    )


def free_trace(lam: complex) -> complex:
    return sum(free_multipliers(SpectralParameter.from_lambda(lam)))


def free_eigenvalues(k: float, n_range: tuple[int, int]) -> list[float]:
    """(2 pi n + k)^3 for n in the inclusive integer range, ascending."""
    k = float(k)
    if not 0.0 <= k < 2.0 * math.pi:
        raise ValueError("quasimomentum k must lie in [0, 2*pi)")
    seeds = range(n_range[0], n_range[1] + 1)  # refuses a float rather than truncate it
    if not seeds:
        raise ValueError("empty index range")
    return [(2.0 * math.pi * n + k) ** 3 for n in seeds]
