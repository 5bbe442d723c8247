import numpy as np
import pytest

from triband import PeriodicCoefficients, checks, zero_coefficients


@pytest.fixture(autouse=True)
def _fresh_verify_caches(request):
    """verify builds its fixed grids and its two coefficient-free suites once
    per process.  A test that patches the library starts and ends with them
    cleared, so it neither reads a result built without its patch nor leaves
    one built with it."""
    caches = (checks._fixed_grids, checks.check_free_trace, checks.check_free_closed_forms)
    patching = "monkeypatch" in request.fixturenames
    for cached in caches if patching else ():
        cached.cache_clear()
    yield
    for cached in caches if patching else ():
        cached.cache_clear()


@pytest.fixture(scope="session")
def zero_c() -> PeriodicCoefficients:
    return zero_coefficients(4)


@pytest.fixture(scope="session")
def const_c() -> PeriodicCoefficients:
    return PeriodicCoefficients.from_constants(1.0, -0.5, 64)


@pytest.fixture(scope="session")
def sin_c() -> PeriodicCoefficients:
    # smooth coefficients sampled at cell midpoints
    t = (np.arange(64) + 0.5) / 64
    return PeriodicCoefficients.from_samples(
        np.sin(2 * np.pi * t), 0.5 * np.sin(4 * np.pi * t)
    )


@pytest.fixture(scope="session")
def small_c() -> PeriodicCoefficients:
    return PeriodicCoefficients.from_constants(0.5, 0.3, 64)


@pytest.fixture(scope="session")
def coefficient_sets(zero_c, const_c, sin_c) -> list[PeriodicCoefficients]:
    return [zero_c, const_c, sin_c]
