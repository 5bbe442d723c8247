import math
import struct
from pathlib import Path

import numpy as np
import pytest

import triband.checks as checks
import triband.monodromy as monodromy
from triband import SpectralParameter, free_multipliers, free_trace, trace_at
from triband.coeffs import PeriodicCoefficients, load_coefficients, zero_coefficients
from triband.discriminant import rho_product_formula, rho_trace_formula
from triband.floquet import char_real_function
from triband.monodromy import char_poly, period_maps, spectral_norms
from triband.multipliers import solve_multipliers
from triband._linalg import EXTENDED, det3

_KS = (0.0, 0.3, 1.0, math.pi, 5.0)  # the reduction suite's k


def _results(c):
    """The CheckResults of run_verify by suite name."""
    return {r.name: r for r in checks.run_verify(c)}


def _trace_bounds_worst_per_point(c, scale=1.0):
    """The growth-bounds ratio one point of the real grid at a time, each map and trace
    times scale: the reference loop.  The matrix bound is read as ||M o W - C||, W = (iz)^(l-k)
    and C the circulant of the free multipliers; the caps take their roundoff allowances."""
    worst, kappa = 0.0, c.kappa
    lams, (real, *_), *_ = checks._fixed_grids()
    for lam in lams[real]:
        [M], T = period_maps(c, [lam]) * scale, trace_at(c, lam) * scale
        param = SpectralParameter.from_lambda(lam)
        assert abs(param.lam) >= 1.0
        growth = math.exp(param.z0 + kappa)
        worst = max(worst, abs(T) / (3.0 * growth))
        matrix_cap = (kappa / abs(param.z) + checks._FREE_ROUNDOFF * (1 + abs(param.z))) * growth
        worst = max(worst, abs(T - free_trace(param.lam)) / (3.0 * matrix_cap))
        W = (1j * param.z) ** monodromy._FRAME_POWERS
        circulant = monodromy.OMEGA ** (np.arange(3)[:, None, None] * -monodromy._FRAME_POWERS % 3)
        C = (np.array(free_multipliers(param))[:, None, None] * circulant).sum(axis=0) / 3
        MW = np.asarray(M, dtype=complex) * W
        roundoff = checks._FRAME_ROUNDOFF * np.abs(MW).sum()
        worst = max(worst, np.linalg.norm(MW - C, 2) / (matrix_cap + roundoff))
    return worst


@pytest.mark.parametrize("name", ["const_c", "sin_c", "small_c"])
def test_growth_bounds_suite_matches_per_point_loop(name, request):
    """The stacked growth-bounds suite reads the per-point worst ratio to 1e-12."""
    c = request.getfixturevalue(name)
    assert _results(c)["growth-bounds"].worst == pytest.approx(
        _trace_bounds_worst_per_point(c), rel=1e-12
    )


# weak coefficients: constant p or q from 1e-12 down to 1e-300, and a three-level step
# set with kappa = 1.4e-15; their perturbation caps without the allowance lie below roundoff
_WEAK_SETS = {
    **{f"p={p:g}": (np.full(64, p), np.zeros(64)) for p in (1e-12, 1e-14, 1e-15, 1e-16, 1e-300)},
    "q=1e-16": (np.zeros(64), np.full(64, 1e-16)),
    "steps": (np.repeat([2e-15, -1e-15, 5e-16], [20, 25, 19]),
              np.repeat([3e-16, 0.0, -6e-16], [12, 30, 22])),
}


@pytest.mark.parametrize("name", list(_WEAK_SETS))
def test_verify_passes_on_weak_coefficients(name):
    """Every suite passes on weak coefficients, and the growth-bounds worst is the
    per-point loop's; at kappa <= 1e-14 the perturbation ratios stay far below 1, so the
    worst is the |T| ratio of the zero set."""
    c = PeriodicCoefficients.from_samples(*_WEAK_SETS[name])
    assert c.kappa < 2e-12
    results = _results(c)
    assert all(r.passed for r in results.values()), [r.line() for r in results.values()]
    worst = results["growth-bounds"].worst
    assert worst == pytest.approx(_trace_bounds_worst_per_point(c), rel=1e-12)
    if c.kappa <= 1e-14:
        zero = _results(zero_coefficients(64))["growth-bounds"].worst
        assert worst == pytest.approx(zero, rel=1e-12)


@pytest.mark.parametrize("scale", [1 + 1e-6, 1 + 1e-10])
def test_growth_bounds_fail_a_planted_violation_at_kappa_1e_16(scale):
    """Maps and traces scaled by 1 + 1e-6 or 1 + 1e-10 at kappa = 1e-16 break the caps,
    allowance and all, by a factor of at least 1e3."""
    c = PeriodicCoefficients.from_constants(1e-16, 0.0, 64)
    lams, (real, *_), _, free = checks._fixed_grids()
    M = period_maps(c, lams)[real] * scale
    result = checks.check_trace_bounds(c.kappa, free, M, np.array(monodromy._traces(M)))
    assert not result.passed and result.worst > 1e3
    assert result.worst == pytest.approx(_trace_bounds_worst_per_point(c, scale), rel=1e-12)


def test_identity_suites_read_the_scaled_residuals(const_c, monkeypatch):
    """The det and symplectic suites hold at roundoff beyond |lambda| ~ 1e3.

    On a grid out to +-2e3 the raw determinant residual of const_c reaches
    about 7e-7, far past the former threshold 1e-9; the scaled residuals
    stay below 100 eps of the extended dtype.
    """
    monkeypatch.setattr(checks, "_real_grid", lambda: np.linspace(-2e3, 2e3, 60))
    maps = period_maps(const_c, checks._real_grid())
    assert max(abs(complex(det3(M)) - 1.0) for M in maps) > 1e-9
    lams, (real, *_), *_ = checks._fixed_grids()  # rebuilt under the patch
    assert max(abs(lams[real])) == 2e3
    results = _results(const_c)
    for name in ("determinant-identity", "symplectic-identity"):
        result = results[name]
        assert result.passed
        assert result.threshold == 100 * np.finfo(EXTENDED).eps


def test_run_verify_takes_one_norm_pass_per_stack(sin_c, monkeypatch):
    """One spectral_norms pass per distinct stack, and no SVD: the 143 maps, the symplectic
    defects of the 80 real and 40 paired rows together, the 80 growth-bounds deviations and
    the series route's Q per run of equal cells."""
    kernel, passes = monodromy.spectral_norms, []

    def counting(M):
        passes.append(M.shape)
        return kernel(M)

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    monkeypatch.setattr(checks, "spectral_norms", counting)
    monkeypatch.setattr(monodromy, "spectral_norms", counting)
    monkeypatch.setattr(np.linalg, "norm", no_svd)
    assert all(r.passed for r in checks.run_verify(sin_c))
    assert sorted(passes) == [(64, 3, 3), (80, 3, 3), (120, 3, 3), (143, 3, 3)]


def test_growth_bound_data_are_built_once_per_grid(sin_c, monkeypatch):
    """The free data of the growth-bounds suite come with the cached grids: a second
    verify call builds none, and a patched real grid rebuilds them."""
    built, free_bound_data = [], checks._free_bound_data
    monkeypatch.setattr(checks, "_free_bound_data",
                        lambda lams: built.append(len(lams)) or free_bound_data(lams))
    first = _results(sin_c)["growth-bounds"]
    assert _results(sin_c)["growth-bounds"] == first and built == [80]
    monkeypatch.setattr(checks, "_real_grid", lambda: np.linspace(-2e3, 2e3, 60))
    checks._fixed_grids.cache_clear()
    assert _results(sin_c)["growth-bounds"].passed and built == [80, 60]


def test_fixed_grids_share_one_real_grid_and_one_complex_set():
    """verify's real-axis suites read one grid, its complex suites one point set.

    Every suite keeps at least the points it had with a grid of its own, and
    the union still opens at lambda = -500, where the growth guard refuses.
    The growth-bounds suite applies its |lambda| >= 1 bounds at every point of
    the real grid, so the grid holds none below.
    """
    lams, (real, pairs, series, reduction), taus, _ = checks._fixed_grids()
    assert len(real) == 80 and all(lams[real].imag == 0.0)
    assert np.array_equal(lams[real], checks._real_grid())
    assert min(abs(checks._real_grid())) >= 1.0
    assert len(pairs) == 40 and len(taus) == 20
    for i, j in zip(pairs[:20], pairs[20:]):
        assert lams[i].imag != 0.0 and lams[j] == lams[i].conjugate()
    # former point counts in run_verify's order: determinant, symplectic,
    # characteristic-polynomial, discriminant, growth-bounds, series,
    # multiplier-symmetry, reduction
    former = [60, 60, 40, 80, 50, 9, 60, 16]
    now = [len(real), len(real) + len(pairs), len(pairs), len(real), len(real), len(series),
           len(real), len(reduction)]
    assert all(n >= n_former for n, n_former in zip(now, former, strict=True))
    assert len(lams) == 143 and lams[0] == -500.0


def _det3_indexed(M):
    """The cofactor determinant read by M[i, j], in M's own dtype: the reference of det3."""
    return (
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )


def _reference_det(M, tau):
    """det(M - tau) as the suites once took it: numpy scalars of a shifted complex128 array."""
    return complex(_det3_indexed(np.asarray(M, dtype=complex) - tau * np.eye(3)))


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)  # signed zeros count


def test_det3_of_shifted_rows_is_the_array_determinant_bit_for_bit():
    """det3 on Python complex rows with the diagonal shifted gives the bits of the numpy
    scalar path on M - tau I, on random complex128 maps with entries from 1e-5 to 1e5."""
    rng = np.random.default_rng(28)
    for _ in range(2000):
        M = 10.0 ** rng.uniform(-5, 5, (3, 3)) * np.exp(2j * np.pi * rng.uniform(size=(3, 3)))
        tau = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-5, 5)
        for shift in (tau, complex(np.exp(1j * rng.choice(_KS)))):
            direct = det3(checks._shifted(M.tolist(), shift))
            assert type(direct) is complex
            assert _bits(direct) == _bits(_reference_det(M, shift))


def _fixture_sets(request):
    names = ("const_c", "sin_c", "small_c")
    golden = load_coefficients(Path(__file__).parent / "golden" / "steps.json")
    return [request.getfixturevalue(name) for name in names] + [golden]


def test_suite_determinants_are_the_array_determinants_bit_for_bit(request):
    """The 16 reduction rows at each k and the 20 char-poly rows with their taus, on the
    conftest sets and the golden step set: det3 on shifted rows against the array path;
    the reduction, char-poly and discriminant suites' worst against the per-point loops
    they replaced; det_residual against the indexed determinant of the stack."""
    lams, (real, pairs, _, reduction), taus, _ = checks._fixed_grids()
    for c in _fixture_sets(request):
        M = period_maps(c, lams)
        T = np.array(monodromy._traces(M))
        maps = M.astype(complex)
        worst = 0.0
        for k in _KS:
            shift = np.exp(1j * k)
            for M_lam, T_lam in zip(maps[reduction], T[reduction].tolist()):
                reference = complex(_det3_indexed(M_lam - shift * np.eye(3)))
                assert _bits(det3(checks._shifted(M_lam.tolist(), complex(shift)))) == \
                    _bits(reference)
                reduced = 2j * np.exp(1.5j * k) * char_real_function(k, T_lam)
                worst = max(worst, abs(reference - reduced) / (1.0 + abs(reference)))
        assert checks.check_reduction_identity(M[reduction], T[reduction]).worst == worst
        worst, T_pairs = 0.0, T[pairs].tolist()
        for M_lam, T_lam, T_conj, tau in zip(maps[pairs], T_pairs, T_pairs[20:], taus):
            reference = _reference_det(M_lam, tau)
            assert _bits(det3(checks._shifted(M_lam.tolist(), tau))) == _bits(reference)
            residual = abs(reference - char_poly(T_lam, T_conj, tau)) / (1.0 + abs(reference))
            worst = max(worst, residual)
        assert checks.check_char_poly_identity(M[pairs], T[pairs], taus).worst == worst
        roots = solve_multipliers(T[real], np.conj(T[real]))
        worst = 0.0
        for T_lam, row in zip(T[real].tolist(), roots):
            rt, rp = rho_trace_formula(T_lam), rho_product_formula(row)
            worst = max(worst, abs(rt - rp.real) / (1.0 + abs(rt)),
                        abs(rp.imag) / (1.0 + abs(rt)) * 1e2)
        assert checks.check_discriminant_consistency(T[real], roots).worst == worst
        norms = spectral_norms(M)
        reference = np.abs(_det3_indexed(np.moveaxis(M, 0, -1)) - 1) / norms / norms / norms
        assert np.array_equal(monodromy.det_residual(M, norms), reference.astype(float))
