import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from triband import (
    OMEGA,
    PeriodicCoefficients,
    PicardTruncationError,
    PropagationOverflowError,
    SpectralParameter,
    SYMPLECTIC_J,
    char_poly,
    det_residual,
    free_trace,
    picard_monodromy,
    spectral_norms,
    symplectic_residual,
    trace_at,
    traces_at,
    zero_coefficients,
)
from triband import checks, monodromy
from triband._linalg import EXTENDED, _TAYLOR_DEGREE, det3, scaling_exponents, square_by_level
from triband.coeffs import load_coefficients
from triband.monodromy import period_maps, q_norm_integral, system_matrices

# a 2-level step set on 64 cells
STEPS = PeriodicCoefficients.from_samples(
    np.repeat([0.8, -0.3], [40, 24]), np.repeat([-0.5, 0.4], [40, 24])
)


def P(lam):
    return SpectralParameter.from_lambda(lam)


def _raw_residuals(M, M_conj):
    """|det M - 1| and ||M_conj^* J M - J||, unscaled, for one pair of maps."""
    R = M_conj.conj().T @ SYMPLECTIC_J @ M - SYMPLECTIC_J
    return abs(complex(det3(M)) - 1.0), float(np.linalg.norm(R.astype(complex), 2))


def standard_monodromy_conjugate(M, p_at_0: float) -> np.ndarray:
    """Conjugate to the classical period map in the (y, y', y'') variables.

    Returns S M S^{-1} with S = [[1,0,0],[0,1,0],[-p(0),0,1]].  Meaningful
    when p is smooth enough for y'' to be continuous; the caller owns that
    assumption.
    """
    S = np.eye(3, dtype=complex)
    S[2, 0] = -p_at_0
    S_inv = np.eye(3, dtype=complex)
    S_inv[2, 0] = p_at_0
    return S @ np.asarray(M, dtype=complex) @ S_inv


# ---------------------------------------------------------------- parameter


def test_cube_root_branch():
    rng = np.random.default_rng(3)
    for _ in range(200):
        lam = complex(rng.normal(scale=100), rng.normal(scale=100))
        par = P(lam)
        assert abs(par.z**3 - lam) <= 1e-12 * abs(lam)
        arg = np.angle(par.z)
        assert -np.pi / 6 < arg <= np.pi / 2 + 1e-15
        iz = 1j * par.z
        assert par.z0 >= (iz).real - 1e-12
        assert par.z0 >= (iz * OMEGA).real - 1e-12


def test_cube_root_on_real_axis():
    assert P(8.0).z == pytest.approx(2.0)
    # negative lambda: the branch rotates by pi/3 instead of staying real
    par = P(-8.0)
    assert par.z == pytest.approx(2.0 * np.exp(1j * np.pi / 3))
    assert P(0.0).z == 0 and P(0.0).z0 == 0.0


def test_growth_exponent_on_real_axis():
    for lam in (5.0, -5.0, 123.0, -123.0):
        assert P(lam).z0 == pytest.approx(math.sqrt(3) / 2 * abs(lam) ** (1 / 3))


# ---------------------------------------------------------- system matrices


def test_system_matrices_free():
    [Pm], Qm = system_matrices([0.0], 0.0, 0.0)
    assert np.array_equal(Pm, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))
    assert np.count_nonzero(Qm) == 0


def test_system_matrices_entries():
    [Pm], Qm = system_matrices([1j], 1.0, 2.0)
    assert Pm[2, 0] == pytest.approx(1.0)  # -i * i
    assert Qm[1, 0] == pytest.approx(-1.0)
    assert Qm[2, 0] == pytest.approx(2j)
    assert Qm[2, 1] == pytest.approx(-1.0)
    assert np.trace(Pm + Qm) == 0


def test_system_matrices_stack_and_q_norm_match_cell_loop(sin_c):
    """The integral is the cell loop of one-map spectral_norms calls bit for bit, and the
    loop of SVD norms to 1e-14."""
    _, Q = system_matrices([3.0], sin_c.p_samples, sin_c.q_samples)
    total = svd_total = 0.0
    for i in range(sin_c.grid_size):
        _, Q_i = system_matrices([3.0], sin_c.p_samples[i], sin_c.q_samples[i])
        assert np.array_equal(Q[i], Q_i)
        total += float(spectral_norms(Q_i))
        svd_total += np.linalg.norm(Q_i, 2)
    assert q_norm_integral(sin_c) == total / sin_c.grid_size
    assert q_norm_integral(sin_c) == pytest.approx(svd_total / sin_c.grid_size, rel=1e-14)


# -------------------------------------------------- period maps and pairs


def test_free_monodromy_at_zero(zero_c):
    [M] = period_maps(zero_c, [0.0])
    expected = np.array([[1, 1, 0.5], [0, 1, 1], [0, 0, 1]], dtype=complex)
    assert np.allclose(np.asarray(M, complex), expected, atol=1e-15)
    assert trace_at(zero_c, 0.0) == pytest.approx(3.0)


@pytest.mark.parametrize("lam", [3.0, -17.5, 240.0, 2.0 + 3.0j, -50.0 + 12.0j])
def test_free_monodromy_eigenvalues(zero_c, lam):
    # eigenvalues of the free period map are exp(i w^(j-1) z)
    [M] = period_maps(zero_c, [lam])
    got = np.sort_complex(np.linalg.eigvals(np.asarray(M, complex)))
    want = np.sort_complex(np.array([np.exp(1j * OMEGA**j * P(lam).z) for j in range(3)]))
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_grid_size_does_not_matter_for_constant_coefficients():
    lam = 11.0
    [coarse] = period_maps(PeriodicCoefficients.from_constants(0.7, -0.2, 1), [lam])
    [fine] = period_maps(PeriodicCoefficients.from_constants(0.7, -0.2, 64), [lam])
    assert np.allclose(np.asarray(coarse, complex), np.asarray(fine, complex), atol=1e-13)


def test_plain_double_precision_fallback(sin_c):
    # the dtype knob exists for platforms without an extended long double;
    # at moderate lambda the two paths agree to full double precision
    [M_ext] = monodromy.period_maps(sin_c, [35.0])
    [M_dbl] = monodromy.period_maps(sin_c, [35.0], dtype=np.complex128)
    assert M_dbl.dtype == np.complex128
    assert np.allclose(np.asarray(M_ext, complex), M_dbl, rtol=1e-12, atol=1e-12)
    assert abs(complex(det3(M_dbl)) - 1.0) <= 1e-12


def test_substeps_change_nothing(sin_c):
    # splitting every cell into three equal substeps keeps the step model
    refined = PeriodicCoefficients.from_samples(
        np.repeat(sin_c.p_samples, 3), np.repeat(sin_c.q_samples, 3)
    )
    [M1] = period_maps(sin_c, [25.0])
    [M3] = period_maps(refined, [25.0])
    assert np.allclose(np.asarray(M1, complex), np.asarray(M3, complex), atol=1e-12)


def test_determinant_and_symplectic_residuals(coefficient_sets):
    for c in coefficient_sets:
        for M in period_maps(c, np.linspace(-400, 400, 21)):
            det, symp = _raw_residuals(M, M)
            assert det <= 1e-9
            assert symp <= 1e-8


@pytest.mark.parametrize("lam", [1e2, -1e2, 1e4, -1e4, 1e6, -1e6])
def test_scaled_residuals_stay_at_roundoff(const_c, sin_c, lam):
    """|det M - 1|/||M||^3 and the symplectic residual/||M||^2 far out.

    The raw residuals grow with ||M|| and fail their verify thresholds
    from |lambda| ~ 2e3 on; the scaled ones stay at roundoff (below 1e-23
    and 1e-18 on these sets).
    """
    for c in (const_c, sin_c, STEPS):
        M = period_maps(c, [lam])
        norms = spectral_norms(M)
        assert det_residual(M, norms)[0] <= 1e-17
        assert symplectic_residual(M, M, norms, norms)[0] <= 1e-15


def test_scaled_residuals_scale_each_map_by_its_own_entries():
    """A stack from 1e2 to -2e8 gives the one-map residuals, bit for bit.

    Its largest entries span some 220 decades; one scale for the whole
    stack moves the residuals of the small maps in their last bits.
    """
    M = period_maps(STEPS, [1e2, -1e4, 1e8, -2e8])
    norms = spectral_norms(M)
    det, symp = det_residual(M, norms), symplectic_residual(M, M, norms, norms)
    for i in range(len(M)):
        one = M[i : i + 1]
        one_norm = spectral_norms(one)
        assert det[i] == det_residual(one, one_norm)[0]
        assert symp[i] == symplectic_residual(one, one, one_norm, one_norm)[0]
    assert max(det.max(), symp.max()) <= 100 * np.finfo(EXTENDED).eps


def test_symplectic_identity_complex_pairs(sin_c):
    rng = np.random.default_rng(11)
    for _ in range(8):
        lam = complex(rng.uniform(-300, 300), rng.uniform(-300, 300))
        M, M_bar = period_maps(sin_c, [lam, lam.conjugate()])
        assert _raw_residuals(M, M_bar)[1] <= 1e-8
        assert _raw_residuals(M_bar, M)[1] <= 1e-8
        pair = np.stack((M, M_bar))
        norms = spectral_norms(pair)
        assert symplectic_residual(pair, pair[::-1], norms, norms[::-1]).max() <= 1e-15
        # direct form of the identity
        J = SYMPLECTIC_J
        R = np.asarray(M_bar, complex).conj().T @ J @ np.asarray(M, complex) - J
        assert np.linalg.norm(R, 2) <= 1e-8


_PAIR_LAMBDAS = (7.0, 2.0 + 3.0j, -40.0, -50.0 - 12.0j, 0.0, 3e4 + 1e-3j)


def _conjugate_pairs(c):
    """Maps at _PAIR_LAMBDAS and at their conjugates, paired by row, from one core call of
    the L points and the conjugates of the C complex ones: a real lambda is its own partner,
    evaluated once."""
    lams = [complex(lam) for lam in _PAIR_LAMBDAS]
    paired = [i for i, lam in enumerate(lams) if lam.imag != 0.0]
    M = period_maps(c, lams + [lams[i].conjugate() for i in paired])
    partner = np.arange(len(lams))  # row of the map at conj(lambda)
    partner[paired] = np.arange(len(lams), len(M))
    return M, M[: len(lams)], M[partner]


def test_conjugate_pairs_are_one_core_call(sin_c, monkeypatch):
    """L points, of which C complex, pair from one core call of L + C points, and verify
    pairs its 80 real and 20 complex points inside its one core call of 143."""
    stack, M, M_conj = _conjugate_pairs(sin_c)
    assert stack.shape == (len(_PAIR_LAMBDAS) + 3, 3, 3)
    norms, norms_conj = spectral_norms(M), spectral_norms(M_conj)
    assert symplectic_residual(M, M_conj, norms, norms_conj).max() <= 1e-15
    core, calls = monodromy.period_maps, []

    def counting(c, lams, *args, **kwargs):
        calls.append(len(lams))
        return core(c, lams, *args, **kwargs)

    monkeypatch.setattr(checks, "period_maps", counting)
    symplectic = checks.run_verify(sin_c)[1]
    assert symplectic.name == "symplectic-identity" and symplectic.passed
    assert calls == [143]


def test_pair_rows_are_the_maps_at_conj_lambda(sin_c):
    """The M_conj row of a complex lambda is the core's map at conj(lambda),
    bit for bit; a real lambda's M_conj row is its M row."""
    _, M, M_conj = _conjugate_pairs(sin_c)
    assert _same_bits(M, period_maps(sin_c, _PAIR_LAMBDAS))
    for lam, row, conj_row in zip(_PAIR_LAMBDAS, M, M_conj):
        if complex(lam).imag == 0.0:
            assert _same_bits(conj_row, row)
        else:
            assert _same_bits(conj_row, period_maps(sin_c, [complex(lam).conjugate()])[0])


def test_overflow_fails_loudly(const_c):
    with pytest.raises(PropagationOverflowError):
        period_maps(const_c, [1e12])


def _across_the_guard(c, direction):
    """lambda = direction * s^3 for s from 1e-6 below to 1e-6 above the z0 edge,
    and the 20 floats on each side of it: z0 = s on the positive imaginary
    axis, sqrt(3) s / 2 on the real axis."""
    edge = monodromy.MAX_GROWTH_EXPONENT - c.kappa
    if direction.real != 0.0:
        edge /= math.sqrt(3.0) / 2.0
    near = [edge**3]
    for toward in (0.0, np.inf):
        x = edge**3
        for _ in range(20):
            x = float(np.nextafter(x, toward))
            near.append(x)
    far = [(edge * (1 + d)) ** 3 for d in (-1e-6, -1e-9, -1e-12, 1e-12, 1e-9, 1e-6)]
    return [complex(0.0, x) if direction == 1j else direction.real * x for x in near + far]


@pytest.mark.parametrize("direction", [1j, 1.0, -1.0], ids=["imag", "pos", "neg"])
def test_guard_refuses_exactly_where_z0_says(direction):
    """growth_refusal refuses where z0 + kappa of SpectralParameter.from_lambda
    exceeds the guard, with the message built from that z0, on both sides."""
    refused = []
    for lam in _across_the_guard(STEPS, direction):
        z0 = P(lam).z0
        refusal = monodromy.growth_refusal(STEPS, lam)
        assert (refusal is not None) == (z0 + STEPS.kappa > monodromy.MAX_GROWTH_EXPONENT), lam
        if refusal is not None:
            assert str(refusal).startswith(f"growth exponent z0 + kappa = {z0 + STEPS.kappa:.1f} ")
        refused.append(refusal is not None)
    assert any(refused) and not all(refused)


def test_guard_reads_z0_only_past_its_bound(monkeypatch):
    """z0 <= |lambda|^(1/3): inside that bound the guard, and a core call,
    compute no SpectralParameter; past it, the guard computes one."""
    made = []
    from_lambda = SpectralParameter.from_lambda

    def spying(cls, lam):
        made.append(lam)
        return from_lambda(lam)

    monkeypatch.setattr(SpectralParameter, "from_lambda", classmethod(spying))
    edge = monodromy.MAX_GROWTH_EXPONENT - STEPS.kappa
    inside = [0.0, 1e3, -1e6, 3 + 4j, 1j * (edge / (1 + 2e-9)) ** 3, -(edge / (1 + 2e-9)) ** 3]
    assert [monodromy.growth_refusal(STEPS, lam) for lam in inside] == [None] * len(inside)
    monodromy.traces_at(STEPS, inside[:4])
    assert made == []
    accepted = -((edge / (1 + 1e-10)) ** 3)  # past the bound, z0 = 0.866 of it
    assert monodromy.growth_refusal(STEPS, accepted) is None and made == [accepted]
    assert monodromy.growth_refusal(STEPS, 1j * (edge * (1 + 1e-9)) ** 3) is not None
    assert len(made) == 2


# ------------------------------------------------------------------- bounds


def test_trace_bound(coefficient_sets):
    # |T| <= 3 exp(z0 + kappa) everywhere
    for c in coefficient_sets:
        lams = list(np.linspace(-500, 500, 41)) + [2.0 + 90.0j, -30.0 - 200.0j]
        for lam, T in zip(lams, traces_at(c, lams)):
            assert abs(T) <= 3 * math.exp(P(lam).z0 + c.kappa) * (1 + 1e-9)


def test_trace_perturbation_bound(const_c, sin_c):
    # |T - T0| <= 3 kappa exp(z0 + kappa)/|z| for |lambda| >= 1
    for c in (const_c, sin_c):
        lams = [float(lam) for lam in np.linspace(-500, 500, 41) if abs(lam) >= 1]
        for lam, T in zip(lams, traces_at(c, lams)):
            cap = 3 * c.kappa * math.exp(P(lam).z0 + c.kappa) / abs(P(lam).z)
            assert abs(T - free_trace(lam)) <= cap * (1 + 1e-9)


def _free_frame(par):
    """(V, V^-1, D) at lambda != 0: V = Z U with Z = diag(1, iz, (iz)^2) and U the unitary
    3-point DFT diagonalizes the free system, whose propagator there is D = diag(e^{i z w^j})."""
    Z = np.diag([1.0, 1j * par.z, (1j * par.z) ** 2])
    U = np.array([[1, 1, 1], [1, OMEGA, OMEGA**2], [1, OMEGA**2, OMEGA]]) / math.sqrt(3.0)
    D = np.diag(np.exp(1j * par.z * OMEGA ** np.arange(3)))
    return Z @ U, U.conj().T @ np.linalg.inv(Z), D


def test_transformed_frame_bound(const_c, sin_c):
    # || V^-1 M V - exp(izB) || <= (kappa/|z|) exp(z0 + kappa), |lambda| >= 1
    for c in (const_c, sin_c):
        lams = [1.0, -2.0, 9.0, -75.0, 300.0, 1e4, -1e5]
        for lam, M in zip(lams, period_maps(c, lams)):
            par = P(lam)
            V, V_inv, free = _free_frame(par)
            frame = V_inv @ np.asarray(M, complex) @ V
            cap = c.kappa / abs(par.z) * math.exp(par.z0 + c.kappa)
            assert np.linalg.norm(frame - free, 2) <= cap * (1 + 1e-9)


@pytest.mark.parametrize("name", ["zero_c", "const_c", "sin_c", "small_c"])
def test_frame_deviation_is_the_circulant_deviation(name, request):
    """||V^-1 M V - D|| in the free frame equals ||M o W - C||, the growth-bounds suite's form
    (W = (iz)^(l-k), C the circulant of the free multipliers), to 64 eps e^{z0+kappa}."""
    c = request.getfixturevalue(name)
    lams = [1.0, -2.0, 9.0, -75.0, 300.0, -500.0, 3 + 4j, -20 - 7j]
    z0, _, _, W, C = checks._free_bound_data(np.array(lams))
    M = period_maps(c, lams).astype(complex)
    for lam, M_lam, norm, growth in zip(lams, M, spectral_norms(M * W - C), z0 + c.kappa):
        V, V_inv, free = _free_frame(P(lam))
        frame = np.linalg.norm(V_inv @ M_lam @ V - free, 2)
        assert abs(norm - frame) <= 64 * np.finfo(float).eps * math.exp(growth)


@pytest.mark.parametrize("lam", [math.nan, complex(1.0, math.nan), math.inf])
def test_spectral_parameter_refuses_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be finite"):
        SpectralParameter.from_lambda(lam)


# ----------------------------------------------------------------- series


def test_picard_free_case_terminates_at_zeroth_term(zero_c):
    m = picard_monodromy(zero_c, P(30.0), tol=1e-10)
    assert m.order == 0 and len(m.term_norms) == 1
    [direct] = period_maps(zero_c, [30.0])
    assert np.allclose(np.asarray(m.M, complex), np.asarray(direct, complex), atol=1e-10)


def test_picard_agrees_with_exponential_steps(small_c):
    [M_exp] = period_maps(small_c, [10.0])
    m_ser = picard_monodromy(small_c, P(10.0), tol=1e-10)
    diff = np.abs(np.asarray(M_exp, complex) - np.asarray(m_ser.M, complex)).max()
    assert diff <= 1e-8
    assert m_ser.tail_bound < 1e-10


def test_picard_term_norms_bound(small_c, sin_c):
    """Term norms against exp(z0) kq^n/n!, with the transient factor measured.

    The free propagator is not normal: its norm exceeds exp(z0 t) by an
    O(1)..O(|z|) transient factor, so the clean prefactor exp(z0) holds
    only up to that factor (it reaches ~7.5 already at |lambda| = 100).
    The test computes the actual transient constant C = sup_t
    ||exp(tP)|| exp(-z0 t) and checks the series terms against the bound
    with C^(n+1) in place of 1, which is what the nested-integral argument
    supports.
    """
    for c in (small_c, sin_c):
        kq = q_norm_integral(c)
        assert kq <= c.kappa + 1e-12  # |Q| <= |p| + |q|
        for lam in (0.001, 1.0, -20.0, 100.0):
            par = P(lam)
            m = picard_monodromy(c, par, tol=1e-10)
            [Pm], _ = system_matrices([lam], 0.0, 0.0)
            transient = max(
                np.linalg.norm(_expm_dense(Pm * t), 2) * math.exp(-par.z0 * t)
                for t in np.linspace(0.05, 1.0, 20)
            )
            transient = max(transient, 1.0)
            for n, norm_n in enumerate(m.term_norms):
                cap = transient ** (n + 1) * math.exp(par.z0) * kq**n / math.factorial(n)
                assert norm_n <= cap * (1 + 1e-6), (lam, n)


def _expm_dense(A):
    out = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    scale = max(1, int(np.ceil(np.abs(A).sum(axis=-1).max() / 0.25)))
    for m in range(1, 40):
        term = term @ (A / scale) / m
        out = out + term
    return np.linalg.matrix_power(out, scale)


def test_picard_first_terms_against_quadrature_oracle():
    """Term-level oracle: the first two series terms by direct quadrature.

    M_1(1) = int_0^1 e^{(1-s)P} Q(s) e^{sP} ds and M_2(1) the corresponding
    double integral.  Per coefficient cell the integrand is entire, so
    composite Gauss-Legendre converges spectrally; 12 nodes per cell are
    far beyond the comparison tolerance.  This checks the block-stack
    recursion term by term, not just its sum.
    """
    c = PeriodicCoefficients.from_constants(0.5, 0.3, 8)
    lam = 10.0
    par = P(lam)
    [Pm], _ = system_matrices([lam], 0.0, 0.0)
    h = 1.0 / c.grid_size
    nodes, weights = np.polynomial.legendre.leggauss(12)

    def q_at(s):
        i = min(int(s * c.grid_size), c.grid_size - 1)
        p_i, q_i = c.p_samples[i], c.q_samples[i]
        return np.array([[0, 0, 0], [-p_i, 0, 0], [1j * q_i, -p_i, 0]], dtype=complex)

    def expP(t):
        return _expm_dense(Pm * t)

    def m1_at(t):
        total = np.zeros((3, 3), dtype=complex)
        edges = [min(h * i, t) for i in range(c.grid_size + 1)]
        for a, b in zip(edges, edges[1:]):
            if b <= a:
                continue
            for x, w in zip(nodes, weights):
                s = 0.5 * (a + b) + 0.5 * (b - a) * x
                total += 0.5 * (b - a) * w * (expP(t - s) @ q_at(s) @ expP(s))
        return total

    def m2_at_one():
        total = np.zeros((3, 3), dtype=complex)
        for i in range(c.grid_size):
            a, b = h * i, h * (i + 1)
            for x, w in zip(nodes, weights):
                t = 0.5 * (a + b) + 0.5 * (b - a) * x
                total += 0.5 * (b - a) * w * (expP(1 - t) @ q_at(t) @ m1_at(t))
        return total

    m_ser = picard_monodromy(c, par, tol=1e-12)
    m0 = expP(1.0)
    m1 = m1_at(1.0)
    m2 = m2_at_one()
    M = np.asarray(m_ser.M, complex)
    tail = np.abs(M - (m0 + m1 + m2)).max()
    # the remainder after three terms is bounded by the next term scale
    kq = q_norm_integral(c)
    import math as _math

    bound = _math.exp(par.z0) * kq**3 / 6 * _math.exp(kq) * 8.0
    assert tail <= max(bound, 1e-9)
    # and the explicit term norms match the oracle terms
    assert m_ser.term_norms[0] == pytest.approx(np.linalg.norm(m0, 2), rel=1e-9)
    assert m_ser.term_norms[1] == pytest.approx(np.linalg.norm(m1, 2), rel=1e-8)
    assert m_ser.term_norms[2] == pytest.approx(np.linalg.norm(m2, 2), rel=1e-7)


def test_symplectic_inverse_formula(sin_c):
    # the identity pins the inverse: M^{-1} = -J M(conj lambda)^* J
    J = SYMPLECTIC_J
    maps = period_maps(sin_c, [4.0, -35.0, 6.0 + 2.0j, 6.0 - 2.0j])
    for M, M_bar in zip(maps, maps[[0, 1, 3, 2]]):
        M = np.asarray(M, complex)
        inv_direct = np.linalg.inv(M)
        inv_symplectic = -J @ np.asarray(M_bar, complex).conj().T @ J
        assert np.allclose(inv_direct, inv_symplectic, atol=1e-10 * np.linalg.cond(M))


def test_picard_truncation_failure_is_loud(const_c):
    # z0 ~ 420 makes exp(z0) unpayable within the term cap
    with pytest.raises(PicardTruncationError):
        picard_monodromy(const_c, P(1.1e8), tol=1e-10)


def test_picard_rejects_bad_tol(const_c):
    """Only a finite, positive tol reaches the series: inf once gave order 0."""
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            picard_monodromy(const_c, P(1.0), tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            monodromy.picard_maps(const_c, [1.0], tol=tol)


def _harmonic_set(seed, n):
    """Random p, q of 2 to 5 harmonics at the cell midpoints: no two cells equal."""
    rng = np.random.default_rng(seed)
    t = (np.arange(n) + 0.5) / n
    p, q = np.zeros(n), np.zeros(n)
    for k in range(1, int(rng.integers(2, 6)) + 1):
        p += 0.5 * rng.normal() / k * np.cos(2 * np.pi * k * t + rng.uniform(0, 2 * np.pi))
        q += 0.5 * rng.normal() / k * np.cos(2 * np.pi * k * t + rng.uniform(0, 2 * np.pi))
    return PeriodicCoefficients.from_samples(p, q)


def _sin_cos_set(n):
    t = (np.arange(n) + 0.5) / n
    return PeriodicCoefficients.from_samples(np.sin(2 * np.pi * t), np.cos(2 * np.pi * t))


@pytest.mark.parametrize(
    "make", [lambda: _harmonic_set(1, 8), lambda: _harmonic_set(2, 8), lambda: _sin_cos_set(64)],
    ids=["harmonic-1", "harmonic-2", "sin-cos-64"],
)
def test_picard_matches_50_digit_cell_product(make):
    """The series route against a 50-digit product of mpmath.expm per cell.

    Entrywise error relative to max |M|, at most 1e-14.  Before the
    series route took the balanced frame it read up to 1.5e-14 here (at
    lambda = 50 on the harmonic sets); in the frame at most 3e-15.
    """
    mp = pytest.importorskip("mpmath")
    c = make()
    lams = [-100.0, -25.0, 50.0, 100.0, 37.3 + 12j]
    maps = monodromy.picard_maps(c, lams, tol=1e-10)
    with mp.workdps(50):
        for lam, M in zip(lams, maps):
            ref = mp.eye(3)
            for p, q in zip(c.p_samples, c.q_samples):
                A = mp.matrix([[0, 1, 0], [-p, 0, 1], [1j * (mp.mpf(q) - mp.mpc(lam)), -p, 0]])
                ref = mp.expm(A / c.grid_size) * ref
            ref = np.array(ref.tolist(), dtype=complex)
            err = np.abs(M - ref).max() / np.abs(ref).max()
            assert err <= 1e-14, lam


@pytest.mark.parametrize("family", ["zero", "harmonic"])
def test_picard_maps_equals_one_point_calls(family):
    """One series call over points of different orders K gives the one-point results.

    The call pads every point to its largest K; block j of a lower
    block-Toeplitz product depends on blocks 0..j only, so each point's
    own terms come out as in a call of its own.  The loose tol gives
    orders 7 to 11 on the harmonic set, where the first padded term is
    far above roundoff: a point that summed the padded terms would fail.
    """
    c = zero_coefficients(4) if family == "zero" else _harmonic_set(3, 8)
    lams = [0.0, -100.0, 100.0, 1e3, 20 + 30j, 20 - 30j]
    batched = monodromy.picard_maps(c, lams, tol=1e-4)
    terms, orders = monodromy._series_terms(c, [P(lam) for lam in lams], tol=1e-4)
    if family == "zero":
        assert {K for K, _ in orders} == {0}
    else:
        assert len({K for K, _ in orders}) >= 3
    eps = np.finfo(np.complex128).eps
    for lam, M, W, (K, tail) in zip(lams, batched, terms, orders):
        one = picard_monodromy(c, P(lam), tol=1e-4)
        assert K == one.order
        assert tail == one.tail_bound
        assert not W[K + 1 :].any()
        assert np.abs(M - one.M).max() <= 4 * eps * np.linalg.norm(one.M, 2)
        assert M.trace() == pytest.approx(one.trace_T, rel=4 * eps, abs=0)
        assert len(one.term_norms) == one.order + 1
        norms = np.linalg.norm(W[: K + 1], 2, axis=(-2, -1)).tolist()
        assert norms == pytest.approx(one.term_norms, rel=1e-12)


def test_cores_take_an_empty_list(zero_c, sin_c):
    """Both cores map no points to an empty (0, 3, 3) stack; the series terms
    of no points are an empty stack with no orders."""
    for c in (zero_c, sin_c):
        assert period_maps(c, []).shape == (0, 3, 3)
        assert monodromy.picard_maps(c, [], tol=1e-10).shape == (0, 3, 3)
        terms, orders = monodromy._series_terms(c, [], tol=1e-10)
        assert terms.shape[0] == 0 and orders == []


@pytest.mark.parametrize(
    "far, error", [(1.1e8, PicardTruncationError), (-1e12, PropagationOverflowError)]
)
def test_picard_maps_refuses_before_any_work(const_c, monkeypatch, far, error):
    """A point past the tail bound or the growth guard refuses the whole list."""

    def no_work(*args, **kwargs):
        raise AssertionError("series exponentials evaluated before the refusal")

    with pytest.raises(error) as single:
        picard_monodromy(const_c, P(far), tol=1e-10)
    monkeypatch.setattr(monodromy, "_series_exponentials", no_work)
    with pytest.raises(error) as batched:
        monodromy.picard_maps(const_c, [1.0, 3 + 4j, far, -5.0], tol=1e-10)
    assert str(batched.value) == str(single.value)


def _series_exponentials_per_term(a, c0, b, c1, n):
    """The Taylor stage with a fresh array per term: the reference of _series_exponentials."""
    squarings = scaling_exponents(np.maximum(abs(a), abs(c0)) + abs(b) + abs(c1))
    a, c0, b, c1 = (x * np.ldexp(1.0, -squarings) for x in (a, c0, b, c1))
    G = np.zeros((n, 3, 3, len(a)), dtype=c0.dtype)
    G[0, [0, 1, 2], [0, 1, 2]] = 1
    term = G[:1]
    for k in range(1, _TAYLOR_DEGREE + 1):
        nxt = np.zeros_like(G[: min(k + 1, n)])
        nxt[: len(term), :2] = a * term[:, 1:]
        nxt[: len(term), 2] = c0 * term[:, 0]
        below = term[: len(nxt) - 1]
        nxt[1:, 1:] += b * below[:, :2]
        nxt[1:, 2] += c1 * below[:, 0]
        nxt /= k
        G[: len(nxt)] += nxt
        term = nxt
    G = np.ascontiguousarray(np.moveaxis(G, -1, 0))
    square_by_level(G, squarings, monodromy._toeplitz_squares)
    return G


def _assert_same_bits(got, want):
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 17, 18, 30])
def test_series_exponentials_equal_the_per_term_loop(n):
    """Bit for bit on random generators whose scaled norms need 0 to 14 squarings,
    with fewer blocks than Taylor terms, as many, and more."""
    rng = np.random.default_rng(n)
    a, c0, b, c1 = (10.0 ** rng.uniform(-3, 3, 40) * np.exp(2j * np.pi * rng.uniform(size=40))
                    for _ in range(4))
    want = _series_exponentials_per_term(a, c0, b, c1, n)
    _assert_same_bits(monodromy._series_exponentials(a, c0, b, c1, n), want)


def test_series_exponentials_equal_the_per_term_loop_on_verify_far(tmp_path, monkeypatch):
    """Bit for bit on the inputs of the 9-point series call of verify on the seed-41
    verify-far sets of perfbench/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    ops = workloads.WORKLOADS["verify-far"].build(np.random.default_rng(41), str(tmp_path))
    grid, (_, _, series, _), *_ = checks._fixed_grids()
    inputs, exponentials = [], monodromy._series_exponentials
    monkeypatch.setattr(monodromy, "_series_exponentials",
                        lambda *args: inputs.append(args) or exponentials(*args))
    for op in [op for op in ops if op.kind == "verify"]:
        monodromy.picard_maps(load_coefficients(op.coeffs), grid[series], tol=checks._PICARD_TOL)
    assert len(inputs) >= 20
    for args in inputs:
        _assert_same_bits(exponentials(*args), _series_exponentials_per_term(*args))


def test_toeplitz_rows_are_built_once_per_order_and_read_only():
    """The gather index of _block_toeplitz: row 3(j - k) + r of the block column at entry
    (3j + r, 3k + .), the appended zero row 3n above the diagonal."""
    for n in (1, 4, 9):
        rows = monodromy._toeplitz_rows(n)
        assert monodromy._toeplitz_rows(n) is rows
        with pytest.raises(ValueError):
            rows[0, 0] = 0
        want = [[3 * (j - k) + r if k <= j else 3 * n for k in range(n)]
                for j in range(n) for r in range(3)]
        assert rows.tolist() == want


# --------------------------------------------------- characteristic cubic


def test_char_poly_at_zero_is_one(coefficient_sets):
    for c in coefficient_sets:
        for T in traces_at(c, [0.0, 4.0, -9.0]):
            assert char_poly(T, T, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_char_poly_vanishes_at_free_multiplier(zero_c):
    for T in traces_at(zero_c, [(2 * math.pi * n) ** 3 for n in (1, 2, 3)]):
        scale = 1 + abs(T) ** 2
        assert abs(char_poly(T, T, 1.0)) <= 1e-10 * scale


def test_char_poly_free_product_form(zero_c):
    # det(M0 - tau) = -(tau - e^{iz})(tau - e^{iwz})(tau - e^{iw^2 z})
    rng = np.random.default_rng(5)
    lams = [lam for lam in np.linspace(-300, 300, 13) if lam != 0]
    for lam, T in zip(lams, traces_at(zero_c, lams)):
        z = P(lam).z
        roots = [np.exp(1j * OMEGA**j * z) for j in range(3)]
        for _ in range(3):
            tau = complex(rng.normal(), rng.normal())
            product = -np.prod([tau - r for r in roots])
            val = char_poly(T, T, tau)
            assert abs(val - product) <= 1e-8 * (1 + abs(product))


def test_char_poly_matches_determinant_for_complex_lambda(sin_c):
    rng = np.random.default_rng(13)
    for _ in range(10):
        lam = complex(rng.uniform(-150, 150), rng.uniform(-150, 150))
        M, M_conj = period_maps(sin_c, [lam, lam.conjugate()])
        T, T_conj = (complex(np.trace(m)) for m in (M, M_conj))
        tau = complex(rng.normal(), rng.normal())
        direct = complex(det3(np.asarray(M, complex) - tau * np.eye(3)))
        assert abs(char_poly(T, T_conj, tau) - direct) <= 1e-8 * (1 + abs(direct))


# ------------------------------------------- standard-variables conjugate


def test_standard_conjugate_identity_when_p0_zero(zero_c):
    [M] = period_maps(zero_c, [6.0])
    assert np.allclose(standard_monodromy_conjugate(M, 0.0), np.asarray(M, complex), atol=1e-14)


def test_standard_conjugate_preserves_trace(const_c):
    lams = [2.0, -30.0, 100.0]
    for M, T in zip(period_maps(const_c, lams), traces_at(const_c, lams)):
        conj = standard_monodromy_conjugate(M, const_c.p_samples[0])
        assert np.trace(conj) == pytest.approx(T, rel=1e-12)


def test_standard_conjugate_against_classical_integration():
    """Oracle: dense RK4 on the scalar equation in (y, y', y'') variables.

    For constant p and q = 0 the equation reads y''' = -i lam y - 2 p y',
    which is integrated directly with standard basis initial data; the
    classical period map assembled from it must equal S M S^{-1}.
    """
    p0, lam = 1.0, 5.0
    c = PeriodicCoefficients.from_constants(p0, 0.0, 32)

    def rhs(Y):
        return np.array([Y[1], Y[2], -1j * lam * Y[0] - 2 * p0 * Y[1]])

    n_steps = 4000
    h = 1.0 / n_steps
    M_classical = np.eye(3, dtype=complex)
    for col in range(3):
        y = np.eye(3, dtype=complex)[:, col]
        for _ in range(n_steps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        M_classical[:, col] = y

    [M] = period_maps(c, [lam])
    conj = standard_monodromy_conjugate(M, p0)
    assert np.allclose(conj, M_classical, atol=5e-9)


def test_symplectic_residual_direct():
    M = np.eye(3, dtype=complex)[np.newaxis]
    norms = spectral_norms(M)
    assert symplectic_residual(M, M, norms, norms)[0] == pytest.approx(0.0, abs=1e-15)


# ------------------------------------------------------- the norm kernel


def _unitaries(rng, n):
    return np.linalg.qr(rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3)))[0]


def _norm_stacks():
    rng = np.random.default_rng(26)
    random = rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3))
    u, v = random[:, :, 0], random[:, 0, :]
    # sigma_1 = sigma_2: U diag(2, 2, 0.5) W for unitary U and W
    double = _unitaries(rng, 40) * np.array([2.0, 2.0, 0.5]) @ _unitaries(rng, 40)
    return {
        "random": random,
        "rank-1": u[:, :, np.newaxis] * v.conj()[:, np.newaxis, :],
        "sigma1-equals-sigma2": double,
        "near-identity": np.eye(3) + 1e-9 * random,
    }


@pytest.mark.parametrize("kind", ["random", "rank-1", "sigma1-equals-sigma2", "near-identity"])
def test_spectral_norms_agree_with_the_svd(kind):
    M = _norm_stacks()[kind]
    svd = np.linalg.norm(M, 2, axis=(-2, -1))
    assert np.abs(spectral_norms(M) / svd - 1).max() <= 1e-14


def test_spectral_norms_of_extended_maps_past_double_range():
    """At lambda = -2e8 and scaled past double range, in the maps' own long double type,
    against the SVD of each map scaled by its largest entry."""
    [M] = period_maps(STEPS, [-2e8])
    far = M * np.longdouble(2.0) ** 1000
    assert np.abs(far).max() > np.finfo(float).max
    for X in (M, far):
        scale = np.abs(X).max()
        svd = scale * np.linalg.norm((X / scale).astype(complex), 2)
        norm = spectral_norms(X)
        assert norm.dtype == np.finfo(EXTENDED).dtype and np.isfinite(norm)
        assert abs(norm / svd - 1) <= 1e-14


def test_spectral_norms_of_a_zero_map_is_zero():
    for dtype in (complex, EXTENDED):
        M = np.zeros((3, 3, 3), dtype=dtype)
        M[1] = np.eye(3)
        assert spectral_norms(M).tolist() == [0.0, 1.0, 0.0]


@pytest.mark.parametrize("kind", ["random", "rank-1", "sigma1-equals-sigma2", "near-identity"])
def test_spectral_norms_rows_are_one_map_calls(kind):
    M = _norm_stacks()[kind]
    for stack in (M, M.astype(EXTENDED) * np.longdouble(10.0) ** 300):
        norms = spectral_norms(stack)
        assert all(norms[i] == spectral_norms(stack[i]) == spectral_norms(stack[i : i + 1])[0]
                   for i in range(len(stack)))


# ------------------------------------------------------- batched core


def _coefficient_family(name, n):
    t = (np.arange(n) + 0.5) / n
    if name == "zero":
        return zero_coefficients(n)
    if name == "const":
        return PeriodicCoefficients.from_constants(1.0, -0.5, n)
    if name == "sin":
        return PeriodicCoefficients.from_samples(
            np.sin(2 * np.pi * t), 0.5 * np.sin(4 * np.pi * t)
        )
    # three levels on contiguous runs of cells
    return PeriodicCoefficients.from_samples(
        np.select([t < 0.3, t < 0.7], [0.6, -0.4], 0.2),
        np.select([t < 0.3, t < 0.7], [0.3, -0.2], 0.5),
    )


# 0, 0-2, 12-13 and 22 squarings per run at N = 1, plus complex pairs
_MIXED_LAMBDAS = (0.0, 1.0, -1.0, 5e2, -5e2, 1e6, -1e6, 3 + 4j, 3 - 4j,
                  -2e3 + 50j, -2e3 - 50j)


@pytest.mark.parametrize("n", [1, 4, 8, 64, 1024])
@pytest.mark.parametrize("family", ["zero", "const", "sin", "steps3"])
def test_batched_core_equals_per_lambda_loop(family, n):
    """One core call over many lambdas gives the one-lambda maps bit for bit.

    The list is longer than one stack, so it spans stacks and mixes
    scaling exponents within each.  The complex128 fallback may differ in
    how its matmuls are batched, so it gets a 1e-15 relative bound.
    """
    c = _coefficient_family(family, n)
    runs = 1 + int(np.count_nonzero(
        (np.diff(c.p_samples) != 0) | (np.diff(c.q_samples) != 0)))
    length = max(len(_MIXED_LAMBDAS), monodromy._STACK_MATRICES // runs + 3)
    lams = [lam * (1 + i // len(_MIXED_LAMBDAS) / 1000)
            for i, lam in zip(range(length), itertools.cycle(_MIXED_LAMBDAS))]

    batched = monodromy.period_maps(c, lams)
    looped = np.stack([monodromy.period_maps(c, [lam])[0] for lam in lams])
    assert batched.dtype == looped.dtype
    assert np.array_equal(batched, looped)
    # the same rows with the conjugates of the complex points appended, as verify asks
    conjugates = [complex(lam).conjugate() for lam in lams if complex(lam).imag != 0.0]
    assert np.array_equal(monodromy.period_maps(c, lams + conjugates)[: len(lams)], looped)
    assert monodromy.traces_at(c, lams) == [monodromy.trace_at(c, lam) for lam in lams]

    wide = monodromy.period_maps(c, lams, dtype=np.complex128)
    for M, lam in zip(wide, lams):
        [ref] = monodromy.period_maps(c, [lam], dtype=np.complex128)
        assert np.abs(M - ref).max() <= 1e-15 * np.abs(ref).max()


def test_calls_sharing_a_run_table_match_a_fresh_object():
    """Repeated core calls on one coefficient object, in both dtypes and on
    the series route, give what a fresh object gives on its first call."""
    c = _coefficient_family("steps3", 64)
    lams = list(_MIXED_LAMBDAS)

    def fresh():
        return PeriodicCoefficients.from_samples(c.p_samples, c.q_samples)

    want = {dtype: period_maps(fresh(), lams, dtype=dtype)
            for dtype in (EXTENDED, np.dtype(np.complex128))}
    series = [P(lam) for lam in lams if abs(lam) <= 2e3]
    want_terms, want_orders = monodromy._series_terms(fresh(), series, 1e-12)
    for route in (EXTENDED, np.complex128, "series", EXTENDED, "series", np.complex128):
        if isinstance(route, str):
            terms, orders = monodromy._series_terms(c, series, 1e-12)
            assert _same_bits(terms, want_terms) and orders == want_orders
        else:
            assert _same_bits(period_maps(c, lams, dtype=route), want[np.dtype(route)])


def test_batched_core_refuses_like_the_one_lambda_path(sin_c):
    far = -1e12
    with pytest.raises(PropagationOverflowError) as single:
        period_maps(sin_c, [far])
    with pytest.raises(PropagationOverflowError) as batched:
        monodromy.period_maps(sin_c, [1.0, 3 + 4j, far, -5.0])
    assert str(batched.value) == str(single.value)
    with pytest.raises(PropagationOverflowError):
        monodromy.traces_at(sin_c, [1.0, -1e12])


def _same_bits(x, y):
    """Equal values and equal signs of zero, in the real and the imaginary parts."""
    return all(np.array_equal(f(x), f(y)) and np.array_equal(np.signbit(f(x)), np.signbit(f(y)))
               for f in (np.real, np.imag))


# the rows and columns of the entries a, b and c of a run generator
_ROWS, _COLS = [0, 1, 2], [1, 0, 0]


@pytest.mark.parametrize("family", ["zero", "const", "sin", "steps3"])
def test_run_entries_are_those_of_the_system_matrices(monkeypatch, family):
    """Both routes read the entries of (P + Q) * widths * frame, bit for bit.

    P and Q come from system_matrices, widths and frames from _framed_runs.
    period_maps hands expm_stack the entries (a, b, c) at (0, 1), (1, 0)
    and (2, 0), in both dtypes; picard_maps hands its kernel a and c0 of
    (P * frame) * w and b and c1 of (Q * w) * frame.  Real and complex
    lambda from 0 to 1e6 (to 2e3 on the series route), signs of zeros
    included.
    """
    c = _coefficient_family(family, 64)
    p, q = c.p_samples, c.q_samples
    starts = np.flatnonzero(np.r_[True, (np.diff(p) != 0) | (np.diff(q) != 0)])
    lams = list(_MIXED_LAMBDAS)
    Pm, Qm = system_matrices(lams, p[starts], q[starts])
    seen = []

    def spy(*args, **kwargs):
        seen.append(args)
        return kernels[len(args)](*args, **kwargs)

    kernels = {2: monodromy.expm_stack, 5: monodromy._series_exponentials}
    monkeypatch.setattr(monodromy, "expm_stack", spy)
    monkeypatch.setattr(monodromy, "_series_exponentials", spy)
    for dtype in (EXTENDED, np.dtype(np.complex128)):
        _, widths, _, _, frame = monodromy._framed_runs(c, lams, dtype)
        A = Pm.astype(dtype)[:, np.newaxis] + Qm.astype(dtype)
        A *= widths[..., np.newaxis] * frame[:, np.newaxis]
        seen.clear()
        period_maps(c, lams, dtype=dtype)
        X = np.concatenate([X for X, _ in seen])
        assert X.dtype == dtype and _same_bits(X, A[..., _ROWS, _COLS])

    _, widths, _, _, frame = monodromy._framed_runs(c, lams, np.complex128)
    A0 = (Pm * frame)[:, np.newaxis] * widths[..., np.newaxis]
    A1 = (Qm * widths[..., np.newaxis]) * frame[:, np.newaxis]
    for i, lam in enumerate(lams):
        if abs(lam) > 2e3:
            continue
        seen.clear()
        monodromy.picard_maps(c, [lam], 1e-12)
        a, c0, b, c1 = (np.concatenate(x) for x in zip(*(args[:4] for args in seen)))
        assert _same_bits(a, A0[i, :, 0, 1]) and _same_bits(c0, A0[i, :, 2, 0])
        assert _same_bits(b, A1[i, :, 1, 0]) and _same_bits(c1, A1[i, :, 2, 0])
