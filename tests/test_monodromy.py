import itertools
import math

import numpy as np
import pytest

from triband import (
    OMEGA,
    PeriodicCoefficients,
    PicardTruncationError,
    PropagationMethod,
    PropagationOverflowError,
    SpectralParameter,
    SYMPLECTIC_J,
    char_poly,
    free_diagonalizer,
    free_trace,
    picard_monodromy,
    propagate,
    propagate_pair,
    symplectic_residual,
    zero_coefficients,
)
from triband import monodromy
from triband.monodromy import q_norm_integral, system_matrices


def P(lam):
    return SpectralParameter.from_lambda(lam)


def standard_monodromy_conjugate(m, p_at_0: float) -> np.ndarray:
    """Conjugate to the classical period map in the (y, y', y'') variables.

    Returns S M S^{-1} with S = [[1,0,0],[0,1,0],[-p(0),0,1]].  Meaningful
    when p is smooth enough for y'' to be continuous; the caller owns that
    assumption.
    """
    S = np.eye(3, dtype=complex)
    S[2, 0] = -p_at_0
    S_inv = np.eye(3, dtype=complex)
    S_inv[2, 0] = p_at_0
    return S @ np.asarray(m.M, dtype=complex) @ S_inv


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
    Pm, Qm = system_matrices(P(0.0), 0.0, 0.0)
    assert np.array_equal(Pm, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))
    assert np.count_nonzero(Qm) == 0


def test_system_matrices_entries():
    Pm, Qm = system_matrices(P(1j), 1.0, 2.0)
    assert Pm[2, 0] == pytest.approx(1.0)  # -i * i
    assert Qm[1, 0] == pytest.approx(-1.0)
    assert Qm[2, 0] == pytest.approx(2j)
    assert Qm[2, 1] == pytest.approx(-1.0)
    assert np.trace(Pm + Qm) == 0


def test_system_matrices_stack_and_q_norm_match_cell_loop(sin_c):
    _, Q = system_matrices(P(3.0), sin_c.p_samples, sin_c.q_samples)
    total = 0.0
    for i in range(sin_c.grid_size):
        _, Q_i = system_matrices(P(3.0), *sin_c.cell_values(i))
        assert np.array_equal(Q[i], Q_i)
        total += np.linalg.norm(Q_i, 2)
    assert q_norm_integral(sin_c) == total / sin_c.grid_size


# ---------------------------------------------------------------- propagate


def test_free_monodromy_at_zero(zero_c):
    m = propagate(zero_c, P(0.0))
    expected = np.array([[1, 1, 0.5], [0, 1, 1], [0, 0, 1]], dtype=complex)
    assert np.allclose(np.asarray(m.M, complex), expected, atol=1e-15)
    assert m.trace_T == pytest.approx(3.0)


@pytest.mark.parametrize("lam", [3.0, -17.5, 240.0, 2.0 + 3.0j, -50.0 + 12.0j])
def test_free_monodromy_eigenvalues(zero_c, lam):
    # eigenvalues of the free period map are exp(i w^(j-1) z)
    m = propagate(zero_c, P(lam))
    got = np.sort_complex(np.linalg.eigvals(np.asarray(m.M, complex)))
    want = np.sort_complex(np.array([np.exp(1j * OMEGA**j * P(lam).z) for j in range(3)]))
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_grid_size_does_not_matter_for_constant_coefficients():
    lam = 11.0
    coarse = propagate(PeriodicCoefficients.from_constants(0.7, -0.2, 1), P(lam))
    fine = propagate(PeriodicCoefficients.from_constants(0.7, -0.2, 64), P(lam))
    assert np.allclose(
        np.asarray(coarse.M, complex), np.asarray(fine.M, complex), atol=1e-13
    )


def test_plain_double_precision_fallback(sin_c):
    # the dtype knob exists for platforms without an extended long double;
    # at moderate lambda the two paths agree to full double precision
    par = P(35.0)
    m_ext = propagate(sin_c, par)
    m_dbl = propagate(sin_c, par, dtype=np.complex128)
    assert m_dbl.M.dtype == np.complex128
    assert np.allclose(np.asarray(m_ext.M, complex), m_dbl.M, rtol=1e-12, atol=1e-12)
    assert m_dbl.det_residual <= 1e-12


def test_substeps_change_nothing(sin_c):
    # splitting every cell into three equal substeps keeps the step model
    refined = PeriodicCoefficients.from_samples(
        np.repeat(sin_c.p_samples, 3), np.repeat(sin_c.q_samples, 3)
    )
    m1 = propagate(sin_c, P(25.0))
    m3 = propagate(refined, P(25.0))
    assert m3.steps_or_terms == 3 * sin_c.grid_size
    assert np.allclose(np.asarray(m1.M, complex), np.asarray(m3.M, complex), atol=1e-12)


def test_determinant_and_symplectic_residuals(coefficient_sets):
    for c in coefficient_sets:
        for lam in np.linspace(-400, 400, 21):
            m = propagate(c, P(float(lam)))
            assert m.det_residual <= 1e-9
            assert m.symplectic_residual <= 1e-8


@pytest.mark.parametrize("lam", [1e2, -1e2, 1e4, -1e4, 1e6, -1e6])
def test_scaled_residuals_stay_at_roundoff(const_c, sin_c, lam):
    """|det M - 1|/||M||^3 and the symplectic residual/||M||^2 far out.

    The raw residuals grow with ||M|| and fail their verify thresholds
    from |lambda| ~ 2e3 on; the scaled ones stay at roundoff (below 1e-23
    and 1e-18 on these sets).
    """
    steps = PeriodicCoefficients.from_samples(
        np.repeat([0.8, -0.3], [40, 24]), np.repeat([-0.5, 0.4], [40, 24])
    )
    for c in (const_c, sin_c, steps):
        m = propagate(c, P(lam))
        assert m.det_residual_scaled <= 1e-17
        assert m.symplectic_residual_scaled <= 1e-15


def test_symplectic_identity_complex_pairs(sin_c):
    rng = np.random.default_rng(11)
    for _ in range(8):
        lam = complex(rng.uniform(-300, 300), rng.uniform(-300, 300))
        m, m_bar = propagate_pair(sin_c, lam)
        assert m.symplectic_residual <= 1e-8
        assert m_bar.symplectic_residual <= 1e-8
        assert max(m.symplectic_residual_scaled, m_bar.symplectic_residual_scaled) <= 1e-15
        # direct form of the identity
        J = SYMPLECTIC_J
        R = np.asarray(m_bar.M, complex).conj().T @ J @ np.asarray(m.M, complex) - J
        assert np.linalg.norm(R, 2) <= 1e-8
    # unpaired complex lambda: the identity needs M(conj(lambda))
    assert propagate(sin_c, P(lam)).symplectic_residual_scaled is None


def test_propagate_pair_real_lambda_is_single_evaluation(sin_c):
    m, m_bar = propagate_pair(sin_c, 7.0)
    assert m is m_bar
    assert m.symplectic_residual is not None


def test_overflow_fails_loudly(const_c):
    with pytest.raises(PropagationOverflowError):
        propagate(const_c, P(1e12))


# ------------------------------------------------------------------- bounds


def test_trace_bound(coefficient_sets):
    # |T| <= 3 exp(z0 + kappa) everywhere
    for c in coefficient_sets:
        for lam in list(np.linspace(-500, 500, 41)) + [2.0 + 90.0j, -30.0 - 200.0j]:
            par = P(complex(lam))
            m = propagate(c, par)
            assert abs(m.trace_T) <= 3 * math.exp(par.z0 + c.kappa) * (1 + 1e-9)


def test_trace_perturbation_bound(const_c, sin_c):
    # |T - T0| <= 3 kappa exp(z0 + kappa)/|z| for |lambda| >= 1
    for c in (const_c, sin_c):
        for lam in np.linspace(-500, 500, 41):
            if abs(lam) < 1:
                continue
            par = P(float(lam))
            m = propagate(c, par)
            cap = 3 * c.kappa * math.exp(par.z0 + c.kappa) / abs(par.z)
            assert abs(m.trace_T - free_trace(float(lam))) <= cap * (1 + 1e-9)


def test_transformed_frame_bound(const_c, sin_c):
    # || V^-1 M V - exp(izB) || <= (kappa/|z|) exp(z0 + kappa), |lambda| >= 1
    for c in (const_c, sin_c):
        for lam in (1.0, -2.0, 9.0, -75.0, 300.0, 1e4, -1e5):
            par = P(lam)
            m = propagate(c, par)
            V, V_inv, B = free_diagonalizer(par)
            frame = V_inv @ np.asarray(m.M, complex) @ V
            free = np.diag(np.exp(1j * par.z * np.diag(B)))
            cap = c.kappa / abs(par.z) * math.exp(par.z0 + c.kappa)
            assert np.linalg.norm(frame - free, 2) <= cap * (1 + 1e-9)


def test_free_diagonalizer_diagonalizes():
    par = P(5.0 - 3.0j)
    V, V_inv, B = free_diagonalizer(par)
    Pm, _ = system_matrices(par, 0.0, 0.0)
    assert np.allclose(V @ (1j * par.z * B) @ V_inv, Pm, atol=1e-12)
    assert np.allclose(V @ V_inv, np.eye(3), atol=1e-13)


# ----------------------------------------------------------------- series


def test_picard_free_case_terminates_at_zeroth_term(zero_c):
    m = picard_monodromy(zero_c, P(30.0), tol=1e-10)
    assert m.method is PropagationMethod.PICARD_SERIES
    assert m.steps_or_terms == 0
    direct = propagate(zero_c, P(30.0))
    assert np.allclose(np.asarray(m.M, complex), np.asarray(direct.M, complex), atol=1e-10)


def test_picard_agrees_with_exponential_steps(small_c):
    m_exp = propagate(small_c, P(10.0))
    m_ser = picard_monodromy(small_c, P(10.0), tol=1e-10)
    diff = np.abs(np.asarray(m_exp.M, complex) - np.asarray(m_ser.M, complex)).max()
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
            Pm, _ = system_matrices(par, 0.0, 0.0)
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
    Pm, _ = system_matrices(par, 0.0, 0.0)
    h = 1.0 / c.grid_size
    nodes, weights = np.polynomial.legendre.leggauss(12)

    def q_at(s):
        i = min(int(s * c.grid_size), c.grid_size - 1)
        p_i, q_i = c.cell_values(i)
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
    for lam in (4.0, -35.0, 6.0 + 2.0j):
        m, m_bar = propagate_pair(sin_c, lam)
        M = np.asarray(m.M, complex)
        inv_direct = np.linalg.inv(M)
        inv_symplectic = -J @ np.asarray(m_bar.M, complex).conj().T @ J
        assert np.allclose(inv_direct, inv_symplectic, atol=1e-10 * np.linalg.cond(M))


def test_picard_truncation_failure_is_loud(const_c):
    # z0 ~ 420 makes exp(z0) unpayable within the term cap
    with pytest.raises(PicardTruncationError):
        picard_monodromy(const_c, P(1.1e8), tol=1e-10)


def test_picard_rejects_bad_tol(const_c):
    with pytest.raises(ValueError):
        picard_monodromy(const_c, P(1.0), tol=0.0)


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
    results = monodromy.picard_maps(c, [P(lam) for lam in lams], tol=1e-10)
    with mp.workdps(50):
        for lam, m in zip(lams, results):
            ref = mp.eye(3)
            for p, q in zip(c.p_samples, c.q_samples):
                A = mp.matrix([[0, 1, 0], [-p, 0, 1], [1j * (mp.mpf(q) - mp.mpc(lam)), -p, 0]])
                ref = mp.expm(A / c.grid_size) * ref
            ref = np.array(ref.tolist(), dtype=complex)
            err = np.abs(np.asarray(m.M, complex) - ref).max() / np.abs(ref).max()
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
    params = [P(lam) for lam in (0.0, -100.0, 100.0, 1e3, 20 + 30j, 20 - 30j)]
    batched = monodromy.picard_maps(c, params, tol=1e-4)
    orders = {m.steps_or_terms for m in batched}
    if family == "zero":
        assert orders == {0}
    else:
        assert len(orders) >= 3
    eps = np.finfo(np.complex128).eps
    for par, m in zip(params, batched):
        one = picard_monodromy(c, par, tol=1e-4)
        assert m.param == par
        assert m.steps_or_terms == one.steps_or_terms
        assert m.tail_bound == one.tail_bound
        assert np.abs(m.M - one.M).max() <= 4 * eps * np.linalg.norm(one.M, 2)
        assert m.trace_T == pytest.approx(one.trace_T, rel=4 * eps, abs=0)
        assert len(m.term_norms) == m.steps_or_terms + 1
        assert m.term_norms == pytest.approx(one.term_norms, rel=1e-12)


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
        monodromy.picard_maps(const_c, [P(1.0), P(3 + 4j), P(far), P(-5.0)], tol=1e-10)
    assert str(batched.value) == str(single.value)


# --------------------------------------------------- characteristic cubic


def test_char_poly_at_zero_is_one(coefficient_sets):
    for c in coefficient_sets:
        for lam in (0.0, 4.0, -9.0):
            m = propagate(c, P(lam))
            assert char_poly(m, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_char_poly_vanishes_at_free_multiplier(zero_c):
    for n in (1, 2, 3):
        lam = (2 * math.pi * n) ** 3
        m = propagate(zero_c, P(lam))
        scale = 1 + abs(m.trace_T) ** 2
        assert abs(char_poly(m, 1.0)) <= 1e-10 * scale


def test_char_poly_free_product_form(zero_c):
    # det(M0 - tau) = -(tau - e^{iz})(tau - e^{iwz})(tau - e^{iw^2 z})
    rng = np.random.default_rng(5)
    for lam in np.linspace(-300, 300, 13):
        if lam == 0:
            continue
        m = propagate(zero_c, P(float(lam)))
        z = P(float(lam)).z
        roots = [np.exp(1j * OMEGA**j * z) for j in range(3)]
        for _ in range(3):
            tau = complex(rng.normal(), rng.normal())
            product = -np.prod([tau - r for r in roots])
            val = char_poly(m, tau)
            assert abs(val - product) <= 1e-8 * (1 + abs(product))


def test_char_poly_matches_determinant_for_complex_lambda(sin_c):
    rng = np.random.default_rng(13)
    for _ in range(10):
        lam = complex(rng.uniform(-150, 150), rng.uniform(-150, 150))
        m, m_bar = propagate_pair(sin_c, lam)
        tau = complex(rng.normal(), rng.normal())
        direct = np.linalg.det(np.asarray(m.M, complex) - tau * np.eye(3))
        assert abs(char_poly(m, tau, paired=m_bar) - direct) <= 1e-8 * (1 + abs(direct))


def test_char_poly_complex_lambda_requires_pair(sin_c):
    m, _ = propagate_pair(sin_c, 2.0 + 1.0j)
    with pytest.raises(ValueError):
        char_poly(m, 1.0)


# ------------------------------------------- standard-variables conjugate


def test_standard_conjugate_identity_when_p0_zero(zero_c):
    m = propagate(zero_c, P(6.0))
    assert np.allclose(
        standard_monodromy_conjugate(m, 0.0), np.asarray(m.M, complex), atol=1e-14
    )


def test_standard_conjugate_preserves_trace(const_c):
    for lam in (2.0, -30.0, 100.0):
        m = propagate(const_c, P(lam))
        conj = standard_monodromy_conjugate(m, const_c.p_at_zero)
        assert np.trace(conj) == pytest.approx(m.trace_T, rel=1e-12)


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

    m = propagate(c, P(lam))
    conj = standard_monodromy_conjugate(m, p0)
    assert np.allclose(conj, M_classical, atol=5e-9)


def test_symplectic_residual_direct():
    M = np.eye(3, dtype=complex)
    assert symplectic_residual(M, M) == pytest.approx(0.0, abs=1e-15)


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
    params = [P(lam) for lam in lams]

    batched = monodromy.period_maps(c, params)
    looped = np.stack([propagate(c, par).M for par in params])
    assert batched.dtype == looped.dtype
    assert np.array_equal(batched, looped)
    assert monodromy.traces_at(c, lams) == [propagate(c, par).trace_T for par in params]

    wide = monodromy.period_maps(c, params, dtype=np.complex128)
    for M, par in zip(wide, params):
        ref = propagate(c, par, dtype=np.complex128).M
        assert np.abs(M - ref).max() <= 1e-15 * np.abs(ref).max()


def test_batched_core_refuses_like_the_one_lambda_path(sin_c):
    far = P(-1e12)
    with pytest.raises(PropagationOverflowError) as single:
        propagate(sin_c, far)
    with pytest.raises(PropagationOverflowError) as batched:
        monodromy.period_maps(sin_c, [P(1.0), P(3 + 4j), far, P(-5.0)])
    assert str(batched.value) == str(single.value)
    with pytest.raises(PropagationOverflowError):
        monodromy.traces_at(sin_c, [1.0, -1e12])
