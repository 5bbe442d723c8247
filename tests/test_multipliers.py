import cmath
import math

import numpy as np
import pytest

from triband import (
    OMEGA,
    SpectralParameter,
    band_point,
    continue_branches,
    free_multipliers,
    monodromy,
    rho_product_formula,
    scan_real_axis,
    solve_multipliers,
    trace_at,
    traces_at,
)
from triband.bands import FLAG_AMBIGUOUS_MATCH, FLAG_NEAR_BRANCH_POINT, _assemble
from triband.multipliers import on_circle
from triband.util import hausdorff_distance


def P(lam):
    return SpectralParameter.from_lambda(lam)


def solved(c, lam):
    """The multipliers at a real lambda from its one cubic, in solved order (band_point's)."""
    T = trace_at(c, lam)
    return tuple(solve_multipliers(T, np.conj(T)))


def quasimomentum(tau):
    """k = -i log tau with Re k in [0, 2pi), so that tau = e^{ik} and Delta = cos(k)."""
    k = -1j * cmath.log(tau)
    return k + 2 * math.pi if k.real < 0 else k


def test_triple_root():
    taus = solve_multipliers(3.0, 3.0)
    assert np.allclose(taus, 1.0, atol=1e-12)


def test_free_multipliers_at_lambda_eight(zero_c):
    T = trace_at(zero_c, 8.0)
    taus = np.sort_complex(solve_multipliers(T, np.conj(T)))
    expected = np.sort_complex(
        np.array([cmath.exp(2j), cmath.exp(-1j - math.sqrt(3)), cmath.exp(-1j + math.sqrt(3))])
    )
    assert np.allclose(taus, expected, atol=1e-8)


def test_roots_match_matrix_eigenvalues(sin_c):
    # oracle: direct 3x3 eigensolver on the period map
    rng = np.random.default_rng(2)
    for _ in range(12):
        lam = float(rng.uniform(-300, 300))
        [M] = monodromy.period_maps(sin_c, [lam])
        T = trace_at(sin_c, lam)
        taus = np.sort_complex(solve_multipliers(T, np.conj(T)))
        eigs = np.sort_complex(np.linalg.eigvals(np.asarray(M, complex)))
        assert np.allclose(taus, eigs, atol=1e-7 * (1 + abs(T)))


def test_product_is_one(coefficient_sets):
    for c in coefficient_sets:
        for T in traces_at(c, np.linspace(-450, 450, 31)):
            taus = solve_multipliers(T, np.conj(T))
            assert abs(np.prod(taus) - 1) <= 1e-9


def test_real_axis_symmetry(coefficient_sets):
    # the multiset {tau} equals {1/conj(tau)} on the real axis
    for c in coefficient_sets:
        for T in traces_at(c, np.linspace(-450, 450, 31)):
            taus = solve_multipliers(T, np.conj(T))
            assert hausdorff_distance(tuple(taus), tuple(1 / np.conj(taus))) <= 1e-8


def test_rejects_nonfinite_coefficients():
    with pytest.raises(ValueError):
        solve_multipliers(np.nan, 1.0)


def _assert_rows_are_scalar_calls(T, T_conj_bar):
    stacked = solve_multipliers(T, T_conj_bar)
    assert stacked.shape == (len(T), 3)
    for a, b, row in zip(T, T_conj_bar, stacked):
        one = solve_multipliers(a, b)
        assert one.shape == (3,)
        assert one.tobytes() == row.tobytes(), (a, b)


def test_stacked_solve_equals_scalar_calls_over_the_range():
    """|T| log-spaced over 1e-2..1e300 with random phases: the polished,
    the large-|T| (reversed cubic) and the overflowing-polish rows."""
    rng = np.random.default_rng(16)
    T = 10.0 ** np.linspace(-2, 300, 400) * np.exp(1j * rng.uniform(0, 2 * np.pi, 400))
    _assert_rows_are_scalar_calls(T, np.conj(T))


def test_stacked_solve_equals_scalar_calls_at_perfect_cubes():
    """T = 3 w^j collapse to the triple root w^j, also within 1e-10 of a cube;
    a defect of 1e-9 is solved, and the rows keep their own branch."""
    cubes = 3.0 * OMEGA ** np.arange(3)
    near = np.concatenate([cubes, cubes * (1 + 1e-11), cubes + 3e-11j, cubes * (1 + 1e-9)])
    T, T_conj_bar = np.concatenate([near, [2.5 + 0.1j]]), np.conj(np.concatenate([near, [2.5]]))
    _assert_rows_are_scalar_calls(T, T_conj_bar)
    taus = solve_multipliers(T, T_conj_bar)
    assert (taus[:9] == np.array([[complex(a) / 3.0] for a in T[:9]])).all()
    assert not (taus[9:12] == taus[9:12, :1]).all()


def test_stacked_solve_equals_scalar_calls_on_unpaired_traces(sin_c):
    """Complex lambda: T(lambda) and conj(T(conj(lambda))) are two numbers."""
    lams = [complex(re, im) for re in (-300.0, -20.0, 5.0, 400.0) for im in (-80.0, 3.0, 150.0)]
    maps = monodromy.period_maps(sin_c, lams + [lam.conjugate() for lam in lams])
    M, M_conj = maps[: len(lams)], maps[len(lams) :]
    T = np.trace(M, axis1=1, axis2=2).astype(complex)
    T_conj_bar = np.conj(np.trace(M_conj, axis1=1, axis2=2)).astype(complex)
    assert (abs(T - np.conj(T_conj_bar)) > 1e-6 * abs(T)).all()
    _assert_rows_are_scalar_calls(T, T_conj_bar)


def test_stacked_solve_shapes_and_nonfinite_rows():
    assert solve_multipliers(np.array(2.0 + 1j), 2.0 - 1j).shape == (3,)
    assert solve_multipliers(np.zeros((2, 4)), np.zeros((2, 4))).shape == (2, 4, 3)
    assert solve_multipliers([], []).shape == (0, 3)
    T = np.linspace(1.0, 50.0, 7) + 0j
    for bad in (np.nan, np.inf, complex(1.0, -np.inf)):
        for i in (0, 3, 6):
            T_bad = T.copy()
            T_bad[i] = bad
            with pytest.raises(ValueError):
                solve_multipliers(T_bad, np.conj(T))
            with pytest.raises(ValueError):
                solve_multipliers(T, np.conj(T_bad))


# ------------------------------------------------------ on-circle count


def test_classify_one_on_circle_free(zero_c):
    taus = solved(zero_c, 8.0)
    assert sum(on_circle(taus)) == 1
    moduli = sorted(abs(t) for t in taus)
    assert moduli[0] == pytest.approx(math.exp(-math.sqrt(3)), rel=1e-8)
    assert moduli[1] == pytest.approx(1.0, abs=1e-9)
    assert moduli[2] == pytest.approx(math.exp(math.sqrt(3)), rel=1e-8)


def test_classify_all_on_circle_at_triple_point(zero_c):
    # T(0) = 3: the multiplier is 1 with multiplicity three
    taus = solved(zero_c, 0.0)
    assert taus == (1.0, 1.0, 1.0)
    assert sum(on_circle(taus)) == 3


def test_classify_off_circle_pair_structure(coefficient_sets):
    # one-on-circle case: the two off-circle roots satisfy tau_a = 1/conj(tau_b)
    lams = (30.0, -123.0, 400.0)
    for c in coefficient_sets:
        for T in traces_at(c, lams):
            taus = tuple(solve_multipliers(T, np.conj(T)))
            if sum(on_circle(taus)) != 1:
                continue
            off = [t for t in taus if abs(abs(t) - 1) > 1e-6]
            assert len(off) == 2
            assert abs(off[0] - 1 / np.conj(off[1])) <= 1e-8 * (1 + abs(off[0]))


def test_classify_requires_real_lambda(zero_c):
    # the on-circle count is a real-axis notion: its consumers refuse complex lambda
    with pytest.raises(TypeError):
        band_point(zero_c, 1j)
    with pytest.raises(TypeError):
        band_point(zero_c, 1 + 0j)


# ------------------------------------------- Lyapunov and quasimomentum


def test_lyapunov_of_unit_multiplier(zero_c):
    # T(0) = 3 in the free case: the multiplier 1, three times, and Delta = 1
    assert band_point(zero_c, 0.0).lyapunov_branches == (1.0, 1.0, 1.0)
    assert quasimomentum(solved(zero_c, 0.0)[0]) == pytest.approx(0.0, abs=1e-15)


def test_free_lyapunov_is_cosine_of_cube_root(zero_c):
    # on the positive axis the unimodular branch carries cos(lambda^(1/3))
    for lam in (8.0, 27.0, 125.0):
        z = P(lam).z
        deltas = band_point(zero_c, lam).lyapunov_branches
        j = int(np.argmin([abs(t - cmath.exp(1j * z)) for t in solved(zero_c, lam)]))
        assert deltas[j].real == pytest.approx(math.cos(lam ** (1 / 3)), abs=1e-9)
        assert abs(deltas[j].imag) <= 1e-9


def test_lyapunov_real_exactly_for_unimodular_or_real_multipliers(coefficient_sets):
    # Delta = (tau + 1/tau)/2 is real iff tau is on the unit circle or real
    for c in coefficient_sets:
        for lam in (30.0, -123.0, 400.0):
            for tau, delta in zip(solved(c, lam), band_point(c, lam).lyapunov_branches):
                on_circle_or_real = (
                    abs(abs(tau) - 1.0) <= 1e-7 or abs(tau.imag) <= 1e-7 * abs(tau)
                )
                if on_circle_or_real:
                    assert abs(delta.imag) <= 1e-7 * (1 + abs(delta))
                else:
                    assert abs(delta.imag) > 1e-7 * (1 + abs(delta))


def test_lyapunov_equals_cos_of_quasimomentum(zero_c):
    # the free multipliers at lambda = 8 are e^{2i} and e^{-i +- sqrt(3)}
    taus = solved(zero_c, 8.0)
    for tau, delta, k in zip(taus, band_point(zero_c, 8.0).lyapunov_branches,
                             map(quasimomentum, taus)):
        assert cmath.exp(1j * k) == pytest.approx(tau, rel=1e-12)
        assert cmath.cos(k) == pytest.approx(delta, rel=1e-12)
        assert 0 <= k.real < 2 * math.pi
    # explicit value: Delta of e^{-i+sqrt(3)} is cos(-1 - i sqrt(3))
    tau = cmath.exp(-1j + math.sqrt(3))
    delta = (tau + 1 / tau) / 2
    assert delta == pytest.approx(cmath.cos(-1 - 1j * math.sqrt(3)), rel=1e-12)


# ------------------------------------------------------- branch tracking


def _roots_on_grid(c, grid):
    """The root stack (L, 3) of one solve_multipliers call over the grid."""
    traces = traces_at(c, grid)
    return solve_multipliers(traces, np.conj(traces))


def _continued(c, grid):
    """continue_branches' rows on the grid, and the points bands assembles from them and their
    ties, as scan_real_axis does on a uniform grid."""
    traces = traces_at(c, grid)
    rows, ties = continue_branches(grid, solve_multipliers(traces, np.conj(traces)))
    return rows, [_assemble(float(lam), *args) for lam, *args in zip(grid, rows, ties, traces)]


def test_free_branch_tracking(zero_c):
    grid = np.linspace(1.0, 1000.0, 60)
    rows, _ = continue_branches(grid, _roots_on_grid(zero_c, grid))
    for lam, taus in zip(grid, rows):
        z = P(float(lam)).z
        assert abs(taus[0] - cmath.exp(1j * z)) <= 1e-8
        assert abs(taus[1] - cmath.exp(1j * OMEGA * z)) <= 1e-8
        assert abs(taus[2] - cmath.exp(1j * OMEGA**2 * z)) <= 1e-8


def test_asymptotic_branch_deviation_is_order_one_over_z(small_c):
    # |tau_j exp(-i z w^(j-1)) - 1| * |z| stays bounded as lambda grows
    grid = np.geomspace(1e3, 1e6, 25)
    rows, _ = continue_branches(grid, _roots_on_grid(small_c, grid))
    weighted = []
    for lam, taus in zip(grid, rows):
        par = P(float(lam))
        dev = max(
            abs(taus[j] * cmath.exp(-1j * OMEGA**j * par.z) - 1) for j in range(3)
        )
        weighted.append(dev * abs(par.z))
    weighted = np.array(weighted)
    assert np.all(np.isfinite(weighted))
    # no growth trend: the top-decade values stay within 2x of the bottom-decade peak
    assert weighted[-8:].max() <= 2.0 * weighted[:8].max() + 1e-12


def test_lyapunov_asymptotics_weighted_deviation(small_c):
    # |Delta_j - cos(z w^(j-1))| <= C e^{|Im(z w^(j-1))|} / |z| with C bounded
    grid = np.geomspace(1e3, 1e6, 25)
    weighted = []
    for lam, pt in zip(grid, _continued(small_c, grid)[1]):
        par = P(float(lam))
        vals = []
        for j in range(3):
            arg = OMEGA**j * par.z
            dev = abs(pt.lyapunov_branches[j] - cmath.cos(arg))
            vals.append(dev * abs(par.z) / math.exp(abs(arg.imag)))
        weighted.append(max(vals))
    weighted = np.array(weighted)
    assert np.all(np.isfinite(weighted))
    assert weighted[-8:].max() <= 2.0 * weighted[:8].max() + 1e-12


def test_free_lyapunov_branches_are_exact_cosines(zero_c):
    grid = np.linspace(50.0, 500.0, 12)
    for lam, pt in zip(grid, scan_real_axis(zero_c, (50.0, 500.0), 12)):
        z = P(float(lam)).z
        for j in range(3):
            want = cmath.cos(OMEGA**j * z)
            assert abs(pt.lyapunov_branches[j] - want) <= 1e-9 * (1 + abs(want))


def test_reversed_grid_gives_identical_labels(small_c):
    grid = np.linspace(5.0, 120.0, 24)
    roots = _roots_on_grid(small_c, grid)
    (forward, f_ties), (backward, b_ties) = (
        continue_branches(grid, roots), continue_branches(grid[::-1], roots[::-1]))
    assert forward == backward[::-1]
    assert f_ties == b_ties[::-1]


def test_branch_point_flagging(zero_c):
    # the free discriminant vanishes at lambda = 0: the scan flags that row near-branch-point;
    # continuation only reports its ties, which bands turns into ambiguous-match
    grid = np.linspace(-2.0, 2.0, 41)
    points = scan_real_axis(zero_c, (-2.0, 2.0), 41)
    assert points[20].lam == 0.0
    assert [i for i, pt in enumerate(points) if FLAG_NEAR_BRANCH_POINT in pt.flags] == [20]
    _, ties = continue_branches(grid, _roots_on_grid(zero_c, grid))
    assert ties == [FLAG_AMBIGUOUS_MATCH in pt.flags for pt in points]


def test_continued_rows_are_the_input_rows_permuted_bit_for_bit(sin_c):
    """Each row is a tuple of the stack's own numpy scalars, one of its six orders."""
    grid = np.linspace(-1e3, 1e3, 201)
    roots = _roots_on_grid(sin_c, grid)
    rows, ties = continue_branches(grid, roots)
    assert len(rows) == len(ties) == len(grid)
    assert all(type(tie) is bool for tie in ties)
    for row, solved_row in zip(rows, roots):
        assert type(row) is tuple and len(row) == 3
        assert all(type(tau) is np.complex128 for tau in row)
        assert sorted(tau.tobytes() for tau in row) == sorted(tau.tobytes() for tau in solved_row)
    assert continue_branches([], roots[:0]) == ([], [])
    with pytest.raises(ValueError):
        continue_branches(grid[:-1], roots)


@pytest.mark.parametrize("name, interval, points, tied", [
    ("const_c", (-1e3, 1e3), 2001, [1000]),
    ("sin_c", (-1e3, 1e3), 2001, [1000]),
    ("zero_c", (-2.0, 2.0), 41, [19, 20]),
])
def test_ties_are_the_scans_ambiguous_match_rows(request, name, interval, points, tied):
    """The ties fall at the recorded indices alone, and the scan flags exactly those rows
    ambiguous-match."""
    c = request.getfixturevalue(name)
    grid = np.linspace(*interval, points)
    _, ties = continue_branches(grid, _roots_on_grid(c, grid))
    assert [i for i, tie in enumerate(ties) if tie] == tied
    scan = scan_real_axis(c, interval, points)
    assert [i for i, pt in enumerate(scan) if FLAG_AMBIGUOUS_MATCH in pt.flags] == tied


def test_band_point_lyapunov_is_the_one_cubic_formula_bit_for_bit(coefficient_sets):
    """Delta_j = (tau_j + 1/tau_j)/2 on the one-cubic roots, as numpy complex128 scalars:
    the probe digest of tools/hash_workload_ops.py hashes the repr of these values."""
    for c in coefficient_sets:
        for lam in (-1e3, -123.0, 0.0, 8.0, 400.0, 1e4):
            deltas = band_point(c, lam).lyapunov_branches
            want = tuple((tau + 1.0 / tau) / 2.0 for tau in solved(c, lam))
            assert all(type(delta) is np.complex128 for delta in deltas)
            assert repr(deltas) == repr(want)
            assert np.array(deltas).tobytes() == np.array(want).tobytes()


def test_tracked_lyapunov_derivative_nonzero_on_bands(small_c, zero_c):
    """On band interior points the tracked real Lyapunov branch has slope.

    Sampled away from branch points (rho well above 0 is not required:
    rho > 0 suffices since only one branch is real there); the centered
    difference must be nonzero on the scale of the second difference.
    """
    for c in (zero_c, small_c):
        for lam0 in (20.0, 55.0, 140.0):
            h = 1e-3 * max(1.0, abs(lam0))
            grid = [lam0 - h, lam0, lam0 + h]
            rows, points = _continued(c, grid)
            rho = rho_product_formula(rows[1])
            assert rho.real > 0  # away from branch points
            j = int(np.argmin([abs(abs(t) - 1) for t in rows[1]]))
            deltas = [pt.lyapunov_branches[j].real for pt in points]
            if not -0.9 < deltas[1] < 0.9:
                continue
            d1 = (deltas[2] - deltas[0]) / (2 * h)
            d2 = (deltas[2] - 2 * deltas[1] + deltas[0]) / h**2
            assert abs(d1) > 1e-6 * abs(d2) * h
            assert abs(d1) > 0


def test_free_multipliers_helper():
    par = P(8.0)
    taus = free_multipliers(par)
    assert taus[0] == pytest.approx(cmath.exp(2j), rel=1e-12)
    assert np.prod(taus) == pytest.approx(1.0, rel=1e-12)
