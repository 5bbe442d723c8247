import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from triband import (
    PeriodicCoefficients,
    PropagationOverflowError,
    char_real_function,
    count_in_disk,
    eigenvalues_at_k,
    free_eigenvalues,
    load_coefficients,
    monodromy,
    solve_multipliers,
    trace_at,
    traces_at,
    zero_coefficients,
)

TWO_PI = 2 * math.pi


# ------------------------------------------------------ the scalar reduction


def test_reduction_identity_against_determinant(coefficient_sets):
    """Contract check: det(M - e^{ik}) = 2i e^{3ik/2} F(k, lambda), real lambda."""
    for c in coefficient_sets:
        lams = np.linspace(-180, 180, 13)
        maps = list(zip(monodromy.period_maps(c, lams), traces_at(c, lams)))
        for k in (0.0, 0.3, 1.0, math.pi, 5.0):
            for M, T in maps:
                direct = np.linalg.det(np.asarray(M, complex) - cmath.exp(1j * k) * np.eye(3))
                reduced = 2j * cmath.exp(1.5j * k) * char_real_function(k, T)
                assert abs(direct - reduced) <= 1e-8 * (1 + abs(direct))


def test_free_function_at_k_zero(zero_c):
    # for z = lambda^(1/3) real: F(0, lambda) = sin z - 2 cosh(sqrt3 z/2) sin(z/2)
    for lam in (0.5, 8.0, 55.0, 300.0):
        z = lam ** (1 / 3)
        expected = math.sin(z) - 2 * math.cosh(math.sqrt(3) * z / 2) * math.sin(z / 2)
        T = trace_at(zero_c, lam)
        assert char_real_function(0.0, T) == pytest.approx(
            expected, rel=1e-10, abs=1e-10
        )
    # zeros exactly at z = 2 pi n
    for n in (1, 2):
        T = trace_at(zero_c, (TWO_PI * n) ** 3)
        scale = 1 + abs(T)
        assert abs(char_real_function(0.0, T)) <= 1e-10 * scale


def test_function_vanishes_when_multiplier_matches(zero_c):
    for n, k in ((0, 1.0), (2, 0.7), (-3, 4.0)):
        lam = (TWO_PI * n + k) ** 3
        T = trace_at(zero_c, lam)
        assert abs(char_real_function(k, T)) <= 1e-9 * (1 + abs(T))


def test_function_at_k_pi_with_real_trace():
    # e^{i pi/2} = i, so F(pi, lambda) = Re... = T + 1 for real T
    for T in (-2.0, 0.0, 3.5):
        assert char_real_function(math.pi, T) == pytest.approx(T + 1.0, abs=1e-12)


# ---------------------------------------------------------- eigenvalue solve


def test_free_eigenvalues_exact(zero_c):
    for k in (0.0, 1.0, math.pi, 5.0):
        res = eigenvalues_at_k(zero_c, k, (-5, 5))
        assert not res.missed
        exact = free_eigenvalues(k, (-5, 5))
        assert len(res.eigenvalues) == len(exact)
        for e, x in zip(res.eigenvalues, exact):
            assert abs(e.lambda_n - x) <= 1e-8 * max(1.0, abs(x))
            assert e.residual <= 1e-9


def test_free_eigenvalue_at_origin(zero_c):
    res = eigenvalues_at_k(zero_c, 0.0, (0, 0))
    assert abs(res.eigenvalues[0].lambda_n) <= 1e-8


def test_eigenvalues_come_back_ascending(small_c):
    res = eigenvalues_at_k(small_c, 2.0, (-4, 4))
    lams = [e.lambda_n for e in res.eigenvalues]
    assert np.all(np.diff(lams) > 0)


def test_cube_root_gap_decays(small_c):
    # |cbrt(lambda_n) - (2 pi n + k)| * |n| stays bounded along n
    res = eigenvalues_at_k(small_c, 1.0, (8, 20))
    weighted = [abs(e.cube_root_gap) * abs(e.n) for e in res.eigenvalues]
    assert max(weighted[7:]) <= 1.5 * max(weighted[:7]) + 1e-9


def test_roots_are_spectrum_points(small_c):
    # at each root, e^{ik} is a multiplier: one |tau| sits on the circle,
    # the determinant vanishes (evaluated in extended precision: the naive
    # float64 determinant has roundoff eps * exp(2 z0), which passes 1e-6
    # already near lambda ~ 3e3), and the reduction-identity route
    # 2|F(k, lambda_n)| confirms it independently
    from triband._linalg import det3

    k = 0.9
    res = eigenvalues_at_k(small_c, k, (-3, 3), tol=1e-13)
    assert len(res.eigenvalues) == 7
    lams = [e.lambda_n for e in res.eigenvalues]
    maps, traces = monodromy.period_maps(small_c, lams), traces_at(small_c, lams)
    for e, M, T in zip(res.eigenvalues, maps, traces):
        taus = solve_multipliers(T, np.conj(T))
        assert min(abs(abs(t) - 1) for t in taus) <= 1e-6
        assert 2 * abs(char_real_function(k, T)) <= 1e-6
        if abs(e.n) <= 1:
            det = complex(det3(M - cmath.exp(1j * k) * np.eye(3, dtype=M.dtype)))
            assert abs(det) <= 1e-6


def test_eigenvalue_curves_cover_the_axis(small_c):
    """Union spot-check: every sampled real point lies on some curve.

    The quasimomentum of the unimodular multiplier at lambda gives the k
    whose eigenvalue list must contain lambda itself.
    """
    for lam in (6.5, 31.0, 77.7):
        T = trace_at(small_c, lam)
        taus = solve_multipliers(T, np.conj(T))
        j = int(np.argmin([abs(abs(t) - 1) for t in taus]))
        k = (-1j * cmath.log(taus[j])).real % TWO_PI
        n_center = round((np.cbrt(lam) - k) / TWO_PI)
        res = eigenvalues_at_k(small_c, k, (n_center - 1, n_center + 1))
        assert min(abs(e.lambda_n - lam) for e in res.eigenvalues) <= 1e-6 * max(
            1.0, abs(lam)
        )


def test_k_range_validation(small_c):
    with pytest.raises(ValueError):
        eigenvalues_at_k(small_c, -0.1, (0, 1))
    with pytest.raises(ValueError):
        eigenvalues_at_k(small_c, TWO_PI, (0, 1))
    with pytest.raises(ValueError):
        eigenvalues_at_k(small_c, 1.0, (2, 1))
    with pytest.raises(ValueError):
        eigenvalues_at_k(small_c, 1.0, (0, 1), tol=0.0)


# -------------------------------------------------------------- reflection


def test_k_reflection_via_spectrum_negation():
    """The valid k-reflection law for this operator class.

    Complex conjugation maps the fiber at k to the negated fiber at
    2 pi - k with the sign of q flipped, so the eigenvalue curves obey

        lambda_n(2 pi - k; p, -q) = -lambda_{-n-1}(k; p, q),

    exactly.  The naive list equality lambda_n(k) = lambda_n(2 pi - k) does
    NOT hold.  Criterion 10 checks the law on constant coefficients; here
    p and q are three-level steps with no odd symmetry about x = 0 (on odd
    coefficients such as sin_c the law holds even without the q flip).
    """
    p = np.repeat([0.6, -0.4, 0.2], [20, 25, 19])
    q = np.repeat([0.3, -0.2, 0.5], [12, 30, 22])
    c = PeriodicCoefficients.from_samples(p, q)
    c_reflected = PeriodicCoefficients.from_samples(p, -q)
    for k in (0.5, 1.3):
        at_k = {e.n: e.lambda_n for e in eigenvalues_at_k(c, k, (-6, 5)).eigenvalues}
        at_rk = {
            e.n: e.lambda_n
            for e in eigenvalues_at_k(c_reflected, TWO_PI - k, (-6, 5)).eigenvalues
        }
        for n in range(-5, 5):
            lhs = at_rk[n]
            rhs = -at_k[-n - 1]
            assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))


# ------------------------------------------------- degenerate-root handling


def test_even_order_touch_is_reported_missed(zero_c, monkeypatch):
    """A root where F touches zero without a sign change cannot be bracketed.

    Synthetic reduction: replace F by a function of lambda alone whose only
    zero near the n = 1 seed is a perfect square touch.  The solver must
    come back with a missed-root diagnostic instead of a wrong root or an
    exception.
    """
    import triband.floquet as fl

    touch = 2 * math.pi * 1 + 0.5 + 0.2345  # off every sampling lattice

    def fake_factory(c, k, traces):
        def g(points):
            traces.update((s, 1.0 + 0j) for s in points)
            return [(s - touch) ** 2 for s in points]
        return g

    monkeypatch.setattr(fl, "_f_in_s", fake_factory)
    res = fl.eigenvalues_at_k(zero_c, 0.5, (1, 1))
    assert res.eigenvalues == ()
    assert len(res.missed) == 1
    miss = res.missed[0]
    assert miss.n == 1
    assert miss.min_abs_f <= 0.05
    assert "sign change" in miss.note


def test_colliding_roots_get_multiplicity_two(zero_c, monkeypatch):
    """Roots from adjacent seeds that land together are a double eigenvalue."""
    import triband.floquet as fl

    k = 0.5
    mid = 2 * math.pi * 1.5 + k  # halfway between the n=1 and n=2 seeds
    delta = 1e-8  # wide enough that both brackets can reach their root

    def fake_factory(c, k_arg, traces):
        def g(points):
            traces.update((s, 1.0 + 0j) for s in points)
            return [(s - (mid - delta)) * (s - (mid + delta)) for s in points]
        return g

    monkeypatch.setattr(fl, "_f_in_s", fake_factory)
    res = fl.eigenvalues_at_k(zero_c, k, (1, 2), tol=1e-8)
    assert len(res.eigenvalues) == 2
    assert all(e.multiplicity == 2 for e in res.eigenvalues)
    assert res.eigenvalues[0].lambda_n == pytest.approx(mid**3, rel=1e-9)


# Period maps of the search over n = -4..4 on the strong step set of
# tests/golden, one seed missed each: (k, maps, roots).  The golden case
# holds the roots.
_STEPS_MAPS = (("eigs-steps-k2", 2.0, 135, 8), ("eigs-steps-k5", 5.2, 143, 8))


@pytest.mark.parametrize("case, k, maps, roots", _STEPS_MAPS)
def test_root_value_comes_from_the_brent_cache(case, k, maps, roots, monkeypatch):
    """No point is mapped twice, and each root is a point Brent evaluated."""
    import triband.floquet as fl

    golden = Path(__file__).parent / "golden"
    c = load_coefficients(golden / "steps.json")
    counted = []
    traces_at = fl.traces_at

    def counting(c_arg, lams):
        counted.extend(lams)
        return traces_at(c_arg, lams)

    monkeypatch.setattr(fl, "traces_at", counting)
    res = eigenvalues_at_k(c, k, (-4, 4))
    assert len(res.eigenvalues) == roots and len(res.missed) == 1
    assert len(counted) == len(set(counted)) == maps
    assert all(e.lambda_n in counted for e in res.eigenvalues)
    recorded = json.loads((golden / f"{case}.json").read_text(encoding="utf-8"))
    want = [e["lambda_n"] for e in recorded["eigenvalues"]]
    assert [e.lambda_n for e in res.eigenvalues] == pytest.approx(want, rel=1e-10)


# ------------------------------------------------------- the corrected seed

# constant (p, q): const_c and three seeded draws with p of both signs;
# the roots are exactly xi^3 - 2 p xi + q at xi = 2 pi n + k
_CONSTANT_SETS = [(1.0, -0.5)] + [
    tuple(pq) for pq in np.random.default_rng(5).uniform(-3.0, 3.0, (3, 2))
]
_CONSTANT_IDS = ["const_c", "draw0", "draw1", "draw2"]


@pytest.mark.parametrize("p, q", _CONSTANT_SETS, ids=_CONSTANT_IDS)
def test_roots_on_constant_sets_match_the_symbol(p, q):
    c = PeriodicCoefficients.from_constants(p, q, 8)
    tol = 1e-10
    for k in (0.4, 2.5, 5.9):
        res = eigenvalues_at_k(c, k, (-6, 6), tol=tol)
        assert not res.missed
        for e in res.eigenvalues:
            xi = TWO_PI * e.n + k
            want = xi**3 - 2.0 * p * xi + q
            assert abs(e.lambda_n - want) <= tol * max(1.0, abs(want))


@pytest.mark.parametrize("p, q", _CONSTANT_SETS, ids=_CONSTANT_IDS)
def test_two_roots_on_a_constant_set_take_few_rounds(p, q, monkeypatch):
    """The tight pair around the corrected seed holds the root: <= 6 rounds.

    From the bare seed the same call took about 10.
    """
    import triband.floquet as fl

    c = PeriodicCoefficients.from_constants(p, q, 8)
    calls = []
    traces_at = fl.traces_at

    def counting(c_arg, lams):
        calls.append(len(lams))
        return traces_at(c_arg, lams)

    monkeypatch.setattr(fl, "traces_at", counting)
    res = eigenvalues_at_k(c, 1.7, (3, 4))
    assert len(res.eigenvalues) == 2 and not res.missed
    assert len(calls) <= 6


def test_root_outside_the_tight_pair_costs_one_round(zero_c, monkeypatch):
    """A root inside seed -+ 0.35 pi but off s0 -+ h takes one more round.

    The fake F has its root 0.3 from the seed.  Widening the tight pair
    past the wide bracket turns it off, which is the search without it.
    Both runs open with 2 points; the tight miss costs exactly one round,
    and both return the same root.
    """
    import triband.floquet as fl

    k, n = 0.5, 2
    root = TWO_PI * n + k + 0.3

    def fake_factory(c, k_arg, traces):
        def g(points):
            rounds.append(len(points))
            traces.update((s, 1.0 + 0j) for s in points)
            return [math.tanh(s - root) + 0.1 * (s - root) ** 3 for s in points]
        return g

    monkeypatch.setattr(fl, "_f_in_s", fake_factory)
    runs = []
    for tight in (fl._TIGHT, 2.0):
        monkeypatch.setattr(fl, "_TIGHT", tight)
        rounds = []
        res = fl.eigenvalues_at_k(zero_c, k, (n, n))
        runs.append((rounds, res.eigenvalues[0].lambda_n))
    (with_pair, lam), (without_pair, lam_before) = runs
    assert with_pair[0] == without_pair[0] == 2
    assert with_pair[1:] == without_pair
    assert lam == lam_before == pytest.approx(root**3, rel=1e-10)


# ----------------------------------------------------------------- counting


def test_count_free_case(zero_c):
    res_a = count_in_disk(zero_c, 0.3, 5)
    assert (res_a.count, res_a.expected) == (11, 11)
    assert res_a.radius == pytest.approx((11 * math.pi) ** 3)
    res_b = count_in_disk(zero_c, 2.0, 5)
    assert (res_b.count, res_b.expected) == (10, 10)
    assert res_b.radius == pytest.approx((10 * math.pi) ** 3)


def test_count_small_perturbation():
    c = PeriodicCoefficients.from_constants(0.1, 0.0, 32)
    assert count_in_disk(c, 0.3, 5).count == 11
    assert count_in_disk(c, 2.0, 5).count == 10


def test_count_case_boundaries(zero_c):
    # k exactly at pi/2 belongs to the 2N case
    res = count_in_disk(zero_c, math.pi / 2, 3)
    assert res.expected == 6
    assert res.count == 6


def test_count_flags_strong_coupling_regime():
    # kappa = 5 is far below any index threshold where the exact counts
    # are guaranteed: inside the triple-multiplicity window the free-seed
    # indexing breaks down and the solver must flag the count rather than
    # fabricate a root
    c = PeriodicCoefficients.from_constants(5.0, 0.0, 32)
    res = count_in_disk(c, 2.0, 5)
    assert res.missed
    assert res.count < res.expected


def test_count_by_brackets_matches_the_refined_roots(monkeypatch):
    """count_in_disk counts the eigenvalues_at_k roots inside the disk.

    It refines only the brackets that cross the radius.  On the p = -150
    constant set one bracket does, so the test needs the Brent path.
    """
    import triband.floquet as fl

    sets = []
    for n, cuts in ((8, [3, 3, 2]), (64, [20, 25, 19])):
        t = (np.arange(n) + 0.5) / n
        for a in (2.0, 10.0):
            sets.append(PeriodicCoefficients.from_samples(
                a * np.cos(TWO_PI * t) + 0.5 * a * np.sin(2 * TWO_PI * t), a * np.sin(TWO_PI * t)))
            sets.append(PeriodicCoefficients.from_samples(
                np.repeat([0.8 * a, -0.4 * a, 0.6 * a], cuts), np.repeat([0.3 * a, a, -0.2 * a], cuts)))
    strong = PeriodicCoefficients.from_constants(-150.0, 0.0, 4)
    brent = fl.brent_steps
    refined = []

    def spying(*args, **kwargs):
        refined.append(args[:2])
        return brent(*args, **kwargs)

    monkeypatch.setattr(fl, "brent_steps", spying)
    counting_refines = {}
    for i, c in enumerate([*sets, strong]):
        for k, s_radius, expected in ((0.3, 11 * math.pi, 11), (2.0, 10 * math.pi, 10)):
            refined.clear()
            res = count_in_disk(c, k, 5)
            counting_refines[i, k] = len(refined)
            n_range = (math.floor((-s_radius - k) / TWO_PI) - 1,
                       math.ceil((s_radius - k) / TWO_PI) + 1)
            ref = eigenvalues_at_k(c, k, n_range)
            count = sum(1 for e in ref.eigenvalues if abs(np.cbrt(e.lambda_n)) < s_radius)
            assert ((res.count, res.expected, not res.missed)
                    == (count, expected, not ref.missed))
            assert res.missed == ref.missed and isinstance(res.count, int)
            assert counting_refines[i, k] <= len(ref.eigenvalues)
    assert counting_refines[len(sets), 0.3] >= 1
    assert sum(counting_refines.values()) < 2 * len(counting_refines)


def test_count_input_validation(zero_c):
    with pytest.raises(ValueError):
        count_in_disk(zero_c, 0.3, 0)
    with pytest.raises(ValueError):
        count_in_disk(zero_c, 7.0, 3)


def test_count_refuses_at_the_end_seeds_before_any_search(monkeypatch):
    """A disk whose end seeds the growth guard refuses raises the core's error before any
    search is built: _bracket runs for the two end seeds' openings alone, and lockstep
    never runs.  N = 10**5 takes seeds n = -100001..100001."""
    import triband.floquet as fl

    opened, ran = [], []
    bracket = fl._bracket
    monkeypatch.setattr(fl, "_bracket", lambda *args: opened.append(args[1]) or bracket(*args))
    monkeypatch.setattr(fl, "lockstep", lambda *args: ran.append(args))
    with pytest.raises(PropagationOverflowError) as refused:
        count_in_disk(zero_coefficients(), 0.3, 10**5)
    assert str(refused.value) == ("growth exponent z0 + kappa = 544145.0 exceeds 700; entries "
                                  "of the period map would overflow double precision")
    assert opened == [-100001, 100001] and ran == []


@pytest.mark.parametrize("refused, accepted, same", [
    (lambda c: eigenvalues_at_k(c, 0.3, (-1.7, 1.2)),
     lambda c: eigenvalues_at_k(c, 0.3, (np.int64(-1), np.int64(1))),
     lambda c: eigenvalues_at_k(c, 0.3, (-1, 1))),
    (lambda c: free_eigenvalues(0.3, (-1.7, 1.2)),
     lambda c: free_eigenvalues(0.3, (np.int64(-1), np.int64(1))),
     lambda c: free_eigenvalues(0.3, (-1, 1))),
    (lambda c: count_in_disk(c, 0.3, 2.5),
     lambda c: count_in_disk(c, 0.3, np.int64(2)),
     lambda c: count_in_disk(c, 0.3, 2)),
], ids=["eigenvalues_at_k", "free_eigenvalues", "count_in_disk"])
def test_index_inputs_must_be_integers(zero_c, refused, accepted, same):
    """A float index is refused, not truncated (n_range (-1.7, 1.2) once searched
    n = -1..1, and N = 2.5 gave expected = 6.0); numpy integers are indices."""
    with pytest.raises(TypeError):
        refused(zero_c)
    assert accepted(zero_c) == same(zero_c)
