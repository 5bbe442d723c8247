"""Acceptance suite: one test per shipping criterion, printed as it runs.

Every tolerance here is fixed up front; nothing is calibrated after the
fact.  Criterion 10 checks the k-reflection law of this odd-order operator,
lambda_n(2 pi - k; p, -q) = -lambda_{-n-1}(k; p, q), as a direct equality
of eigenvalue lists; the companion test checks the same law index by index.
"""

import math
import time

import numpy as np

from triband import (
    SYMPLECTIC_J,
    PeriodicCoefficients,
    SpectralParameter,
    eigenvalues_at_k,
    free_eigenvalues,
    free_trace,
    monodromy,
    picard_monodromy,
    rho_at,
    rho_product_formula,
    rho_trace_formula,
    scan_real_axis,
    sigma3_intervals,
    solve_multipliers,
    traces_at,
)
from triband._linalg import det3
from triband.multipliers import on_circle
from triband.util import hausdorff_distance

TWO_PI = 2 * math.pi


def _report(number: str, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} - {description}" + (f" [{detail}]" if detail else ""))


def _real_grid(n: int, half_width: float = 500.0) -> np.ndarray:
    return np.linspace(-half_width, half_width, n)


def _complex_samples(n: int, radius: float = 500.0) -> list[complex]:
    rng = np.random.default_rng(20240819)
    out = []
    while len(out) < n:
        lam = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if 0 < abs(lam) <= radius and abs(lam.imag) > 1e-6:
            out.append(lam)
    return out


def _raw_residuals(M, M_conj):
    """|det M - 1| and ||M_conj^* J M - J||, unscaled, for one pair of maps."""
    R = M_conj.conj().T @ SYMPLECTIC_J @ M - SYMPLECTIC_J
    return abs(complex(det3(M)) - 1.0), float(np.linalg.norm(R.astype(complex), 2))


def test_criterion_1_identity_suite(coefficient_sets):
    """det M = 1 and the symplectic identity over real and paired complex points."""
    t0 = time.perf_counter()
    worst_det = worst_symp = 0.0
    complex_pts = _complex_samples(40)
    for c in coefficient_sets:
        M = monodromy.period_maps(c, _real_grid(200))
        pairs = [(m, m) for m in M]
        # the maps at the points and at their conjugates, from one core call
        conj_pts = [lam.conjugate() for lam in complex_pts]
        for m, m_bar in zip(*np.split(monodromy.period_maps(c, complex_pts + conj_pts), 2)):
            pairs += [(m, m_bar), (m_bar, m)]
        for m, m_bar in pairs:
            det, symp = _raw_residuals(m, m_bar)
            worst_det = max(worst_det, det)
            worst_symp = max(worst_symp, symp)
    elapsed = time.perf_counter() - t0
    ok = worst_det <= 1e-9 and worst_symp <= 1e-8 and elapsed <= 10.0
    _report("1", "identity suite (determinant / symplectic)", ok,
            f"det {worst_det:.2e}, symp {worst_symp:.2e}, {elapsed:.1f}s")
    assert worst_det <= 1e-9
    assert worst_symp <= 1e-8
    assert elapsed <= 10.0


def test_criterion_2_free_case_oracle(zero_c):
    worst = 0.0
    lams = [float(lam) for lam in np.linspace(-1e6, 1e6, 200) if lam != 0.0]
    for lam, T in zip(lams, traces_at(zero_c, lams)):
        T0 = free_trace(lam)
        worst = max(worst, abs(T - T0) / abs(T0))
    ok = worst <= 1e-8
    _report("2", "free-case trace oracle to |lambda| = 1e6", ok, f"rel {worst:.2e}")
    assert ok


def test_criterion_3_discriminant_identity(coefficient_sets):
    worst_eq = worst_im = 0.0
    lams = _real_grid(500)
    for c in coefficient_sets:
        for T in traces_at(c, lams):
            rt = rho_trace_formula(T)
            rp = rho_product_formula(solve_multipliers(T, np.conj(T)))
            scale = 1.0 + abs(rt)
            worst_eq = max(worst_eq, abs(rt - rp.real) / scale)
            worst_im = max(worst_im, abs(rp.imag) / scale)
    ok = worst_eq <= 1e-6 and worst_im <= 1e-8
    _report("3", "discriminant: trace route vs product route", ok,
            f"eq {worst_eq:.2e}, im {worst_im:.2e}")
    assert worst_eq <= 1e-6
    assert worst_im <= 1e-8


def test_criterion_4_growth_bounds(coefficient_sets):
    """|T| <= 3 e^(z0+kappa); |T - T0| <= 3 kappa e^(z0+kappa)/|z| for |lambda| >= 1.

    Bounds are checked with a relative machine-slack of 1e-9 plus an
    absolute floor of 1e-12 times the cap scale, which keeps the zero-
    coefficient case meaningful (there the perturbation cap is exactly 0
    and the left side is pure roundoff).
    """
    worst = 0.0  # worst (LHS - RHS) normalized by the cap scale
    complex_pts = _complex_samples(40)
    for c in coefficient_sets:
        lams = [complex(lam) for lam in list(_real_grid(200)) + complex_pts]
        for lam, T in zip(lams, traces_at(c, lams)):
            param = SpectralParameter.from_lambda(lam)
            scale = 3.0 * math.exp(param.z0 + c.kappa)
            worst = max(worst, (abs(T) - scale) / scale)
            if abs(lam) >= 1.0:
                cap = 3.0 * c.kappa * math.exp(param.z0 + c.kappa) / abs(param.z)
                dev = abs(T - free_trace(lam))
                worst = max(worst, (dev - cap) / scale)
    ok = worst <= 1e-12
    _report("4", "trace growth and perturbation bounds", ok, f"excess {worst:.2e}")
    assert ok


def test_criterion_5_picard_equivalence(const_c, small_c):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    points: list[complex] = list(np.linspace(-100.0, 100.0, 17))
    while len(points) < 25:
        lam = complex(rng.uniform(-70, 70), rng.uniform(-70, 70))
        if abs(lam) <= 100:
            points.append(lam)
    worst = 0.0
    certified = True
    for c in (const_c, small_c):  # kappa 1.5 and 0.8, both <= 2
        assert c.kappa <= 2.0
        M = monodromy.period_maps(c, points)
        for lam, M_exp in zip(points, M):
            m_ser = picard_monodromy(c, SpectralParameter.from_lambda(lam), tol=1e-10)
            certified = certified and m_ser.tail_bound < 1e-10
            diff = np.abs(np.asarray(M_exp, complex) - np.asarray(m_ser.M, complex)).max()
            worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and certified and elapsed <= 30.0
    _report("5", "series route vs exponential-steps route", ok,
            f"entrywise {worst:.2e}, {elapsed:.1f}s, 50 points x 2 sets")
    assert worst <= 1e-8
    assert certified
    assert elapsed <= 30.0


def test_criterion_6_floquet_exactness_and_asymptotics(zero_c, small_c):
    worst_rel = 0.0
    for k in (0.0, 1.0, math.pi, 5.0):
        res = eigenvalues_at_k(zero_c, k, (-10, 10))
        assert not res.missed
        exact = free_eigenvalues(k, (-10, 10))
        for e, x in zip(res.eigenvalues, exact):
            worst_rel = max(worst_rel, abs(e.lambda_n - x) / max(1.0, abs(x)))
    exact_ok = worst_rel <= 1e-8

    # perturbed coefficients: the cube-root gap decays like 1/n
    weighted: dict[int, float] = {}
    for lo, hi in ((10, 40), (-40, -10)):
        res = eigenvalues_at_k(small_c, 1.0, (lo, hi))
        assert not res.missed
        for e in res.eigenvalues:
            weighted[e.n] = abs(e.cube_root_gap) * abs(e.n)
    near = max(v for n, v in weighted.items() if abs(n) <= 25)
    far = max(v for n, v in weighted.items() if abs(n) > 25)
    decay_ok = far <= 1.5 * near + 1e-9

    ok = exact_ok and decay_ok
    _report("6", "eigenvalue curves: free exactness + perturbed 1/n gap decay", ok,
            f"free rel {worst_rel:.2e}; weighted gap near {near:.3f} far {far:.3f}")
    assert exact_ok
    assert decay_ok


def test_criterion_7_counting(zero_c):
    from triband import count_in_disk

    small = PeriodicCoefficients.from_constants(0.1, 0.0, 32)  # kappa 0.1 <= 0.2
    results = []
    for c in (zero_c, small):
        a = count_in_disk(c, 0.3, 5)
        b = count_in_disk(c, 2.0, 5)
        results.append((a.count, b.count))
        assert not a.missed and not b.missed
    ok = all(r == (11, 10) for r in results)
    _report("7", "root counts: 11 in the (11 pi)^3 disk, 10 in the (10 pi)^3 disk",
            ok, f"{results}")
    assert ok


def test_criterion_8_multiplicity_classification(zero_c):
    # free case: simple spectrum everywhere, one zero-width touch at 0
    res0 = sigma3_intervals(zero_c, (-100.0, 100.0), 2001, 1e-6)
    free_ok = (
        res0.intervals == ()
        and len(res0.touch_points) == 1
        and abs(res0.touch_points[0]) <= 0.1
    )
    for pt in scan_real_axis(zero_c, (-100.0, 100.0), 201):
        if pt.lam != 0.0:
            free_ok = free_ok and pt.multiplicity == 1

    # strong perturbation: certified triple-multiplicity window
    c5 = PeriodicCoefficients.from_constants(5.0, 0.0, 64)
    res5 = sigma3_intervals(c5, (-100.0, 100.0), 2001, 1e-6)
    strong_ok = len(res5.intervals) >= 1
    for iv in res5.intervals:
        strong_ok = strong_ok and rho_at(c5, 0.5 * (iv.lo + iv.hi)) < 0
        strong_ok = strong_ok and rho_at(c5, iv.lo - 2e-6) > 0
        strong_ok = strong_ok and rho_at(c5, iv.hi + 2e-6) > 0
        strong_ok = strong_ok and rho_at(c5, iv.lo + 2e-6) < 0
        strong_ok = strong_ok and rho_at(c5, iv.hi - 2e-6) < 0

    ok = free_ok and strong_ok
    _report("8", "triple-multiplicity set: free empty with touch, strong verified",
            ok, f"{len(res5.intervals)} interval(s), touch at {res0.touch_points}")
    assert free_ok
    assert strong_ok


def test_criterion_9_multiplier_symmetry(coefficient_sets):
    worst_h = 0.0
    structure_ok = True
    lams = _real_grid(100)
    for c in coefficient_sets:
        for T in traces_at(c, lams):
            taus = solve_multipliers(T, np.conj(T))
            worst_h = max(
                worst_h, hausdorff_distance(tuple(taus), tuple(1.0 / np.conj(taus)))
            )
            rho = rho_trace_formula(T)
            if rho > 1e-9 * (1 + abs(rho)):
                structure_ok = structure_ok and sum(on_circle(taus)) == 1
                off = sorted(taus, key=lambda t: abs(abs(t) - 1.0))[1:]
                structure_ok = structure_ok and (
                    abs(off[0] - 1.0 / np.conj(off[1])) <= 1e-8 * (1 + abs(off[0]))
                )
    ok = worst_h <= 1e-8 and structure_ok
    _report("9", "multiplier set symmetry under inversion-conjugation", ok,
            f"hausdorff {worst_h:.2e} over 300 points")
    assert worst_h <= 1e-8
    assert structure_ok


def test_criterion_10_k_reflection_direct_list_equality(zero_c, small_c):
    """Reflection as direct list equality of the lists that the law relates.

    Complex conjugation maps H_{p,q} to -H_{p,-q} and the Floquet fiber at
    k to the fiber at 2 pi - k, so the eigenvalue curves obey

        lambda_n(2 pi - k; p, -q) = -lambda_{-n-1}(k; p, q).

    The list at 2 pi - k for the index window [n_lo, n_hi] (with q negated)
    must therefore equal, entry by entry, the negated list at k for the
    window [-n_hi - 1, -n_lo - 1], in reverse order.  The naive equality
    lambda_n(k) = lambda_n(2 pi - k) of even-order operators is not checked:
    for constant coefficients the curves are exactly (2 pi n + k)^3, so
    already at n = 0, k = 0.5 it would demand 0.125 = (2 pi - 0.5)^3 = 193.4.
    The pair with q != 0 checks the q -> -q half of the law: a constant q
    shifts every lambda by q, so dropping the flip breaks it.
    """
    n_lo, n_hi = -5, 5
    small_neg_q = PeriodicCoefficients.from_constants(0.5, -0.3, 64)
    worst = 0.0
    for k in (0.5, 1.3):
        for c, c_ref in ((zero_c, zero_c), (small_c, small_neg_q)):
            at_rk = eigenvalues_at_k(c_ref, TWO_PI - k, (n_lo, n_hi))
            at_k = eigenvalues_at_k(c, k, (-n_hi - 1, -n_lo - 1))
            assert not at_rk.missed and not at_k.missed
            left = np.array([e.lambda_n for e in at_rk.eigenvalues])
            right = -np.array([e.lambda_n for e in at_k.eigenvalues])[::-1]
            assert len(left) == len(right)
            dev = np.abs(left - right) / np.maximum(1.0, np.abs(right))
            worst = max(worst, float(np.max(dev)))
    ok = worst <= 1e-7
    _report("10", "k-reflection as direct list equality: "
            "lambda_n(2pi-k; p,-q) = -lambda_{-n-1}(k; p,q)",
            ok, f"worst rel deviation {worst:.2e}")
    assert ok, (
        "eigenvalue list at 2pi-k (q -> -q) differs from the negated, "
        f"index-reversed list at k: worst relative deviation {worst:.3e}"
    )


def test_criterion_10_companion_valid_reflection(zero_c, small_c):
    """The reflection law that does hold: negated spectrum, reversed index, q -> -q."""
    small_neg_q = PeriodicCoefficients.from_constants(0.5, -0.3, 64)
    worst = 0.0
    for k in (0.5, 1.3):
        for c, c_ref in ((zero_c, zero_c), (small_c, small_neg_q)):
            at_k = {e.n: e.lambda_n for e in eigenvalues_at_k(c, k, (-6, 5)).eigenvalues}
            at_rk = {
                e.n: e.lambda_n
                for e in eigenvalues_at_k(c_ref, TWO_PI - k, (-6, 5)).eigenvalues
            }
            for n in range(-5, 5):
                dev = abs(at_rk[n] + at_k[-n - 1]) / max(1.0, abs(at_k[-n - 1]))
                worst = max(worst, dev)
    ok = worst <= 1e-7
    _report("10b", "k-reflection via spectrum negation with reversed indexing", ok,
            f"worst rel {worst:.2e}")
    assert ok
