"""The stack kernels of _linalg against independent references.

expm_stack is checked against a 40-digit mpmath exponential of the run
generators whose entries it takes, its Taylor degrees against their tail
bound, its choice of scaling and degree from norms in double against the
same choice from norms in the caller's dtype (bit for bit away from a
boundary, against mpmath where the two differ), and the entries, as
period_maps hands them over, against the structure of the generators;
ordered_product against the plain left-multiplying loop, the
run-collapsed period map against the uncollapsed per-cell product, and the
trace of the period map against a 60-digit mpmath product of the run
exponentials.  Points with more runs than one stack holds are mapped in
chunks: their maps against one whole stack bit for bit, the products of
aligned chunks against the whole product, and the working set of a call.
"""

import tracemalloc

import numpy as np
import pytest

from triband import PeriodicCoefficients, SpectralParameter, monodromy
from triband import _linalg
from triband._linalg import EXTENDED, expm_stack, ordered_product, run_norms, taylor_blocks
from triband.monodromy import period_maps, system_matrices

EPS = float(np.finfo(EXTENDED).eps)
# three runs of a step set at N = 64: cells, and the levels of p and q
_RUN_CELLS, _RUN_P, _RUN_Q = (20, 25, 19), (0.6, -0.4, 0.2), (0.3, -0.2, 0.5)
_RUN_P_WITH_ZERO = (0.6, 0.0, 0.2)
# rows and columns of the entries a, b and c of a run generator
_ROWS, _COLS = [0, 1, 2], [1, 0, 0]


def _run_generators(rng, size, norm):
    """size matrices [[0, a, 0], [b, 0, a], [c, b, 0]] of infinity norm norm.

    a and b are real and c is complex, as in the run generators of
    period_maps; the first matrix has b = 0 (p = 0 on its run).
    """
    a = rng.uniform(0.1, 1.0, size) * rng.choice([-1.0, 1.0], size)
    b = rng.standard_normal(size)
    b[0] = 0.0
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    A = np.zeros((size, 3, 3), dtype=complex)
    A[:, 0, 1] = A[:, 1, 2] = a
    A[:, 1, 0] = A[:, 2, 1] = b
    A[:, 2, 0] = c
    return A * (norm / np.abs(A).sum(axis=-1).max(axis=-1))[:, None, None]


def _entries(A):
    """The entries (a, b, c) of run generators (..., 3, 3), in the extended dtype."""
    return A[..., _ROWS, _COLS].astype(EXTENDED)


def _expm_one_stack(X):
    """expm_stack of one stack X (m, 3), in its own dtype, with its run_norms."""
    X = X[np.newaxis]
    return expm_stack(X, run_norms(X))[0]


def _assert_matches_mpmath(A, E):
    """Entrywise error of each E = exp(A) relative to max |exp(A)|, within 16 eps ||A||."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for a, e in zip(A, E):
        ref = mp.expm(mp.matrix(a.tolist()))
        err = scale = mp.mpf(0)
        for i in range(3):
            for j in range(3):
                got = mp.mpc(mp.mpf(str(e[i, j].real)), mp.mpf(str(e[i, j].imag)))
                err = max(err, abs(got - ref[i, j]))
                scale = max(scale, abs(ref[i, j]))
        norm = float(np.abs(a).sum(axis=-1).max())
        assert float(err / scale) <= 16 * EPS * max(1.0, norm)


@pytest.mark.parametrize("norm", np.logspace(-3, 4, 8))
def test_expm_stack_matches_mpmath(norm):
    """Run generators of norm 1e-3 .. 1e4 against a 40-digit exponential.

    The relative condition number of exp is at least ||A|| (Van Loan), so
    above ||A|| ~ 1e2 no method in this precision can do better than a
    small multiple of eps ||A||; below it the bound is at most 1.7e-16.
    """
    rng = np.random.default_rng(int(np.log10(norm)) + 100)
    A = _run_generators(rng, 4, norm)
    _assert_matches_mpmath(A, _expm_one_stack(_entries(A)))


def test_expm_stack_scales_each_stack_on_its_own():
    """Four stacks of a (4, m, 3) input take 3, 4, 6 and 5 Taylor blocks.

    The first three take no squaring, the last 14.  Each matches mpmath,
    and each equals the result of its stack alone, bit for bit: neither
    the squarings nor the Taylor blocks of one stack touch another.
    """
    rng = np.random.default_rng(7)
    norms = (1e-3, 0.05, 0.2, 2.5e3)
    A = np.stack([_run_generators(rng, 3, norm) for norm in norms])
    assert taylor_blocks(np.array([1e-3, 0.05, 0.2, 2.5e3 / 2**14])).tolist() == [3, 4, 6, 5]
    X = _entries(A)
    E = expm_stack(X, run_norms(X))
    assert E.shape == (4, 3, 3, 3)
    for stack, result in zip(A, E):
        _assert_matches_mpmath(stack, result)
        assert np.array_equal(result, _expm_one_stack(_entries(stack)))


def test_taylor_blocks_meet_the_tail_at_their_radii():
    """Blocks 0..j, of degree d = min(3j + 2, 16), hold x^(d+1)/(d+1)! to 1e-24 up to radius j.

    Each radius meets the bound in 40 digits and misses it 1e-9 above, so
    no fewer blocks would do; a norm just above a radius takes the next
    count.  At scaled norms 0.05, 0.16 and 0.25 (4, 5 and 6 blocks, the
    last the scaling radius) expm_stack matches mpmath.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    radii = _linalg._BLOCK_RADII
    assert len(radii) == 6 and radii[-1] >= 0.25
    for j, radius in enumerate(radii.tolist()):
        d = min(3 * j + 2, 16)
        tail = mp.mpf(radius) ** (d + 1) / mp.factorial(d + 1)
        assert tail <= mp.mpf("1e-24") < tail * (1 + mp.mpf("1e-9")) ** (d + 1)
        assert taylor_blocks(np.array([radius])).tolist() == [j + 1]
        if j < 5:
            assert taylor_blocks(np.array([np.nextafter(radius, 1.0)])).tolist() == [j + 2]
    assert taylor_blocks(np.array([0.05, 0.16, 0.25])).tolist() == [4, 5, 6]
    rng = np.random.default_rng(11)
    for norm in (0.05, 0.16, 0.25):
        A = _run_generators(rng, 4, norm)
        _assert_matches_mpmath(A, _expm_one_stack(_entries(A)))


def _random_entries(rng, size, kind):
    """size complex128 triples (a, b, c): a and b real and c imaginary on the real axis,
    as period_maps builds them at real lambda, or all three complex."""
    a = rng.uniform(0.1, 1.0, size) * rng.choice([-1.0, 1.0], size)
    b, c = rng.standard_normal(size), 1j * rng.standard_normal(size)
    if kind == "complex":
        a, b = a * np.exp(2j * np.pi * rng.random(size)), b * np.exp(2j * np.pi * rng.random(size))
        c = c + rng.standard_normal(size)
    return np.stack([a + 0j, b + 0j, c], axis=-1)


def _generators(abc):
    """The run generators [[0, a, 0], [b, 0, a], [c, b, 0]] (..., 3, 3) of entries (..., 3)."""
    A = np.zeros(abc.shape[:-1] + (3, 3), dtype=abc.dtype)
    A[..., 0, 1] = A[..., 1, 2] = abc[..., 0]
    A[..., 1, 0] = A[..., 2, 1] = abc[..., 1]
    A[..., 2, 0] = abc[..., 2]
    return A


def _reference_norms(X):
    """Row-sum norms of the stacks of X (s, m, 3) as the kernel took them before it took
    them in double: |X| in X's own dtype, the sums and maximum too, then cast to float64."""
    mag = np.abs(X)
    return (mag[..., :2] + mag[..., 1:]).max(axis=(1, 2), initial=0.0).astype(np.float64)


def _reference_choices(X):
    """Scaling exponents and Taylor block counts that _reference_norms picks."""
    norms = _reference_norms(X)
    squarings = _linalg.scaling_exponents(norms)
    return squarings, _linalg.taylor_blocks(norms * np.ldexp(1.0, -squarings))


def _chosen(monkeypatch, X):
    """expm_stack(X) with the scaling exponents and Taylor block counts it picked."""
    seen = {}

    def spy(name):
        pick = getattr(_linalg, name)
        return lambda norms: seen.setdefault(name, pick(norms))

    monkeypatch.setattr(_linalg, "scaling_exponents", spy("scaling_exponents"))
    monkeypatch.setattr(_linalg, "taylor_blocks", spy("taylor_blocks"))
    E = expm_stack(X, run_norms(X))
    monkeypatch.undo()
    return E, seen["scaling_exponents"], seen["taylor_blocks"].ravel()


def test_double_norms_choose_as_the_extended_norms_bit_for_bit(monkeypatch):
    """expm_stack, which takes its norms in double, against the reference path, which
    takes them in the caller's dtype (_reference_norms), on a seeded sweep.

    120 calls of 1-4 stacks of 1-8 extended-precision generators, real-axis or
    complex entries, stack norms log-uniform in [1e-6, 1e4]: 136 of the 281
    stacks square, and 55 calls mix stacks with and without squarings.  The
    scaling exponents, the Taylor block counts and every result are the
    reference's, in values and in signs of zero.
    """
    rng = np.random.default_rng(32)
    mixed = 0
    for call in range(120):
        stacks, m = rng.integers(1, 5), rng.integers(1, 9)
        X = _random_entries(rng, (stacks, m), ("real-axis", "complex")[call % 2])
        X *= (10.0 ** rng.uniform(-6, 4, stacks) / _reference_norms(X))[:, None, None]
        X = X.astype(EXTENDED)
        squarings, blocks = _reference_choices(X)
        mixed += squarings.min() == 0 < squarings.max()
        monkeypatch.setattr(_linalg, "scaling_exponents", lambda _: squarings)
        monkeypatch.setattr(_linalg, "taylor_blocks", lambda _: blocks)
        reference = expm_stack(X, run_norms(X))
        monkeypatch.undo()
        E, got_squarings, got_blocks = _chosen(monkeypatch, X)
        assert got_squarings.tolist() == squarings.tolist()
        assert got_blocks.tolist() == blocks.tolist()
        assert _same_bits(E, reference)
    assert mixed == 55


# scaled norms at which the choice of expm_stack changes: 0.25 2^k, where a squaring
# is added, and the radii of 1..5 Taylor blocks (the sixth, 0.28, lies past 0.25)
_BOUNDARIES = [0.25 * 2.0**k for k in range(13)] + _linalg._BLOCK_RADII[:-1].tolist()


@pytest.mark.skipif(EXTENDED == np.complex128, reason="no extended type: both norms are in double")
def test_choices_flipped_near_a_boundary_keep_their_accuracy(monkeypatch):
    """Within a few ulps of a boundary the norm in double can pick one squaring or
    one block fewer or more than the norm in the caller's dtype, at the same accuracy.

    Per boundary, 200 real-axis and 200 complex stacks of one generator with
    norms within 4 ulps of it.  On the real axis |a|, |b| and |c| are exact in
    either type and both norms round the same sums to double, so no choice
    flips; of the complex stacks, whose |.| rounds differently in double,
    some flip (105 on x86-64 with the x87 long double), in both directions:
    a squaring at each 0.25 2^k and a block at each radius.  Every flipped
    stack and one unflipped stack per boundary match the 40-digit exponential within the bound of
    test_expm_stack_matches_mpmath: the Taylor tail is at most 1e-24 at
    either choice (the radii are rounded down by 1e-12, and 0.25 lies below
    the 6-block radius 0.28).
    """
    rng = np.random.default_rng(250)
    for boundary in _BOUNDARIES:
        abc = np.concatenate([_random_entries(rng, 200, kind) for kind in ("real-axis", "complex")])
        abc *= boundary / _reference_norms(abc[:, None])[:, None]
        abc *= 1 + rng.integers(-4, 5, len(abc))[:, None] * np.finfo(float).eps
        X = abc[:, None].astype(EXTENDED)
        E, squarings, blocks = _chosen(monkeypatch, X)
        want_squarings, want_blocks = _reference_choices(X)
        flips = (squarings != want_squarings) | (blocks != want_blocks)
        assert not flips[:200].any() and flips.any()
        assert (squarings != want_squarings).any() == (boundary >= 0.25)
        checked = [*np.flatnonzero(flips), np.flatnonzero(~flips)[0]]
        _assert_matches_mpmath(_generators(abc[checked]), E[checked, 0])


@pytest.mark.parametrize("lams", [[0.0], [1e3], [-1e3], [1e7], [300 + 200j, 300 - 200j]])
def test_period_maps_hands_expm_stack_its_structure(monkeypatch, lams):
    """The frame-scaled entries (a, b, c) and the norms that period_maps hands to expm_stack.

    On three runs of a step set, p = 0 on the middle one: a = w mu is real
    and positive, b = -w p / mu is real, exactly 0 on the middle run and
    nonzero on the others.  Every call's norms are run_norms of its stack,
    and on a set of 1100 runs, cut into chunks of 512, 512 and 76 runs, of
    the chunk's whole point, bit for bit.
    """
    seen = []

    def spy(X, norms):
        seen.append((X.copy(), norms.copy()))
        return expm_stack(X, norms)

    monkeypatch.setattr(monodromy, "expm_stack", spy)
    c = PeriodicCoefficients.from_samples(
        np.repeat(_RUN_P_WITH_ZERO, _RUN_CELLS), np.repeat(_RUN_Q, _RUN_CELLS)
    )
    period_maps(c, lams)
    assert all(np.array_equal(norms, run_norms(X)) for X, norms in seen)
    X = np.concatenate([entries for entries, _ in seen])
    assert X.shape == (len(lams), 3, 3)
    a, b = X[..., 0], X[..., 1]
    assert np.all(a.imag == 0) and np.all(b.imag == 0) and np.all(a.real > 0)
    assert np.all(b[:, 1] == 0) and np.all(b[:, [0, 2]] != 0)
    rng = np.random.default_rng(1100)
    seen.clear()
    period_maps(PeriodicCoefficients.from_samples(rng.uniform(-1, 1, 1100),
                                                  rng.uniform(-1, 1, 1100)), lams)
    assert [X.shape[1] for X, _ in seen] == [512, 512, 76] * len(lams)
    for j in range(0, len(seen), 3):
        whole = np.concatenate([X for X, _ in seen[j : j + 3]], axis=1)
        assert all(np.array_equal(norms, run_norms(whole)) for _, norms in seen[j : j + 3])


@pytest.mark.parametrize("length", [1, 2, 3, 7, 64, 1025])
def test_ordered_product_matches_sequential_loop(length):
    rng = np.random.default_rng(length)
    G = rng.standard_normal((length, 3, 3)) + 1j * rng.standard_normal((length, 3, 3))
    # unitary factors: the product keeps norm 1, so the error stays at roundoff
    factors = np.linalg.qr(G)[0].astype(EXTENDED)
    expected = factors[0]
    for F in factors[1:]:
        expected = F @ expected
    got = ordered_product(factors)
    assert got.shape == (3, 3)
    assert float(np.abs(got - expected).max()) <= 1e-16


def _same_bits(x, y):
    """Equal values and equal signs of zero, in the real and the imaginary parts."""
    return all(np.array_equal(f(x), f(y)) and np.array_equal(np.signbit(f(x)), np.signbit(f(y)))
               for f in (np.real, np.imag))


def test_expm_stack_takes_the_norms_it_is_handed():
    """Handed its own norm, each stack returns its rows of the whole call,
    and chunks of a stack handed the whole stack's norms return the stack's rows."""
    rng = np.random.default_rng(36)
    X = _random_entries(rng, (4, 37), "complex")
    X *= (10.0 ** rng.uniform(-6, 4, 4) / _reference_norms(X))[:, None, None]
    X = X.astype(EXTENDED)
    norms = run_norms(X)
    whole = expm_stack(X, norms)
    assert _same_bits(np.concatenate([expm_stack(X[i : i + 1], norms[i : i + 1])
                                      for i in range(4)]), whole)
    chunks = [expm_stack(X[:, j : j + 8], norms) for j in range(0, 37, 8)]
    assert _same_bits(np.concatenate(chunks, axis=1), whole)


@pytest.mark.parametrize("length", [1, 511, 512, 513, 1500, 2049])
def test_aligned_chunk_products_join_to_the_whole_product(length):
    """The balanced tree groups the factors of each aligned power-of-two chunk as
    the chunk's own tree does, so the product of the chunk products keeps the bits."""
    rng = np.random.default_rng(length)
    G = rng.standard_normal((length, 3, 3)) + 1j * rng.standard_normal((length, 3, 3))
    factors = np.linalg.qr(G)[0].astype(EXTENDED)
    size = monodromy._STACK_MATRICES
    chunks = [ordered_product(factors[j : j + size]) for j in range(0, length, size)]
    assert _same_bits(ordered_product(np.stack(chunks)), ordered_product(factors))


# real lambda through +-1e7 and a point near the guard, and complex pairs
_CHUNK_LAMBDAS = [0.0, 3.0, -40.0, 1e3, -1e5, 1e7, -1e7, -2e8,
                  3e4 + 2e5j, 3e4 - 2e5j, -5e6 + 1e6j, -5e6 - 1e6j]


@pytest.mark.parametrize("N", [511, 512, 513, 1024, 1500, 4096])
def test_period_maps_in_chunks_keep_the_whole_stack_bits(N):
    """period_maps on N distinct cells against the whole stack of one point at a time,
    ordered_product(expm_stack(X, run_norms(X))) / frame: equal bit for bit, squarings included.

    |p| is of size N on the first 8 cells, so near lambda = 0 the whole stack squares
    while a later chunk scaled by its own norms would not.
    """
    rng = np.random.default_rng(N)
    p = rng.uniform(-1, 1, N)
    p[:8] *= N
    c = PeriodicCoefficients.from_samples(p, rng.uniform(-1, 1, N))
    assert len(c.runs) == N
    runs, widths, points, powers, frame = monodromy._framed_runs(c, _CHUNK_LAMBDAS, EXTENDED)
    want, squared = [], False
    for i in range(len(_CHUNK_LAMBDAS)):
        X = (runs + points[i : i + 1, np.newaxis]) * (widths * powers[i : i + 1, np.newaxis])
        norms = run_norms(X)
        squared |= bool(_linalg.scaling_exponents(norms).any())
        want.append(ordered_product(expm_stack(X, norms)) / frame[i : i + 1])
    assert squared
    assert _same_bits(period_maps(c, _CHUNK_LAMBDAS), np.concatenate(want))


def test_period_maps_working_set_does_not_grow_with_the_runs():
    """A 3-point call at N = 8192 allocates at most 3 MB at its peak (7.9 MB in one stack)."""
    rng = np.random.default_rng(8192)
    c = PeriodicCoefficients.from_samples(rng.uniform(-1, 1, 8192), rng.uniform(-1, 1, 8192))
    lams = [-1e3, 10.0, 1e3]
    period_maps(c, lams)  # the run entries, kept on c
    tracemalloc.start()
    try:
        period_maps(c, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def _square_by_gather(stacks, squarings, square):
    """Reference for square_by_level: every level gathers its stacks through a
    boolean mask and scatters them back, the levels every stack reaches too."""
    done = 0
    for level in sorted(set(squarings.tolist()) - {0}):
        todo = squarings >= level
        part = stacks[todo]
        for _ in range(level - done):
            part = square(part)
        stacks[todo] = part
        done = level


@pytest.mark.parametrize("squarings", [(3, 3, 3), (0, 2, 5), (1, 4, 2), (0, 0, 0)],
                         ids=["one-level", "mixed-with-zero", "mixed", "none"])
@pytest.mark.parametrize("in_place", [False, True], ids=["matmul", "toeplitz-in-place"])
def test_square_by_level_matches_gather_and_scatter(squarings, in_place):
    """Bit for bit, with squarings that return new arrays and with the series
    route's, which squares its argument in place."""
    rng = np.random.default_rng(len(squarings) + sum(squarings))
    shape = (3, 4, 3, 3)
    stacks = (0.4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))).astype(EXTENDED)
    square = monodromy._toeplitz_squares if in_place else (lambda part: part @ part)
    want, got = stacks.copy(), stacks.copy()
    _square_by_gather(want, np.array(squarings), square)
    _linalg.square_by_level(got, np.array(squarings), square)
    assert _same_bits(got, want)
    assert _same_bits(got, stacks) == (max(squarings) == 0)


@pytest.mark.parametrize(
    "levels, p, q, lams",
    [
        ("one-level", np.full(64, 1.0), np.full(64, -0.5), [-37.5]),
        ("mixed", np.repeat(_RUN_P, _RUN_CELLS), np.repeat(_RUN_Q, _RUN_CELLS),
         [0.0, 1.0, -5e2, 2e3, 3 + 4j, 3 - 4j]),
        ("none", np.sin(np.arange(64) / 10), np.cos(np.arange(64) / 10), [0.0, 0.5, -0.5]),
    ],
    ids=["one-level", "mixed", "none"],
)
def test_core_routes_square_as_the_gather_form(monkeypatch, levels, p, q, lams):
    """period_maps and the series terms (in-place block-Toeplitz squarings)
    are unchanged bit for bit when every level gathers and scatters."""
    c = PeriodicCoefficients.from_samples(p, q)
    kinds = set()
    by_level = _linalg.square_by_level

    def recording(stacks, squarings, square):
        s = set(squarings.tolist())
        kinds.add("none" if s == {0} else "one-level" if len(s) == 1 else "mixed")
        by_level(stacks, squarings, square)

    for module in (_linalg, monodromy):
        monkeypatch.setattr(module, "square_by_level", recording)
    params = [SpectralParameter.from_lambda(lam) for lam in lams]
    maps, series = period_maps(c, lams), monodromy._series_terms(c, params, 1e-12)
    assert levels in kinds and (levels == "mixed" or kinds == {levels})
    for module in (_linalg, monodromy):
        monkeypatch.setattr(module, "square_by_level", _square_by_gather)
    assert _same_bits(period_maps(c, lams), maps)
    terms, orders = monodromy._series_terms(c, params, 1e-12)
    assert _same_bits(terms, series[0]) and orders == series[1]


@pytest.mark.parametrize(
    "lam", [0.0, 10.0, -10.0, 250.0, 1e3, -1e3, 3e3, -1e4, 300 + 200j, -1e3 - 1e3j]
)
def test_propagate_matches_uncollapsed_cell_product(lam):
    """Three levels each of p and q at N = 64 against the 64 cell exponentials.

    p and q change level at different cells, so the set has five runs.  The
    two products round differently, and the conditioning of exp grows with
    ||A|| ~ |lambda|, so the bound grows with |lambda| above 1e3: at 3e3
    they differ by 1.1e-15, while each is within 7.2e-16 of a 50-digit
    reference.
    """
    p = np.repeat([0.6, -0.4, 0.2], [20, 25, 19])
    q = np.repeat([0.3, -0.2, 0.5], [12, 30, 22])
    c = PeriodicCoefficients.from_samples(p, q)
    P, Q = system_matrices([lam], p, q)
    A = (P.astype(EXTENDED) + Q.astype(EXTENDED)) / np.asarray(64, dtype=EXTENDED)
    cells = _expm_one_stack(A[..., _ROWS, _COLS])
    expected = cells[0]
    for F in cells[1:]:
        expected = F @ expected
    [got] = period_maps(c, [lam])
    err = np.abs(got - expected).max() / np.abs(expected).max()
    assert float(err) <= 1e-15 * max(1.0, abs(lam) / 1e3)


@pytest.mark.parametrize("lam", [1e3, 1e5, 1e7, 1e8, -2e8])
def test_trace_matches_60_digit_oracle_out_to_the_guard(lam):
    """Forward error of T against one 60-digit mpmath.expm per run.

    The generator's entry -i lambda dominates its norm, while the growth
    is only of size |lambda|^(1/3); without the balanced frame the error
    grew like eps |lambda|, to 1.4e-11 in complex256 and 9.6e-10 in
    complex128 on these points.  Measured in the frame: at most 1.9e-17
    in complex256 and 4.3e-14 (at 1e8, 0.5 eps z0) in complex128.  Over
    random points the complex128 error reaches about 2.3 eps z0, which
    passes 1e-13 from |lambda| ~ 1.2e7 (z0 ~ 200) on: at the two largest
    points the bound holds by the rounding at those points, not by an
    envelope.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    ref = mp.eye(3)
    for cells, p, q in zip(_RUN_CELLS, _RUN_P, _RUN_Q):
        A = mp.matrix([[0, 1, 0], [-p, 0, 1], [1j * (mp.mpf(q) - mp.mpf(lam)), -p, 0]])
        ref = mp.expm(A * cells / 64) * ref
    T_ref = ref[0, 0] + ref[1, 1] + ref[2, 2]

    c = PeriodicCoefficients.from_samples(
        np.repeat(_RUN_P, _RUN_CELLS), np.repeat(_RUN_Q, _RUN_CELLS)
    )
    # where EXTENDED falls back to complex128 only the complex128 bound applies
    bounds = {EXTENDED: 1e-15, np.dtype(np.complex128): 1e-13}
    for dtype, bound in bounds.items():
        M = period_maps(c, [lam], dtype=dtype)[0]
        T = M[0, 0] + M[1, 1] + M[2, 2]
        got = mp.mpc(mp.mpf(str(T.real)), mp.mpf(str(T.imag)))
        assert float(abs(got - T_ref) / abs(T_ref)) <= bound, dtype
