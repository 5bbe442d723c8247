"""The stack kernels of _linalg against independent references.

expm_stack is checked against a 40-digit mpmath exponential,
ordered_product against the plain left-multiplying loop, and the
run-collapsed propagate against the uncollapsed per-cell product.
"""

import numpy as np
import pytest

from triband import PeriodicCoefficients, SpectralParameter, propagate
from triband._linalg import EXTENDED, expm_stack, ordered_product
from triband.monodromy import system_matrices

EPS = float(np.finfo(EXTENDED).eps)


def _random_stack(rng, size, norm):
    A = rng.standard_normal((size, 3, 3)) + 1j * rng.standard_normal((size, 3, 3))
    return A * (norm / np.abs(A).sum(axis=-1).max(axis=-1))[:, None, None]


@pytest.mark.parametrize("norm", np.logspace(-3, 4, 8))
def test_expm_stack_matches_mpmath(norm):
    """Entrywise error relative to max |exp(A)|, within 16 eps ||A||.

    The relative condition number of exp is at least ||A|| (Van Loan), so
    above ||A|| ~ 1e2 no method in this precision can do better than a
    small multiple of eps ||A||; below it the bound is at most 1.7e-16.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(int(np.log10(norm)) + 100)
    A = _random_stack(rng, 4, norm)
    E = expm_stack(A.astype(EXTENDED), EXTENDED)
    for a, e in zip(A, E):
        ref = mp.expm(mp.matrix(a.tolist()))
        err = scale = mp.mpf(0)
        for i in range(3):
            for j in range(3):
                got = mp.mpc(mp.mpf(str(e[i, j].real)), mp.mpf(str(e[i, j].imag)))
                err = max(err, abs(got - ref[i, j]))
                scale = max(scale, abs(ref[i, j]))
        assert float(err / scale) <= 16 * EPS * max(1.0, norm)


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
    param = SpectralParameter.from_lambda(lam)
    P, Q = system_matrices(param, p, q, EXTENDED)
    cells = expm_stack((P + Q) / np.asarray(64, dtype=EXTENDED), EXTENDED)
    expected = cells[0]
    for F in cells[1:]:
        expected = F @ expected
    got = propagate(c, param).M
    err = np.abs(got - expected).max() / np.abs(expected).max()
    assert float(err) <= 1e-15 * max(1.0, abs(lam) / 1e3)
