"""The Fourier-Floquet-Hill matrix as an oracle for eigenvalues_at_k.

For trigonometric p and q the operator acts on e^{i xi x} as
(xi^3 - 2 p xi + i p' + q) e^{i xi x}, so at quasimomentum k, in the basis
e^{i xi_n x} with xi_n = 2 pi n + k, the fiber is the Hermitian matrix

    H_mn = xi_n^3 delta_mn - p_{m-n} (xi_m + xi_n) + q_{m-n}

whose eigenvalues are the Floquet eigenvalues lambda_n(k) (Hill 1886;
Deconinck and Kutz, J. Comput. Phys. 219, 2006).  It shares nothing with
the pipeline: no step coefficients, no system matrix, no exponential, no
trace.  The pipeline sees p and q midpoint-sampled on N cells, so its roots
carry the midpoint rule's O(1/N^2) error; Richardson extrapolation over
N = 1024, 2048 removes it down to the root finder's tolerance.

eigh is accurate to about eps ||H||, and ||H|| ~ (2 pi modes)^3 swamps the
small eigenvalues, so each wanted one is refined by Rayleigh-quotient steps.
"""

import math

import numpy as np
import pytest

from triband import PeriodicCoefficients, eigenvalues_at_k

N_RANGE = (-3, 3)
_FFT = 256  # samples for the Fourier coefficients; above 4 * 32 + 1, so m - n never aliases


def p(x):
    return 0.3 * np.sin(2 * math.pi * x) + 0.2 * np.cos(4 * math.pi * x)


def q(x):
    return 0.5 * np.cos(2 * math.pi * x) - 0.4 * np.sin(6 * math.pi * x)


def hill_eigenvalues(k: float, modes: int) -> np.ndarray:
    """lambda_n(k) for n in N_RANGE from the Hill matrix on n = -modes..modes."""
    n = np.arange(-modes, modes + 1)
    xi = 2 * math.pi * n + k
    x = np.arange(_FFT) / _FFT
    p_hat, q_hat = (np.fft.fft(f(x)) / _FFT for f in (p, q))
    shift = (n[:, None] - n[None, :]) % _FFT
    H = np.diag(xi**3) - p_hat[shift] * (xi[:, None] + xi[None, :]) + q_hat[shift]
    values, vectors = np.linalg.eigh(H)
    refined = []
    # the coefficients are weak, so the ascending eigenvalues follow n
    for i in range(N_RANGE[0] + modes, N_RANGE[1] + modes + 1):
        lam, v = values[i], vectors[:, i]
        for _ in range(3):
            w = np.linalg.solve(H - lam * np.eye(len(n)), v)
            v = w / np.linalg.norm(w)
            lam = (v.conj() @ H @ v).real
        refined.append(lam)
    return np.array(refined)


def eigs_midpoint(k: float, N: int) -> np.ndarray:
    """eigenvalues_at_k on p and q sampled at the midpoints of N cells."""
    t = (np.arange(N) + 0.5) / N
    res = eigenvalues_at_k(PeriodicCoefficients.from_samples(p(t), q(t)), k, N_RANGE, tol=1e-14)
    assert not res.missed
    assert [e.n for e in res.eigenvalues] == list(range(N_RANGE[0], N_RANGE[1] + 1))
    return np.array([e.lambda_n for e in res.eigenvalues])


@pytest.mark.parametrize("k", [0.7, 2.0])
def test_eigs_converges_to_the_hill_eigenvalues(k):
    """Bounds with margin over numpy 2.4.6 on x86-64: 16 and 32 modes agree to 6.1e-16 and
    3.9e-16, the error ratio is 4.00 at both k, and Richardson is off by 8.8e-15 and 1.1e-15."""
    hill = hill_eigenvalues(k, 32)
    assert np.max(np.abs(hill_eigenvalues(k, 16) - hill) / np.abs(hill)) < 1e-14
    coarse, fine = eigs_midpoint(k, 1024), eigs_midpoint(k, 2048)
    err_coarse = np.max(np.abs(coarse - hill) / np.abs(hill))
    err_fine = np.max(np.abs(fine - hill) / np.abs(hill))
    assert 3.5 < err_coarse / err_fine < 4.5  # the midpoint rule's O(1/N^2)
    richardson = (4 * fine - coarse) / 3
    assert np.max(np.abs(richardson - hill) / np.abs(hill)) < 1e-13
