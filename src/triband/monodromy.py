"""Period map of the third-order operator i y''' + i p y' + i (p y)' + q y.

The fundamental system is propagated in the modified phase variables
(y, y', y'' + p y); their period map M(1, lambda) stays well defined even
when p is merely integrable.  In vector form Y' = (P(lambda) + Q(t)) Y with

    P = [[0, 1, 0], [0, 0, 1], [-i*lambda, 0, 0]],
    Q = [[0, 0, 0], [-p, 0, 0], [i*q, -p, 0]].

For the step-function coefficient model the propagation over one cell is a
constant-matrix exponential, so the period map is exact up to the accuracy
of the exponential itself.

Structure carried by M(1, lambda) and verified downstream:

  * det M(1, lambda) = 1,
  * M(1, conj(lambda))^* J M(1, lambda) = J   with J = [[0,0,i],[0,-i,0],[i,0,0]],
  * det(M(1, lambda) - tau) = -tau^3 + tau^2 T(lambda) - tau conj(T(conj(lambda))) + 1,

where T is the trace.  The growth of all entries is controlled by
exp(z0) with z0 = Re(i z w^2), z the cube root of lambda on the branch
arg z in (-pi/6, pi/2], w = exp(2*pi*i/3).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from ._linalg import EXTENDED, det3, expm_stack, ordered_product, spectral_norm
from ._linalg import _TAYLOR_DEGREE, scaling_exponents, square_by_level
from .coeffs import PeriodicCoefficients

OMEGA: complex = cmath.exp(2j * cmath.pi / 3)

SYMPLECTIC_J: np.ndarray = np.array(
    [[0, 0, 1j], [0, -1j, 0], [1j, 0, 0]], dtype=complex
)
SYMPLECTIC_J.setflags(write=False)

# Propagation refuses points where exp(z0 + kappa) exceeds double range;
# no silent rescaling.  On the real axis this allows |lambda| up to ~5e8.
MAX_GROWTH_EXPONENT = 700.0


class PropagationOverflowError(ArithmeticError):
    """Raised when the period map would overflow double precision."""


class PicardTruncationError(ArithmeticError):
    """Raised when the series tail bound cannot reach the requested tol."""


@dataclass(frozen=True)
class SpectralParameter:
    """Spectral point lambda with its cube root z and growth exponent z0.

    Branch convention: arg(lambda) in (-pi/2, 3pi/2], hence
    arg(z) in (-pi/6, pi/2].  On that branch z0 = Re(i z w^2) dominates
    Re(i z) and Re(i z w), and equals sqrt(3)|lambda|^(1/3)/2 on the
    whole real axis.
    """

    lam: complex
    z: complex
    z0: float

    @classmethod
    def from_lambda(cls, lam: complex) -> "SpectralParameter":
        lam = complex(lam)
        if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
            raise ValueError("lambda must be finite")
        if lam == 0:
            return cls(lam, 0j, 0.0)
        arg = cmath.phase(lam)
        if arg <= -math.pi / 2:
            arg += 2 * math.pi
        z = abs(lam) ** (1.0 / 3.0) * cmath.exp(1j * arg / 3)
        z0 = (z.imag + math.sqrt(3.0) * z.real) / 2.0  # Re(i z w^2)
        return cls(lam, z, z0)

    @property
    def is_real(self) -> bool:
        return self.lam.imag == 0.0

    def conjugate(self) -> "SpectralParameter":
        return SpectralParameter.from_lambda(self.lam.conjugate())


class PropagationMethod(Enum):
    EXPONENTIAL_STEPS = "exponential-steps"
    PICARD_SERIES = "picard-series"


@dataclass(frozen=True)
class MonodromyResult:
    """Period map M(1, lambda) with its trace and self-check residuals.

    The residuals are computed from M on access, so evaluations that only
    need the trace pay nothing for them.  The symplectic residuals need the
    period map at conj(lambda): it is M itself for real lambda, M_conj when
    propagate_pair filled it, and None otherwise.  For the series method,
    term_norms holds the norms of the computed series terms and tail_bound
    the analytic truncation bound that fixed the number of terms.

    The raw residuals grow like ||M||^3 and ||M||^2, so above |lambda| ~ 1e3
    they no longer tell roundoff from a fault.  The *_scaled variants
    divide those powers out, one factor of the norm at a time in M's own
    dtype, so they stay at roundoff and nothing overflows up to the
    propagation guard.  They measure structure, not the forward error of
    M: without the balanced frame of period_maps, T on a step set was off
    by 1.4e-11 relative at lambda = -2e8 while both scaled residuals sat
    at roundoff.  Against 50- and 60-digit products of the run
    exponentials, the forward error of T is a few eps times z0 (_linalg).
    """

    param: SpectralParameter
    M: np.ndarray
    trace_T: complex
    method: PropagationMethod
    steps_or_terms: int
    term_norms: Optional[tuple[float, ...]] = None
    tail_bound: Optional[float] = None
    M_conj: Optional[np.ndarray] = None

    @property
    def det_residual(self) -> float:
        return abs(complex(det3(self.M)) - 1.0)

    @property
    def det_residual_scaled(self) -> float:
        """|det M - 1| / ||M||^3."""
        norm = _wide_norm(self.M)
        return float(abs(det3(self.M) - 1) / norm / norm / norm)

    @property
    def symplectic_residual(self) -> Optional[float]:
        M_conj = self._paired_map()
        return None if M_conj is None else symplectic_residual(self.M, M_conj)

    @property
    def symplectic_residual_scaled(self) -> Optional[float]:
        """symplectic_residual / (||M(conj(lambda))|| ||M||), i.e. / ||M||^2 for real lambda."""
        M_conj = self._paired_map()
        if M_conj is None:
            return None
        R = _symplectic_defect(self.M, M_conj)
        return spectral_norm(R / _wide_norm(M_conj) / _wide_norm(self.M))

    def _paired_map(self) -> Optional[np.ndarray]:
        if self.M_conj is not None:
            return self.M_conj
        return self.M if self.param.is_real else None


def system_matrices(
    param: SpectralParameter | Sequence[SpectralParameter], p, q, dtype=complex
) -> tuple[np.ndarray, np.ndarray]:
    """System blocks (P, Q) of Y' = (P + Q) Y for the cells with values p, q.

    P is one 3x3 matrix for one SpectralParameter and a stack (L, 3, 3)
    for a sequence of L of them; Q is 3x3 for scalar p, q and a stack
    (n, 3, 3) for arrays of n cell values.
    """
    single = isinstance(param, SpectralParameter)
    params = [param] if single else param
    P = np.zeros((len(params), 3, 3), dtype=dtype)
    P[:, 0, 1] = 1.0
    P[:, 1, 2] = 1.0
    P[:, 2, 0] = [-1j * prm.lam for prm in params]
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    Q = np.zeros(p.shape + (3, 3), dtype=dtype)
    Q[..., 1, 0] = -p
    Q[..., 2, 0] = 1j * q
    Q[..., 2, 1] = -p
    return (P[0] if single else P), Q


def growth_refusal(
    c: PeriodicCoefficients, param: SpectralParameter
) -> Optional[PropagationOverflowError]:
    """The PropagationOverflowError for param past the growth guard, else None."""
    if param.z0 + c.kappa <= MAX_GROWTH_EXPONENT:
        return None
    return PropagationOverflowError(
        f"growth exponent z0 + kappa = {param.z0 + c.kappa:.1f} exceeds "
        f"{MAX_GROWTH_EXPONENT:.0f}; entries of the period map would "
        "overflow double precision"
    )


def _check_growth(c: PeriodicCoefficients, param: SpectralParameter) -> None:
    refusal = growth_refusal(c, param)
    if refusal is not None:
        raise refusal


def symplectic_residual(M_at_lam: np.ndarray, M_at_conj: np.ndarray) -> float:
    """Norm of M(1, conj(lambda))^* J M(1, lambda) - J.

    For real lambda pass the same matrix twice.
    """
    return spectral_norm(_symplectic_defect(M_at_lam, M_at_conj))


def _symplectic_defect(M_at_lam: np.ndarray, M_at_conj: np.ndarray) -> np.ndarray:
    """M(1, conj(lambda))^* J M(1, lambda) - J in the dtype of M_at_lam."""
    J = SYMPLECTIC_J.astype(M_at_lam.dtype)
    return M_at_conj.conj().T @ J @ M_at_lam - J


def _wide_norm(M: np.ndarray) -> np.floating:
    """Spectral norm of M as a scalar of M's own real dtype.

    Near the propagation guard ||M|| exceeds double range by a factor of
    up to |lambda|^(2/3), so the complex128 SVD runs on M scaled by its
    largest entry and the scale is multiplied back in the extended type.
    """
    scale = np.abs(M).max()
    return scale * spectral_norm(M / scale)


def _traces(M: np.ndarray) -> list[complex]:
    """Traces of a stack (L, 3, 3) of matrices, as L Python complex numbers."""
    return (M[:, 0, 0] + M[:, 1, 1] + M[:, 2, 2]).astype(complex).tolist()


# Run exponentials per stack of the period-map core.  Spectral points are
# grouped so that one stack holds about this many; from 128 runs on, a
# stack holds one point.
_STACK_MATRICES = 128

# j - i at entry (i, j): the exponents of mu in the balanced frame
_FRAME_POWERS = np.arange(3) - np.arange(3)[:, np.newaxis]


def period_maps(
    c: PeriodicCoefficients, params: Sequence[SpectralParameter], dtype=EXTENDED
) -> np.ndarray:
    """M(1, lambda) at every SpectralParameter in params, as an (L, 3, 3) array.

    The one evaluation core: every period map of the exponential-steps
    route comes from here.  A run of n equal cells starting at cell i
    propagates by one exp(A_i) with A_i = n (P + Q_i)/N, the product of
    its n cell exponentials, and M(1, lambda) = exp(A_{last run}) ...
    exp(A_{first run}); constant coefficients take one exponential.

    The exponentials are taken in a balanced frame (Parlett-Reinsch
    balancing ahead of scaling and squaring, as in Ward 1977): with
    mu = max(|lambda|^(1/3), 1) and D = diag(1, 1/mu, 1/mu^2), each run
    generator becomes D A_i D^-1 = [[0, a, 0], [b, 0, a], [c, b, 0]] with
    a = w mu, b = -w p/mu and c = i w (q - lambda)/mu^2 for the run width
    w = n/N, the three entries expm_stack reads.  Its norm is of size
    |lambda|^(1/3) w, the size of the growth, instead of |lambda| w; the
    squarings scale with the former, and the forward error of T stays at
    a few eps times z0 out to the guard.  The product of the run
    exponentials is taken in the frame and the similarity is undone once
    on it, M = D^-1 (product) D; in exact arithmetic this is the same M,
    and the trace is not touched at all.

    The points are evaluated in stacks of about 128 run exponentials, each
    point with its own frame and scaling exponent, so every M is
    bit-identical to the one-point evaluation.  Raises
    PropagationOverflowError, before any work, if the guard refuses any of
    the points.
    """
    for param in params:
        _check_growth(c, param)
    P, Q, widths, frame = _framed_runs(c, params, dtype)
    per_stack = max(1, _STACK_MATRICES // len(Q))
    M = np.empty((len(params), 3, 3), dtype=dtype)
    for i in range(0, len(params), per_stack):
        D = frame[i : i + per_stack]
        A = P[i : i + per_stack, np.newaxis] + Q
        A *= widths * D[:, np.newaxis]
        M[i : i + per_stack] = ordered_product(expm_stack(A, dtype)) / D
    return M


def _framed_runs(c: PeriodicCoefficients, params: Sequence[SpectralParameter], dtype):
    """P (L, 3, 3); Q and widths n/N of the R runs of equal cells; frames mu^(j - i) (L, 3, 3)."""
    p, q = c.p_samples, c.q_samples
    starts = np.flatnonzero(
        np.concatenate(([True], (p[1:] != p[:-1]) | (q[1:] != q[:-1])))
    )
    run_lengths = np.diff(starts, append=c.grid_size)
    widths = (run_lengths.astype(np.finfo(dtype).dtype) / c.grid_size)[:, np.newaxis, np.newaxis]
    P, Q = system_matrices(params, p[starts], q[starts], dtype)
    # |lambda| is read off P's entry -i lambda
    mu = np.maximum(np.cbrt(np.abs(P[:, 2, 0])), 1)
    return P, Q, widths, mu[:, np.newaxis, np.newaxis] ** _FRAME_POWERS


def propagate_many(
    c: PeriodicCoefficients, params: Sequence[SpectralParameter], dtype=EXTENDED
) -> list[MonodromyResult]:
    """Period maps with their traces at every SpectralParameter in params."""
    M = period_maps(c, params, dtype)
    return [
        MonodromyResult(
            param=param,
            M=M_i,
            trace_T=trace,
            method=PropagationMethod.EXPONENTIAL_STEPS,
            steps_or_terms=c.grid_size,
        )
        for param, M_i, trace in zip(params, M, _traces(M))
    ]


def propagate(
    c: PeriodicCoefficients, param: SpectralParameter, dtype=EXTENDED
) -> MonodromyResult:
    """Period map by per-run matrix exponentials (exact for the step model)."""
    return propagate_many(c, [param], dtype)[0]


def propagate_pairs(
    c: PeriodicCoefficients, lams: Iterable[complex], dtype=EXTENDED
) -> list[tuple[MonodromyResult, MonodromyResult]]:
    """Evaluate at each lambda and at its conjugate, each carrying the other's M.

    The symplectic identity couples the two points, so for complex lambda a
    single evaluation cannot certify it; this helper makes the pairing
    explicit instead of conjugating silently.  The points and their
    conjugates go to the core in one call.
    """
    params = [SpectralParameter.from_lambda(lam) for lam in lams]
    conjugates = [param.conjugate() for param in params if not param.is_real]
    results = propagate_many(c, params + conjugates, dtype)
    m_bars = iter(results[len(params) :])

    def pair(m: MonodromyResult, m_bar: MonodromyResult):
        return replace(m, M_conj=m_bar.M), replace(m_bar, M_conj=m.M)

    return [(m, m) if m.param.is_real else pair(m, next(m_bars)) for m in results[: len(params)]]


def propagate_pair(
    c: PeriodicCoefficients, lam: complex, dtype=EXTENDED
) -> tuple[MonodromyResult, MonodromyResult]:
    """Evaluate at lambda and conj(lambda): the one-point case of propagate_pairs."""
    return propagate_pairs(c, [lam], dtype)[0]


def traces_at(c: PeriodicCoefficients, lams: Iterable[complex]) -> list[complex]:
    """T(lambda) = tr M(1, lambda) at every lambda, from one core call."""
    return _traces(period_maps(c, [SpectralParameter.from_lambda(lam) for lam in lams]))


def trace_at(c: PeriodicCoefficients, lam: complex) -> complex:
    """T(lambda) at one point: the one-point case of traces_at."""
    return traces_at(c, [lam])[0]


def char_poly(
    m: MonodromyResult, tau: complex, paired: Optional[MonodromyResult] = None
) -> complex:
    """Characteristic polynomial det(M(1, lambda) - tau) evaluated at tau.

    Equals -tau^3 + tau^2 T(lambda) - tau conj(T(conj(lambda))) + 1.  For
    real lambda the linear coefficient is conj(trace); for complex lambda
    the paired evaluation at conj(lambda) must be supplied.
    """
    if paired is not None:
        t_bar = np.conj(paired.trace_T)
    elif m.param.is_real:
        t_bar = np.conj(m.trace_T)
    else:
        raise ValueError(
            "complex lambda: supply the paired evaluation at conj(lambda)"
        )
    tau = complex(tau)
    return ((-tau + m.trace_T) * tau - t_bar) * tau + 1.0


def free_diagonalizer(
    param: SpectralParameter | Sequence[SpectralParameter],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Similarity (V, V^{-1}, B) with P = V (i z B) V^{-1} for lambda != 0.

    V = Z U where U is the unitary discrete-Fourier matrix of order 3 and
    Z = diag(1, iz, (iz)^2); B = diag(1, w, w^2).  In this frame the free
    propagator is the diagonal exp(i z t B), which is what makes the
    large-lambda perturbation bounds sharp.  V and V^{-1} are stacks
    (L, 3, 3) for a sequence of L points; B is the same for all.
    """
    single = isinstance(param, SpectralParameter)
    params = [param] if single else param
    if any(prm.lam == 0 for prm in params):
        raise ValueError("diagonalization requires lambda != 0")
    iz = 1j * np.array([prm.z for prm in params], dtype=complex)
    Z = np.stack((np.ones_like(iz), iz, iz * iz), axis=-1)  # the diagonals of Z
    U = np.array([[1, 1, 1], [1, OMEGA, OMEGA**2], [1, OMEGA**2, OMEGA]]) / math.sqrt(3.0)
    V, V_inv = Z[..., np.newaxis] * U, U.conj().T / Z[:, np.newaxis]
    B = np.diag([1.0, OMEGA, OMEGA**2]).astype(complex)
    return (V[0], V_inv[0], B) if single else (V, V_inv, B)


def q_norm_integral(c: PeriodicCoefficients) -> float:
    """Integral over one period of the spectral norm of Q(t)."""
    _, Q = system_matrices(SpectralParameter.from_lambda(0.0), c.p_samples, c.q_samples)
    total = 0.0
    for norm in np.linalg.norm(Q, 2, axis=(-2, -1)):
        total += float(norm)
    return total / c.grid_size


# Bytes of block columns per chunk of picard_maps, and of block-Toeplitz matrices per
# product: at 1 MB the peak RSS of a verify-far benchmark run rose by 2 MB, at 64 KB not.
_SERIES_CHUNK_BYTES = 1 << 16


def _block_toeplitz(G: np.ndarray) -> np.ndarray:
    """Lower block-Toeplitz matrices (..., 3n, 3n) with first block columns G (..., n, 3, 3)."""
    n = G.shape[-3]
    # entry (3j + r, 3k + c) is entry (3(j - k) + r, c) of the block column,
    # or of the zero row appended to it when k > j
    rows = np.subtract.outer(np.arange(3 * n), 3 * np.arange(n))
    rows[rows < 0] = 3 * n
    column = G.reshape(G.shape[:-3] + (3 * n, 3))
    padded = np.concatenate((column, np.zeros_like(column[..., :1, :])), axis=-2)
    return padded.take(rows, axis=-2).reshape(G.shape[:-3] + (3 * n, 3 * n))


def _series_exponentials(A0: np.ndarray, A1: np.ndarray, n: int) -> np.ndarray:
    """First block columns (B, n, 3, 3) of exp of the block-bidiagonal generators (A0, A1).

    Reads a = A0[0, 1] = A0[1, 2], c0 = A0[2, 0], b = A1[1, 0] = A1[2, 1], c1 = A1[2, 0];
    scales by 2^-s with ||A0||_inf + ||A1||_inf <= 0.25, takes the degree-16 Taylor
    polynomial row by row (term k reaches block k at most) and s squarings by level.
    """
    a, c0, b, c1 = A0[:, 0, 1], A0[:, 2, 0], A1[:, 1, 0], A1[:, 2, 0]
    squarings = scaling_exponents(np.maximum(abs(a), abs(c0)) + abs(b) + abs(c1))
    a, c0, b, c1 = (x * np.ldexp(1.0, -squarings) for x in (a, c0, b, c1))  # exact: powers of 2
    # pairs on the last axis: each row operation is one long inner loop
    G = np.zeros((n, 3, 3, len(a)), dtype=A0.dtype)
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
    square_by_level(G, squarings, _toeplitz_squares)
    return G


def _toeplitz_squares(G: np.ndarray) -> np.ndarray:
    """Replace each G[i] by the first block column of T(G[i])^2, a chunk at a time."""
    step = max(1, _SERIES_CHUNK_BYTES // (G[0].nbytes * G.shape[1]))
    for i in range(0, len(G), step):
        X = G[i : i + step]
        X[...] = (_block_toeplitz(X) @ X.reshape(len(X), -1, 3)).reshape(X.shape)
    return G


def picard_maps(
    c: PeriodicCoefficients, params: Sequence[SpectralParameter], tol: float,
    max_terms: int = 80, dtype=np.complex128,
) -> list[MonodromyResult]:
    """picard_monodromy at every point of params, from one evaluation.

    The points share the largest order K of the call: block j of a lower
    block-Toeplitz product depends on blocks 0..j only.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    kq = q_norm_integral(c)
    orders = []  # (K, tail bound) per point
    for param in params:
        _check_growth(c, param)
        prefactor = math.exp(min(param.z0, MAX_GROWTH_EXPONENT)) * math.exp(kq)
        for K in range(max_terms + 1):
            tail = prefactor * kq ** (K + 1) / math.factorial(K + 1)
            if tail < tol:
                break
        else:
            raise PicardTruncationError(
                f"series tail bound {tail:.3e} still above tol={tol:.3e} "
                f"after {max_terms} terms (kq={kq:.3g}, z0={param.z0:.3g})"
            )
        orders.append((K, tail))
    n = max((K for K, _ in orders), default=0) + 1
    P, Q, widths, frame = _framed_runs(c, params, dtype)
    A0, A1 = P * frame, Q * widths
    column_bytes = 9 * n * np.dtype(dtype).itemsize
    group = max(1, min(len(params), _SERIES_CHUNK_BYTES // (n * column_bytes)))
    runs = max(1, _SERIES_CHUNK_BYTES // (group * column_bytes))
    W = np.zeros((len(params), n, 3, 3), dtype=dtype)
    W[:, 0] = np.eye(3)
    for i in range(0, len(params), group):
        W_i = W[i : i + group].reshape(-1, 3 * n, 3)
        for j in range(0, len(Q), runs):
            a0 = A0[i : i + group, np.newaxis] * widths[j : j + runs]
            a1 = A1[j : j + runs] * frame[i : i + group, np.newaxis]
            G = _series_exponentials(a0.reshape(-1, 3, 3), a1.reshape(-1, 3, 3), n)
            for G_k in G.reshape(a1.shape[:2] + G.shape[1:]).swapaxes(0, 1):
                W_i = _block_toeplitz(G_k) @ W_i
        W[i : i + group] = W_i.reshape(-1, n, 3, 3)
    W /= frame[:, np.newaxis]
    norms = np.linalg.norm(W.astype(np.complex128), 2, axis=(-2, -1)).tolist()
    kept = np.arange(n) <= np.array([K for K, _ in orders], dtype=int)[:, np.newaxis]
    M = (W * kept[..., np.newaxis, np.newaxis]).sum(axis=1)
    return [
        MonodromyResult(param, M_i, T, PropagationMethod.PICARD_SERIES, K, tuple(ns[: K + 1]), tail)
        for param, M_i, T, ns, (K, tail) in zip(params, M, _traces(M), norms, orders)
    ]


def picard_monodromy(
    c: PeriodicCoefficients, param: SpectralParameter, tol: float,
    max_terms: int = 80, dtype=np.complex128,
) -> MonodromyResult:
    """Period map as a truncated iterated-integral series (independent route).

    The series terms solve M_n' = P M_n + Q(t) M_{n-1} with M_0 the free
    propagator, so on each run of equal cells the stack (M_0, ..., M_K)
    advances by the exponential of a block-bidiagonal constant matrix, a
    lower block-Toeplitz matrix computed through its first block column:
    every nested integral of the step model is exact, with no quadrature
    grid and no interaction with the exponential-steps route.

    The truncation order K is fixed in advance by the analytic tail bound
    exp(z0) * kq^(K+1)/(K+1)! * exp(kq) < tol with kq the integral of the
    spectral norm of Q.  (The exp(z0) prefactor ignores the transient,
    non-normal growth of the free propagator, which can exceed exp(z0 t)
    by an O(1)..O(|z|) factor at small t; agreement with the
    exponential-steps route is the operative accuracy check and holds with
    orders of magnitude to spare.)  The growth guard and the tail bound
    refuse before any work.

    The generators are taken in the balanced frame of period_maps, A0 =
    w D P D^-1 and A1 = w D Q D^-1 for a run of width w, so the scaling
    follows |lambda|^(1/3), not |lambda|; the similarity is undone once on
    the final stack, before term_norms are taken.  Each exponential is the
    fixed degree-16 Taylor polynomial of expm_stack with its own scaling,
    each block-Toeplitz product one stacked gemm on the 3(K+1) x 3(K+1)
    matrix; picard_maps batches points in chunks of 64 KB.
    """
    return picard_maps(c, [param], tol, max_terms, dtype)[0]
