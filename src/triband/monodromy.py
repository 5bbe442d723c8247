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
    propagation guard.
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


def period_maps(
    c: PeriodicCoefficients, params: Sequence[SpectralParameter], dtype=EXTENDED
) -> np.ndarray:
    """M(1, lambda) at every SpectralParameter in params, as an (L, 3, 3) array.

    The one evaluation core: every period map of the exponential-steps
    route comes from here.  A run of n equal cells starting at cell i
    propagates by one exp(A_i) with A_i = n (P + Q_i)/N, the product of
    its n cell exponentials, and M(1, lambda) = exp(A_{last run}) ...
    exp(A_{first run}); constant coefficients take one exponential.  The
    points are evaluated in stacks of about 128 run exponentials, each
    point with its own scaling exponent, so every M is bit-identical to
    the one-point evaluation.  Raises PropagationOverflowError, before any
    work, if the guard refuses any of the points.
    """
    for param in params:
        _check_growth(c, param)
    p, q = c.p_samples, c.q_samples
    starts = np.flatnonzero(
        np.concatenate(([True], (p[1:] != p[:-1]) | (q[1:] != q[:-1])))
    )
    run_lengths = np.diff(starts, append=c.grid_size)
    widths = (run_lengths.astype(dtype) / c.grid_size)[:, np.newaxis, np.newaxis]
    P, Q = system_matrices(params, p[starts], q[starts], dtype)
    per_stack = max(1, _STACK_MATRICES // starts.size)
    M = np.empty((len(params), 3, 3), dtype=dtype)
    for i in range(0, len(params), per_stack):
        A = (P[i : i + per_stack, np.newaxis] + Q) * widths
        M[i : i + per_stack] = ordered_product(expm_stack(A, dtype))
    return M


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


def standard_monodromy_conjugate(m: MonodromyResult, p_at_0: float) -> np.ndarray:
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


def free_diagonalizer(param: SpectralParameter) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Similarity (V, V^{-1}, B) with P = V (i z B) V^{-1} for lambda != 0.

    V = Z U where U is the unitary discrete-Fourier matrix of order 3 and
    Z = diag(1, iz, (iz)^2); B = diag(1, w, w^2).  In this frame the free
    propagator is the diagonal exp(i z t B), which is what makes the
    large-lambda perturbation bounds sharp.
    """
    if param.lam == 0:
        raise ValueError("diagonalization requires lambda != 0")
    iz = 1j * param.z
    U = np.array(
        [[1, 1, 1], [1, OMEGA, OMEGA**2], [1, OMEGA**2, OMEGA]], dtype=complex
    ) / math.sqrt(3.0)
    Z = np.diag([1.0, iz, iz**2]).astype(complex)
    V = Z @ U
    V_inv = U.conj().T @ np.diag([1.0, 1.0 / iz, 1.0 / iz**2]).astype(complex)
    B = np.diag([1.0, OMEGA, OMEGA**2]).astype(complex)
    return V, V_inv, B


def q_norm_integral(c: PeriodicCoefficients) -> float:
    """Integral over one period of the spectral norm of Q(t)."""
    _, Q = system_matrices(SpectralParameter.from_lambda(0.0), c.p_samples, c.q_samples)
    total = 0.0
    for norm in np.linalg.norm(Q, 2, axis=(-2, -1)):
        total += float(norm)
    return total / c.grid_size


def _toeplitz_square(G: np.ndarray) -> np.ndarray:
    """Square a lower block-Toeplitz matrix given by its first block column."""
    out = np.empty_like(G)
    for j in range(G.shape[0]):
        out[j] = np.einsum("nij,njk->ik", G[: j + 1], G[j::-1])
    return out


def _toeplitz_apply(G: np.ndarray, W: np.ndarray) -> np.ndarray:
    out = np.empty_like(W)
    for j in range(W.shape[0]):
        out[j] = np.einsum("nij,njk->ik", G[: j + 1], W[j::-1])
    return out


def picard_monodromy(
    c: PeriodicCoefficients,
    param: SpectralParameter,
    tol: float,
    max_terms: int = 80,
    dtype=np.complex128,
) -> MonodromyResult:
    """Period map as a truncated iterated-integral series (independent route).

    The series terms solve M_n' = P M_n + Q(t) M_{n-1} with M_0 the free
    propagator, so on each coefficient cell the stack (M_0, ..., M_K)
    advances by the exponential of a block-bidiagonal constant matrix.
    That exponential is lower block-Toeplitz and is computed through its
    first block column, which evaluates every nested integral of the step
    model exactly -- no quadrature grid, no interaction with the
    exponential-steps route.

    The truncation order K is fixed in advance by the analytic tail bound
    exp(z0) * kq^(K+1)/(K+1)! * exp(kq) < tol with kq the integral of the
    spectral norm of Q.  (The exp(z0) prefactor ignores the transient,
    non-normal growth of the free propagator, which can exceed exp(z0 t)
    by an O(1)..O(|z|) factor at small t; agreement with the
    exponential-steps route is the operative accuracy check and holds with
    orders of magnitude to spare.)
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_growth(c, param)
    kq = q_norm_integral(c)
    prefactor = math.exp(min(param.z0, MAX_GROWTH_EXPONENT)) * math.exp(kq)
    n_terms = None
    tail = math.inf
    for K in range(max_terms + 1):
        tail = prefactor * kq ** (K + 1) / math.factorial(K + 1)
        if tail < tol:
            n_terms = K
            break
    if n_terms is None:
        raise PicardTruncationError(
            f"series tail bound {tail:.3e} still above tol={tol:.3e} "
            f"after {max_terms} terms (kq={kq:.3g}, z0={param.z0:.3g})"
        )
    K = n_terms

    h = 1.0 / c.grid_size
    P, Q = system_matrices(param, c.p_samples, c.q_samples, dtype)
    Ph = P * h

    W = np.zeros((K + 1, 3, 3), dtype=dtype)
    W[0] = np.eye(3, dtype=dtype)
    for Qi in Q:
        Qh = Qi * h
        norm = float(np.abs(Ph).sum(axis=-1).max() + np.abs(Qh).sum(axis=-1).max())
        squarings = 0
        if norm > 0.25:
            squarings = int(np.ceil(np.log2(norm / 0.25)))
        scale = np.asarray(2.0**-squarings, dtype=dtype)
        A0 = Ph * scale
        A1 = Qh * scale

        G = np.zeros((K + 1, 3, 3), dtype=dtype)
        G[0] = np.eye(3, dtype=dtype)
        term = G.copy()
        for m_idx in range(1, 48):
            nxt = np.einsum("ij,njk->nik", A0, term)
            nxt[1:] += np.einsum("ij,njk->nik", A1, term[:-1])
            term = nxt / m_idx
            G += term
            if np.abs(term).max() <= 1e-20 * max(1.0, float(np.abs(G).max())):
                break
        for _ in range(squarings):
            G = _toeplitz_square(G)
        W = _toeplitz_apply(G, W)

    M = W.sum(axis=0)
    return MonodromyResult(
        param=param,
        M=M,
        trace_T=_traces(M[np.newaxis])[0],
        method=PropagationMethod.PICARD_SERIES,
        steps_or_terms=K,
        term_norms=tuple(spectral_norm(W[n]) for n in range(K + 1)),
        tail_bound=tail,
    )
