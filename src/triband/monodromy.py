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
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ._linalg import EXTENDED, det3, expm_stack, ordered_product
from ._linalg import _TAYLOR_DEGREE, run_norms, scaling_exponents, square_by_level
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


@dataclass(frozen=True)
class MonodromyResult:
    """Period map M(1, lambda) of the series route, with its trace.

    order is the truncation order K, term_norms the norms of its K + 1
    terms and tail_bound the analytic bound that fixed K.
    """

    M: np.ndarray
    trace_T: complex
    order: int
    term_norms: tuple[float, ...]
    tail_bound: float


def system_matrices(lams: Sequence[complex], p, q) -> tuple[np.ndarray, np.ndarray]:
    """System blocks (P, Q) of Y' = (P + Q) Y for the cells with values p, q.

    P is a stack (L, 3, 3) for a sequence of L values of lambda; Q is
    3x3 for scalar p, q and a stack (n, 3, 3) for arrays of n cell values.
    """
    P = np.zeros((len(lams), 3, 3), dtype=complex)
    P[:, 0, 1] = P[:, 1, 2] = 1.0
    P[:, 2, 0] = [-1j * complex(lam) for lam in lams]
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    Q = np.zeros(p.shape + (3, 3), dtype=complex)
    Q[..., 1, 0] = Q[..., 2, 1] = -p
    Q[..., 2, 0] = 1j * q
    return P, Q


def growth_refusal(c: PeriodicCoefficients, lam: complex) -> Optional[PropagationOverflowError]:
    """The PropagationOverflowError for lambda past the growth guard, else None."""
    # the guard reads z0 <= |lambda|^(1/3): only a point past that bound needs it
    if abs(lam) ** (1.0 / 3.0) * (1 + 1e-9) + c.kappa <= MAX_GROWTH_EXPONENT:
        return None
    growth = SpectralParameter.from_lambda(lam).z0 + c.kappa
    if growth <= MAX_GROWTH_EXPONENT:
        return None
    return PropagationOverflowError(  # in fixed point a kappa near 1e308 would print 309 digits
        f"growth exponent z0 + kappa = {growth:{'.1f' if growth < 1e6 else '.3e'}} exceeds "
        f"{MAX_GROWTH_EXPONENT:.0f}; entries of the period map would "
        "overflow double precision"
    )


def _check_growth(c: PeriodicCoefficients, lams: Sequence[complex]) -> None:
    for lam in lams:
        if (refusal := growth_refusal(c, lam)) is not None:
            raise refusal


def det_residual(M: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """|det M - 1| / ||M||^3 for a stack (L, 3, 3) of period maps and their spectral_norms.

    The raw residual grows like ||M||^3, so above |lambda| ~ 1e3 it no
    longer tells roundoff from a fault; the scaled one stays at roundoff
    of M's dtype up to the propagation guard.  It measures structure, not
    the forward error of M: without the balanced frame of period_maps, T
    on a step set was off by 1.4e-11 relative at lambda = -2e8 while both
    scaled residuals sat at roundoff.
    """
    # det3 reads M[i, j] as the stack of entries (i, j)
    return (np.abs(det3(np.moveaxis(M, 0, -1)) - 1) / norms / norms / norms).astype(float)


def symplectic_residual(M: np.ndarray, M_conj: np.ndarray, norms: np.ndarray,
                        norms_conj: np.ndarray) -> np.ndarray:
    """||M(conj(lambda))^* J M(lambda) - J|| / (||M(conj(lambda))|| ||M(lambda)||), as L floats.

    M and M_conj are stacks (L, 3, 3) paired by index, norms and norms_conj
    their spectral_norms; for real lambda pass the same stack twice.  The
    defect is formed in M's dtype and divided by one norm at a time, so
    nothing overflows.
    """
    J = SYMPLECTIC_J.astype(M.dtype)
    R = np.swapaxes(M_conj.conj(), -1, -2) @ J @ M - J
    R = R / norms_conj[:, np.newaxis, np.newaxis] / norms[:, np.newaxis, np.newaxis]
    return spectral_norms(R).astype(float)


def spectral_norms(M: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack (..., 3, 3) in M's own real dtype: the one norm routine.

    Near the propagation guard ||M|| exceeds double range by a factor of up to
    |lambda|^(2/3), so each map is scaled by its largest entry in M's type to U in
    complex128, and ||M|| = scale sqrt(lambda_max(U^H U)) from one stacked Hermitian
    eigensolve, row by row (an all-zero map has norm 0).  It matches the SVD to a few
    eps, at sigma_1 = sigma_2 too, where a closed-form cubic root loses half the digits.
    """
    scale = np.abs(M).max(axis=(-2, -1))
    U = (M / np.where(scale > 0, scale, 1)[..., np.newaxis, np.newaxis]).astype(np.complex128)
    return scale * np.sqrt(np.linalg.eigvalsh(np.swapaxes(U.conj(), -1, -2) @ U)[..., -1])


def _traces(M: np.ndarray) -> list[complex]:
    """Traces of a stack (L, 3, 3) of matrices, as L Python complex numbers."""
    return (M[:, 0, 0] + M[:, 1, 1] + M[:, 2, 2]).astype(complex).tolist()


# The most run exponentials in one stack of the period-map core, a power of two.
# Spectral points are grouped up to it; a point with more runs is cut into aligned
# chunks of this many, so the working set of a point does not grow with N.
_STACK_MATRICES = 512

# j - i at entry (i, j): the exponents of mu in the balanced frame
_FRAME_POWERS = np.arange(3) - np.arange(3)[:, np.newaxis]
_ABC = np.array([1, 3, 6])  # flat positions of a, b and c in a run generator


def period_maps(c: PeriodicCoefficients, lams: Sequence[complex], dtype=EXTENDED) -> np.ndarray:
    """M(1, lambda) at every lambda in lams, as an (L, 3, 3) array.

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
    w = n/N, the three entries expm_stack takes.  Its norm is of size
    |lambda|^(1/3) w, the size of the growth, instead of |lambda| w; the
    squarings scale with the former, and the forward error of T stays at
    a few eps times z0 out to the guard.  The product of the run
    exponentials is taken in the frame and the similarity is undone once
    on it, M = D^-1 (product) D; in exact arithmetic this is the same M,
    and the trace is not touched at all.

    The points are evaluated in stacks of at most 512 run exponentials
    (_STACK_MATRICES), each point with its own frame, scaling exponent and
    Taylor degree, picked by run_norms of all its runs once per stack, so
    every M is bit-identical to the one-point evaluation.  A point with more
    runs is cut into chunks of 512 runs, each exponentiated with its point's
    norms and reduced to its product, and one more product joins the chunks.
    The chunks are aligned powers of two, so the balanced tree of
    ordered_product groups every factor as it would in one stack, and M
    keeps its bits.  Raises PropagationOverflowError, before any work, if
    the guard refuses any of the points.
    """
    _check_growth(c, lams)
    runs, widths, points, powers, frame = _framed_runs(c, lams, dtype)
    step = max(1, _STACK_MATRICES // len(runs))  # points per stack
    M = np.empty((len(lams), 3, 3), dtype=dtype)
    for i in range(0, len(lams), step):
        X = (runs + points[i : i + step, np.newaxis]) * (widths * powers[i : i + step, np.newaxis])
        norms = run_norms(X)
        if len(runs) <= _STACK_MATRICES:
            product = ordered_product(expm_stack(X, norms))
        else:  # one point, in chunks that share its norms
            product = ordered_product(np.stack(
                [ordered_product(expm_stack(X[:, j : j + _STACK_MATRICES], norms))
                 for j in range(0, len(runs), _STACK_MATRICES)], axis=-3))
        M[i : i + step] = product / frame[i : i + step]
    return M


def _framed_runs(c: PeriodicCoefficients, lams: Sequence[complex], dtype):
    """Entries at (0, 1), (1, 0), (2, 0) of the system over R runs of equal cells and L points.

    Per run (1, -p, i q) (R, 3) and the width n/N (R, 1), from c.runs, built once per c and dtype;
    per point (0, 0, -i lambda) (L, 3), the frame there (mu, 1/mu, 1/mu^2) (L, 3) and the whole
    frame mu^(j - i) (L, 3, 3).
    (runs + points) * (widths * powers) is (P + Q) * widths * frame there, bit for bit.
    """
    if dtype not in c._run_entries:
        cells, p, q = c.runs.T
        widths = (cells.astype(np.finfo(dtype).dtype) / c.grid_size)[:, np.newaxis]
        runs = np.zeros((len(cells), 3), dtype=dtype)
        runs[:, 0], runs[:, 1], runs[:, 2] = 1.0, -p, 1j * q
        for entry in (runs, widths):
            entry.setflags(write=False)
        c._run_entries[dtype] = runs, widths
    runs, widths = c._run_entries[dtype]
    points = np.zeros((len(lams), 3), dtype=dtype)
    points[:, 2] = [-1j * complex(lam) for lam in lams]
    frame = np.maximum(np.cbrt(np.abs(points[:, 2])), 1)[:, np.newaxis, np.newaxis] ** _FRAME_POWERS
    return runs, widths, points, frame.reshape(-1, 9).take(_ABC, axis=1), frame


def traces_at(c: PeriodicCoefficients, lams: Iterable[complex]) -> list[complex]:
    """T(lambda) = tr M(1, lambda) at every lambda, from one core call."""
    return _traces(period_maps(c, list(lams)))


def trace_at(c: PeriodicCoefficients, lam: complex) -> complex:
    """T(lambda) at one point: the one-point case of traces_at."""
    return traces_at(c, [lam])[0]


def char_poly(T: complex, T_conj: complex, tau: complex) -> complex:
    """Characteristic polynomial det(M(1, lambda) - tau) evaluated at tau.

    Equals -tau^3 + tau^2 T(lambda) - tau conj(T(conj(lambda))) + 1, from
    the traces T at lambda and T_conj at conj(lambda); for real lambda both
    are T.
    """
    tau = complex(tau)
    return ((-tau + T) * tau - np.conj(T_conj)) * tau + 1.0


def q_norm_integral(c: PeriodicCoefficients) -> float:
    """Integral over one period of the spectral norm of Q(t).

    One norm per run of equal cells, repeated by the run's cell count and
    summed in cell order: the sum of the per-cell norms, bit for bit.
    """
    cells, p, q = c.runs.T
    _, Q = system_matrices([], p, q)
    return sum(np.repeat(spectral_norms(Q), cells.astype(int)).tolist()) / c.grid_size


# Terms allowed to the series, and its dtype
_SERIES_MAX_TERMS = 80
_SERIES_DTYPE = np.dtype(np.complex128)

# Bytes of block columns per chunk of runs (all points of a picard_maps call): the
# Taylor stage's arrays set the series route's allocation peak.  At 1 MB the peak RSS
# of a verify-far benchmark run rose by 2 MB, at 256 KB by 0.6 MB, at 64 KB not.  The
# block-Toeplitz products are short-lived, so they take twice this per squaring and
# four times this per accumulation, which makes fewer of them without a higher peak.
_SERIES_CHUNK_BYTES = 1 << 16


@functools.cache
def _toeplitz_rows(n: int) -> np.ndarray:
    """Read-only gather index (3n, n) of _block_toeplitz for n blocks, built once per n.

    Entry (3j + r, 3k + c) is entry (3(j - k) + r, c) of the block column, or of the zero
    row 3n appended to it when k > j.
    """
    rows = np.subtract.outer(np.arange(3 * n), 3 * np.arange(n))
    rows[rows < 0] = 3 * n
    rows.setflags(write=False)
    return rows


def _block_toeplitz(G: np.ndarray) -> np.ndarray:
    """Lower block-Toeplitz matrices (..., 3n, 3n) with first block columns G (..., n, 3, 3)."""
    n = G.shape[-3]
    column = G.reshape(G.shape[:-3] + (3 * n, 3))
    padded = np.concatenate((column, np.zeros_like(column[..., :1, :])), axis=-2)
    return padded.take(_toeplitz_rows(n), axis=-2).reshape(G.shape[:-3] + (3 * n, 3 * n))


def _series_exponentials(a, c0, b, c1, n: int) -> np.ndarray:
    """First block columns (B, n, 3, 3) of exp of the block-bidiagonal generators (A0, A1).

    A0 = [[0, a, 0], [0, 0, a], [c0, 0, 0]] and A1 = [[0, 0, 0], [b, 0, 0], [c1, b, 0]]; scales
    by 2^-s to ||A0||_inf + ||A1||_inf <= 0.25, takes the degree-16 Taylor polynomial row by
    row (term k reaches block k at most) and s squarings by level.  The terms are written in
    turn into two buffers allocated once per call, each row product straight into its rows.
    """
    squarings = scaling_exponents(np.maximum(abs(a), abs(c0)) + abs(b) + abs(c1))
    a, c0, b, c1 = (x * np.ldexp(1.0, -squarings) for x in (a, c0, b, c1))  # exact: powers of 2
    # pairs on the last axis: each row operation is one long inner loop
    G = np.zeros((n, 3, 3, len(a)), dtype=c0.dtype)
    G[0, [0, 1, 2], [0, 1, 2]] = 1
    buffers = np.empty((2, min(n, _TAYLOR_DEGREE + 1)) + G.shape[1:], dtype=G.dtype)
    term = G[:1]
    for k in range(1, _TAYLOR_DEGREE + 1):
        nxt = buffers[k % 2, : min(k + 1, n)]
        nxt[len(term) :].fill(0)  # the block the term reaches first
        np.multiply(a, term[:, 1:], out=nxt[: len(term), :2])
        np.multiply(c0, term[:, 0], out=nxt[: len(term), 2])
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
    step = max(1, 2 * _SERIES_CHUNK_BYTES // (G[0].nbytes * G.shape[1]))
    for i in range(0, len(G), step):
        X = G[i : i + step]
        X[...] = (_block_toeplitz(X) @ X.reshape(len(X), -1, 3)).reshape(X.shape)
    return G


def _series_terms(
    c: PeriodicCoefficients, params: Sequence[SpectralParameter], tol: float
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Series terms (L, n, 3, 3) at the L spectral points params, zero past each
    point's order K, and (K, tail bound) per point, from one evaluation.

    The points share the largest order of the call, n = max K + 1: block j
    of a lower block-Toeplitz product depends on blocks 0..j only.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    kq = q_norm_integral(c)
    lams = [prm.lam for prm in params]
    _check_growth(c, lams)
    orders = []  # (K, tail bound) per point
    for z0 in (prm.z0 for prm in params):
        prefactor = math.exp(min(z0, MAX_GROWTH_EXPONENT)) * math.exp(kq)
        for K in range(_SERIES_MAX_TERMS + 1):
            tail = prefactor * kq ** (K + 1) / math.factorial(K + 1)
            if tail < tol:
                break
        else:
            raise PicardTruncationError(
                f"series tail bound {tail:.3e} still above tol={tol:.3e} "
                f"after {_SERIES_MAX_TERMS} terms (kq={kq:.3g}, z0={z0:.3g})"
            )
        orders.append((K, tail))
    n = max((K for K, _ in orders), default=0) + 1
    runs, widths, points, powers, frame = _framed_runs(c, lams, _SERIES_DTYPE)
    # a and c0 of P * frame per unit width, b and c1 of Q * widths per unit frame
    A0, A1 = np.stack((powers[:, 0], points[:, 2] * powers[:, 2]), axis=-1), runs[:, 1:] * widths
    column_bytes = 9 * n * _SERIES_DTYPE.itemsize
    group = max(1, 4 * _SERIES_CHUNK_BYTES // (n * column_bytes))
    per_chunk = max(1, _SERIES_CHUNK_BYTES // (max(1, len(lams)) * column_bytes))
    W = np.zeros((len(lams), 3 * n, 3), dtype=_SERIES_DTYPE)
    W[:, :3] = np.eye(3)
    for j in range(0, len(runs), per_chunk):
        a0 = A0[:, np.newaxis] * widths[j : j + per_chunk]
        a1 = A1[j : j + per_chunk] * powers[:, np.newaxis, 1:]
        G = _series_exponentials(*a0.reshape(-1, 2).T, *a1.reshape(-1, 2).T, n)
        G = G.reshape(a1.shape[:2] + G.shape[1:])
        for i in range(0, len(lams), group):
            for G_k in G[i : i + group].swapaxes(0, 1):
                W[i : i + group] = _block_toeplitz(G_k) @ W[i : i + group]
    W = W.reshape(-1, n, 3, 3) / frame[:, np.newaxis]
    kept = np.arange(n) <= np.array([K for K, _ in orders], dtype=int)[:, np.newaxis]
    return W * kept[..., np.newaxis, np.newaxis], orders


def picard_maps(c: PeriodicCoefficients, lams: Sequence[complex], tol: float) -> np.ndarray:
    """M(1, lambda) of the series route at every lambda in lams, as an (L, 3, 3) array."""
    params = [SpectralParameter.from_lambda(lam) for lam in lams]
    return _series_terms(c, params, tol)[0].sum(axis=1)


def picard_monodromy(
    c: PeriodicCoefficients, param: SpectralParameter, tol: float
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
    degree-16 Taylor polynomial, term by term, scaled to the radius of
    expm_stack, each block-Toeplitz product one stacked gemm on the
    3(K+1) x 3(K+1) matrix; picard_maps batches points under _SERIES_CHUNK_BYTES.
    """
    W, [(K, tail)] = _series_terms(c, [param], tol)
    M = W.sum(axis=1)
    norms = spectral_norms(W[0, : K + 1]).tolist()
    return MonodromyResult(M[0], _traces(M)[0], K, tuple(norms), tail)
