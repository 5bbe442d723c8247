"""Dense linear-algebra kernels for stacks of small complex matrices.

Everything here is dtype-generic so the monodromy propagation can run in
extended precision (complex256 where the platform has it).  Against a
50-digit product of the run exponentials on a 3-level N = 64 step set,
in the balanced frame of monodromy.period_maps, the relative error of
the trace is a few eps times the growth exponent z0: over 48 random
lambda in +-[1e2, 2e8] at most 2.3 eps z0 (1.2e-13) in complex128 and
3.6 eps z0 (4.9e-17) in complex256, with medians 0.6 and 0.4 eps z0.

Both stack kernels take leading batch axes (one per spectral point in the
period-map core) and do fixed work with no data-dependent stopping test:
five 3-vector products per matrix plus the squarings for expm_stack,
ceil(log2 N) batched matmuls for the product of N factors.
"""

from __future__ import annotations

import numpy as np

# Extended-precision complex dtype; falls back to complex128 on platforms
# without an extended long double (residual tolerances then degrade).
EXTENDED: np.dtype = np.dtype(getattr(np, "complex256", np.complex128))

_TAYLOR_RADIUS = 0.25
# Smallest degree m with radius^(m+1)/(m+1)! <= 1e-24 (the Taylor tail at
# the scaled norm): 0.25^17/17! = 1.6e-25, while 0.25^16/16! = 1.1e-23.
_TAYLOR_DEGREE = 16
_ABC = np.array([1, 3, 6])  # flat positions of a, b and c in a run generator
# 1/k!, k = 1..16, as six blocks (1/(3j)!, 1/(3j+1)!, 1/(3j+2)!), in the
# widest real type; 1/0! and 1/17! (past the degree) are 0
_TAYLOR_BLOCKS = np.zeros((6, 3, 1), dtype=np.longdouble)
_TAYLOR_BLOCKS.flat[1 : _TAYLOR_DEGREE + 1] = 1 / np.cumprod(
    np.arange(1, _TAYLOR_DEGREE + 1, dtype=np.longdouble)
)
_TAYLOR_BLOCKS.setflags(write=False)


def expm_stack(A: np.ndarray, dtype: np.dtype | type = EXTENDED) -> np.ndarray:
    """Exponential of a stack (..., m, 3, 3) of run generators via scaling + Taylor + squaring.

    Every matrix must be [[0, a, 0], [b, 0, a], [c, b, 0]], as the run
    generators of monodromy.period_maps are (a and b real there); only
    a = X[0, 1], b = X[1, 0] and c = X[2, 0] are read.  The m matrices of
    each stack share one scaling exponent s, the least with
    ||A||_inf / 2^s <= 0.25 over that stack; leading axes hold independent
    stacks with their own s, and a (3, 3) matrix is a stack of one.  At
    that radius the degree-16 Taylor tail is below 1.6e-25, so the degree
    is fixed and no term is tested.

    X^3 = e1 X + e0 I with e1 = 2ab and e0 = a^2 c (Cayley-Hamilton), so
    the polynomial is f0 I + f1 X + f2 X^2, and it is sum_j Y^j B_j in the
    blocks B_j of 1/k! with Y = X^3.  Y acts on coordinates over I, X, X^2
    as L = [[e0, 0, e0 e1], [e1, e0, e1^2], [0, e1, e0]], so Horner in Y
    takes five 3-vector products by L; the squarings follow level by level.
    """
    A = np.asarray(A, dtype=dtype)
    m = A.shape[-3] if A.ndim > 2 else 1
    abc = A.reshape(-1, m, 9).take(_ABC, axis=-1)
    # the row sums of |X| are |a|, |a| + |b| and |b| + |c|
    mag = np.abs(abc)
    rows = (mag[..., :2] + mag[..., 1:]).reshape(len(abc), -1)
    squarings = scaling_exponents(rows.max(axis=1, initial=0.0).astype(np.float64))
    abc *= np.ldexp(1.0, -squarings)[:, np.newaxis, np.newaxis]  # exact: powers of 2
    # all but the scaling and the squarings is per matrix: one flat stack
    a, b, c = abc.reshape(-1, 3).T
    ab, a2 = a * b, a * a
    e1, e0 = ab + ab, a2 * c
    L = np.zeros((len(a), 3, 3), dtype=dtype)
    L[:, 0, 0] = L[:, 1, 1] = L[:, 2, 2] = e0
    L[:, 1, 0] = L[:, 2, 1] = e1
    L[:, 0, 2], L[:, 1, 2] = e0 * e1, e1 * e1
    blocks = _TAYLOR_BLOCKS.astype(A.dtype)
    r = blocks[5]
    for block in blocks[4::-1]:
        r = L @ r
        r += block
    # r0 = f0 - 1: each diagonal entry takes the 1 in its own last
    # rounding, so the three do not share one error of f0
    g0, f1, f2 = r[..., 0].T
    total = np.empty((len(a), 3, 3), dtype=dtype)
    total[:, 0, 0] = total[:, 2, 2] = (g0 + f2 * ab) + 1
    total[:, 1, 1] = (g0 + f2 * e1) + 1
    total[:, 0, 1] = total[:, 1, 2] = f1 * a
    total[:, 0, 2] = f2 * a2
    total[:, 1, 0] = total[:, 2, 1] = f1 * b + f2 * a * c
    total[:, 2, 0] = f1 * c + f2 * b * b
    square_by_level(total.reshape(-1, m, 3, 3), squarings, lambda part: part @ part)
    return total.reshape(A.shape)


def scaling_exponents(norms: np.ndarray) -> np.ndarray:
    """Least s >= 0 with norm / 2^s <= 0.25, the radius of the degree-16 Taylor polynomial."""
    return np.ceil(np.log2(np.maximum(norms, _TAYLOR_RADIUS) / _TAYLOR_RADIUS)).astype(int)


def square_by_level(stacks: np.ndarray, squarings: np.ndarray, square) -> None:
    """Apply square squarings[i] times to stacks[i], in place, one batched call per level."""
    done = 0
    for level in sorted(set(squarings.tolist()) - {0}):
        todo = squarings >= level
        part = stacks[todo]
        for _ in range(level - done):
            part = square(part)
        stacks[todo] = part
        done = level


def det3(M: np.ndarray) -> complex:
    """Cofactor determinant of one 3x3 matrix, evaluated in M's own dtype."""
    return (
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value (the norm used by all growth estimates)."""
    return float(np.linalg.norm(np.asarray(M, dtype=np.complex128), 2))


def ordered_product(factors: np.ndarray) -> np.ndarray:
    """Product factors[..., N-1, :, :] @ ... @ factors[..., 0, :, :] of stacks.

    This is the time ordering of a transfer-matrix sweep: index 0 of the
    cell axis (axis -3) acts first; leading axes are independent stacks.
    It is formed as a balanced tree: each round is one stacked matmul
    F[2j+1] @ F[2j] over all neighbour pairs, carrying an odd last factor,
    so N factors take ceil(log2 N) rounds.
    """
    F = factors
    while F.shape[-3] > 1:
        paired = F[..., 1::2, :, :] @ F[..., 0:-1:2, :, :]
        F = np.concatenate((paired, F[..., -1:, :, :]), axis=-3) if F.shape[-3] % 2 else paired
    return F[..., 0, :, :]
