"""Dense linear-algebra kernels for stacks of small complex matrices.

Everything here is dtype-generic so the monodromy propagation can run in
extended precision (complex256 where the platform has it).  The plain
float64 pipeline loses two to three digits per decade of the spectral
growth exponent, which is not enough for the determinant and symplectic
residual targets at the far end of the scan window; 80-bit arithmetic
restores a comfortable margin at roughly twice the cost.

Both stack kernels take leading batch axes (one per spectral point in the
period-map core) and do a fixed number of batched matmuls with no
data-dependent stopping test: 6 plus the squarings for expm_stack,
ceil(log2 N) for the product of N factors.
"""

from __future__ import annotations

import functools

import numpy as np

# Extended-precision complex dtype; falls back to complex128 on platforms
# without an extended long double (residual tolerances then degrade).
EXTENDED: np.dtype = np.dtype(getattr(np, "complex256", np.complex128))

_TAYLOR_RADIUS = 0.25
# Smallest degree m with radius^(m+1)/(m+1)! <= 1e-24 (the Taylor tail at
# the scaled norm): 0.25^17/17! = 1.6e-25, while 0.25^16/16! = 1.1e-23.
_TAYLOR_DEGREE = 16


@functools.cache
def _taylor_table(dtype: np.dtype) -> np.ndarray:
    """Coefficients 1/k!, k = 0..16, as a (4, 5) table over the powers I..X^4.

    Row j holds the block sum B_j = sum_i X^i / (4j + i)! for i < 4; the
    top row also takes X^4/16!, so the polynomial is
    B_0 + X^4 (B_1 + X^4 (B_2 + X^4 B_3)).  The coefficients are formed in
    the stack's own real dtype, so they carry its full precision.
    """
    real = np.finfo(dtype).dtype
    inv_fact = 1 / np.cumprod(np.arange(_TAYLOR_DEGREE + 1, dtype=real).clip(1))
    table = np.zeros((4, 5), dtype=real)
    table[:, :4] = inv_fact[:-1].reshape(4, 4)
    table[3, 4] = inv_fact[-1]
    table.setflags(write=False)
    return table


def expm_stack(A: np.ndarray, dtype: np.dtype | type = EXTENDED) -> np.ndarray:
    """Matrix exponential of a stack (..., m, n, n) via scaling + Taylor + squaring.

    The m matrices of each stack share one scaling exponent s, the least
    with ||A||_inf / 2^s <= 0.25 over that stack; leading axes hold
    independent stacks with their own s, and a single (n, n) matrix is a
    stack of one.  At that radius the degree-16 Taylor tail is below
    1.6e-25, so the degree is fixed and no term is tested.  Paterson-
    Stockmeyer evaluates the polynomial in 6 matmuls: the powers X^2, X^3,
    X^4, four block sums from one tensordot against the 1/k! table, and
    three Horner steps in X^4.  The squarings then run level by level on
    the stacks that still need them.
    """
    A = np.asarray(A, dtype=dtype)
    shape = A.shape
    n = shape[-1]
    m = shape[-3] if A.ndim > 2 else 1
    stacks = A.reshape(-1, m, n, n)
    rows = np.abs(stacks).sum(axis=-1).reshape(-1, m * n)
    norms = rows.max(axis=1, initial=0.0).astype(np.float64)
    ratio = np.maximum(norms, _TAYLOR_RADIUS) / _TAYLOR_RADIUS
    squarings = np.ceil(np.log2(ratio)).astype(int)
    # powers I, X, X^2, X^3, X^4 of the scaled matrices X, built in place;
    # everything but the scaling and the squarings is per matrix, so the
    # stacks are flattened into one
    powers = np.empty((5, stacks.shape[0] * m, n, n), dtype=dtype)
    powers[0] = np.eye(n, dtype=dtype)
    scale = np.ldexp(1.0, squarings).astype(dtype)
    np.divide(stacks, scale[:, np.newaxis, np.newaxis, np.newaxis],
              out=powers[1].reshape(stacks.shape))
    X = powers[1]
    powers[2] = X @ X
    powers[3] = powers[2] @ X
    powers[4] = powers[2] @ powers[2]
    blocks = np.tensordot(_taylor_table(A.dtype), powers, axes=1)
    total = blocks[-1]
    for block in blocks[-2::-1]:
        total = total @ powers[4]
        total += block
    # square level by level: the stacks with s >= level take the squarings
    # from the previous level up to this one
    levels = squarings.tolist()
    done = 0
    for level in sorted(set(levels) - {0}):
        todo = [s >= level for s in levels]
        by_stack = total.reshape(stacks.shape)
        part = by_stack[todo]
        for _ in range(level - done):
            part = part @ part
        by_stack[todo] = part
        done = level
    return total.reshape(shape)


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
