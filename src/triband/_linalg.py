"""Dense linear-algebra kernels for stacks of small complex matrices.

Everything here is dtype-generic so the monodromy propagation can run in
extended precision (complex256 where the platform has it).  Against a
50-digit product of the run exponentials on a 3-level N = 64 step set,
in the balanced frame of monodromy.period_maps, the relative error of
the trace is a few eps times the growth exponent z0: over 48 random
lambda in +-[1e2, 2e8] at most 2.3 eps z0 (1.2e-13) in complex128 and
3.6 eps z0 (4.9e-17) in complex256, with medians 0.6 and 0.4 eps z0.

Both stack kernels test no term as they go: expm_stack takes exactly s stacks of m
run generators (one per point, or chunk of a point's runs, in the period-map core) and
up to five 3-vector products per matrix plus the squarings; ordered_product takes any
leading batch axes and ceil(log2 N) batched matmuls for N factors.
"""

from __future__ import annotations

import numpy as np

# Extended-precision complex dtype; falls back to complex128 on platforms
# without an extended long double (residual tolerances then degrade).
EXTENDED: np.dtype = np.dtype(getattr(np, "complex256", np.complex128))

# The scaling radius, and the degree whose Taylor tail there is <= 1e-24 (below)
_TAYLOR_RADIUS, _TAYLOR_DEGREE = 0.25, 16
# 1/k!, k = 1..16, as six blocks (1/(3j)!, 1/(3j+1)!, 1/(3j+2)!), in the
# widest real type; 1/0! and 1/17! (past the degree) are 0
_FACTORIALS = np.cumprod(np.arange(1, _TAYLOR_DEGREE + 2, dtype=np.longdouble))  # k!, k = 1..17
_TAYLOR_BLOCKS = np.zeros((6, 3, 1), dtype=np.longdouble)
_TAYLOR_BLOCKS.flat[1 : _TAYLOR_DEGREE + 1] = 1 / _FACTORIALS[:-1]
_TAYLOR_BLOCKS.setflags(write=False)
# Largest scaled norm x at which blocks 0..j, of degree d = min(3j + 2, 16), hold the tail
# x^(d+1)/(d+1)! to 1e-24, rounded down: 1.8e-8, 3.0e-4, 8.9e-3, 0.053, 0.16 and 0.28
_BLOCK_RADII = np.array([(1e-24 * float(_FACTORIALS[d])) ** (1 / (d + 1)) * (1 - 1e-12)
                         for d in (2, 5, 8, 11, 14, _TAYLOR_DEGREE)])


def expm_stack(X: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Exponentials (s, m, 3, 3) of s stacks of m run generators from their entries X (s, m, 3).

    X[i, k] = (a, b, c) stands for [[0, a, 0], [b, 0, a], [c, b, 0]], in the result's dtype;
    norms (s,) are run_norms of each stack, or of the whole point a chunk is cut from, so the
    chunks of a point share its least scaling exponent s with norm / 2^s <= 0.25, and its
    blocks.  X^3 = e1 X + e0 I with e1 = 2ab and e0 = a^2 c (Cayley-Hamilton), so the Taylor
    polynomial is f0 I + f1 X + f2 X^2, sum_j Y^j B_j in the blocks B_j of 1/k! with Y = X^3.
    Y acts on coordinates over I, X, X^2 as L = [[e0, 0, e0 e1], [e1, e0, e1^2], [0, e1, e0]]:
    Horner in Y takes one 3-vector product by L per block.  Each stack takes the fewest blocks
    whose tail at its scaled norm is at most 1e-24 (taylor_blocks; Higham 2005).  The call
    runs its largest count; a stack that needs fewer enters with zero blocks above its own,
    so it ends bit-identical to its result alone.  The squarings follow by level.

    The norms are in double, the rest in X's dtype; a call where no stack squares skips the
    rescale.  Within a few ulps of 0.25 2^k or a block radius they may pick one squaring or
    block more or fewer than norms in X's dtype would, with the same 1e-24 tail: the radii
    are rounded down, and 0.25 lies below the last, 0.28.
    """
    squarings = scaling_exponents(norms)
    if squarings.any():
        scale = np.ldexp(1.0, -squarings)
        X = X * scale[:, np.newaxis, np.newaxis]  # exact: powers of 2
        norms = norms * scale
    blocks = taylor_blocks(norms).reshape(-1, 1, 1, 1)
    lowest, top = min(blocks.flat), max(blocks.flat)  # few stacks: cheaper than numpy's
    a, b, c = X[..., 0], X[..., 1], X[..., 2]
    ab, a2 = a * b, a * a
    e1, e0 = ab + ab, a2 * c
    L = np.zeros(a.shape + (3, 3), dtype=X.dtype)
    L[..., 0, 0] = L[..., 1, 1] = L[..., 2, 2] = e0
    L[..., 1, 0] = L[..., 2, 1] = e1
    L[..., 0, 2], L[..., 1, 2] = e0 * e1, e1 * e1
    coeffs = _TAYLOR_BLOCKS.astype(X.dtype)
    r = coeffs[top - 1] if lowest == top else coeffs[top - 1] * (blocks == top)
    for j in range(top - 2, -1, -1):
        r = L @ r
        r += coeffs[j] if j < lowest else coeffs[j] * (blocks > j)
    # r0 = f0 - 1: each diagonal entry takes the 1 in its own last
    # rounding, so the three do not share one error of f0
    g0, f1, f2 = r[..., 0, 0], r[..., 1, 0], r[..., 2, 0]
    total = L  # spent: the assembly sets each of its entries
    total[..., 0, 0] = total[..., 2, 2] = (g0 + f2 * ab) + 1
    total[..., 1, 1] = (g0 + f2 * e1) + 1
    total[..., 0, 1] = total[..., 1, 2] = f1 * a
    total[..., 0, 2] = f2 * a2
    total[..., 1, 0] = total[..., 2, 1] = f1 * b + f2 * a * c
    total[..., 2, 0] = f1 * c + f2 * b * b
    square_by_level(total, squarings, lambda part: part @ part)
    return total


def run_norms(X: np.ndarray) -> np.ndarray:
    """||A||_inf of each stack (s, m, 3) of run generators of expm_stack, largest over its
    m runs, in double: the row sums of |A| are |a|, |a| + |b| and |b| + |c|."""
    mag = np.abs(X.astype(np.complex128, copy=False))
    return (mag[..., :2] + mag[..., 1:]).max(axis=(-2, -1), initial=0.0)


def scaling_exponents(norms: np.ndarray) -> np.ndarray:
    """Least s >= 0 with norm / 2^s <= 0.25, the radius of the degree-16 Taylor polynomial."""
    return np.ceil(np.log2(np.maximum(norms, _TAYLOR_RADIUS) / _TAYLOR_RADIUS)).astype(int)


def taylor_blocks(norms: np.ndarray) -> np.ndarray:
    """Fewest blocks of expm_stack whose Taylor tail at each scaled norm (<= 0.25) is <= 1e-24."""
    return np.searchsorted(_BLOCK_RADII, norms) + 1


def square_by_level(stacks: np.ndarray, squarings: np.ndarray, square) -> None:
    """Apply square squarings[i] times to stacks[i], in place, one batched call per level;
    a level that every stack reaches squares a view of stacks, with no gather or scatter."""
    done, levels = 0, set(squarings.tolist())
    for level in sorted(levels - {0}):
        todo = slice(None) if level <= min(levels) else squarings >= level
        part = stacks[todo]
        for _ in range(level - done):
            part = square(part)
        stacks[todo] = part
        done = level


def det3(M) -> complex:
    """Cofactor determinant of a 3x3 matrix from its unpacked rows, in its entries' own type.

    M may be a (3, 3) array, a stack (3, 3, ...) of entry arrays (one determinant per
    element) or rows of Python complex numbers, which round as numpy's complex128 scalars do.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    return (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )


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
