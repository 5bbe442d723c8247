"""Small shared helpers: real cube root, grids, ranges, set distances."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def real_cbrt(x: float) -> float:
    """Sign-preserving real cube root."""
    return float(np.cbrt(x))


def uniform_grid(a: float, b: float, points: int) -> np.ndarray:
    if not (a < b):
        raise ValueError(f"interval must satisfy a < b, got [{a}, {b}]")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    return np.linspace(a, b, points)


def parse_int_range(text: str) -> tuple[int, int]:
    """Parse 'A..B' into an inclusive integer range."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"expected A..B, got {text!r}")
    a, b = int(lo), int(hi)
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return a, b


def hausdorff_distance(xs: Sequence[complex], ys: Sequence[complex]) -> float:
    """Hausdorff distance between two finite point sets in the plane."""
    d1 = max(min(abs(x - y) for y in ys) for x in xs)
    d2 = max(min(abs(x - y) for x in xs) for y in ys)
    return max(d1, d2)
