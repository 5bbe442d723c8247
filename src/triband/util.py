"""Small shared helpers: grids, ranges, set distances."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


# The most points of a scan or sigma3 grid: a scan maps all its points in one core call, at
# a peak of about 1.3 kB per point (tracemalloc, 20000-point scans at N = 64), so a million
# ask for some 1.3 GB, and far more end in numpy's allocation error or run for hours.  Also
# the most cells of a constant-coefficient grid, which is one run of the core at any N.
MAX_GRID_POINTS = 1_000_000


def uniform_grid(a: float, b: float, points: int) -> np.ndarray:
    import numpy as np

    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"interval ends must be finite, got [{a}, {b}]")
    if not (a < b):
        raise ValueError(f"interval must satisfy a < b, got [{a}, {b}]")
    if not np.isfinite(b - a):
        raise ValueError(f"interval width overflows the float range, got [{a}, {b}]")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"need at most {MAX_GRID_POINTS} grid points, got {points}")
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


def hausdorff_distance(xs, ys) -> np.ndarray:
    """Hausdorff distance between finite point sets in the plane, along the last axis of stacks.

    One distance per row of the stacks, a scalar for two plain sets.  |x - y| is np.hypot of
    the parts, which matches Python's abs of a complex bit for bit (np.abs does not).
    """
    import numpy as np

    d = np.asarray(xs, dtype=complex)[..., :, None] - np.asarray(ys, dtype=complex)[..., None, :]
    d = np.hypot(d.real, d.imag)
    return np.maximum(d.min(axis=-1).max(axis=-1), d.min(axis=-2).max(axis=-1))
