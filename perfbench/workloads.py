"""Seeded inputs of the three benchmark workloads.

A workload is a fixed list of operations built from the seed alone.  An
operation is one CLI command (an argv list for ``triband.cli.main``) or one
far-field probe (a single ``band_point`` call).  The program sees only
these inputs: coefficient JSON files and argv lists.  Each workload states
below why it exists; the README in this directory has the full table.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    """One operation of a pass.

    kind is "scan", "eigs", "sigma3" or "verify" for CLI commands (argv is
    then the full argument list) and "probe" for a band_point call at lam.
    coeffs names the coefficient file the operation reads; expect holds
    what the output checks need to know about the input.
    """

    kind: str
    coeffs: str
    argv: tuple[str, ...] = ()
    lam: float = 0.0
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[np.random.Generator, str], list[Op]]


def _num(x: float) -> str:
    """Exact decimal text of a float for argv (repr round-trips)."""
    return repr(float(x))


def _write(workdir: str, name: str, p: np.ndarray, q: np.ndarray) -> str:
    path = os.path.join(workdir, name + ".json")
    doc = {"grid_size": int(p.size), "p": [float(x) for x in p], "q": [float(x) for x in q]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def harmonic(rng: np.random.Generator, n: int, amplitude: float) -> tuple[np.ndarray, np.ndarray]:
    """Random trigonometric p, q (2 to 5 harmonics) sampled at cell midpoints.

    Neighbouring cells never repeat a value, so no run of equal cells exists.
    """
    t = (np.arange(n) + 0.5) / n
    p = np.zeros(n)
    q = np.zeros(n)
    for k in range(1, int(rng.integers(2, 6)) + 1):
        p += amplitude * rng.normal() / k * np.cos(TWO_PI * k * t + rng.uniform(0, TWO_PI))
        q += amplitude * rng.normal() / k * np.cos(TWO_PI * k * t + rng.uniform(0, TWO_PI))
    return p, q


def steps(rng: np.random.Generator, n: int, scale: float,
          min_levels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Step coefficients with min_levels to 4 levels on contiguous runs of cells.

    Levels are uniform in |p| <= 8 scale and |q| <= 4 scale.
    """
    levels = int(rng.integers(min_levels, 5))
    cuts = np.sort(rng.choice(np.arange(1, n), levels - 1, replace=False))
    bounds = [0, *(int(x) for x in cuts), n]
    p = np.empty(n)
    q = np.empty(n)
    for a, b in zip(bounds, bounds[1:]):
        p[a:b] = rng.uniform(-8.0, 8.0) * scale
        q[a:b] = rng.uniform(-4.0, 4.0) * scale
    return p, q


# --- scan-smooth -----------------------------------------------------------

SCAN_GRID = 1024
SCAN_SETS = 4
# fixed mix of scan sizes, so every seed does the same amount of work and
# the median and p90 latencies sit inside one size class each
SCAN_POINTS = (2,) * 70 + (3,) * 30


def build_scan_smooth(rng: np.random.Generator, workdir: str) -> list[Op]:
    files = [
        _write(workdir, f"smooth{i}", *harmonic(rng, SCAN_GRID, 1.0)) for i in range(SCAN_SETS)
    ]
    ops = []
    for i, points in enumerate(rng.permutation(SCAN_POINTS)):
        width = 10.0 ** rng.uniform(1.0, 3.3)
        a = float(rng.uniform(-1e4, 1e4 - width))
        b = a + width
        path = files[i % SCAN_SETS]
        argv = ("scan", "--coeffs", path, "--interval", f"{_num(a)},{_num(b)}",
                "--points", str(points), "--format", "json")
        ops.append(Op("scan", path, argv, expect={"interval": (a, b), "points": int(points)}))
    return ops


# --- roots-steps -----------------------------------------------------------

STEP_GRID = 64
EIGS_SETS = 35
# weaker coefficients for eigs: strong ones miss roots at small |n|, and
# each miss costs a fine scan, which makes the work depend on the seed
EIGS_SCALE = 0.5
SIGMA3_SETS = 15
SIGMA3_OPS = 30
SIGMA3_POINTS = 9
# on constant coefficients rho can touch 0 inside the sigma3 set, and an
# endpoint can then land on the touch (defect D3, reproduced apart in
# outputs.known_defect_d3); so the sigma3 sets have 2 to 4 levels
SIGMA3_MIN_LEVELS = 2
# eigs calls: (count, roots per call, lowest n, highest n).  Near n = 0 the
# brackets have to grow and some seeds are missed, so costs scatter; the
# far block costs about the same in every call and holds the dearest
# tenth of the operations, which keeps p90 from following that scatter
EIGS_CALLS = ((55, 2, -6, 5), (15, 6, 5, 12))
# coarse sign scan of rho that places the sigma3 windows around the set
_LOCATE_GRID = np.linspace(-60.0, 60.0, 61)
_MAX_CANDIDATES = 100


def _locate_sigma3(path: str) -> tuple[float, float] | None:
    """Outer bracket (last positive, first positive) of a negative rho run.

    Only runs of at least three negative grid points away from the edges
    qualify, so a window around the bracket always holds grid points of
    the set itself.
    """
    from triband.coeffs import load_coefficients
    from triband.discriminant import rho_at

    c = load_coefficients(path)
    negative = [rho_at(c, float(x)) < 0 for x in _LOCATE_GRID]
    i = 1
    while i < len(negative) - 1:
        if negative[i]:
            j = i
            while j + 1 < len(negative) and negative[j + 1]:
                j += 1
            if j + 1 < len(negative) and j - i >= 2:
                return float(_LOCATE_GRID[i - 1]), float(_LOCATE_GRID[j + 1])
            i = j + 1
        else:
            i += 1
    return None


def build_roots_steps(rng: np.random.Generator, workdir: str) -> list[Op]:
    # eigs runs on unselected coefficients; sigma3 needs coefficients whose
    # set is nonempty, and those are stronger, with costlier roots.  Many
    # sets with few operations each keep the work per pass nearly the same
    # from seed to seed.
    eigs_files = [_write(workdir, f"steps{i}", *steps(rng, STEP_GRID, EIGS_SCALE))
                  for i in range(EIGS_SETS)]
    sigma3_sets: list[tuple[str, tuple[float, float]]] = []
    for attempt in range(_MAX_CANDIDATES):
        path = _write(workdir, f"sigma3-{attempt}", *steps(rng, STEP_GRID, 1.0, SIGMA3_MIN_LEVELS))
        bracket = _locate_sigma3(path)
        if bracket is not None:
            sigma3_sets.append((path, bracket))
        if len(sigma3_sets) == SIGMA3_SETS:
            break
    else:
        raise RuntimeError("no step coefficients with a sigma3 interval in the candidates")

    ops = []
    for count, roots, lowest, highest in EIGS_CALLS:
        for _ in range(count):
            path = eigs_files[len(ops) % EIGS_SETS]
            k = float(rng.uniform(0.0, TWO_PI))
            n_lo = int(rng.integers(lowest, highest - roots + 2))
            n_hi = n_lo + roots - 1
            argv = ("eigs", "--coeffs", path, "--k", _num(k), "--n-range", f"{n_lo}..{n_hi}",
                    "--format", "json")
            ops.append(Op("eigs", path, argv, expect={"k": k, "n_range": (n_lo, n_hi)}))
    for i in range(SIGMA3_OPS):
        path, (lo, hi) = sigma3_sets[i % SIGMA3_SETS]
        a = lo - float(rng.uniform(0.0, 3.0))
        b = hi + float(rng.uniform(0.0, 3.0))
        argv = ("sigma3", "--coeffs", path, "--interval", f"{_num(a)},{_num(b)}",
                "--points", str(SIGMA3_POINTS), "--tol", "1e-6", "--format", "json")
        ops.append(Op("sigma3", path, argv, expect={"bracket": (lo, hi), "tol": 1e-6}))
    return ops


# --- verify-far ------------------------------------------------------------

VERIFY_GRID = 8
# a verify call costs hundreds of probes, and 20 of 110 operations are
# verify calls: p90 then falls near the median verify call, not on
# whichever probes a timer hiccup happened to hit, nor on the cheapest
# verify calls, whose cost scatters from seed to seed
VERIFY_OPS = 20
PROBE_GRID = 64
PROBE_MAGNITUDES = 45
# the top end costs 20 squarings per cell; it stays below 2.04e7, where
# band_point starts to raise OverflowError (ROADMAP D1), so no probe fails.
# D1 is probed apart, outside the counted operations (KNOWN_DEFECTS)
PROBE_RANGE = (1e3, 1.5e7)


def build_verify_far(rng: np.random.Generator, workdir: str) -> list[Op]:
    ops = []
    for i in range(VERIFY_OPS):
        path = _write(workdir, f"verify{i}", *harmonic(rng, VERIFY_GRID, 0.5))
        ops.append(Op("verify", path, ("verify", "--coeffs", path, "--format", "json")))

    zero = np.zeros(PROBE_GRID)
    probe_sets = (
        (_write(workdir, "probe-zero", zero, zero), True),
        (_write(workdir, "probe-smooth", *harmonic(rng, PROBE_GRID, 0.5)), False),
    )
    lo, hi = (math.log10(x) for x in PROBE_RANGE)
    step = (hi - lo) / (PROBE_MAGNITUDES - 1)
    for i in range(PROBE_MAGNITUDES):
        # log-spaced from end to end; interior points jittered by up to half a step
        jitter = float(rng.uniform(-0.5, 0.5)) if 0 < i < PROBE_MAGNITUDES - 1 else 0.0
        mag = 10.0 ** (lo + (i + jitter) * step)
        for sign in (1.0, -1.0):
            path, is_zero = probe_sets[(i + (sign < 0)) % 2]
            ops.append(Op("probe", path, lam=sign * mag, expect={"zero": is_zero}))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-smooth",
            "scans of smooth all-distinct N=1024 coefficients inside +-1e4: one period map "
            "per point and no root finding, so it isolates the exponential and product kernels",
            build_scan_smooth,
        ),
        Workload(
            "roots-steps",
            "eigs over many k and small sigma3 windows on 1-4-level N=64 step coefficients: "
            "bracketing, Brent and rho_at dominate and equal-cell runs are long",
            build_roots_steps,
        ),
        Workload(
            "verify-far",
            "verify suites plus band_point probes at log-spaced +-1e3..1.5e7: Picard series, "
            "complex pairs and up to 20 squarings per cell; no probe in the D1 overflow range",
            build_verify_far,
        ),
    )
}
