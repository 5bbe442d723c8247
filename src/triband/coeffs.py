"""Periodic coefficient pairs (p, q) as step functions on one period.

The coefficient model is piecewise constant on a uniform grid over [0, 1):
cell i carries the values (p_i, q_i) on [i/N, (i+1)/N).  This keeps the
per-cell propagation exact (a constant-matrix exponential) and asks nothing
of the coefficients beyond integrability.  Smooth coefficients should be
sampled at cell midpoints; the sampling error is the caller's business.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .util import MAX_GRID_POINTS


def _validated_samples(values: Any, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _equal_cell_runs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Read-only rows (n, p, q), one per run of n equal cells, in cell order."""
    starts = np.flatnonzero(np.concatenate(([True], (p[1:] != p[:-1]) | (q[1:] != q[:-1]))))
    runs = np.stack((np.diff(starts, append=p.size), p[starts], q[starts]), axis=-1)
    runs.setflags(write=False)
    return runs


@dataclass(frozen=True)
class PeriodicCoefficients:
    """Real 1-periodic p, q stored as per-cell constants.

    kappa is the L1 norm of |p| + |q| over one period, evaluated exactly
    for the step-function model: (1/N) * sum_i (|p_i| + |q_i|).  It is the
    single scalar that enters every perturbation bound.  runs is the run
    table, found once here for every period map: one read-only row (n, p, q)
    per run of n equal cells, in cell order.  The period-map core keeps the
    arrays it builds from the runs in _run_entries, one entry per dtype.
    """

    p_samples: np.ndarray
    q_samples: np.ndarray
    grid_size: int = field(init=False)
    kappa: float = field(init=False)
    runs: np.ndarray = field(init=False, repr=False, compare=False)
    _run_entries: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        p = _validated_samples(self.p_samples, "p_samples")
        q = _validated_samples(self.q_samples, "q_samples")
        if p.shape != q.shape:
            raise ValueError(
                f"p and q must have equal length, got {p.size} and {q.size}"
            )
        object.__setattr__(self, "p_samples", p)
        object.__setattr__(self, "q_samples", q)
        object.__setattr__(self, "grid_size", int(p.size))
        with np.errstate(over="ignore"):
            kappa = float(np.mean(np.abs(p) + np.abs(q)))
        if not np.isfinite(kappa):
            raise ValueError("kappa = mean(|p| + |q|) overflows double precision")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "runs", _equal_cell_runs(p, q))

    @classmethod
    def from_constants(cls, p0: float, q0: float, grid_size: int) -> "PeriodicCoefficients":
        """p = p0, q = q0 on 1..MAX_GRID_POINTS cells: one run at any N, so more buy nothing."""
        if grid_size < 1:
            raise ValueError("grid_size must be at least 1")
        if grid_size > MAX_GRID_POINTS:
            raise ValueError(f"grid_size must be at most {MAX_GRID_POINTS}, got {grid_size}")
        p0 = float(p0)
        q0 = float(q0)
        if not (np.isfinite(p0) and np.isfinite(q0)):
            raise ValueError("coefficient constants must be finite")
        return cls(np.full(grid_size, p0), np.full(grid_size, q0))

    @classmethod
    def from_samples(cls, p_samples: Any, q_samples: Any) -> "PeriodicCoefficients":
        return cls(np.asarray(p_samples, dtype=float), np.asarray(q_samples, dtype=float))


def zero_coefficients(grid_size: int = 4) -> PeriodicCoefficients:
    """The free case p = q = 0 (any grid size is exact here)."""
    return PeriodicCoefficients.from_constants(0.0, 0.0, grid_size)


def _field(obj: dict, key: str, convert: Callable[[Any], Any]) -> Any:
    """convert(obj[key]), or a ValueError that names the missing or malformed field."""
    if key not in obj:
        raise ValueError(f"coefficient object is missing {key!r}")
    try:
        return convert(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def _json_int(value: Any) -> int:
    """value itself if it is a JSON integer: no float, no bool."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_number(value: Any) -> float:
    """value as a float if it is a JSON number: no string, no bool."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _json_numbers(value: Any) -> np.ndarray:
    """value as a float array if it is a list of JSON numbers: no strings, no bools, no lists.

    numpy would read a bool among numbers as one, so each entry's type is looked at.
    """
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {type(value).__name__}")
    if not (kinds := set(map(type, value))) <= {int, float}:
        others = ", ".join(sorted(k.__name__ for k in kinds - {int, float}))
        raise TypeError(f"expected numbers, got entries of type {others}")
    return np.array(value, dtype=float)


def parse_coefficients(obj: dict) -> PeriodicCoefficients:
    """Build coefficients from a decoded JSON object.

    Two layouts are accepted (field names are fixed):
      {"grid_size": N, "p": [...], "q": [...]}
      {"p_const": x, "q_const": y, "grid_size": N}
    A missing field or one of the wrong type is a ValueError; grid_size
    must be a JSON integer, and the samples and constants JSON numbers.
    """
    if not isinstance(obj, dict):
        raise ValueError("coefficient file must hold a JSON object")
    grid_size = _field(obj, "grid_size", _json_int)
    if "p_const" in obj or "q_const" in obj:
        return PeriodicCoefficients.from_constants(
            _field(obj, "p_const", _json_number), _field(obj, "q_const", _json_number), grid_size)
    p, q = (_field(obj, key, _json_numbers) for key in ("p", "q"))
    c = PeriodicCoefficients.from_samples(p, q)
    if c.grid_size != grid_size:
        raise ValueError(
            f"grid_size {obj['grid_size']} does not match sample length {c.grid_size}"
        )
    return c


def load_coefficients(path: str | Path) -> PeriodicCoefficients:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_coefficients(json.load(fh))
