import json

import numpy as np
import pytest

from triband import (
    PeriodicCoefficients,
    load_coefficients,
    parse_coefficients,
)
from triband.monodromy import period_maps
from triband.util import MAX_GRID_POINTS


def test_from_constants_kappa():
    assert PeriodicCoefficients.from_constants(0, 0, 16).kappa == 0.0
    assert PeriodicCoefficients.from_constants(1, 0, 16).kappa == 1.0
    assert PeriodicCoefficients.from_constants(-2, 3, 8).kappa == 5.0


@pytest.mark.parametrize("grid_size", [1, 2, 7, 64, 1000])
def test_kappa_grid_independent_for_constants(grid_size):
    c = PeriodicCoefficients.from_constants(-1.25, 0.75, grid_size)
    assert c.kappa == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("p, q", [([1e308], [1e308]), ([1.0, 1e308], [1e308, 1e308])],
                         ids=["add", "reduce"])
def test_kappa_overflow_is_refused(p, q):
    """Finite samples whose kappa overflows: a ValueError naming kappa, no numpy warning
    (pytest turns a RuntimeWarning into an error)."""
    with pytest.raises(ValueError, match="kappa"):
        PeriodicCoefficients.from_samples(p, q)
    with pytest.raises(ValueError, match="kappa"):
        PeriodicCoefficients.from_constants(p[0], q[0], 4)


def test_from_samples_kappa():
    assert PeriodicCoefficients.from_samples([1, -1], [0, 0]).kappa == 1.0
    assert PeriodicCoefficients.from_samples([0], [5]).kappa == 5.0


def test_from_samples_sin_kappa_quadrature_oracle():
    # oracle: high-resolution midpoint quadrature of int_0^1 |sin(2 pi t)| dt
    fine = (np.arange(2**17) + 0.5) / 2**17
    oracle = np.mean(np.abs(np.sin(2 * np.pi * fine)))
    assert oracle == pytest.approx(2 / np.pi, abs=1e-9)

    t = (np.arange(1024) + 0.5) / 1024
    c = PeriodicCoefficients.from_samples(np.sin(2 * np.pi * t), np.zeros(1024))
    assert c.kappa == pytest.approx(oracle, abs=1e-3)
    assert c.kappa == pytest.approx(2 / np.pi, abs=1e-3)


def test_constant_grid_is_capped_at_max_grid_points():
    """Equal cells are one run at any N: the cap is accepted, one cell more is refused."""
    c = PeriodicCoefficients.from_constants(1, 0, MAX_GRID_POINTS)
    assert c.grid_size == MAX_GRID_POINTS
    assert c.runs.tolist() == [[MAX_GRID_POINTS, 1.0, 0.0]]
    for grid_size in (MAX_GRID_POINTS + 1, 10**11):
        with pytest.raises(ValueError, match=f"at most {MAX_GRID_POINTS}, got {grid_size}"):
            PeriodicCoefficients.from_constants(1, 0, grid_size)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        PeriodicCoefficients.from_constants(np.nan, 0, 4)
    with pytest.raises(ValueError):
        PeriodicCoefficients.from_constants(0, np.inf, 4)
    with pytest.raises(ValueError):
        PeriodicCoefficients.from_constants(0, 0, 0)
    with pytest.raises(ValueError):
        PeriodicCoefficients.from_samples([1, 2], [1])
    with pytest.raises(ValueError):
        PeriodicCoefficients.from_samples([], [])
    with pytest.raises(ValueError):
        PeriodicCoefficients.from_samples([1, np.nan], [0, 0])
    with pytest.raises(ValueError, match="p_samples must be one-dimensional"):
        PeriodicCoefficients(np.zeros((2, 3)), np.zeros(6))
    with pytest.raises(ValueError, match="q_samples must be one-dimensional"):
        PeriodicCoefficients.from_samples([1.0, 2.0], [[0.0, 0.0]])


def test_samples_are_immutable():
    c = PeriodicCoefficients.from_constants(1, 2, 4)
    with pytest.raises(ValueError):
        c.p_samples[0] = 9.0


@pytest.mark.parametrize(
    "p, q, rows",
    [
        (np.full(64, 1.0), np.full(64, -0.5), [[64, 1.0, -0.5]]),
        (np.repeat([0.6, -0.4, 0.6], [20, 25, 19]), np.repeat([0.3, 0.3, 0.5], [20, 25, 19]),
         [[20, 0.6, 0.3], [25, -0.4, 0.3], [19, 0.6, 0.5]]),
        (np.zeros(64), np.arange(64.0), [[1, 0.0, x] for x in range(64)]),
        (np.arange(8.0), np.ones(8), [[1, x, 1.0] for x in range(8)]),
    ],
    ids=["constant", "steps", "q-distinct", "p-distinct"],
)
def test_run_table_merges_equal_neighbours_only(p, q, rows):
    c = PeriodicCoefficients.from_samples(p, q)
    assert c.runs.tolist() == rows
    cells = c.runs[:, 0].astype(int)
    assert np.array_equal(np.repeat(c.runs[:, 1], cells), p)
    assert np.array_equal(np.repeat(c.runs[:, 2], cells), q)
    with pytest.raises(ValueError):
        c.runs[0, 1] = 9.0


def test_refinement_leaves_kappa_and_monodromy_invariant(sin_c):
    refined = PeriodicCoefficients.from_samples(
        np.repeat(sin_c.p_samples, 2), np.repeat(sin_c.q_samples, 2)
    )
    assert refined.grid_size == 2 * sin_c.grid_size
    assert refined.kappa == pytest.approx(sin_c.kappa, abs=1e-12)
    lams = (3.0, -40.0, 2.0 + 5.0j, 2.0 - 5.0j)  # a complex point and its conjugate
    M1, M2 = period_maps(sin_c, lams), period_maps(refined, lams)
    assert np.abs(M1.astype(complex) - M2.astype(complex)).max() < 1e-12


def test_parse_coefficients_sample_layout():
    c = parse_coefficients({"grid_size": 3, "p": [1, 2, 3], "q": [0, 0, 1]})
    assert c.grid_size == 3
    assert (c.p_samples[2], c.q_samples[2]) == (3.0, 1.0)


def test_parse_coefficients_takes_every_json_integer():
    """Integers, those past int64 and past 64 bits included, are numbers; a bool among
    such integers, and a null, are not."""
    c = parse_coefficients({"grid_size": 3, "p": [2**63, 10**30, -1], "q": [0, 0, 1.5]})
    assert c.p_samples.tolist() == [2.0**63, 1e30, -1.0]
    c = parse_coefficients({"p_const": 10**30, "q_const": -2, "grid_size": 2})
    assert (c.p_samples[0], c.q_samples[0]) == (1e30, -2.0)
    for p in ([10**30, True], [10**30, None], [None, None]):
        with pytest.raises(ValueError, match="^field 'p': expected numbers"):
            parse_coefficients({"grid_size": 2, "p": p, "q": [0, 0]})


def test_parse_coefficients_constant_layout():
    c = parse_coefficients({"p_const": 1.5, "q_const": -2.0, "grid_size": 8})
    assert c.grid_size == 8
    assert c.kappa == pytest.approx(3.5)


def test_parse_coefficients_errors():
    with pytest.raises(ValueError):
        parse_coefficients({"grid_size": 2, "p": [1, 2, 3], "q": [0, 0, 0]})
    with pytest.raises(ValueError):
        parse_coefficients({"p": [1], "q": [1]})
    with pytest.raises(ValueError):
        parse_coefficients({"p_const": 1.0, "grid_size": 4})
    with pytest.raises(ValueError):
        parse_coefficients([1, 2, 3])


def test_load_coefficients_roundtrip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid_size": 2, "p": [1.0, -1.0], "q": [0.5, 0.5]}))
    c = load_coefficients(path)
    assert c.kappa == pytest.approx(1.5)
    assert c.p_samples[0] == 1.0
