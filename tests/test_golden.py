"""Golden CLI outputs: scan, eigs, sigma3 and verify in CSV and JSON.

The files under tests/golden/ were written by this module's recorder;
after a deliberate change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

Text and integers must match exactly, floats to 1e-9 relative (values
below 1e-12 in magnitude are roundoff residuals and compare absolutely).
verify's worst residuals are roundoff as well, so for verify only the
suite names and PASS/FAIL are compared.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from triband.cli import main

GOLDEN = Path(__file__).parent / "golden"
SIN_C = GOLDEN / "sin_c.json"  # the sin_c fixture of conftest.py
# a strong 4-level step set (levels |p| <= 16, |q| <= 8) on which one seed
# near n = 0 has no sign change in its allowed bracket
STEPS = GOLDEN / "steps.json"
STEP_RUNS = ((14, -11.22, 0.2), (3, -11.65, 3.02), (42, 10.94, -1.19), (5, 14.62, 5.21))
CONST_C = ["--p-const", "1", "--q-const", "-0.5", "--grid", "64"]  # const_c

CASES = {
    "scan-const_c": ["scan", *CONST_C, "--interval", "-40,40", "--points", "41"],
    "scan-sin_c": ["scan", "--coeffs", str(SIN_C),
                   "--interval", "-40,40", "--points", "41"],
    "eigs-const_c": ["eigs", *CONST_C, "--k", "1.0", "--n-range", "-2..2"],
    "eigs-sin_c": ["eigs", "--coeffs", str(SIN_C), "--k", "2.5", "--n-range", "-2..2"],
    # missed seeds: n = 0 at k = 2, n = -1 at k = 5.2 (the fine scan's
    # minimum is pinned as well as the roots found in lockstep beside it)
    "eigs-steps-k2": ["eigs", "--coeffs", str(STEPS), "--k", "2.0", "--n-range", "-4..4"],
    "eigs-steps-k5": ["eigs", "--coeffs", str(STEPS), "--k", "5.2", "--n-range", "-4..4"],
    # the interval starts inside the triple set, so its lower end is clipped
    "sigma3-const_c": ["sigma3", *CONST_C, "--interval", "-1,10", "--points", "56"],
    "sigma3-sin_c": ["sigma3", "--coeffs", str(SIN_C),
                     "--interval", "-2,2", "--points", "41"],
    # constant coefficients do not depend on the grid; 4 cells keep it fast
    "verify-const": ["verify", "--p-const", "1", "--q-const", "-0.5", "--grid", "4"],
}
FORMATS = ("csv", "json")

_NUMBER = re.compile(r"-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|\d+)")


def _run(name: str, fmt: str, out: Path) -> str:
    main(CASES[name] + ["--format", fmt, "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    return text.replace(str(SIN_C), "sin_c.json").replace(str(STEPS), "steps.json")


def _verify_outcomes(text: str, fmt: str) -> list:
    if fmt == "json":
        return [(c["name"], c["passed"]) for c in json.loads(text)["checks"]]
    return [(name, status == "PASS")
            for status, name in re.findall(r"^(PASS|FAIL)  ([\w-]+):", text, re.M)]


def _assert_matches(got: str, want: str) -> None:
    assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want)
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if re.fullmatch(r"-?\d+", w):
            assert g == w
        else:
            assert math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=1e-12), (g, w)


def test_sin_c_file_is_the_fixture(sin_c):
    data = json.loads(SIN_C.read_text(encoding="utf-8"))
    assert np.array_equal(data["p"], sin_c.p_samples)
    assert np.array_equal(data["q"], sin_c.q_samples)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(tmp_path, name, fmt):
    got = _run(name, fmt, tmp_path / f"out.{fmt}")
    want = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    if name.startswith("verify"):
        assert _verify_outcomes(got, fmt) == _verify_outcomes(want, fmt)
        assert _verify_outcomes(want, fmt)
    else:
        _assert_matches(got, want)


def _record() -> None:
    t = (np.arange(64) + 0.5) / 64
    SIN_C.write_text(json.dumps({
        "grid_size": 64,
        "p": np.sin(2 * np.pi * t).tolist(),
        "q": (0.5 * np.sin(4 * np.pi * t)).tolist(),
    }) + "\n", encoding="utf-8")
    STEPS.write_text(json.dumps({
        "grid_size": sum(n for n, _, _ in STEP_RUNS),
        "p": [p for n, p, _ in STEP_RUNS for _ in range(n)],
        "q": [q for n, _, q in STEP_RUNS for _ in range(n)],
    }) + "\n", encoding="utf-8")
    for name in CASES:
        for fmt in FORMATS:
            dst = GOLDEN / f"{name}.{fmt}"
            dst.write_text(_run(name, fmt, dst), encoding="utf-8")


if __name__ == "__main__":
    _record()
