"""The library names and call forms that the benchmark's output checks use.

perfbench/outputs.py checks every benchmark operation against the library,
and perfbench/workloads.py locates its sigma3 windows with rho_at.  Loading
outputs.py by path and calling those functions in the same forms turns a cut
of one of them into a failure here instead of inside a benchmark run.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from triband.discriminant import rho_at

OUTPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "outputs.py"


@pytest.fixture(scope="module")
def outputs():
    spec = importlib.util.spec_from_file_location("perfbench_outputs", OUTPUTS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_perfbench_output_checks_call_the_library(outputs, const_c):
    lam = 10.0
    T = outputs.trace_at(const_c, lam)
    param = outputs.SpectralParameter.from_lambda(lam)
    series = outputs.picard_monodromy(const_c, param, tol=1e-12 * math.exp(param.z0))
    assert abs(series.trace_T - T) <= outputs.PICARD_RTOL * abs(T)
    assert outputs.Checker()._picard_trace(const_c, lam) == pytest.approx(T, rel=1e-9)

    rho = rho_at(const_c, lam)
    assert rho == outputs.rho_trace_formula(T)
    point = outputs.band_point(const_c, lam)
    assert point.error is None
    assert point.rho == rho

    # sigma3_intervals(c, window, scan_points=, tol=) and trace_at on the D3 set
    assert outputs.known_defect_d3().startswith("D3 ")
