"""The library names and call forms that the benchmark's output checks use.

perfbench/outputs.py checks every benchmark operation against the library,
and perfbench/workloads.py locates its sigma3 windows with rho_at.  Loading
outputs.py by path and calling those functions in the same forms turns a cut
of one of them into a failure here instead of inside a benchmark run, and
so does the loss of a function that perfbench/spans.py hooks.  The
roots-steps inputs of workloads.py also guard the round count of the
Floquet search, which sets the cost of its eigs operations, its core calls
and period maps, and the per-call setup that the CLI and the core build
once; the verify-far inputs guard the one core call that the fixed-grid
suites of verify share, the points and core calls of its root counting, and
the products and Taylor chunks of its series call.
"""

import argparse
import ast
import importlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triband.checks as checks
import triband.cli as cli
import triband.coeffs as coeffs
import triband.floquet as fl
import triband.monodromy as monodromy
from triband.coeffs import load_coefficients
from triband.discriminant import rho_at

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def outputs():
    yield _load("perfbench_outputs", PERFBENCH / "outputs.py")
    del sys.modules["perfbench_outputs"]


@pytest.fixture(scope="module")
def workloads():
    yield _load("perfbench_workloads", PERFBENCH / "workloads.py")
    del sys.modules["perfbench_workloads"]


def _triband_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of every `from triband... import name` in the source,
    nested ones and those in code strings (a child's setup code) included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "triband":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Constant) and "from triband" in str(node.value):
            found += _triband_imports(node.value)
    return found


def test_every_name_perfbench_imports_from_triband_resolves():
    """A library name that run.py, workloads.py or outputs.py imports is
    an attribute or a submodule of its module, so deleting one fails here
    and not in the middle of a benchmark run."""
    names = set()
    for file in ("outputs.py", "workloads.py", "run.py"):
        for module, name in _triband_imports((PERFBENCH / file).read_text()):
            names.add(name)
            mod = importlib.import_module(module)
            submodule = hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}")
            assert hasattr(mod, name) or submodule, (file, module, name)
    assert {"SpectralParameter", "picard_monodromy", "trace_at", "rho_at", "load_coefficients",
            "band_point", "cli", "_linalg"} <= names


def test_span_targets_absent_from_triband_are_the_known_three():
    """perfbench/spans.py hooks its Target(module, func, ...) entries by name
    and reads 0 for a missing one; these three are gone from the library, so
    any further loss of a per-layer hook fails here."""
    targets = [
        [arg.value for arg in node.args[:2]]
        for node in ast.walk(ast.parse((PERFBENCH / "spans.py").read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target"
    ]
    assert len(targets) > 10
    absent = {f"{module.removeprefix('triband.')}.{func}" for module, func in targets
              if not hasattr(importlib.import_module(module), func)}
    assert absent == {"monodromy.propagate", "monodromy.propagate_pair", "_rootfind.brent"}


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


def test_roots_steps_eigs_ops_take_few_rounds(workloads, tmp_path, monkeypatch):
    """The far eigs calls of roots-steps at seed 41 take <= 6 core calls each.

    Each search starts with a tight pair around the corrected seed, which
    holds the root for every seed of these calls; the same calls took 9
    or 10 core calls from the bare seed.  Calls near n = 0 are left out:
    there the tight pair can miss or be skipped, and the search then
    takes the rounds it took without it.
    """
    ops = workloads.WORKLOADS["roots-steps"].build(np.random.default_rng(41), str(tmp_path))
    far = [op for op in ops if op.kind == "eigs" and op.expect["n_range"][0] >= 5]
    calls = []
    traces_at = fl.traces_at

    def counting(c, lams):
        calls.append(len(lams))
        return traces_at(c, lams)

    monkeypatch.setattr(fl, "traces_at", counting)
    for op in far[:10]:
        calls.clear()
        res = fl.eigenvalues_at_k(load_coefficients(op.coeffs), op.expect["k"],
                                  op.expect["n_range"])
        assert not res.missed
        assert len(calls) <= 6, (op.argv, calls)


def test_verify_far_identity_suites_take_one_core_call(workloads, tmp_path, monkeypatch):
    """Outside root counting, run_verify on a verify-far set sends its fixed
    grids to period_maps once, 307 distinct points; the coefficient-free
    suites reach the core in the first call of the process only.
    """
    ops = workloads.WORKLOADS["verify-far"].build(np.random.default_rng(41), str(tmp_path))
    calls = []
    counting_roots = [False]
    period_maps, count_in_disk = monodromy.period_maps, checks.count_in_disk

    def counting(c, params, *args):
        calls.append((c, len(params), counting_roots[0]))
        return period_maps(c, params, *args)

    def root_counts(*args):
        counting_roots[0] = True
        try:
            return count_in_disk(*args)
        finally:
            counting_roots[0] = False

    for module in (monodromy, checks):
        monkeypatch.setattr(module, "period_maps", counting)
    monkeypatch.setattr(checks, "count_in_disk", root_counts)
    for i, op in enumerate([op for op in ops if op.kind == "verify"][:5]):
        c = load_coefficients(op.coeffs)
        calls.clear()
        assert all(r.passed for r in checks.run_verify(c))
        assert [n for c_i, n, roots in calls if c_i is c and not roots] == [307]
        assert all(c_i is c for c_i, _, _ in calls) == (i > 0), calls
        assert any(roots for c_i, _, roots in calls if c_i is c)


def test_verify_far_root_counts_ask_the_tight_pairs_first(workloads, tmp_path, monkeypatch):
    """Root counting in run_verify on the seed-41 verify-far sets opens each
    disk with the tight pairs alone, 2 points per seed (13 seeds at k = 0.3,
    12 at k = 2.0), and asks for a wide pair only where a tight pair misses:
    at most 52 points and 3 core calls per verify call, 1010 points over the
    20 calls.
    """
    ops = workloads.WORKLOADS["verify-far"].build(np.random.default_rng(41), str(tmp_path))
    disks = []
    traces_at, count_in_disk = fl.traces_at, checks.count_in_disk

    def counting(c, lams):
        disks[-1].append(len(lams))
        return traces_at(c, lams)

    def per_disk(*args):
        disks.append([])
        return count_in_disk(*args)

    monkeypatch.setattr(fl, "traces_at", counting)
    monkeypatch.setattr(checks, "count_in_disk", per_disk)
    points = 0
    for op in [op for op in ops if op.kind == "verify"]:
        disks.clear()
        assert all(r.passed for r in checks.run_verify(load_coefficients(op.coeffs)))
        assert [calls[0] for calls in disks] == [26, 24], (op.argv, disks)
        assert sum(map(sum, disks)) <= 52 and sum(map(len, disks)) <= 3, (op.argv, disks)
        points += sum(map(sum, disks))
    assert points == 1010


def test_roots_steps_eigs_ops_keep_their_core_calls(workloads, tmp_path, monkeypatch):
    """The 70 eigs operations of roots-steps at seed 41 make 392 core calls
    for 1699 period maps: the Floquet search asks for the wide pair in its
    first round with the tight pair, so a tight miss takes no extra round
    (asking for the tight pair alone took 2 more calls per pass).
    """
    ops = workloads.WORKLOADS["roots-steps"].build(np.random.default_rng(41), str(tmp_path))
    eigs = [op for op in ops if op.kind == "eigs"]
    calls = []
    traces_at = fl.traces_at

    def counting(c, lams):
        calls.append(len(lams))
        return traces_at(c, lams)

    monkeypatch.setattr(fl, "traces_at", counting)
    for op in eigs:
        fl.eigenvalues_at_k(load_coefficients(op.coeffs), op.expect["k"], op.expect["n_range"])
    assert (len(eigs), len(calls), sum(calls)) == (70, 392, 1699)


def test_verify_far_series_calls_take_one_product_per_run(workloads, tmp_path, monkeypatch):
    """The 9-point picard_maps call of verify on the seed-41 verify-far sets
    (N = 8, 8 runs each) multiplies all its points in one accumulation
    product per run, 8 in all; set 12 has the largest order and takes 2
    per run.  The Taylor stage, which sets the call's allocation peak,
    holds at most 64 KB of block columns at a time.
    """
    ops = workloads.WORKLOADS["verify-far"].build(np.random.default_rng(41), str(tmp_path))
    lams = list(np.linspace(-100.0, 100.0, 9))
    block_toeplitz, squares = monodromy._block_toeplitz, monodromy._toeplitz_squares
    exponentials = monodromy._series_exponentials
    products, squaring, taylor_bytes = [], [False], []

    def counting(G):
        products.append(squaring[0])
        return block_toeplitz(G)

    def flagged(G):
        squaring[0] = True
        try:
            return squares(G)
        finally:
            squaring[0] = False

    def sized(a, c0, b, c1, n):
        taylor_bytes.append(len(a) * n * 9 * np.dtype(np.complex128).itemsize)
        return exponentials(a, c0, b, c1, n)

    accumulations = []
    monkeypatch.setattr(monodromy, "_block_toeplitz", counting)
    monkeypatch.setattr(monodromy, "_toeplitz_squares", flagged)
    monkeypatch.setattr(monodromy, "_series_exponentials", sized)
    for op in [op for op in ops if op.kind == "verify"]:
        c = load_coefficients(op.coeffs)
        assert len(c.runs) == 8
        products.clear()
        monodromy.picard_maps(c, lams, tol=1e-10)
        accumulations.append(products.count(False))
    assert accumulations == [8] * 12 + [16] + [8] * 7
    assert 0 < max(taylor_bytes) <= 64 * 1024


def test_importing_checks_takes_no_core_call():
    """The fixed grids are built on first use, not at import (setup_s times
    `import triband.cli`)."""
    code = (
        "import triband.monodromy as m\n"
        "calls = []\n"
        "def counting(*args, **kwargs):\n"
        "    calls.append(args)\n"
        "m.period_maps = m.SpectralParameter.from_lambda = counting\n"
        "import triband.checks, triband.cli\n"
        "assert not calls, calls\n"
        "assert triband.checks._fixed_grids.cache_info().currsize == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_roots_steps_ops_build_one_parser_and_one_run_table_per_set(
        workloads, tmp_path, monkeypatch, capsys):
    """Through cli.main, roots-steps builds its 5 parsers (root and 4 commands)
    once in all, and each coefficient object finds its runs once however many
    core calls it serves, in whatever dtype.
    """
    ops = workloads.WORKLOADS["roots-steps"].build(np.random.default_rng(41), str(tmp_path))
    picked = [op for op in ops if op.kind == "eigs"][:4]
    picked += [op for op in ops if op.kind == "sigma3"][:4]
    parsers, tables, served = [], [], []
    init, find = argparse.ArgumentParser.__init__, coeffs._equal_cell_runs
    framed = monodromy._framed_runs

    def counting_init(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counting_find(p, q):
        tables.append(len(p))
        return find(p, q)

    def recording(c, params, dtype):
        served.append((c, np.dtype(dtype)))  # holds c, so no id is reused
        return framed(c, params, dtype)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(coeffs, "_equal_cell_runs", counting_find)
    monkeypatch.setattr(monodromy, "_framed_runs", recording)
    cli.build_parser.cache_clear()
    for op in picked:
        assert cli.main(list(op.argv)) == 0, op.argv
    capsys.readouterr()
    assert 1 <= len(parsers) <= 5, parsers
    assert len(tables) <= len({(id(c), dtype) for c, dtype in served}) == len(picked)
    assert len(served) >= 3 * len(picked)
