"""Tests of the benchmark itself, kept out of the package's test run.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from outputs import KNOWN_DEFECTS  # noqa: E402
from spans import METRICS, Target, Tracer, derive  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_declared_metrics_match_the_benchmark():
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == dict(METRICS)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--ops", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name
    if not trace:
        assert any(line.startswith("fail_rate = ") for line in lines)
        known = [line for line in lines if line.startswith("# known defect")]
        assert len(known) == len(KNOWN_DEFECTS.get(workload, ()))


def test_workloads_keep_clear_of_known_defects():
    """No probe in the D1 range, and no constant coefficients under sigma3 (D3)."""
    workdir = run.WORK / "selftest-defects"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        rng = np.random.default_rng(7)
        probes = [op for op in WORKLOADS["verify-far"].build(rng, str(workdir))
                  if op.kind == "probe"]
        assert max(abs(op.lam) for op in probes) < 2.0e7
        for op in WORKLOADS["roots-steps"].build(rng, str(workdir)):
            if op.kind == "sigma3":
                doc = json.loads(Path(op.coeffs).read_text())
                assert len(set(zip(doc["p"], doc["q"]))) >= 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced_scan(points: int) -> dict[str, float]:
    from triband import cli

    argv = ["scan", "--p-const", "0.5", "--q-const", "0.3", "--grid", "8",
            "--interval", "-50,50", "--points", str(points), "--format", "json"]
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    root = tracer.spans[0]
    assert root[0] == "cli.main"
    metrics, _ = derive(tracer.spans, [root[2] - root[1]], 1, 1, 0)
    return metrics


@pytest.mark.parametrize("points", [2, 7])
def test_p_point_scan_counts_p_period_maps(points):
    metrics = _traced_scan(points)
    assert metrics["monodromy.propagate.calls"] == points
    assert metrics["linalg.expm_stack.matrices"] == 8 * points
    assert metrics["bands.scan_real_axis.period_maps_per_point"] == 1.0


def test_hooks_follow_by_name_bindings_and_are_undone():
    import triband
    from triband import bands, checks, discriminant, floquet, monodromy

    original = monodromy.propagate
    tracer = Tracer()
    tracer.install()
    try:
        hooked = monodromy.propagate
        assert hooked is not original
        assert all(m.propagate is hooked for m in (bands, checks, discriminant, floquet, triband))
    finally:
        tracer.uninstall()
    assert all(m.propagate is original
               for m in (monodromy, bands, checks, discriminant, floquet, triband))


def test_missing_target_is_reported_absent():
    tracer = Tracer()
    tracer.install((Target("triband.monodromy", "no_such_function", "monodromy.gone"),
                    Target("triband.no_such_module", "f", "nowhere.f")))
    tracer.uninstall()
    assert tracer.absent == ["monodromy.gone", "nowhere.f"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    builds = []
    for i in range(2):
        workdir = run.WORK / f"selftest-{name}-{i}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            ops = WORKLOADS[name].build(np.random.default_rng(5), str(workdir))
            files = sorted(p.name for p in workdir.iterdir())
            contents = [(workdir / f).read_text() for f in files]
            builds.append(([(op.kind, [a.replace(str(workdir), "") for a in op.argv], op.lam)
                            for op in ops], files, contents))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    assert builds[0] == builds[1]
    assert len(builds[0][0]) >= 100


def test_refuses_to_run_without_the_sources():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        proc = _bench("--workload", "scan-smooth", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
