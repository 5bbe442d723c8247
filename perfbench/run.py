#!/usr/bin/env python3
"""Seeded benchmark of the triband CLI (scan, eigs, sigma3, verify).

    python3 perfbench/run.py --workload scan-smooth --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  One process drives
``triband.cli.main`` in-process with one thread; ``--seed`` alone decides
the inputs.  A run repeats the workload's fixed list of operations
(a pass) for ``--seconds``, then checks every output outside the timed
region.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` hooks
the public functions, keeps spans in memory, writes them to
.perfbench_out/ and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("scan-smooth", "roots-steps", "verify-far")
# fresh-interpreter set-up probes after every pass, so their median spans
# the whole run; at least SETUP_MIN_SAMPLES in all
SETUP_PER_PASS = 2
SETUP_MIN_SAMPLES = 5
# the per-operation medians behind wall_s need three passes, even where
# that runs past --seconds
MIN_PASSES = 3
# reference kernel bursts (see reference.py) between operations
REFERENCE_EVERY_S = 0.5
REFERENCE_BURST_S = 0.05
# the child reports the moment it is ready on the same system-wide clock
SETUP_CODE = (
    "import sys, time, triband.cli\n"
    "from triband.coeffs import load_coefficients\n"
    "load_coefficients(sys.argv[1])\n"
    "print(time.perf_counter())\n"
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _single_threaded_env() -> None:
    """One thread everywhere; TRIBAND_THREADS unset so its default applies."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("TRIBAND_THREADS", None)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np
    from triband import _linalg

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "complex_dtype": str(_linalg.EXTENDED),
        "TRIBAND_THREADS": os.environ.get("TRIBAND_THREADS", "unset"),
    }


def measure_setup(coeff_path: str) -> float:
    """Wall time of a fresh interpreter importing triband.cli and parsing
    one coefficient file."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, coeff_path], env=env, cwd=ROOT,
                          check=True, stdout=subprocess.PIPE, text=True, timeout=120)
    return float(proc.stdout) - t0


class Runner:
    """Executes operations; module attributes are looked up per call so a
    traced run goes through the hooked functions."""

    def __init__(self, checker) -> None:
        from outputs import OpResult
        from triband import bands, cli

        self._bands = bands
        self._cli = cli
        self._checker = checker
        self._result = OpResult

    def run(self, op):
        """(elapsed nanoseconds, OpResult) of one operation."""
        res = self._result()
        if op.kind == "probe":
            c = self._checker.coeffs(op.coeffs)
            t0 = time.perf_counter_ns()
            try:
                res.value = self._bands.band_point(c, op.lam)
            except Exception as exc:  # an unhandled program error is a failed operation
                res.exc = exc
            return time.perf_counter_ns() - t0, res
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            argv = list(op.argv)
            t0 = time.perf_counter_ns()
            try:
                res.status = self._cli.main(argv)
            except SystemExit as exc:
                res.status = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:
                res.exc = exc
            elapsed = time.perf_counter_ns() - t0
        res.text = out.getvalue()
        return elapsed, res


def _cap_per_kind(ops: list, cap: int) -> list:
    seen: dict[str, int] = {}
    kept = []
    for op in ops:
        seen[op.kind] = seen.get(op.kind, 0) + 1
        if seen[op.kind] <= cap:
            kept.append(op)
    return kept


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 ops_cap: int | None = None) -> dict:
    import numpy as np

    from outputs import KNOWN, KNOWN_DEFECTS, Checker
    from reference import REFERENCE_MS, reference_ms
    from spans import METRICS, Tracer, derive
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workload.build(np.random.default_rng(seed), str(workdir))
        if ops_cap is not None:
            ops = _cap_per_kind(ops, ops_cap)
        checker = Checker()
        for op in ops:
            checker.coeffs(op.coeffs)
        runner = Runner(checker)

        # warm-up: lazy imports and first-call costs stay out of the timing
        for kind in dict.fromkeys(op.kind for op in ops):
            runner.run(next(op for op in ops if op.kind == kind))

        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        first: list = []
        digests: list[str] = []
        mismatched: set[int] = set()
        op_ns: list[int] = []
        op_end: list[float] = []
        passes = 0
        # untraced runs time the reference kernel every REFERENCE_EVERY_S
        ref_t: list[float] = []
        ref_ms: list[float] = []
        setup_t: list[float] = []
        setup_raw: list[float] = []

        def reference_burst() -> None:
            ref_ms.append(reference_ms(REFERENCE_BURST_S))
            ref_t.append(time.perf_counter())

        gc.collect()
        t_start = time.perf_counter()
        if tracer is None:
            reference_burst()
        try:
            while True:
                for i, op in enumerate(ops):
                    if tracer is not None:
                        tracer.op = len(op_ns)
                    elapsed, res = runner.run(op)
                    op_ns.append(elapsed)
                    op_end.append(time.perf_counter())
                    if not passes:
                        first.append(res)
                        digests.append(res.digest())
                    elif res.digest() != digests[i]:
                        mismatched.add(i)
                    if tracer is None and op_end[-1] - ref_t[-1] > REFERENCE_EVERY_S:
                        reference_burst()
                passes += 1
                if tracer is None:
                    for _ in range(SETUP_PER_PASS):
                        setup_raw.append(measure_setup(ops[0].coeffs))
                        setup_t.append(time.perf_counter())
                    reference_burst()
                spent = time.perf_counter() - t_start
                if passes >= MIN_PASSES and spent * (passes + 1) / passes > seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        while tracer is None and len(setup_raw) < SETUP_MIN_SAMPLES:
            setup_raw.append(measure_setup(ops[0].coeffs))
            setup_t.append(time.perf_counter())
            reference_burst()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # checks, outside the timed region; the first two operations of each
        # kind also go through the independent route
        sampled: dict[str, int] = {}
        bad_ops: dict[int, list[str]] = {}
        for i, (op, res) in enumerate(zip(ops, first)):
            sampled[op.kind] = sampled.get(op.kind, 0) + 1
            found = checker.problems(op, res, independent=sampled[op.kind] <= 2)
            if i in mismatched:
                found.append("output differs between passes")
            if found:
                bad_ops[i] = found
        attempted = passes * len(ops)
        failed = passes * len(bad_ops)
        # failures of known program defects count as failed, not as incorrect
        correct = all(m.startswith(KNOWN) for msgs in bad_ops.values() for m in msgs)

        report = {
            "workload": name,
            "why": workload.why,
            "seed": seed,
            "trace": int(trace),
            "environment": environment(),
            "passes": passes,
            "ops_per_pass": len(ops),
            "op_samples": len(op_ns),
            "setup_samples": len(setup_raw),
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "fail_rate": failed / attempted,
            "failures": {f"{i}:{ops[i].kind}": "; ".join(msgs) for i, msgs in bad_ops.items()},
            "known_defects": [probe() for probe in KNOWN_DEFECTS.get(name, ())],
        }
        if tracer is None:
            # each timing is scaled by the kernel time interpolated to its moment
            raw_ns = np.array(op_ns, dtype=float)
            scaled_ns = raw_ns * REFERENCE_MS / np.interp(op_end, ref_t, ref_ms)
            setups = np.array(setup_raw) * REFERENCE_MS / np.interp(setup_t, ref_t, ref_ms)
            metrics = {
                "setup_s": float(np.median(setups)),
                "wall_s": float(np.median(scaled_ns.reshape(passes, -1), axis=0).sum()) / 1e9,
                "op_p50_ms": float(np.percentile(scaled_ns, 50)) / 1e6,
                "op_p90_ms": float(np.percentile(scaled_ns, 90)) / 1e6,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
            report["reference_nominal_ms"] = REFERENCE_MS
            report["unscaled"] = {
                "reference_ms": float(np.median(ref_ms)),
                "setup_s": float(np.median(setup_raw)),
                "wall_s": float(np.median(raw_ns.reshape(passes, -1), axis=0).sum()) / 1e9,
                "op_p50_ms": float(np.percentile(raw_ns, 50)) / 1e6,
                "op_p90_ms": float(np.percentile(raw_ns, 90)) / 1e6,
            }
        else:
            cli_results = [res for op, res in zip(ops, first) if op.kind != "probe"]
            metrics, self_by_op = derive(
                tracer.spans, op_ns, passes, len(cli_results),
                sum(len(res.text.encode()) for res in cli_results),
            )
            units = dict(METRICS)
            unaccounted = sum(abs(w - self_by_op.get(i, 0)) for i, w in enumerate(op_ns))
            report["trace_unaccounted_frac"] = unaccounted / sum(op_ns)
            report["absent_layers"] = tracer.absent
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")
            report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"# workload {report['workload']} seed={report['seed']} trace={report['trace']}")
    print(f"# why: {report['why']}")
    print("# environment " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(f"# samples: {report['passes']} passes x {report['ops_per_pass']} operations "
          f"= {report['op_samples']} operation timings; {report['setup_samples']} set-ups")
    for key, msg in report["failures"].items():
        print(f"# failed operation {key}: {msg}")
    for line in report["known_defects"]:
        print(f"# known defect, outside the counted operations: {line}")
    if "trace_unaccounted_frac" in report:
        missed = report["trace_unaccounted_frac"]
        within = missed <= report["metrics"]["trace.overhead_frac"]["value"]
        print(f"# trace: self times miss {missed:.2e} of operation wall time "
              f"({'within' if within else 'OUTSIDE'} trace.overhead_frac); spans in "
              f"{report['spans_file']}; absent layers: {report['absent_layers'] or 'none'}")
    if "unscaled" in report:
        print(f"# times below are scaled to a reference kernel call of "
              f"{report['reference_nominal_ms']} ms; unscaled: "
              + " ".join(f"{k}={v:.6g}" for k, v in report["unscaled"].items()))
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_rate = {report['fail_rate']:.6g} ratio")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, timed and traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.ops is not None:
                cmd += ["--ops", str(args.ops)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
            status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="keep only the first N operations of each kind (smoke runs)")
    args = parser.parse_args(argv)

    if not (SRC / "triband" / "__init__.py").is_file():
        print(f"error: no triband sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    _single_threaded_env()
    sys.path.insert(0, str(SRC))
    import triband

    if Path(triband.__file__).resolve().parent != SRC / "triband":
        print(f"error: imported triband from {triband.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.ops)
    print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
