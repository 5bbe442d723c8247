#!/usr/bin/env python3
"""Wall time of whole CLI processes, one per row of commands, for two checkouts.

    python3 tools/cli_wall.py BASE HEAD [--pairs 12]

BASE and HEAD are source checkouts of triband.  Each of the four commands
(scan, eigs, sigma3, verify) runs as a fresh ``python -m triband.cli``
process on the ``sin_c`` fixture of tests/conftest.py (N = 64), with the
small windows of tests/test_golden.py, so start-up is a large part of each
process.  A fifth row, ``scan-large``, scans 201 points over +-1e3 of a
smooth N = 8192 set with no two neighbouring cells equal, where the
period-map core of 8192 runs per point dominates.  A pair runs the
command once on each checkout; the side that runs first alternates from
pair to pair.  The report gives, per row, the median wall time of each
side, HEAD's change against BASE and the number of pairs HEAD won, after the machine (nproc, numpy version) and whether each
checkout holds compiled bytecode under src/triband/__pycache__.

The times are unscaled: run both sides on an otherwise quiet machine.  The
fixture files and the command outputs go to a temporary directory, and the
children run with PYTHONDONTWRITEBYTECODE=1, so nothing is written under
either checkout; a checkout's existing __pycache__ is still read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# row name -> (command, coefficient file, options)
ROWS = {
    "scan": ("scan", "sin_c.json", ["--interval", "-40,40", "--points", "41"]),
    "eigs": ("eigs", "sin_c.json", ["--k", "2.5", "--n-range", "-2..2"]),
    "sigma3": ("sigma3", "sin_c.json", ["--interval", "-2,2", "--points", "41"]),
    "verify": ("verify", "sin_c.json", []),
    # every point is one period map of 8192 distinct runs, so the core dominates
    "scan-large": ("scan", "large.json", ["--interval", "-1000,1000", "--points", "201"]),
}


def _write_sin_c(path: Path) -> None:
    """conftest.py's sin_c: smooth coefficients sampled at 64 cell midpoints."""
    t = (np.arange(64) + 0.5) / 64
    path.write_text(json.dumps({"grid_size": 64, "p": np.sin(2 * np.pi * t).tolist(),
                                "q": (0.5 * np.sin(4 * np.pi * t)).tolist()}))


def _write_large(path: Path) -> None:
    """Three harmonics of p and q at 8192 cell midpoints, with no two neighbouring cells equal."""
    t = (np.arange(8192) + 0.5) / 8192
    p = np.cos(2 * np.pi * t + 0.3) - 0.4 * np.sin(4 * np.pi * t + 1.1) + 0.2 * np.cos(6 * np.pi * t)
    q = 0.8 * np.sin(2 * np.pi * t + 2.0) + 0.3 * np.cos(4 * np.pi * t + 0.7)
    path.write_text(json.dumps({"grid_size": 8192, "p": p.tolist(), "q": q.tolist()}))


def _has_bytecode(root: Path) -> bool:
    return any((root / "src" / "triband" / "__pycache__").glob("*.pyc"))


def _wall(root: Path, argv: list[str], workdir: Path) -> float:
    """Seconds from launch to exit of one CLI process on the checkout at root."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "triband.cli", *argv], env=env, cwd=workdir,
                   check=True, stdout=subprocess.DEVNULL, timeout=600)
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("head", type=Path, help="checkout under test")
    parser.add_argument("--pairs", type=int, default=12, help="runs per side and row")
    args = parser.parse_args(argv)
    roots = {"base": args.base.resolve(), "head": args.head.resolve()}
    for side, root in roots.items():
        if not (root / "src" / "triband" / "cli.py").is_file():
            raise SystemExit(f"error: {side} {root} holds no src/triband/cli.py")
    print(f"nproc {os.cpu_count()}, python {sys.version.split()[0]}, numpy {np.__version__}")
    for side, root in roots.items():
        state = "holds" if _has_bytecode(root) else "holds no"
        print(f"{side} {root} {state} __pycache__")
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        _write_sin_c(workdir / "sin_c.json")
        _write_large(workdir / "large.json")
        print(f"{'command':<11}{'base ms':>10}{'head ms':>10}{'change':>9}  head faster")
        for row, (command, coeffs, options) in ROWS.items():
            cli_argv = [command, "--coeffs", coeffs, *options, "--out", "out.txt"]
            walls: dict[str, list[float]] = {"base": [], "head": []}
            for i in range(args.pairs):
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    walls[side].append(_wall(roots[side], cli_argv, workdir))
            base_ms, head_ms = (1e3 * statistics.median(walls[s]) for s in ("base", "head"))
            wins = sum(h < b for b, h in zip(walls["base"], walls["head"]))
            results[row] = {"base_ms": round(base_ms, 1), "head_ms": round(head_ms, 1),
                            "head_wins": wins, "pairs": args.pairs}
            print(f"{row:<11}{base_ms:>10.1f}{head_ms:>10.1f}"
                  f"{head_ms / base_ms - 1:>+9.1%}  {wins} of {args.pairs}")
    print(json.dumps({"nproc": os.cpu_count(), "numpy": np.__version__,
                      "base_pycache": _has_bytecode(roots["base"]),
                      "head_pycache": _has_bytecode(roots["head"]), "commands": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
