#!/usr/bin/env python3
"""One sha256 over the outputs of every benchmark workload operation.

    python3 tools/hash_workload_ops.py ROOT WORKDIR [--seeds 41 7]

ROOT is a source checkout of triband: the package is imported from
ROOT/src and the operations are built by ROOT/perfbench/workloads.py,
which is only imported.  Each operation runs once, in this process, as the
benchmark runs it: a CLI command through ``triband.cli.main`` or a
``band_point`` probe.  The digest covers, per operation, its kind, argv and
probe λ, the exit status, standard output and standard error of a command,
the repr of a probe's ``BandPoint``, and the type and text of any
exception.  The CLI echoes the coefficient file paths into its output, so
the files are written into WORKDIR; hash two checkouts with the same
WORKDIR to compare them.  Equal counts and digests mean byte-identical
output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path


def _load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _outcome(op, cli, bands, load_coefficients) -> str:
    """The text the digest takes for one operation."""
    if op.kind == "probe":
        try:
            return repr(bands.band_point(load_coefficients(op.coeffs), op.lam))
        except Exception as exc:
            return f"exception {type(exc).__name__}: {exc}"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(op.argv))
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:
            status = f"exception {type(exc).__name__}: {exc}"
    return f"status {status}\nstdout\n{out.getvalue()}stderr\n{err.getvalue()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="source checkout to hash")
    parser.add_argument("workdir", type=Path, help="fixed directory for the coefficient files")
    parser.add_argument("--seeds", type=int, nargs="+", default=[41, 7])
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import triband
    from triband import bands, cli
    from triband.coeffs import load_coefficients

    if root / "src" not in Path(triband.__file__).resolve().parents:
        raise SystemExit(f"triband imported from {triband.__file__}, not from {root / 'src'}")
    workloads = _load_workloads(root)
    total, total_count = hashlib.sha256(), 0
    for seed in args.seeds:
        digest, count = hashlib.sha256(), 0
        for name, workload in workloads.WORKLOADS.items():
            workdir = args.workdir / f"{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            for op in workload.build(np.random.default_rng(seed), str(workdir)):
                text = _outcome(op, cli, bands, load_coefficients)
                record = f"{op.kind} {op.argv!r} {op.lam!r}\n{text}\n".encode()
                digest.update(record)
                total.update(record)
                count += 1
        total_count += count
        print(f"seed {seed}: {count} operations, sha256 {digest.hexdigest()}")
    print(f"all seeds: {total_count} operations, sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
