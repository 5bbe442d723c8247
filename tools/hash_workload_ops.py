#!/usr/bin/env python3
"""One sha256 over the outputs of every benchmark workload operation, and one per kind.

    python3 tools/hash_workload_ops.py ROOT WORKDIR [--seeds 41 7]

ROOT is a source checkout of triband: the package is imported from
ROOT/src and the operations are built by ROOT/perfbench/workloads.py,
which is only imported.  Each operation runs once, in this process, as the
benchmark runs it: a CLI command through ``triband.cli.main`` or a
``band_point`` probe.  The digest covers, per operation, its kind, argv and
probe λ, the exit status, standard output and standard error of a command,
the repr of a probe's ``BandPoint``, and the type and text of any
exception.  A probe's flags are digested in sorted order: a frozenset's
repr follows PYTHONHASHSEED once it holds two flags.  Each seed's line is
followed by one digest per operation kind (scan, eigs, sigma3, verify,
probe) over the same records, so a change confined to one command shows
as the other kinds' digests held, and by a verify-masked digest: the
verify records with every ``worst`` number masked, so a change that moves
only the roundoff residuals verify reports shows every other byte held, and
by an eigs-masked digest: the eigs records with every ``lambda_n``,
``residual`` and ``cube_root_gap`` masked, so a change that moves roots
within tol shows n, k, multiplicity and every missed-root record held.
Each such digest line is followed by a line with the period-map core calls
and points its operations made, counted by wrappers that this tool puts on
``monodromy.period_maps`` and ``checks.period_maps``; those lines differ
between checkouts that map different points, the digest lines do not.
The verify-masked lines are followed by a ``verify worst`` line with an
8-hex digest of each suite's worst numbers, which names the suites whose
residuals moved.

The workload scans have 2-3 points and its eigs short index ranges, so a
second digest covers dense CLI tables: 2001-point scans through lambda = 0
and the triple set on the conftest fixtures, ROOT/tests/golden/steps.json
and a constant set with kappa = 1e-16 (weak_c, where verify's perturbation
caps fall below roundoff), each fixture's eigs at k = 1 over n in -40..40,
its sigma3 in its default window, and its verify, in CSV and JSON; it too
is split per command (scan, eigs, sigma3, verify), with the verify-masked
digest and its ``verify worst`` line and the eigs-masked digest, and with
the core calls and points of each.

verify counts roots only at N = 5 and two k, and its report keeps only the
counts, so a ``root counts`` digest covers the library's ``count_in_disk``
on the dense fixtures at five k and N = 2, 5 and 8: each result's count,
expected count and radius and each missed seed's record, followed by the
core calls and points behind them.

A ``strong constant set`` digest covers verify at p = 8, q = 0.5 and eigs
there at k = 1 over n in -3..3, whose root of seed 0, -14.5, lies 3.44
below its bare seed in s: it shows whether every seed is still searched
from its corrected seed.  It is a line of its own, so the lines before it
compare with checkouts that lack it.

The CLI prints values rounded to complex128, so a kernel change that moves
only the last bits of an extended-precision period map passes both
digests unseen.  A last line digests the maps themselves: ``period_maps``
in its default dtype on the dense fixtures and harmonic sets at N = 1024,
1500 and 8192 (one point per stack; the last two cut into chunks of runs,
1500 with a partial last chunk and 8192 into 16 chunks), over real lambda through 0 and out to 1e7, complex pairs with their
conjugates, and points just inside each set's growth guard.  Each real and
imaginary part is hashed as its shortest round-trip text, not as bytes:
an x87 long double carries padding bytes that hold no value.

The CLI echoes the coefficient file paths into its output, so the files
are written into WORKDIR; hash two checkouts with the same WORKDIR to
compare them.  Equal counts and digests mean byte-identical output.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import re
import sys
from pathlib import Path

import numpy as np


def _load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# the conftest fixtures by their CLI coefficients, the golden step set and a weak set;
# each with 2001-point scan windows through lambda = 0, across the triple
# set, and 2e-5 wide at one of its ends, where rows are flagged
_DENSE_FIXTURES = {
    "zero_c": (["--p-const", "0", "--q-const", "0", "--grid", "4"],
               ["-1000,1000", "-2,2", "-0.001,0.001"]),
    "const_c": (["--p-const", "1", "--q-const", "-0.5", "--grid", "64"],
                ["-60,60", "-3,2", "-1.58867,-1.58865"]),
    "small_c": (["--p-const", "0.5", "--q-const", "0.3", "--grid", "64"],
                ["-60,60", "-1,1", "0.68489,0.68491"]),
    "sin_c": (["--coeffs", "sin_c.json"], ["-60,60", "-0.01,0.01", "0.000537,0.000557"]),
    "steps": (["--coeffs", "steps.json"], ["-200,200", "-20,20", "11.31170,11.31172"]),
    # kappa = 1e-16: the perturbation caps of verify's growth-bounds suite sit below roundoff
    "weak_c": (["--p-const", "1e-16", "--q-const", "0", "--grid", "64"],
               ["-1000,1000", "-2,2", "-0.001,0.001"]),
}


# lambdas of the period-map digest: real points through 0 and out to 1e7, and complex
# points with their conjugates; each set adds points just inside its growth guard
_MAP_LAMBDAS = [
    *(float(x) for x in range(-1000, 1001, 100)),
    *(s * 10.0**e for e in range(-3, 8) for s in (1, -1)),
    *(z for w in (3 + 4j, -200 + 50j, 1e4 + 1e4j, -3e6 + 2e5j) for z in (w, w.conjugate())),
]


# quasimomenta and disk indices of the root-count digest: both cases of the expected
# count, k = pi/2 on their boundary, and disks from 2 to 8 seeds out
_COUNT_KS = (0.0, 0.3, np.pi / 2, 2.0, 5.5)
_COUNT_NS = (2, 5, 8)


# verify and eigs on the strong constant set p = 8, q = 0.5
_STRONG_ARGVS = [["verify", "--p-const", "8", "--q-const", "0.5"],
                 ["eigs", "--p-const", "8", "--q-const", "0.5", "--k", "1.0", "--n-range", "-3..3"]]


# the number after "worst " in verify's text report or after "worst": in its JSON
_WORST = re.compile(rb'(worst"?:? )[^ ,\n]+')
# a suite's name and its worst number, in verify's text report or in its JSON
_SUITE_WORST = re.compile(rb'^(?:PASS|FAIL)  ([a-z-]+): worst (\S+)'
                          rb'|"name": "([a-z-]+)",\s+"passed": \w+,\s+"worst": ([^,\s]+)', re.M)


# the root columns of an eigs record: its JSON fields, and the three middle
# columns of its CSV rows n,k,lambda_n,residual,cube_root_gap,multiplicity
_ROOT_FIELDS = re.compile(rb'("(?:lambda_n|residual|cube_root_gap)": )[^,\s]+')
_ROOT_COLUMNS = re.compile(rb'^(-?\d+,[^,\n]+,)[^,\n]+,[^,\n]+,[^,\n]+(,\d+)$', re.M)


def _masked(record: bytes) -> bytes:
    """A verify record with its worst numbers replaced by '#'."""
    return _WORST.sub(rb"\1#", record)


def _roots_masked(record: bytes) -> bytes:
    """An eigs record with each root's lambda_n, residual and cube_root_gap replaced by '#'."""
    return _ROOT_COLUMNS.sub(rb"\1#,#,#\2", _ROOT_FIELDS.sub(rb"\1#", record))


class _SortedFlags(frozenset):
    """A frozenset whose repr lists its items sorted."""

    def __repr__(self) -> str:
        return f"frozenset({{{', '.join(map(repr, sorted(self)))}}})" if self else "frozenset()"


class _Digests:
    """One running sha256, record count and core-call count per key, in first-seen order."""

    def __init__(self) -> None:
        self.digests: dict[str, "hashlib._Hash"] = {}
        self.counts: collections.Counter[str] = collections.Counter()
        self.calls: collections.Counter[str] = collections.Counter()
        self.points: collections.Counter[str] = collections.Counter()
        self.suites: dict[bytes, "hashlib._Hash"] = {}  # per verify suite, its worst numbers

    def update(self, key: str, record: bytes, core: tuple[int, int]) -> None:
        """Take one record and the (core calls, points) made for it; a verify record also
        under "verify-masked", with its worst numbers masked, and per suite, those alone;
        an eigs record also under "eigs-masked", with its root columns masked."""
        self.digests.setdefault(key, hashlib.sha256()).update(record)
        self.counts[key] += 1
        self.calls[key] += core[0]
        self.points[key] += core[1]
        if key == "verify":
            self.update("verify-masked", _masked(record), core)
            for match in _SUITE_WORST.finditer(record):
                self.suites.setdefault(match[1] or match[3], hashlib.sha256()).update(
                    (match[2] or match[4]) + b"\n")
        elif key == "eigs":
            self.update("eigs-masked", _roots_masked(record), core)

    def report(self, prefix: str, noun: str) -> None:
        for key, digest in self.digests.items():
            print(f"{prefix} {key}: {self.counts[key]} {noun}, sha256 {digest.hexdigest()}")
            print(f"{prefix} {key} calls: {self.calls[key]} core calls, "
                  f"{self.points[key]} points")
            if key == "verify-masked":
                print(f"{prefix} verify worst: " + ", ".join(
                    f"{name.decode()} {digest.hexdigest()[:8]}"
                    for name, digest in self.suites.items()))


class _CoreCounter:
    """Core calls and points so far, through the wrappers of count()."""

    def __init__(self) -> None:
        self.calls = self.points = 0

    def count(self, core):
        """core, counting each call and its points."""
        def period_maps(c, lams, *args, **kwargs):
            self.calls += 1
            self.points += len(lams)
            return core(c, lams, *args, **kwargs)

        return period_maps

    def since(self, start: tuple[int, int]) -> tuple[int, int]:
        """(calls, points) made after the snapshot start."""
        return self.calls - start[0], self.points - start[1]


def _dense_argvs(root: Path, workdir: Path) -> list[list[str]]:
    """The dense-table commands, their coefficient files copied into workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for coeffs, windows in _DENSE_FIXTURES.values():
        if coeffs[0] == "--coeffs":
            path = workdir / coeffs[1]
            path.write_bytes((root / "tests" / "golden" / coeffs[1]).read_bytes())
            coeffs = ["--coeffs", str(path)]
        commands = [["scan", *coeffs, "--interval", w, "--points", "2001"] for w in windows]
        commands += [["eigs", *coeffs, "--k", "1.0", "--n-range", "-40..40"],
                     ["sigma3", *coeffs], ["verify", *coeffs]]
        argvs += [[*cmd, "--format", fmt] for cmd in commands for fmt in ("csv", "json")]
    return argvs


def _cli_text(cli, argv: list[str]) -> str:
    """Exit status, standard output and standard error of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:
            status = f"exception {type(exc).__name__}: {exc}"
    return f"status {status}\nstdout\n{out.getvalue()}stderr\n{err.getvalue()}"


def _outcome(op, cli, bands, load_coefficients) -> str:
    """The text the digest takes for one operation."""
    if op.kind == "probe":
        try:
            pt = bands.band_point(load_coefficients(op.coeffs), op.lam)
            return repr(dataclasses.replace(pt, flags=_SortedFlags(pt.flags)))
        except Exception as exc:
            return f"exception {type(exc).__name__}: {exc}"
    return _cli_text(cli, list(op.argv))


def _map_sets(root: Path, workloads, coeffs):
    """The dense fixtures' coefficient sets by name, and harmonic sets at N = 1024, 1500, 8192."""
    sets = {}
    for name, (args, _) in _DENSE_FIXTURES.items():
        opts = dict(zip(args[::2], args[1::2]))
        if "--coeffs" in opts:
            sets[name] = coeffs.load_coefficients(root / "tests" / "golden" / opts["--coeffs"])
        else:
            sets[name] = coeffs.PeriodicCoefficients.from_constants(
                float(opts["--p-const"]), float(opts["--q-const"]), int(opts["--grid"]))
    for n in (1024, 1500, 8192):
        sets[f"harmonic{n}"] = coeffs.PeriodicCoefficients.from_samples(
            *workloads.harmonic(np.random.default_rng(n), n, 1.0))
    return sets


def _root_count_record(floquet, c, k: float, N: int) -> str:
    """The text the root-count digest takes for one count_in_disk call."""
    try:
        res = floquet.count_in_disk(c, k, N)
    except Exception as exc:
        return f"exception {type(exc).__name__}: {exc}"
    missed = (f"missed {m.n} {m.seed_lambda!r} {m.min_abs_f!r} {m.at_lambda!r} {m.note}"
              for m in res.missed)
    return "\n".join([f"{res.count} {res.expected} {res.radius!r}", *missed])


def _period_map_digest(sets, monodromy) -> tuple[int, str]:
    """Count and sha256 of the period maps over _MAP_LAMBDAS and the guard points of each set."""
    digest, count = hashlib.sha256(), 0
    for name, c in sets.items():
        r = ((monodromy.MAX_GROWTH_EXPONENT - c.kappa) * (1 - 1e-6)) ** 3
        lams = [*_MAP_LAMBDAS, r, -r, r * (0.6 + 0.8j), r * (0.6 - 0.8j)]
        for lam, M in zip(lams, monodromy.period_maps(c, lams)):
            parts = (np.format_float_scientific(x, unique=True)
                     for z in M.ravel() for x in (z.real, z.imag))
            digest.update(f"{name} {lam!r} {' '.join(parts)}\n".encode())
            count += 1
    return count, digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="source checkout to hash")
    parser.add_argument("workdir", type=Path, help="fixed directory for the coefficient files")
    parser.add_argument("--seeds", type=int, nargs="+", default=[41, 7])
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import triband
    from triband import bands, checks, cli, coeffs, floquet, monodromy
    from triband.coeffs import load_coefficients

    if root / "src" not in Path(triband.__file__).resolve().parents:
        raise SystemExit(f"triband imported from {triband.__file__}, not from {root / 'src'}")
    workloads = _load_workloads(root)
    map_sets = _map_sets(root, workloads, coeffs)
    core = _CoreCounter()
    monodromy.period_maps = core.count(monodromy.period_maps)
    checks.period_maps = core.count(checks.period_maps)
    total, total_count = hashlib.sha256(), 0
    for seed in args.seeds:
        digest, count, kinds = hashlib.sha256(), 0, _Digests()
        for name, workload in workloads.WORKLOADS.items():
            workdir = args.workdir / f"{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            for op in workload.build(np.random.default_rng(seed), str(workdir)):
                start = core.calls, core.points
                text = _outcome(op, cli, bands, load_coefficients)
                made = core.since(start)
                record = f"{op.kind} {op.argv!r} {op.lam!r}\n{text}\n".encode()
                digest.update(record)
                total.update(record)
                kinds.update(op.kind, record, made)
                count += 1
        total_count += count
        print(f"seed {seed}: {count} operations, sha256 {digest.hexdigest()}")
        kinds.report(f"seed {seed}", "operations")
    print(f"all seeds: {total_count} operations, sha256 {total.hexdigest()}")
    dense, argvs, commands = hashlib.sha256(), _dense_argvs(root, args.workdir / "dense"), _Digests()
    for argv in argvs:
        start = core.calls, core.points
        record = f"{argv!r}\n{_cli_text(cli, argv)}\n".encode()
        made = core.since(start)
        dense.update(record)
        commands.update(argv[0], record, made)
    print(f"dense tables: {len(argvs)} commands, sha256 {dense.hexdigest()}")
    commands.report("dense tables", "commands")
    counts = _Digests()
    for name, k, N in itertools.product(_DENSE_FIXTURES, _COUNT_KS, _COUNT_NS):
        start = core.calls, core.points
        text = _root_count_record(floquet, map_sets[name], k, N)
        counts.update("counts", f"{name} {k!r} {N}\n{text}\n".encode(), core.since(start))
    counts.report("root", "calls")
    strong = _Digests()
    for argv in _STRONG_ARGVS:
        start = core.calls, core.points
        strong.update("set", f"{argv!r}\n{_cli_text(cli, argv)}\n".encode(), core.since(start))
    strong.report("strong constant", "commands")
    maps, map_digest = _period_map_digest(map_sets, monodromy)
    print(f"period maps: {len(map_sets)} sets, {maps} maps, sha256 {map_digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
