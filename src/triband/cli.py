"""Command-line front end: scans, eigenvalue tables, multiplicity search, verify.

    triband scan   --p-const 0 --q-const 0 --grid 16 --interval -100,100 --points 201
    triband eigs   --coeffs c.json --k 1.0 --n-range -3..3
    triband sigma3 --p-const 5 --q-const 0 --grid 64 --tol 1e-6
    triband verify --p-const 0 --q-const 0 --grid 16

Output goes to --out (default stdout) as CSV or JSON.  CSV files start
with '# key = value' comment lines echoing the configuration, so a result
file is reproducible from its own header.

Each command imports its modules when it runs, and the coefficient parser
when it reads its coefficients, so importing this module loads neither
them nor numpy, and --version, -h and usage errors run without them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .util import MAX_GRID_POINTS, parse_int_range

if TYPE_CHECKING:
    from .bands import BandPoint
    from .coeffs import PeriodicCoefficients


def _add_coefficient_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coeffs", metavar="FILE", help="coefficient JSON file")
    p.add_argument("--p-const", type=float, help="constant p value")
    p.add_argument("--q-const", type=float, help="constant q value")
    p.add_argument(
        "--grid", type=int,
        help="coefficient grid size for --p-const/--q-const (default 64)",
    )


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected A,B got {text!r}")
    a, b = float(parts[0]), float(parts[1])
    if not a < b:
        raise argparse.ArgumentTypeError(f"interval must satisfy A < B, got {text!r}")
    return a, b


def _parse_n_range(text: str) -> tuple[int, int]:
    try:
        return parse_int_range(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser and one per command (5 parsers, about 1.2 ms), built on the first call
    and then shared: parse_args leaves them unchanged and no default is mutable.  They are
    not built at import, which would charge every importer, the library's included."""
    parser = argparse.ArgumentParser(
        prog="triband",
        description="Floquet spectral data of a third-order periodic operator",
    )
    parser.add_argument("--version", action="version", version=f"triband {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="band-structure table on a real grid")
    _add_coefficient_args(p_scan)
    p_scan.add_argument("--interval", type=_parse_interval, required=True,
                        metavar="A,B", help="real scan window")
    p_scan.add_argument("--points", type=int, default=201,
                        help=f"grid points in the window (default 201, at most {MAX_GRID_POINTS})")
    _add_output_args(p_scan)

    p_eigs = sub.add_parser("eigs", help="eigenvalue table at one quasimomentum")
    _add_coefficient_args(p_eigs)
    p_eigs.add_argument("--k", type=float, required=True, help="quasimomentum in [0, 2pi)")
    p_eigs.add_argument("--n-range", type=_parse_n_range, required=True, metavar="A..B")
    p_eigs.add_argument("--tol", type=float, default=1e-10, help="relative root tolerance")
    _add_output_args(p_eigs)

    p_sig = sub.add_parser("sigma3", help="locate the multiplicity-3 set")
    _add_coefficient_args(p_sig)
    p_sig.add_argument(
        "--interval", type=_parse_interval, default=None, metavar="A,B",
        help="search interval (default: heuristic window from the coefficient norm)",
    )
    p_sig.add_argument("--points", type=int, default=2001,
                       help=f"scan grid points (default 2001, at most {MAX_GRID_POINTS})")
    p_sig.add_argument("--tol", type=float, default=1e-6, help="endpoint tolerance")
    _add_output_args(p_sig)

    p_ver = sub.add_parser("verify", help="run the structural identity suites")
    _add_coefficient_args(p_ver)
    _add_output_args(p_ver)
    return parser, dict(sub.choices)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv as the root parser reads it: a command's parser reads its arguments alone, and
    the root parser takes any other argv (--version, -h, a typo, leftover arguments)."""
    root, commands = build_parsers()
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(
            command=argv[0]))
        if not extra:
            return args
    return root.parse_args(argv)


def _coefficients_from(args: argparse.Namespace) -> PeriodicCoefficients:
    from .coeffs import PeriodicCoefficients, load_coefficients

    has_file = args.coeffs is not None
    has_consts = args.p_const is not None or args.q_const is not None
    if has_file and has_consts:
        raise SystemExit("error: give either --coeffs or --p-const/--q-const, not both")
    if has_file and args.grid is not None:
        raise SystemExit(
            "error: give --grid only with --p-const/--q-const; a --coeffs file sets its own")
    if has_file:
        return load_coefficients(args.coeffs)
    if args.p_const is None or args.q_const is None:
        raise SystemExit("error: need --coeffs FILE or both --p-const and --q-const")
    grid = 64 if args.grid is None else args.grid
    return PeriodicCoefficients.from_constants(args.p_const, args.q_const, grid)


def _config_echo(args: argparse.Namespace, c: PeriodicCoefficients) -> dict:
    echo = {"command": args.command, "version": __version__}
    for key in ("coeffs", "p_const", "q_const", "interval", "points", "k",
                "n_range", "tol", "format"):
        value = getattr(args, key, None)
        if value is not None:
            echo[key] = list(value) if isinstance(value, tuple) else value
    echo["grid_size"] = c.grid_size
    echo["kappa"] = c.kappa
    return echo


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _render(args: argparse.Namespace, config: dict, header: Sequence[str],
            rows: Sequence[Sequence], payload: dict) -> None:
    """Write one result to --out or stdout in the format args asks for.

    CSV is the config as '# key = value' lines, then header and rows, with
    None as an empty cell; JSON is one object of the config and payload.
    Every command but verify's text report writes through here.
    """
    if args.format == "json":
        text = json.dumps({"config": config, **payload}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        for key, value in config.items():
            buf.write(f"# {key} = {value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
        text = buf.getvalue()
    _emit(text, args.out)


def _scan_point(pt: BandPoint) -> tuple[list, dict]:
    """The CSV row and the JSON object of one scan point; None for a branch off the circle."""
    deltas: list[Optional[float]] = [None, None, None]
    if pt.lyapunov_branches is not None:
        deltas = [float(d.real) if on else None
                  for d, on in zip(pt.lyapunov_branches, pt.branch_on_circle)]
    flags = sorted(pt.flags)
    cell = "error:" + pt.error.split(";")[0] if pt.error is not None else ";".join(flags) or None
    row = [pt.lam, pt.rho, pt.multiplicity, *deltas, cell]
    obj = {
        "lambda": pt.lam,
        # strict JSON: rho saturates to inf near the propagation range limit,
        # which json.dumps would emit as bare Infinity
        "rho": pt.rho if pt.rho is None or math.isfinite(pt.rho) else None,
        "multiplicity": pt.multiplicity,
        "on_circle_count": pt.on_circle_count,
        "delta1": deltas[0],
        "delta2": deltas[1],
        "delta3": deltas[2],
        "lyapunov_real_branches": list(pt.lyapunov_real_branches),
        "flags": flags,
        "error": pt.error,
    }
    return row, obj


def _cmd_scan(args: argparse.Namespace, c: PeriodicCoefficients, config: dict) -> int:
    from .bands import scan_real_axis

    points = scan_real_axis(c, args.interval, args.points)
    table = [_scan_point(pt) for pt in points]
    _render(
        args, config,
        ["lambda", "rho", "multiplicity", "delta1", "delta2", "delta3", "flags"],
        [row for row, _ in table],
        {"points": [obj for _, obj in table]},
    )
    n_err = sum(1 for pt in points if pt.error is not None)
    if n_err:
        print(f"warning: {n_err} grid points failed to propagate", file=sys.stderr)
    return 0


def _cmd_eigs(args: argparse.Namespace, c: PeriodicCoefficients, config: dict) -> int:
    from .floquet import eigenvalues_at_k

    res = eigenvalues_at_k(c, args.k, args.n_range, tol=args.tol)
    records = [vars(e) for e in res.eigenvalues]
    _render(
        args, config,
        ["n", "k", "lambda_n", "residual", "cube_root_gap", "multiplicity"],
        [list(e.values()) for e in records],
        {
            "eigenvalues": records,
            "missed": [vars(miss) for miss in res.missed],
        },
    )
    if res.missed:
        print(f"warning: {len(res.missed)} seeds produced no bracketed root",
              file=sys.stderr)
    return 0


def _cmd_sigma3(args: argparse.Namespace, c: PeriodicCoefficients, config: dict) -> int:
    from .discriminant import default_search_interval, sigma3_intervals
    from .monodromy import PropagationOverflowError

    try:
        res = sigma3_intervals(
            c, search_interval=args.interval, scan_points=args.points, tol=args.tol
        )
    except PropagationOverflowError as refusal:
        if args.interval is not None:
            raise
        # the guard grows with |lambda|: it refused an end of the default window,
        # a lambda the user never gave
        r = default_search_interval(c)[1]
        raise ValueError(f"{refusal}; the default window -+(10 + 10 kappa)^3 = -+{r:.3e} "
                         "reaches past the growth guard: give --interval") from None
    config["search_interval"] = list(res.search_interval)
    if args.interval is None:
        # no rigorous radius exists for this set; make the guess visible
        config["search_interval_note"] = (
            "heuristic window (10+10*kappa)^3 derived from the coefficient norm"
        )
    rows: list[list] = [
        ["interval", iv.lo, iv.hi, iv.rho_lo, iv.rho_hi, int(iv.lo_clipped), int(iv.hi_clipped)]
        for iv in res.intervals
    ]
    rows += [["touch", x, x, None, None, 0, 0] for x in res.touch_points]
    _render(
        args, config,
        ["kind", "lo", "hi", "rho_lo", "rho_hi", "lo_clipped", "hi_clipped"],
        rows,
        {"intervals": [vars(iv) for iv in res.intervals],
         "touch_points": list(res.touch_points)},
    )
    return 0


def _cmd_verify(args: argparse.Namespace, c: PeriodicCoefficients, config: dict) -> int:
    from .checks import run_verify

    results = run_verify(c)
    n_fail = sum(1 for r in results if not r.passed)
    if args.format == "json":
        payload = {"checks": [vars(r) for r in results], "all_passed": not n_fail}
        _render(args, config, (), (), payload)
    else:
        lines = [r.line() for r in results]
        lines.append(
            f"{len(results) - n_fail}/{len(results)} suites passed"
            + (f", {n_fail} FAILED" if n_fail else "")
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if n_fail else 0


def _merge_value_flags(argv: Sequence[str]) -> list[str]:
    """Join '--interval -100,100' into '--interval=-100,100'.

    argparse mistakes a leading minus for an option; merging the token
    pairs lets both spellings work.
    """
    merged: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--interval", "--n-range") and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(_merge_value_flags(argv))
    from .monodromy import PicardTruncationError, PropagationOverflowError

    command = {"scan": _cmd_scan, "eigs": _cmd_eigs, "sigma3": _cmd_sigma3, "verify": _cmd_verify}
    try:
        c = _coefficients_from(args)
        return command[args.command](args, c, _config_echo(args, c))
    except (OSError, ValueError, PropagationOverflowError, PicardTruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's refused allocations included
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
