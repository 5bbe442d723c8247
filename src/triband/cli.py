"""Command-line front end: scans, eigenvalue tables, multiplicity search, verify.

    triband scan   --p-const 0 --q-const 0 --grid 16 --interval -100,100 --points 201
    triband eigs   --coeffs c.json --k 1.0 --n-range -3..3
    triband sigma3 --p-const 5 --q-const 0 --grid 64 --tol 1e-6
    triband verify --p-const 0 --q-const 0 --grid 16

Output goes to --out (default stdout) as CSV or JSON.  CSV files start
with '# key = value' comment lines echoing the configuration, so a result
file is reproducible from its own header.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, astuple
from typing import Optional, Sequence

from . import __version__
from .bands import BandPoint, scan_real_axis
from .checks import run_verify
from .coeffs import PeriodicCoefficients, load_coefficients
from .discriminant import sigma3_intervals
from .floquet import eigenvalues_at_k
from .util import parse_int_range


def _add_coefficient_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coeffs", metavar="FILE", help="coefficient JSON file")
    p.add_argument("--p-const", type=float, help="constant p value")
    p.add_argument("--q-const", type=float, help="constant q value")
    p.add_argument(
        "--grid", type=int, default=64,
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


def build_parser() -> argparse.ArgumentParser:
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
                        help="grid points in the window (default 201)")
    p_scan.add_argument(
        "--tol", type=float, default=None,
        help="unit-circle tolerance (default 1e-8*(1+|T|))",
    )
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
                       help="scan grid points (default 2001)")
    p_sig.add_argument("--tol", type=float, default=1e-6, help="endpoint tolerance")
    _add_output_args(p_sig)

    p_ver = sub.add_parser("verify", help="run the structural identity suites")
    _add_coefficient_args(p_ver)
    _add_output_args(p_ver)
    return parser


def _coefficients_from(args: argparse.Namespace) -> PeriodicCoefficients:
    has_file = args.coeffs is not None
    has_consts = args.p_const is not None or args.q_const is not None
    if has_file and has_consts:
        raise SystemExit("error: give either --coeffs or --p-const/--q-const, not both")
    if has_file:
        return load_coefficients(args.coeffs)
    if args.p_const is None or args.q_const is None:
        raise SystemExit("error: need --coeffs FILE or both --p-const and --q-const")
    return PeriodicCoefficients.from_constants(args.p_const, args.q_const, args.grid)


def _config_echo(args: argparse.Namespace, c: PeriodicCoefficients) -> dict:
    echo = {"command": args.command, "version": __version__}
    for key in ("coeffs", "p_const", "q_const", "interval", "points", "k",
                "n_range", "tol", "format"):
        if hasattr(args, key.replace("-", "_")):
            value = getattr(args, key.replace("-", "_"))
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


def _render_csv(config: dict, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    for key, value in config.items():
        buf.write(f"# {key} = {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def _render_json(config: dict, payload: dict) -> str:
    return json.dumps({"config": config, **payload}, indent=2) + "\n"


def _finite_or_none(x: Optional[float]) -> Optional[float]:
    """Strict-JSON stand-in: the discriminant saturates to inf near the
    propagation range limit, which json.dumps would emit as bare Infinity."""
    if x is None or math.isfinite(x):
        return x
    return None


def _branch_deltas(pt: BandPoint) -> list[Optional[float]]:
    """Per-branch Lyapunov values; None for branches off the unit circle."""
    deltas: list[Optional[float]] = [None, None, None]
    if pt.lyapunov_branches is not None:
        for j in range(3):
            if pt.branch_on_circle[j]:
                deltas[j] = float(pt.lyapunov_branches[j].real)
    return deltas


def _scan_rows(points: list[BandPoint]) -> list[list]:
    rows = []
    for pt in points:
        deltas = _branch_deltas(pt)
        flags = ";".join(sorted(pt.flags)) if pt.flags else None
        if pt.error is not None:
            flags = "error:" + pt.error.split(";")[0]
        rows.append([pt.lam, pt.rho, pt.multiplicity, *deltas, flags])
    return rows


def _scan_json(points: list[BandPoint]) -> list[dict]:
    out = []
    for pt in points:
        deltas = _branch_deltas(pt)
        out.append(
            {
                "lambda": pt.lam,
                "rho": _finite_or_none(pt.rho),
                "multiplicity": pt.multiplicity,
                "on_circle_count": pt.on_circle_count,
                "delta1": deltas[0],
                "delta2": deltas[1],
                "delta3": deltas[2],
                "lyapunov_real_branches": list(pt.lyapunov_real_branches),
                "flags": sorted(pt.flags),
                "error": pt.error,
            }
        )
    return out


def _cmd_scan(args: argparse.Namespace) -> int:
    c = _coefficients_from(args)
    points = scan_real_axis(c, args.interval, args.points, circle_tol=args.tol)
    config = _config_echo(args, c)
    if args.format == "csv":
        text = _render_csv(
            config,
            ["lambda", "rho", "multiplicity", "delta1", "delta2", "delta3", "flags"],
            _scan_rows(points),
        )
    else:
        text = _render_json(config, {"points": _scan_json(points)})
    _emit(text, args.out)
    n_err = sum(1 for pt in points if pt.error is not None)
    if n_err:
        print(f"warning: {n_err} grid points failed to propagate", file=sys.stderr)
    return 0


def _cmd_eigs(args: argparse.Namespace) -> int:
    c = _coefficients_from(args)
    res = eigenvalues_at_k(c, args.k, args.n_range, tol=args.tol)
    config = _config_echo(args, c)
    if args.format == "csv":
        text = _render_csv(
            config,
            ["n", "k", "lambda_n", "residual", "cube_root_gap", "multiplicity"],
            [astuple(e) for e in res.eigenvalues],
        )
    else:
        payload = {
            "eigenvalues": [asdict(e) for e in res.eigenvalues],
            "missed": [
                {
                    "n": miss.n,
                    "seed_lambda": miss.seed_lambda,
                    "min_abs_f": miss.min_abs_f,
                    "at_lambda": miss.at_lambda,
                    "note": miss.note,
                }
                for miss in res.missed
            ],
        }
        text = _render_json(config, payload)
    _emit(text, args.out)
    if res.missed:
        print(f"warning: {len(res.missed)} seeds produced no bracketed root",
              file=sys.stderr)
    return 0


def _cmd_sigma3(args: argparse.Namespace) -> int:
    c = _coefficients_from(args)
    res = sigma3_intervals(
        c, search_interval=args.interval, scan_points=args.points, tol=args.tol
    )
    config = _config_echo(args, c)
    config["search_interval"] = list(res.search_interval)
    if res.interval_was_default:
        # no rigorous radius exists for this set; make the guess visible
        config["search_interval_note"] = (
            "heuristic window (10+10*kappa)^3 derived from the coefficient norm"
        )
    if args.format == "csv":
        rows: list[list] = [
            ["interval", *astuple(iv)[:4], int(iv.lo_clipped), int(iv.hi_clipped)]
            for iv in res.intervals
        ]
        rows += [["touch", x, x, None, None, 0, 0] for x in res.touch_points]
        text = _render_csv(
            config,
            ["kind", "lo", "hi", "rho_lo", "rho_hi", "lo_clipped", "hi_clipped"],
            rows,
        )
    else:
        payload = {
            "intervals": [asdict(iv) for iv in res.intervals],
            "touch_points": list(res.touch_points),
        }
        text = _render_json(config, payload)
    _emit(text, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    c = _coefficients_from(args)
    results = run_verify(c)
    config = _config_echo(args, c)
    if args.format == "json":
        payload = {
            "checks": [asdict(r) for r in results],
            "all_passed": all(r.passed for r in results),
        }
        _emit(_render_json(config, payload), args.out)
    else:
        lines = [r.line() for r in results]
        n_fail = sum(1 for r in results if not r.passed)
        lines.append(
            f"{len(results) - n_fail}/{len(results)} suites passed"
            + (f", {n_fail} FAILED" if n_fail else "")
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 1


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
    args = build_parser().parse_args(_merge_value_flags(argv))
    try:
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "eigs":
            return _cmd_eigs(args)
        if args.command == "sigma3":
            return _cmd_sigma3(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
