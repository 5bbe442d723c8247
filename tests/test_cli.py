import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from triband import __version__, checks, cli, floquet
from triband.checks import CheckResult
from triband.cli import build_parsers, main
from triband.util import MAX_GRID_POINTS

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments = [ln for ln in text.splitlines() if ln.startswith("# ")]
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("# "))
    rows = list(csv.reader(io.StringIO(body)))
    return comments, rows[0], rows[1:]


def test_scan_free_case(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--p-const", "0", "--q-const", "0", "--grid", "4",
        "--interval", "-100,100", "--points", "201",
    )
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["lambda", "rho", "multiplicity", "delta1", "delta2", "delta3", "flags"]
    assert len(rows) == 201
    assert any("command = scan" in ln for ln in comments)
    # multiplicity 1 everywhere except the flagged branch point at 0
    assert all(r[2] == "1" for r in rows if float(r[0]) != 0.0)
    at_zero = next(r for r in rows if float(r[0]) == 0.0)
    assert "near-branch-point" in at_zero[6]


def test_scan_blank_deltas_for_nonreal_branches(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--p-const", "0", "--q-const", "0", "--grid", "4",
        "--interval", "10,100", "--points", "5",
    )
    _, header, rows = parse_csv(out)
    for row in rows:
        filled = [row[i] for i in (3, 4, 5) if row[i] != ""]
        assert len(filled) == 1  # exactly one real branch off the triple set
        lam = float(row[0])
        assert float(filled[0]) == pytest.approx(math.cos(lam ** (1 / 3)), abs=1e-8)


def test_scan_json_mirrors_fields(capsys, tmp_path):
    out_path = tmp_path / "scan.json"
    code, _, _ = run_cli(
        capsys, "scan", "--p-const", "0", "--q-const", "0", "--grid", "4",
        "--interval", "1,50", "--points", "5", "--format", "json",
        "--out", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["config"]["command"] == "scan"
    assert len(data["points"]) == 5
    pt = data["points"][0]
    for key in ("lambda", "rho", "multiplicity", "on_circle_count",
                "lyapunov_real_branches", "flags", "delta2"):
        assert key in pt
    # null for the branches off the unit circle
    assert sum(pt[f"delta{j}"] is None for j in (1, 2, 3)) == 2


def test_eigs_free_case(capsys):
    code, out, _ = run_cli(
        capsys, "eigs", "--p-const", "0", "--q-const", "0", "--grid", "4",
        "--k", "1.0", "--n-range", "-3..3",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["n", "k", "lambda_n", "residual", "cube_root_gap", "multiplicity"]
    assert len(rows) == 7
    for row in rows:
        n = int(row[0])
        expected = (2 * math.pi * n + 1.0) ** 3
        assert float(row[2]) == pytest.approx(expected, rel=1e-8, abs=1e-8)


def test_eigs_json(capsys):
    code, out, _ = run_cli(
        capsys, "eigs", "--p-const", "0.5", "--q-const", "0.3", "--grid", "32",
        "--k", "2.0", "--n-range", "0..2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert [e["n"] for e in data["eigenvalues"]] == [0, 1, 2]
    assert data["missed"] == []


def test_eigs_reports_missed_seeds(capsys):
    """The n = 0 seed of the golden step set at k = 2 has no sign change."""
    steps = Path(__file__).resolve().parent / "golden" / "steps.json"
    argv = ["eigs", "--coeffs", str(steps), "--k", "2.0", "--n-range", "-4..4"]
    for fmt in ("csv", "json"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        assert err == "warning: 1 seeds produced no bracketed root\n"
    [miss] = json.loads(out)["missed"]
    assert list(miss) == ["n", "seed_lambda", "min_abs_f", "at_lambda", "note"]
    assert miss["n"] == 0


def test_sigma3_reports_heuristic_window(capsys):
    code, out, _ = run_cli(
        capsys, "sigma3", "--p-const", "0", "--q-const", "0", "--grid", "2",
        "--points", "101", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert "heuristic" in data["config"]["search_interval_note"]
    assert data["intervals"] == []


def test_sigma3_csv_interval(capsys):
    code, out, _ = run_cli(
        capsys, "sigma3", "--p-const", "5", "--q-const", "0", "--grid", "32",
        "--interval", "-50,50", "--points", "501", "--tol", "1e-6",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[:3] == ["kind", "lo", "hi"]
    intervals = [r for r in rows if r[0] == "interval"]
    assert len(intervals) >= 1
    lo, hi = float(intervals[0][1]), float(intervals[0][2])
    assert lo < 0 < hi


def test_verify_passes_on_zero_coefficients(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p-const", "0", "--q-const", "0", "--grid", "4"
    )
    assert code == 0
    assert "FAIL" not in out
    assert "determinant-identity" in out
    assert "series-vs-steps" in out
    assert "root-counting" in out


def test_verify_passes_at_kappa_1e_300_on_one_cell(capsys):
    """The growth-bounds caps keep their roundoff allowance as kappa -> 0: exit 0."""
    code, out, _ = run_cli(capsys, "verify", "--p-const", "1e-300", "--q-const", "0",
                           "--grid", "1")
    assert code == 0
    assert "FAIL" not in out and "PASS  growth-bounds" in out


def test_verify_json_structure(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p-const", "0", "--q-const", "0", "--grid", "4",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert {c["name"] for c in data["checks"]} >= {
        "determinant-identity",
        "symplectic-identity",
        "discriminant-consistency",
        "growth-bounds",
        "series-vs-steps",
        "free-case-trace",
        "root-counting",
    }


def test_verify_reports_a_failed_suite(capsys, monkeypatch):
    results = [
        CheckResult("first", True, 1e-20, 1e-16),
        CheckResult("second", False, 0.5, 1e-8, detail="(broken)"),
        CheckResult("third", True, 0.0, 1e-8),
    ]
    monkeypatch.setattr(checks, "run_verify", lambda c: results)
    consts = ["verify", "--p-const", "0", "--q-const", "0", "--grid", "4"]
    code, out, _ = run_cli(capsys, *consts)
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "FAIL  second: worst 5.000e-01 (threshold 1.000e-08) (broken)"
    assert lines[-1] == "2/3 suites passed, 1 FAILED"
    code, out, _ = run_cli(capsys, *consts, "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["all_passed"] is False
    assert [c["passed"] for c in data["checks"]] == [True, False, True]


def test_coefficient_file_source(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"p_const": 0.0, "q_const": 0.0, "grid_size": 4}))
    code, out, _ = run_cli(
        capsys, "eigs", "--coeffs", str(path), "--k", "0.5", "--n-range", "0..0"
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(0.125, rel=1e-8)


def test_conflicting_coefficient_sources_rejected(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"p_const": 0.0, "q_const": 0.0, "grid_size": 4}))
    with pytest.raises(SystemExit):
        main(["scan", "--coeffs", str(path), "--p-const", "1", "--q-const", "0",
              "--interval", "0,1", "--points", "2"])


def test_grid_with_coefficient_file_rejected(capsys):
    """--grid sizes constant coefficients only; a file brings its own grid."""
    steps = str(Path(__file__).parent / "golden" / "steps.json")
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--coeffs", steps, "--grid", "5", "--interval", "0,1", "--points", "2"])
    assert exc.value.code == (
        "error: give --grid only with --p-const/--q-const; a --coeffs file sets its own"
    )
    code, out, _ = run_cli(capsys, "scan", "--p-const", "1", "--q-const", "0",
                           "--interval", "0,1", "--points", "2")
    assert code == 0 and "# grid_size = 64\n" in out


@pytest.mark.parametrize(
    "argv, interval",
    [
        (["scan", "--p-const", "1", "--q-const", "0", "--interval", "-1.7e308,1.7e308",
          "--points", "3"], "[-1.7e+308, 1.7e+308]"),
        # the default window (10 + 10 kappa)^3 is finite, its width is not
        (["sigma3", "--p-const", "5e101", "--q-const", "0"],
         "[-1.2499999999999992e+308, 1.2499999999999992e+308]"),
    ],
    ids=["scan", "sigma3-default-window"],
)
def test_window_whose_width_overflows_is_one_error_line(capsys, argv, interval):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: interval width overflows the float range, got {interval}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--p-const", "1", "--q-const", "0", "--interval", "0,1"],
        ["sigma3", "--p-const", "1", "--q-const", "0"],
    ],
    ids=["scan", "sigma3"],
)
def test_points_above_the_cap_are_one_error_line(capsys, argv):
    """One point past MAX_GRID_POINTS is refused before any grid is built."""
    points = str(MAX_GRID_POINTS + 1)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv, "--points", points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == f"error: need at most {MAX_GRID_POINTS} grid points, got {points}\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("source", ["--grid", "--coeffs"])
def test_constant_grid_above_the_cap_is_one_error_line(capsys, tmp_path, source):
    """A constant-coefficient grid of one cell past MAX_GRID_POINTS, from --grid or from a
    {"p_const", "q_const", "grid_size"} file, is refused before its samples are built."""
    size = MAX_GRID_POINTS + 1
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"p_const": 1, "q_const": 0, "grid_size": size}))
    coeffs = (["--p-const", "1", "--q-const", "0", "--grid", str(size)] if source == "--grid"
              else ["--coeffs", str(path)])
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "scan", *coeffs, "--interval", "0,1", "--points", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == f"error: grid_size must be at most {MAX_GRID_POINTS}, got {size}\n"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 745. GiB"), "out of memory: Unable to allocate 745. GiB"),
        (MemoryError(), "out of memory"),
    ],
    ids=["numpy-message", "bare"],
)
def test_memory_error_is_one_error_line(capsys, monkeypatch, error, line):
    """An allocation that fails, numpy's refusal included, ends in one error: line."""
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(np, "linspace", refuse)
    argv = ["scan", "--p-const", "1", "--q-const", "0", "--interval", "0,1", "--points", "5"]
    assert run_cli(capsys, *argv) == (1, "", f"error: {line}\n")


def test_eigs_refuses_at_the_end_seeds_before_any_search(capsys, monkeypatch):
    """A range whose far end the growth guard refuses maps at most the tight pairs of its two
    end seeds and opens no search: _bracket runs only for those two openings.  A range
    inside the guard keeps its output."""
    checked, opened = [], []
    guard, bracket = floquet._check_growth, floquet._bracket
    monkeypatch.setattr(floquet, "_check_growth", lambda c, lams: checked.append(len(lams))
                        or guard(c, lams))
    monkeypatch.setattr(floquet, "_bracket", lambda *args: opened.append(args[1]) or bracket(*args))
    argv = ["eigs", "--p-const", "1", "--q-const", "0", "--k", "1"]
    code, out, err = run_cli(capsys, *argv, "--n-range", "0..5000")
    assert (code, out) == (1, "")
    assert err.startswith("error: growth exponent z0 + kappa = ") and err.endswith(
        f"{_GUARD_TAIL}\n")
    assert checked == [4] and opened == [0, 5000]
    monkeypatch.undo()
    inside = run_cli(capsys, *argv, "--n-range", "-3..3")
    monkeypatch.setattr(floquet, "_check_growth", lambda c, lams: None)
    assert run_cli(capsys, *argv, "--n-range", "-3..3") == inside


def test_missing_coefficients_rejected():
    with pytest.raises(SystemExit):
        main(["scan", "--interval", "0,1", "--points", "2"])


def test_scan_has_no_circle_tolerance_option(capsys):
    # the unit-circle tolerance is a function of |T|, not an input
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--p-const", "0", "--q-const", "0", "--interval", "0,1",
              "--points", "2", "--tol", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_missing_file_is_reported(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--coeffs", "/nonexistent/x.json",
        "--interval", "0,1", "--points", "2",
    )
    assert code == 1
    assert "error" in err.lower()


def test_invalid_k_is_reported(capsys):
    code, _, err = run_cli(
        capsys, "eigs", "--p-const", "0", "--q-const", "0", "--grid", "4",
        "--k", "7.0", "--n-range", "0..1",
    )
    assert code == 1
    assert "error" in err.lower()


def test_bad_interval_and_range_syntax(capsys):
    with pytest.raises(SystemExit):
        main(["scan", "--p-const", "0", "--q-const", "0",
              "--interval", "5,1", "--points", "3"])
    with pytest.raises(SystemExit):
        main(["eigs", "--p-const", "0", "--q-const", "0",
              "--k", "1.0", "--n-range", "3-5"])
    capsys.readouterr()
    for argv, message in [
        (["scan", "--interval", "1,2,3"], "expected A,B got '1,2,3'"),
        (["eigs", "--k", "1.0", "--n-range", "3..1"], "empty range '3..1'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--p-const", "0", "--q-const", "0"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_version_from_a_fresh_interpreter():
    """python -m triband.cli reads sys.argv, the argv=None path of main."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "triband.cli", "--version"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert (done.returncode, done.stdout, done.stderr) == (0, f"triband {__version__}\n", "")


def test_output_is_deterministic(tmp_path):
    args = ["scan", "--p-const", "1", "--q-const", "-0.5", "--grid", "16",
            "--interval", "-40,40", "--points", "41"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_scan_up_to_the_propagation_guard(capfd):
    # the trace outgrows every power of float64 here; the scan must finish,
    # keep stdout pure CSV and report the points past the guard as rows
    code = main(["scan", "--p-const", "0.5", "--q-const", "0.3", "--grid", "16",
                 "--interval=1e7,6e8", "--points", "60"])
    captured = capfd.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    comments, header, rows = parse_csv(captured.out)
    assert all(ln.startswith("# ") for ln in captured.out.splitlines()[: len(comments)])
    assert len(rows) == 60 and all(len(r) == len(header) for r in rows)
    for r in rows:
        if float(r[0]) > 5.25e8:  # z0 + kappa passes 700 near 5.28e8
            assert r[6].startswith("error:")
        else:
            assert r[2] == "1" and not r[6].startswith("error:")
    n_err = sum(r[6].startswith("error:") for r in rows)
    assert n_err > 0
    assert captured.err == f"warning: {n_err} grid points failed to propagate\n"


def test_scan_csv_and_json_agree_on_every_row(capsys):
    """Past 4.7e8 rho saturates to inf (null in JSON); past 5.28e8 the rows are errors."""
    argv = ["scan", "--p-const", "0.5", "--q-const", "0.3", "--grid", "16",
            "--interval=4e8,6e8", "--points", "4"]
    _, out_csv, err_csv = run_cli(capsys, *argv)
    _, out_json, err_json = run_cli(capsys, *argv, "--format", "json")
    comments, _, rows = parse_csv(out_csv)
    data = json.loads(out_json)
    assert err_csv == err_json == "warning: 2 grid points failed to propagate\n"
    assert len(comments) == len(data["config"])
    assert len(rows) == len(data["points"]) == 4
    for row, pt in zip(rows, data["points"]):
        assert float(row[0]) == pt["lambda"]
        if pt["error"] is None:
            assert float(row[1]) == math.inf and pt["rho"] is None
            assert int(row[2]) == pt["multiplicity"] == pt["on_circle_count"]
            assert row[6] == ";".join(pt["flags"])
        else:
            assert row[1] == row[2] == "" and pt["rho"] is None and pt["multiplicity"] is None
            assert row[6] == "error:" + pt["error"].split(";")[0]
        deltas = [pt[f"delta{j}"] for j in (1, 2, 3)]
        assert [float(x) if x else None for x in row[3:6]] == deltas
    assert [pt["error"] is not None for pt in data["points"]] == [False, False, True, True]


@pytest.mark.parametrize(
    "argv",
    [
        # the default sigma3 window of p = 200 reaches 8.5e9
        ["sigma3", "--p-const", "200", "--q-const", "5", "--points", "101"],
        ["sigma3", "--p-const", "3", "--q-const", "1", "--interval", "-1e9,1e9"],
        ["eigs", "--p-const", "0", "--q-const", "0", "--k", "1", "--n-range", "130..131"],
        ["verify", "--p-const", "1e4", "--q-const", "0"],
        # past the Picard tail bound rather than the growth guard
        ["verify", "--p-const", "60", "--q-const", "0", "--grid", "4"],
        # (10 + 10 kappa)^3 overflows the float range, kappa itself does not
        ["sigma3", "--p-const", "1e300", "--q-const", "0"],
        # kappa = mean(|p| + |q|) overflows in the sum and in the mean
        ["scan", "--p-const", "1e308", "--q-const", "1e308", "--interval", "-1,1",
         "--points", "2", "--format", "json"],
        ["scan", "--p-const", "1", "--q-const", "1e308", "--interval", "-1,1", "--points", "2"],
    ],
    ids=["sigma3-default-window", "sigma3-interval", "eigs", "verify", "verify-picard",
         "sigma3-window-overflow", "kappa-overflow-add", "kappa-overflow-reduce"],
)
def test_refusals_are_clean_errors(capsys, argv):
    """The growth guard and the Picard tail bound end in 'error: ...', exit 1."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


_GUARD_TAIL = "exceeds 700; entries of the period map would overflow double precision"


@pytest.mark.parametrize(
    "argv, exponent",
    [
        (["verify", "--p-const", "1e4", "--q-const", "0"], "10006.9"),
        # past 1e6 the exponent is printed in exponent form, not as 100 digits
        (["sigma3", "--p-const", "1e100", "--q-const", "0"], "9.660e+100"),
    ],
    ids=["verify", "sigma3-huge-kappa"],
)
def test_growth_refusal_line(capsys, argv, exponent):
    """The growth guard's refusal is one full line naming the exponent."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: growth exponent z0 + kappa = {exponent} {_GUARD_TAIL}\n"


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"grid_size": 1, "p": {}, "q": [0]}, "p"),
        ({"p_const": [1], "q_const": 0, "grid_size": 4}, "p_const"),
        ({"grid_size": None, "p": [1], "q": [0]}, "grid_size"),
        ({"p_const": 1, "q_const": 0, "grid_size": None}, "grid_size"),
        # int() once ran these on 4 cells and on 1
        ({"grid_size": 4.7, "p": [1] * 4, "q": [0] * 4}, "grid_size"),
        ({"p_const": 1, "q_const": 0, "grid_size": 4.7}, "grid_size"),
        ({"grid_size": True, "p": [1], "q": [0]}, "grid_size"),
        ({"p_const": 1, "q_const": 0, "grid_size": True}, "grid_size"),
        # float() once ran these as p = [1, 2], [1, 0] and as 1.5 and 1.0
        ({"grid_size": 2, "p": ["1", "2e0"], "q": [0, 0]}, "p"),
        ({"grid_size": 2, "p": [True, False], "q": [0, 0]}, "p"),
        ({"p_const": "1.5", "q_const": 0, "grid_size": 4}, "p_const"),
        ({"p_const": True, "q_const": 0, "grid_size": 4}, "p_const"),
        # numpy reads a bool among numbers as a number: these ran as p = [1, 1], q = [1.5, 0]
        ({"grid_size": 2, "p": [1, True], "q": [0, 0]}, "p"),
        ({"grid_size": 2, "p": [0, 0], "q": [1.5, False]}, "q"),
    ],
    ids=["p-object", "p_const-list", "grid_size-null", "const-grid_size-null",
         "grid_size-float", "const-grid_size-float", "grid_size-bool", "const-grid_size-bool",
         "p-strings", "p-bools", "p_const-string", "p_const-bool", "p-bool-among-ints",
         "q-bool-among-floats"],
)
def test_malformed_coefficient_files_are_clean_errors(capsys, tmp_path, doc, field):
    """A field of the wrong type ends in 'error: ...' naming it, exit 1."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--coeffs", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: field {field!r}: ")


_CONSTS = ["--p-const", "0", "--q-const", "0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eigs", *_CONSTS, "--k", "1", "--n-range", "0..1", "--tol", "inf"], "tol must be finite"),
        (["eigs", *_CONSTS, "--k", "1", "--n-range", "0..1", "--tol", "nan"], "tol must be finite"),
        (["sigma3", *_CONSTS, "--interval", "0,1", "--tol", "nan"], "tol must be finite"),
        (["scan", *_CONSTS, "--interval", "-inf,0"], "interval ends must be finite"),
        (["sigma3", *_CONSTS, "--interval", "0,inf"], "interval ends must be finite"),
    ],
    ids=["eigs-tol-inf", "eigs-tol-nan", "sigma3-tol-nan", "scan-interval", "sigma3-interval"],
)
def test_non_finite_tol_and_windows_are_clean_errors(capsys, argv, message):
    """Non-finite tolerances and window ends are refused before any work:
    no output, no numpy warning (pytest raises it), and a message naming them."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_shared_parser_keeps_no_state_between_calls(capsys):
    """main parses with one parser per process; a failed parse and the
    options of one command leave nothing behind for the next call."""
    assert build_parsers() is build_parsers()
    consts = ["--p-const", "1", "--q-const", "-0.5", "--grid", "8", "--format", "json"]
    with pytest.raises(SystemExit) as exc:
        main(["eigs", *consts, "--k", "1.0", "--tol", "1e-8"])  # no --n-range
    assert exc.value.code == 2
    capsys.readouterr()
    eigs = ["eigs", *consts, "--k", "1.0", "--n-range", "0..0"]
    sigma3 = ["sigma3", *consts, "--points", "9"]
    cases = [
        (eigs + ["--tol", "1e-8"], {"tol": 1e-8, "interval": None}),
        (eigs, {"tol": 1e-10, "interval": None}),
        (sigma3 + ["--interval", "-1,10"], {"tol": 1e-6, "interval": [-1.0, 10.0]}),
        (sigma3, {"tol": 1e-6, "interval": None}),
    ]
    for order in (cases, cases[::-1]):
        for argv, want in order:
            code, out, _ = run_cli(capsys, *argv)
            config = json.loads(out)["config"]
            assert code == 0
            assert {key: config.get(key) for key in want} == want, argv
            assert ("search_interval_note" in config) == (argv == sigma3), argv


def test_in_process_output_matches_a_fresh_interpreter(capsys):
    """The eigs-const_c golden case prints the same bytes through the shared
    parser as from a new process that builds its own."""
    argv = ["eigs", "--p-const", "1", "--q-const", "-0.5", "--grid", "64",
            "--k", "1.0", "--n-range", "-2..2"]
    outs = [run_cli(capsys, *argv)[1] for _ in range(2)]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-m", "triband.cli", *argv], capture_output=True,
                           check=True, env={**os.environ, "PYTHONPATH": path})
    assert outs[0].encode() == outs[1].encode() == fresh.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["eigs", "--p-const", "1", "--q-const", "0", "--k", "1", "--n-range=-2..2"],
        ["sigma3", "--coeffs", "c.json", "--poi", "9", "--format", "json"],
        ["eigs", "--p-const", "1", "--k", "1"],
        ["scan", "--interval=-1,1", "--points", "many"],
        ["scan", "--interval=-1,1", "--bogus", "3"],
        ["verify", "--p-const", "0", "extra"],
        ["sigma3", "--version"],
        ["sigma3", "-h"],
        ["--version"],
        ["-h"],
        ["--format", "json", "scan"],
        ["scna", "--p-const", "0"],
        [],
    ],
    ids=["eigs", "abbreviated-option", "missing-option", "bad-type", "unknown-option",
         "extra-argument", "version-after-command", "command-help", "version", "help",
         "option-before-command", "typo", "empty"],
)
def test_command_parsers_read_argv_as_the_root_parser_does(capsys, argv):
    """main hands argv that starts with a command to that command's parser; the
    namespace, or the exit status, output and message, are the root parser's."""
    def parsed(parse):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    root, _ = build_parsers()
    assert parsed(cli._parse_args) == parsed(root.parse_args)
