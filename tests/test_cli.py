import csv
import io
import json
import math

import pytest

from triband.cli import main


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


def test_missing_coefficients_rejected():
    with pytest.raises(SystemExit):
        main(["scan", "--interval", "0,1", "--points", "2"])


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


def test_bad_interval_and_range_syntax():
    with pytest.raises(SystemExit):
        main(["scan", "--p-const", "0", "--q-const", "0",
              "--interval", "5,1", "--points", "3"])
    with pytest.raises(SystemExit):
        main(["eigs", "--p-const", "0", "--q-const", "0",
              "--k", "1.0", "--n-range", "3-5"])


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
