"""CLI behavior: flags, files, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time

import pytest

import minres.cli as cli
from minres.errors import NoConvergence
from minres.exprlang import MAX_DEPTH

PAIR = ["--p-plus", "1/(1+u^2)+0.5", "--p-minus", "0.5/(1+u^2)-0.5"]
PARALLEL = ["--p-plus", "newton:1,0", "--p-minus", "zero"]


def run(argv):
    return cli.main(argv)


def test_solve_planar_stdout(capsys):
    rc = run(["solve", "--dim", "2", "--T", "2", "--H", "1"] + PAIR)
    assert rc == 0
    out = capsys.readouterr().out
    assert "FrontTrapezium" in out and "R_total=2.5" in out


def test_solve_report_schema(tmp_path):
    report = tmp_path / "r.json"
    rc = run(["solve", "--dim", "2", "--T", "2", "--H", "1"] + PAIR
             + ["--out-report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["schema"] == "1"
    assert data["tool"]["name"] == "minres"
    assert data["case"] == "FrontTrapezium"
    assert data["R_total"] == pytest.approx(2.5)
    assert data["problem"]["dim"] == 2
    assert data["U_minus"] is None
    assert data["timing_ms"] is None
    assert data["validation"]["p_plus"]["passed"]
    # lossless round trip
    assert json.loads(json.dumps(data)) == data


def test_solve_flat_disk_parallel(tmp_path):
    report = tmp_path / "r.json"
    rc = run(["solve", "--dim", "3", "--T", "1", "--H", "0"] + PARALLEL
             + ["--out-report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["case"] == "FlatDisk"
    assert data["R_total"] == pytest.approx(1.0)


def test_solve_classical_d3(tmp_path):
    report = tmp_path / "r.json"
    rc = run(["solve", "--dim", "3", "--T", "1",
              "--H", "1.0845482255552044"] + PARALLEL
             + ["--out-report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["U_plus"] == pytest.approx(2.0, rel=1e-8)
    assert data["R_total"] == pytest.approx(0.34647228391116736, rel=1e-8)


def test_profile_csv_format(tmp_path):
    csv_path = tmp_path / "p.csv"
    rc = run(["solve", "--dim", "2", "--T", "2", "--H", "1"] + PAIR
             + ["--out-profile", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "t,x_front,x_rear,u_front,u_rear"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(2.0)
    assert float(last[1]) == pytest.approx(1.0)  # front reaches H


def test_svg_written(tmp_path):
    svg_path = tmp_path / "p.svg"
    rc = run(["solve", "--dim", "2", "--T", "2", "--H", "1"] + PAIR
             + ["--out-svg", str(svg_path)])
    assert rc == 0
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert 'viewBox="0 0 800 600"' in text
    assert "FrontTrapezium" in text


def test_determinism_byte_identical(tmp_path):
    pairs = []
    for tag in ("a", "b"):
        report = tmp_path / f"r{tag}.json"
        csv_path = tmp_path / f"p{tag}.csv"
        svg_path = tmp_path / f"s{tag}.svg"
        rc = run(["solve", "--dim", "3", "--T", "1", "--H", "0.8"] + PAIR
                 + ["--out-report", str(report),
                    "--out-profile", str(csv_path),
                    "--out-svg", str(svg_path)])
        assert rc == 0
        pairs.append((report.read_bytes(), csv_path.read_bytes(),
                      svg_path.read_bytes()))
    assert pairs[0] == pairs[1]


def test_timing_flag_populates_field(tmp_path):
    report = tmp_path / "r.json"
    rc = run(["solve", "--dim", "2", "--T", "2", "--H", "1"] + PAIR
             + ["--out-report", str(report), "--timing"])
    assert rc == 0
    data = json.loads(report.read_text())
    assert isinstance(data["timing_ms"], float) and data["timing_ms"] > 0.0


def test_timing_covers_exports(tmp_path, monkeypatch):
    """Under --timing, timing_ms includes the CSV and SVG writes."""
    render_svg = cli.profile_svg

    def slow_svg(solution, n_samples):
        time.sleep(0.25)
        return render_svg(solution, n_samples)

    monkeypatch.setattr(cli, "profile_svg", slow_svg)
    report = tmp_path / "r.json"
    rc = run(["solve", "--dim", "2", "--T", "2", "--H", "1"] + PARALLEL
             + ["--out-report", str(report), "--out-svg",
                str(tmp_path / "s.svg"), "--timing"])
    assert rc == 0
    assert json.loads(report.read_text())["timing_ms"] >= 250.0


def test_exit_2_on_bad_expression(capsys):
    rc = run(["solve", "--dim", "2", "--T", "2", "--H", "1",
              "--p-plus", "1+*2", "--p-minus", "zero"])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert payload["error"] == "ExprSyntaxError"
    assert payload["offset"] == 2
    assert "\n" not in err


@pytest.mark.parametrize("law, offset", [
    ("(" * 300 + "1/(1+u^2)" + ")" * 300, MAX_DEPTH + 1),
    ("1/(1+u^2)" + "+0*u" * 1500, 9 + 4 * (MAX_DEPTH - 3)),
    ("-" * 1500 + "1/(1+u^2)", MAX_DEPTH + 1),
])
def test_exit_2_on_too_deep_expression(capsys, law, offset):
    rc = run(["solve", "--dim", "2", "--T", "1", "--H", "1",
              f"--p-plus={law}", "--p-minus", "zero"])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    payload = json.loads(err)
    assert payload["error"] == "ExprSyntaxError"
    assert payload["offset"] == offset


@pytest.mark.parametrize("law", [
    "(" * (MAX_DEPTH - 2) + "1/(1+u^2)" + ")" * (MAX_DEPTH - 2),
    "1/(1+u^2)" + "+0*u" * (MAX_DEPTH - 3),
    "-" * (MAX_DEPTH - 2) + "1/(1+u^2)+0*u",
])
def test_law_at_the_nesting_bound_solves(capsys, law):
    rc = run(["solve", "--dim", "2", "--T", "1", "--H", "1",
              f"--p-plus={law}", "--p-minus", "zero"])
    assert rc == 0
    assert "R_total=" in capsys.readouterr().out


def test_exit_2_on_zero_front(capsys):
    rc = run(["solve", "--dim", "2", "--T", "2", "--H", "1",
              "--p-plus", "zero", "--p-minus", "zero"])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "InvalidParameter"


def test_exit_2_on_swapped_pair(capsys):
    rc = run(["solve", "--dim", "2", "--T", "2", "--H", "1",
              "--p-plus", "0.5/(1+u^2)-0.5", "--p-minus", "1/(1+u^2)+0.5"])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "AssumptionViolated"


def test_exit_2_on_usage_error(capsys):
    rc = run(["solve", "--dim", "2"])  # missing required flags
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "UsageError"


@pytest.mark.parametrize("dim, samples", [(3, 1), (3, 2), (2, 0), (2, -1)])
def test_exit_2_on_too_few_samples(tmp_path, capsys, dim, samples):
    """Fewer than 3 arc samples is refused before anything is written."""
    csv_path = tmp_path / "f.csv"
    rc = run(["solve", "--dim", str(dim), "--T", "1", "--H", "0.5",
              "--p-plus", "newton:1,0", "--p-minus", "zero",
              "--samples", str(samples), "--out-profile", str(csv_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err
    payload = json.loads(err)
    assert payload["error"] == "InvalidParameter"
    assert "n_samples" in payload["message"]
    assert not csv_path.exists()


@pytest.mark.parametrize("row, line_no", [
    ("0.5,abc,0.0,,", 3),  # non-numeric cell
    ("0.5", 3),            # short row
    ("0.5,inf,0.0,,", 3),  # non-finite cell
    ("nan,0.5,0.0,,", 3),  # non-finite t
])
def test_verify_check_profile_rejects_malformed_row(tmp_path, capsys, row,
                                                    line_no):
    path = tmp_path / "bad.csv"
    path.write_text("t,x_front,x_rear,u_front,u_rear\n"
                    "0.0,0.0,0.0,,\n"
                    f"{row}\n"
                    "2.0,2.0,0.0,,\n")
    rc = run(["verify", "--dim", "2", "--T", "2", "--H", "2"] + PAIR
             + ["--check-profile", str(path)])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    payload = json.loads(err)
    assert payload["error"] == "InvalidParameter"
    assert f"line {line_no}" in payload["message"]


def test_verify_check_profile_rejects_non_finite_cells(tmp_path, capsys):
    """A NaN profile is refused, not certified: NaN compares false in the
    rise check, and the maximality oracle skips NaN violations."""
    path = tmp_path / "nan.csv"
    path.write_text("t,x_front,x_rear,u_front,u_rear\n"
                    + "".join(f"{2.0 * k / 8!r},nan,0.0,,\n"
                              for k in range(9)))
    rc = run(["verify", "--dim", "2", "--T", "2", "--H", "4",
              "--p-plus", "newton:1,0.5", "--p-minus", "newton:0.5,-0.5",
              "--check-profile", str(path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err
    payload = json.loads(err)
    assert payload["error"] == "InvalidParameter"
    assert "line 2" in payload["message"]


@pytest.mark.parametrize("dim, H", [(3, "0.6727414080023811"),
                                    (4, "0.38906840887784805")])
def test_solves_just_above_the_split_threshold(capsys, dim, H):
    """One ulp above h_star as the rear's B fixes it: the split balance
    is bracketed from u0 of the rear, so no sign-change check rejects
    the body."""
    rc = run(["solve", "--dim", str(dim), "--T", "1", "--H", H,
              "--p-plus", "newton:1,0.5", "--p-minus", "newton:0.5,-0.5"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert out.startswith("Spatial R_total=") and err == ""


@pytest.mark.parametrize("argv", [
    ["--dim", "3", "--T", "1e200", "--H", "1", "--p-plus", "newton:1,0",
     "--p-minus", "zero"],
    ["--dim", "2", "--T", "1e300", "--H", "1e300", "--p-plus",
     "newton:1e300,0", "--p-minus", "zero"],
    # T**2 underflows: R_total read 0.0, and 3.75e-321 for 3.748e-321
    ["--dim", "3", "--T", "1e-300", "--H", "1e-300", "--p-plus",
     "newton:1,0", "--p-minus", "zero"],
    ["--dim", "3", "--T", "1e-160", "--H", "1e-160", "--p-plus",
     "newton:1,0", "--p-minus", "zero"],
])
def test_exit_2_on_overflowing_resistance(tmp_path, capsys, argv):
    """A resistance that overflows, or whose factor T**(d-1) is not a
    normal float, is an input error, not a traceback, not an infinite
    value in the report (which is not valid JSON) and not a resistance
    that has lost its digits."""
    report = tmp_path / "r.json"
    rc = run(["solve"] + argv + ["--out-report", str(report)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidParameter"
    assert not report.exists()


@pytest.mark.parametrize("argv, dx", [
    # beta/n_heights underflows to 0
    (["--dim", "5", "--T", "1", "--H", "5e-324", "--p-plus",
      "2/(1+u^2)+0.2", "--p-minus", "newton:0.1,0"], "dx=0.0"),
    # the height steps one cell can climb overflow
    (["--dim", "3", "--T", "1e8", "--H", "1e-300", "--p-plus", "newton:1,0",
      "--p-minus", "newton:0.1,0", "--grid", "20x40"], "dx=2.5e-302"),
])
def test_exit_3_on_unrepresentable_height_step(capsys, argv, dx):
    rc = run(["verify"] + argv)
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "InfeasibleGrid"
    assert dx in payload["message"] and "beta=" in payload["message"]


def test_exit_3_on_underflowing_cell_weight(capsys):
    """T**9 is normal, but the first cell's t^9 increment underflows to
    0, which the DP would multiply by the inf of an inadmissible step."""
    rc = run(["verify", "--dim", "10", "--T", "1e-34", "--H", "1e-34",
              "--p-plus", "newton:1,0", "--p-minus", "zero"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "InfeasibleGrid"
    assert payload["message"] == (
        "weight 0.0 of cell 0 (its t^9 increment) underflows on the "
        "200x400 grid of T=1e-34")


def test_tall_body_solves(capsys):
    """b(32) ~ 23.98, so this height makes the height inversion evaluate
    g(64) ~ 2e6, whose quadrature sums round above its 1e-11 tolerance."""
    rc = run(["solve", "--dim", "3", "--T", "1", "--H", "24"] + PARALLEL)
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert out.startswith("Spatial R_total=")


def test_overflowing_law_is_not_blamed_on_T(capsys):
    """T**2 = 1 is finite; the law's own scale overflows the resistance."""
    rc = run(["solve", "--dim", "3", "--T", "1", "--H", "1", "--p-plus",
              "1e200/(1+u^2)", "--p-minus", "zero"])
    payload = json.loads(capsys.readouterr().err)
    assert rc == 2 and payload["error"] == "InvalidParameter"
    assert payload["message"] == ("T=1.0, d=3: a branch extremal or "
                                  "resistance overflows")


@pytest.mark.parametrize("law, dim, T, H", [
    ("newton:5e-324,0", "3", "1", "0.5"),  # p' underflows to 0
    ("newton:5e-324,0", "5", "0.08156834167541048", "0.460139401649561"),
    ("newton:1e-310,0", "3", "1", "0.5"),  # |p'|^-1 overflows
])
def test_exit_2_on_underflowing_law_slope(capsys, law, dim, T, H):
    """|p'|^(-omega) out of range in the slope-cost integral g is an
    input error that names the slope, not a traceback."""
    rc = run(["solve", "--dim", dim, "--T", T, "--H", H, "--p-plus", law,
              "--p-minus", "zero"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert payload["u"] > 1.0 and "p' underflows" in payload["message"]


def test_exit_3_on_solver_nonconvergence(capsys, monkeypatch):
    def explode(spec, n_samples=256):
        raise NoConvergence("synthetic", bracket=(0.0, 1.0), residual=1.0)

    monkeypatch.setattr(cli, "solve", explode)
    rc = run(["solve", "--dim", "2", "--T", "2", "--H", "1"] + PAIR)
    assert rc == 3
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "NoConvergence"
    assert payload["bracket"] == [0.0, 1.0]
    assert payload["residual"] == 1.0


def test_error_line_writes_non_finite_as_null(capsys, monkeypatch):
    def explode(spec, n_samples=256):
        raise NoConvergence("synthetic", bracket=(0.0, math.inf),
                            residual=math.nan)

    monkeypatch.setattr(cli, "solve", explode)
    rc = run(["solve", "--dim", "2", "--T", "2", "--H", "1"] + PAIR)
    assert rc == 3
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["bracket"] == [0.0, None]
    assert payload["residual"] is None


def test_error_line_carries_witnesses(capsys):
    """exp(-u) keeps improving toward u=0: NotUnimodal with scan ends."""
    rc = run(["solve", "--dim", "2", "--T", "1", "--H", "1",
              "--p-plus", "exp(-u)", "--p-minus", "zero"])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "NotUnimodal"
    assert payload["witnesses"] == [1e-06, 1000000.0]


def test_error_line_carries_domain_witness(capsys):
    """ln(u) leaves its domain at slope 0: DomainError with u and where."""
    rc = run(["solve", "--dim", "2", "--T", "1", "--H", "1",
              "--p-plus", "1/(1+u^2)+ln(u)", "--p-minus", "zero"])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "DomainError"
    assert payload["u"] == 0.0
    assert payload["where"] == "ln(u)"


def test_error_line_on_derivative_underflow(capsys):
    """ln's 1/(v*v) underflows at v = 1e-200: DomainError, not a traceback."""
    rc = run(["solve", "--dim", "2", "--T", "1", "--H", "1",
              "--p-plus", "1/(1+u^2)+ln(u+1e-200)", "--p-minus", "zero"])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "DomainError"
    assert payload["u"] == 0.0
    assert payload["where"] == "ln(u+1e-200)"


def test_error_line_on_nan_exponent(capsys):
    """inf-inf is a NaN exponent: a DomainError at the first slope the
    solver evaluates, u = 0, where the base is zero."""
    rc = run(["solve", "--dim", "2", "--T", "1", "--H", "1",
              "--p-plus", "1/(1+u^2)+(0-u)^(1e999-1e999)",
              "--p-minus", "zero"])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "DomainError"
    assert payload["u"] == 0.0
    assert payload["where"] == "(0.0-u)^(1e999-1e999)"
    assert payload["message"].endswith("(zero base with NaN exponent)")


def test_classify_line_format(capsys):
    rc = run(["classify", "--dim", "2", "--T", "2", "--H", "6"] + PAIR)
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line == "DoubleTriangle h=3.000 thresholds=[1.000, 1.608, 2.608]"


def test_classify_flat_disk(capsys):
    rc = run(["classify", "--dim", "2", "--T", "2", "--H", "0"] + PAIR)
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("FlatDisk h=0.000")


def test_classify_fig2_label(capsys):
    rc = run(["classify", "--dim", "2", "--T", "2", "--H", "2"] + PAIR)
    assert rc == 0
    assert capsys.readouterr().out.startswith("FrontTriangle")


def test_classify_zero_rear_prints_inf(capsys):
    rc = run(["classify", "--dim", "2", "--T", "2", "--H", "3"] + PARALLEL)
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert "thresholds=[1.000, inf, inf]" in line


def test_classify_rejects_d3(capsys):
    rc = run(["classify", "--dim", "3", "--T", "1", "--H", "0.5"] + PAIR)
    assert rc == 2


def test_verify_passes(tmp_path, capsys):
    report = tmp_path / "v.json"
    rc = run(["verify", "--dim", "2", "--T", "2", "--H", "4"] + PAIR
             + ["--out-report", str(report)])
    assert rc == 0
    assert "certificates passed" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert data["oracle"]["passed"] is True
    front = data["oracle"]["brute_force"]["front"]
    assert front["gap"] <= 0.01 * data["R_total"]
    assert data["oracle"]["maximality"]["front"]["passed"]


def test_verify_report_margins(tmp_path, capsys):
    """Each branch reports its threshold and margin; reruns match."""
    texts = []
    for tag in ("a", "b"):
        report = tmp_path / f"v{tag}.json"
        rc = run(["verify", "--dim", "3", "--T", "1", "--H", "0.8"] + PAIR
                 + ["--grid", "100x200", "--out-report", str(report)])
        assert rc == 0
        texts.append(report.read_bytes())
    assert texts[0] == texts[1]
    data = json.loads(texts[0])
    for branch in ("front", "rear"):
        rep = data["oracle"]["maximality"][branch]
        assert rep["threshold"] >= 1e-8
        assert rep["margin"] == rep["worst_violation"] / rep["threshold"]
        assert rep["passed"] == (rep["margin"] <= 1.0)
        dp = data["oracle"]["brute_force"][branch]
        assert dp["gap_tol"] == 0.01 * abs(data["R_total"])
        assert dp["margin"] == dp["gap"] / dp["gap_tol"]
        assert dp["passed"] and dp["margin"] <= 1.0


def test_verify_classical_parallel(capsys):
    rc = run(["verify", "--dim", "3", "--T", "1", "--H", "0.55"] + PARALLEL)
    assert rc == 0
    assert "certificates passed" in capsys.readouterr().out


def test_verify_custom_grid(capsys):
    rc = run(["verify", "--dim", "2", "--T", "2", "--H", "1",
              "--grid", "100x200", "--maximality-samples", "32x64"] + PAIR)
    assert rc == 0


def test_verify_bad_grid_flag(capsys):
    rc = run(["verify", "--dim", "2", "--T", "2", "--H", "1",
              "--grid", "100by200"] + PAIR)
    assert rc == 2


def test_verify_check_profile_rejects_perturbed(tmp_path, capsys):
    """A hand-perturbed profile must fail certification with a witness."""
    # optimal front for this instance is a straight cone of slope 1;
    # tilt the two halves while keeping the endpoints
    bad = tmp_path / "bad.csv"
    rows = ["t,x_front,x_rear,u_front,u_rear"]
    n = 64
    for k in range(n + 1):
        t = 2.0 * k / n
        if t <= 1.0:
            x = 0.9 * t
        else:
            x = 0.9 + 1.1 * (t - 1.0)
        rows.append(f"{t},{x},0.0,,")
    bad.write_text("\n".join(rows) + "\n")
    rc = run(["verify", "--dim", "2", "--T", "2", "--H", "2"] + PAIR
             + ["--check-profile", str(bad)])
    assert rc == 4
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "CertificateFailure"
    assert "witness" in payload
    assert payload["witness"]["t"] is not None


def test_verify_check_profile_accepts_optimal(tmp_path, capsys):
    """Round trip: solver CSV output re-checked through --check-profile."""
    csv_path = tmp_path / "good.csv"
    rc = run(["solve", "--dim", "2", "--T", "2", "--H", "2"] + PAIR
             + ["--out-profile", str(csv_path)])
    assert rc == 0
    rc2 = run(["verify", "--dim", "2", "--T", "2", "--H", "2"] + PAIR
              + ["--check-profile", str(csv_path)])
    assert rc2 == 0


def _solved_csv_with_front(tmp_path, front):
    """The solver's CSV of a d=2 cone of height 1.5, with x_front and
    u_front replaced by front(t) and its slope."""
    path = tmp_path / "p.csv"
    assert run(["solve", "--dim", "2", "--T", "1", "--H", "1.5"] + PARALLEL
               + ["--out-profile", str(path)]) == 0
    header, *rows = path.read_text().splitlines()
    assert header == "t,x_front,x_rear,u_front,u_rear"
    out = [header]
    for row in rows:
        t, _, x_rear, _, u_rear = row.split(",")
        x, u = front(float(t))
        out.append(f"{t},{x!r},{x_rear},{u!r},{u_rear}")
    path.write_text("\n".join(out) + "\n")
    return path


@pytest.mark.parametrize("front, witness", [
    # the front reaches 1.515, not H = 1.5
    (lambda t: (1.515 * t, 1.515),
     {"t": 1.0, "x_front": 1.515, "x_rear": 0.0}),
    # the front starts 0.01 above the top
    (lambda t: (0.01 + 1.5 * t, 1.5), {"t": 0.0, "x_front": 0.01}),
], ids=["height", "start"])
def test_verify_check_profile_rejects_wrong_heights(tmp_path, capsys, front,
                                                    witness):
    """A CSV profile must start at x = 0 and its heights must add up to
    H; a steeper cone is certified otherwise, since each branch is
    checked only against its own law."""
    path = _solved_csv_with_front(tmp_path, front)
    capsys.readouterr()
    rc = run(["verify", "--dim", "2", "--T", "1", "--H", "1.5"] + PARALLEL
             + ["--check-profile", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "InvalidParameter"
    assert payload["witness"] == witness


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "minres" in capsys.readouterr().out


def test_import_leaves_heavy_modules_unloaded():
    """Every CLI run pays for what `import minres.cli` loads:
    numpy.polynomial alone adds about 1.6 MB to a fresh process's
    peak RSS, and scipy more."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys, minres, minres.cli; print(sorted(m for m in "
             "sys.modules if m.split('.')[0] == 'scipy' "
             "or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
