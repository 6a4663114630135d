import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from toruszeta.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_SUITE_FAILED,
    EXIT_USAGE,
    MAX_GRID_POINTS,
    _parse_grid,
    main,
    parse_complex,
    parse_tau,
)
from toruszeta.cli import UsageError
from toruszeta.errors import TruncationWarning

GOLDEN_ZETA_P_ZERO = """\
{
  "command": "eval",
  "s": [
    0.0,
    0.0
  ],
  "schema": 1,
  "value": [
    -0.5,
    0.0
  ],
  "what": "zeta-p"
}
"""


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- parsing


def test_parse_complex_forms():
    assert parse_complex("2") == 2.0
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("0+1i") == 1j
    assert parse_complex("2.5-0.5i") == 2.5 - 0.5j
    assert parse_complex("1i") == 1j
    assert parse_complex("2.5e-1+1e-2i") == 0.25 + 0.01j


def test_parse_complex_rejects_garbage():
    with pytest.raises(UsageError):
        parse_complex("two")
    with pytest.raises(UsageError):
        parse_complex("")
    for text in ("nan", "inf", "1+nani", "-infi"):
        with pytest.raises(UsageError):
            parse_complex(text)


def test_parse_tau_requires_upper_half_plane():
    with pytest.raises(UsageError):
        parse_tau("1-2i")
    with pytest.raises(UsageError):
        parse_tau("3")


# ------------------------------------------------------------- eval


def test_eval_zeta_p_golden_bytes(capsys):
    code, out, _ = run(capsys, "eval", "--what", "zeta-p", "--s", "0")
    assert code == EXIT_OK
    assert out == GOLDEN_ZETA_P_ZERO


def test_eval_eisenstein_direct(capsys):
    code, out, _ = run(
        capsys, "eval", "--what", "eisenstein", "--s", "2", "--tau", "0+1i",
        "--method", "direct",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert abs(doc["value"][0] - 6.02681203969194) < 1e-9
    assert doc["value"][1] == 0.0
    assert doc["diagnostics"]["terms_used"] > 0


@pytest.mark.parametrize("method", ["chowla_selberg", "contour"])
def test_eval_series_routes_report_their_counters(capsys, method):
    argv = ("eval", "--what", "zeta-laplacian", "--s", "0.3+0.2i", "--tau", "0.2+0.6i",
            "--method", method)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    diag = json.loads(out)["diagnostics"]
    assert diag["terms_used"] > 0 and diag["quad_evals"] > diag["terms_used"]
    assert run(capsys, *argv)[1] == out


def test_eval_reports_the_reduced_tau(capsys):
    argv = ("eval", "--what", "eisenstein", "--s", "0.3+0.7i", "--tau", "0.3+0.05i")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["tau"] == [0.3, 0.05]
    tau1, tau2 = doc["diagnostics"]["reduced_tau"]
    assert abs(tau1) <= 0.5 and tau2 >= math.sqrt(3) / 2
    assert run(capsys, *argv)[1] == out


def test_eval_pole_is_machine_readable_exit_2(capsys):
    code, out, _ = run(capsys, "eval", "--what", "eisenstein", "--s", "1", "--tau", "0+1i")
    assert code == EXIT_DOMAIN
    doc = json.loads(out)
    assert doc["error"]["type"] == "PoleError"


def test_eval_eta(capsys):
    code, out, _ = run(capsys, "eval", "--what", "eta", "--tau", "0+1i")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["value"][0] - 0.7682254223260566) < 1e-14


def test_eval_missing_argument_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--what", "eisenstein", "--s", "2")
    assert code == EXIT_USAGE
    assert "requires" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--what", "zeta-p", "--s", "nan"],
    ["eval", "--what", "zeta-p", "--s", "inf"],
    ["eval", "--what", "eisenstein", "--s", "2", "--tau", "nan+1i"],
    ["eval", "--what", "eisenstein", "--s=-inf", "--tau", "0+1i"],
])
def test_eval_nonfinite_number_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "finite" in err and out == ""


@pytest.mark.parametrize("flag, value", [
    ("--tol-tail", "inf"),
    ("--tol-quad", "nan"),
    ("--tol-quad", "1"),
    ("--n-max", "0"),
])
def test_eval_invalid_precision_is_usage_error(capsys, flag, value):
    code, out, err = run(capsys, "eval", "--what", "eisenstein", "--s", "0.3",
                         "--tau", "0.2+1i", "--method", "contour", f"{flag}={value}")
    assert code == EXIT_USAGE
    assert "usage error" in err and out == ""


@pytest.mark.parametrize("what", ["eisenstein", "zeta-laplacian", "remainder"])
def test_eval_unknown_method_is_usage_error(capsys, what):
    code, out, err = run(capsys, "eval", "--what", what, "--s", "0.3", "--tau", "1i",
                         "--method", "bogus")
    assert code == EXIT_USAGE
    assert "invalid choice" in err and out == ""


@pytest.mark.parametrize("argv, warning, message", [
    (("--s", "0.3", "--tau", "0.5+0.87i", "--n-max", "1"),
     "divisor-Bessel series hit n_max = 1", "divisor-Bessel series hit n_max = 1"),
    (("--method", "contour", "--s", "0.3", "--tau", "0.5+0.87i", "--n-max", "1"),
     "remainder_integral hit n_max = 1", "remainder_integral hit n_max = 1"),
    # the contour rows next to the pole at s = 1 run tanh-sinh to its level cap
    (("--method", "contour", "--s", "0.99", "--tau", "0.2+1i"),
     "tanh_sinh hit max_level = 12", "contour quadrature above tol = 1e-13"),
], ids=["cs-n_max", "contour-n_max", "contour-level-cap"])
def test_eval_cap_hits_reach_the_json(capsys, argv, warning, message):
    with pytest.warns(TruncationWarning, match=warning):
        code, out, _ = run(capsys, "eval", "--what", "eisenstein", *argv)
    assert code == EXIT_OK
    assert json.loads(out)["diagnostics"]["warnings"] == [message]


@pytest.mark.parametrize("method, s", [("cs", "0.3"), ("direct", "2")])
def test_escalated_warning_is_a_json_error(capsys, method, s):
    # n_max = 1 stops the series (and, before it refuses, the direct ladder)
    # with a TruncationWarning; a filter that makes it an error gets exit 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        code, out, err = run(capsys, "eval", "--what", "eisenstein", "--s", s, "--tau", "1i",
                             "--method", method, "--n-max", "1")
    assert code == EXIT_DOMAIN and err == ""
    assert json.loads(out)["error"]["type"] == "TruncationWarning"


def test_unknown_what_is_usage_error(capsys):
    code = main(["eval", "--what", "nonsense", "--s", "1"])
    assert code == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("s, cause", [("0.3+300i", "sin(pi s)"), ("0.7+500i", "1/Gamma(s)"),
                                      ("150", "Gamma(z)"), ("-75.5", "Gamma(z)")])
def test_eval_at_a_large_imaginary_s_names_the_overflow(capsys, s, cause):
    # past s of about 142.6 Gamma overflows and names its own argument z; at
    # s = -75.5 that is the head's Gamma(2 - 2s), z = 152.  The direct route
    # returns 4 at s = 150
    code, out, _ = run(capsys, "eval", "--what", "eisenstein", "--s", s, "--tau", "1i")
    assert code == EXIT_DOMAIN
    error = json.loads(out)["error"]
    assert error["type"] == "NonFiniteError"
    at = {"150": "z = (150+0j)", "-75.5": "z = (152+0j)"}.get(s, "s = ")
    assert error["message"].startswith(f"{cause} overflows double precision at {at}")


# through cs at tau = i, real s from about -128.8 to -76.2 overflow sigma's
# divisor powers and s from about 129.9 the K_nu integrand's cosh; both are
# refused by name, the second before numpy could warn
@pytest.mark.parametrize("s, message", [
    ("-100.5", "sigma_v(n) overflows double precision at v = (202+0j), n = 34"),
    ("135", "K_nu: cosh(nu w) overflows double precision at nu = (-134.5+0j)"),
], ids=["sigma", "k_nu"])
def test_eval_names_the_overflow_of_sigma_and_k_nu(capsys, s, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, "eval", "--what", "eisenstein", "--s", s, "--tau", "1i")
    assert code == EXIT_DOMAIN
    assert json.loads(out)["error"] == {"type": "NonFiniteError", "message": message}


# ------------------------------------------------------------- det


def test_det_torus(capsys):
    code, out, _ = run(capsys, "det", "torus", "--tau", "0+1i")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["closed_form"] - 0.3483009824214192) < 1e-13
    assert doc["difference"] < 1e-6


def test_det_torus_refuses_underflow(capsys):
    # reduced tau2 = 1e4: exp(-zeta'(0)) is 0.0 on both paths
    code, out, _ = run(capsys, "det", "torus", "--tau", "0.1+1e-6i")
    assert code == EXIT_DOMAIN
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError"
    assert "zeta'(0) = 10476.58" in error["message"]


def test_table_det_keeps_underflowed_value(capsys):
    code, out, _ = run(capsys, "table", "--tau", "0.1+1e-6i", "--columns", "det")
    assert code == EXIT_OK
    assert float(out.strip().splitlines()[1].split(",")[-1]) == 0.0


def test_det_operator_free(capsys):
    code, out, _ = run(capsys, "det", "operator", "--potential", "0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["closed_form"] - 2.0) < 1e-8


def test_det_operator_constant(capsys):
    code, out, _ = run(capsys, "det", "operator", "--potential", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["closed_form"] - math.sinh(2.0)) < 1e-8


def test_det_operator_bad_potential_usage(capsys):
    code, _, err = run(capsys, "det", "operator", "--potential", "q**")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "potential",
    ["(" * 2000 + "x" + ")" * 2000, "+".join(["x"] * 3000), "+".join(["x"] * 60000)],
    ids=["nested_parentheses", "long_sum", "very_long_sum"],
)
def test_det_operator_too_deep_potential_usage(capsys, potential):
    code, _, err = run(capsys, "det", "operator", "--potential", potential)
    assert code == EXIT_USAGE
    assert "nests deeper than" in err


# ------------------------------------------------------------- identities


def test_identities_filter_passes(capsys):
    code, out, _ = run(capsys, "identities", "--filter", "heat.jacobi")
    assert code == EXIT_OK
    assert "0 failed" in out


def test_identities_zero_tolerance_fails(capsys):
    code, out, _ = run(
        capsys, "identities", "--filter", "kronecker", "--tol-override", "0",
    )
    assert code == EXIT_SUITE_FAILED
    assert "FAIL" in out


def test_identities_csv(capsys):
    code, out, _ = run(capsys, "identities", "--filter", "bessel.half", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "id,residual,tolerance,pass"
    assert len(lines) == 6


def test_identities_json_deterministic_across_runs(capsys):
    filt = ["identities", "--filter", "eta", "--format", "json"]
    code1, out1, _ = run(capsys, *filt)
    code2, out2, _ = run(capsys, *filt)
    code3, out3, _ = run(capsys, *filt)
    assert code1 == code2 == code3 == EXIT_OK
    assert out1 == out2 == out3
    doc = json.loads(out1)
    assert doc["schema"] == 1
    assert all(e["pass"] for e in doc["entries"])
    assert "runtime" not in out1


# ------------------------------------------------------------- table


def test_table_basic_csv(capsys):
    code, out, _ = run(
        capsys, "table", "--s-grid=-2:3:0.25", "--tau", "0+1i",
        "--columns", "cs,contour,direct",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "tau1,tau2,s_re,s_im,cs,contour,direct"
    s_vals = [float(l.split(",")[2]) for l in lines[1:]]
    assert 1.0 not in s_vals  # pole skipped by default
    assert len(lines) == 1 + 20


def test_table_fills_every_cell_next_to_half(capsys):
    # s = 1/2 +- 1e-3, 2e-3 are regular points of E*: no row may be empty
    code, out, _ = run(capsys, "table", "--s-grid=0.497:0.503:0.001", "--tau", "0+1i",
                       "--columns", "cs,contour")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 7
    assert all(cell for row in rows for cell in row)
    assert all(abs(float(row[4]) - float(row[5])) < 1e-13 for row in rows)


def test_table_empty_grid_header_only(capsys):
    code, out, _ = run(capsys, "table", "--s-grid", "5:4:1", "--tau", "0+1i",
                       "--columns", "cs")
    assert code == EXIT_OK
    assert out.strip() == "tau1,tau2,s_re,s_im,cs"


def test_table_tau_arc_det(capsys):
    code, out, _ = run(capsys, "table", "--tau-grid", "arc:5", "--columns", "det")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 6
    dets = [float(l.split(",")[-1]) for l in lines[1:]]
    assert all(d > 0 for d in dets)


def test_table_json_bytes_stable(capsys):
    args = ["table", "--s-grid", "2:3:0.5", "--tau", "0+1i",
            "--columns", "cs,q", "--format", "json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1 and len(doc["rows"]) == 3


@pytest.mark.parametrize("grid", [
    "0:1e9:1e-9", "-1e308:1e308:1", "nan:1:0.1", "0:inf:0.1", "0:1:nan", "0:1:inf",
])
def test_table_huge_or_nonfinite_grid_usage_error(capsys, grid):
    # rejected from start, stop and step alone: not one grid point is built
    code, out, err = run(capsys, "table", "--s-grid", grid, "--tau", "0+1i", "--columns", "cs")
    assert code == EXIT_USAGE
    assert "grid" in err and out == ""


def test_table_grid_point_cap():
    assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
    with pytest.raises(UsageError):
        _parse_grid(f"0:{MAX_GRID_POINTS}:1")


def test_table_huge_tau_arc_usage_error(capsys):
    code, _, err = run(capsys, "table", "--tau-grid", "arc:1000000000", "--columns", "det")
    assert code == EXIT_USAGE
    assert "grid" in err


def test_table_unknown_column_usage_error(capsys):
    code, _, _ = run(capsys, "table", "--s-grid", "2:3:0.5", "--columns", "magic")
    assert code == EXIT_USAGE


def test_table_takes_a_route_by_either_name(capsys):
    code, out, _ = run(capsys, "table", "--s-grid=-1:2:0.5", "--tau", "0.1+1i",
                       "--columns", "cs,chowla_selberg")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "tau1,tau2,s_re,s_im,cs,chowla_selberg"
    assert len(lines) == 1 + 6
    assert all(row.split(",")[4] == row.split(",")[5] != "" for row in lines[1:])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = main(["eval", "--what", "zeta-p", "--s", "0", "--out", str(target)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert target.read_text() == GOLDEN_ZETA_P_ZERO


def test_runtime_never_imports_scipy():
    # scipy is a test-only dependency: the package, the CLI and the whole
    # identity suite run on numpy alone
    code = (
        "import sys, toruszeta, toruszeta.cli\n"
        "from toruszeta.identities import run_suite\n"
        "run_suite()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
