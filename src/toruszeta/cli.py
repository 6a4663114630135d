"""Command-line interface.

Subcommands:
  eval        point evaluation of the main functions
  det         functional determinant of the torus Laplacian or a 1D operator
  identities  run the registered identity suite (nonzero exit iff any fail)
  table       emit values over an s- or tau-grid as CSV/JSON

Exit codes: 0 success, 1 identity-suite failure, 2 domain/pole error
(machine-readable JSON on stdout), 64 usage error.  JSON output carries a
"schema" version field and contains nothing run-dependent, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

from .domain import DEFAULT_PRECISION, Precision, TauPoint
from .errors import DomainError, NonFiniteError, NormalizationError
from .eta import eta
from .identities import SuiteReport, run_suite
from .operator1d import OperatorSpec, log_det, log_det_numeric, zeta_p
from .potentials import PotentialParseError, parse_potential
from .torus import (
    determinant_torus,
    determinant_torus_numeric,
    eisenstein,
    remainder_bessel,
    remainder_integral,
    zeta_laplacian,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

# Most points a `table` grid may have; the count is checked before any is built.
MAX_GRID_POINTS = 10_000


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 64 instead of argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' (no spaces); plain reals and pure 'bi' allowed."""
    cleaned = text.strip()
    if not cleaned:
        raise UsageError("empty complex literal")
    normalized = cleaned[:-1] + "j" if cleaned.endswith(("i", "I")) else cleaned
    try:
        z = complex(normalized)
    except ValueError:
        raise UsageError(f"cannot parse complex number {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise UsageError(f"complex number must be finite, got {text!r}")
    return z


def parse_tau(text: str) -> TauPoint:
    z = parse_complex(text)
    if not z.imag > 0:
        raise UsageError(f"tau must lie in the upper half-plane, got {text!r}")
    return TauPoint.from_complex(z)


def _cnum(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json(obj: dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _precision_from(args: argparse.Namespace) -> Precision:
    try:
        return Precision(
            quad_rel_tol=args.tol_quad,
            series_tail_tol=args.tol_tail,
            n_max=args.n_max,
        )
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _add_precision_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-quad", type=float, default=DEFAULT_PRECISION.quad_rel_tol,
                   help="relative tolerance of quadrature and of the direct-sum ladder")
    p.add_argument("--tol-tail", type=float, default=DEFAULT_PRECISION.series_tail_tol,
                   help="absolute series tail bound")
    p.add_argument("--n-max", type=int, default=DEFAULT_PRECISION.n_max,
                   help="hard cap on summation indices")
    p.add_argument("--out", default=None, help="write output to FILE instead of stdout")


def cmd_eval(args: argparse.Namespace) -> int:
    prec = _precision_from(args)
    what = args.what
    result: dict[str, Any] = {"schema": SCHEMA_VERSION, "command": "eval", "what": what}

    if what in ("eisenstein", "zeta-laplacian", "remainder"):
        if args.s is None or args.tau is None:
            raise UsageError(f"--what {what} requires --s and --tau")
        s = parse_complex(args.s)
        tau = parse_tau(args.tau)
        result["s"] = _cnum(s)
        result["tau"] = [tau.tau1, tau.tau2]
        if what == "remainder":
            method = args.method or "chowla_selberg"
            fn = {"chowla_selberg": remainder_bessel, "cs": remainder_bessel,
                  "contour": remainder_integral}.get(method)
            if fn is None:
                raise UsageError(f"remainder method must be chowla_selberg or contour")
            result["method"] = "chowla_selberg" if fn is remainder_bessel else "contour"
            result["value"] = _cnum(fn(s, tau, prec))
        else:
            method = args.method or "chowla_selberg"
            ev = (eisenstein if what == "eisenstein" else zeta_laplacian)(s, tau, method, prec)
            result["method"] = ev.method
            result["value"] = _cnum(ev.value)
            result["err_estimate"] = ev.err_estimate
            result["diagnostics"] = {
                "terms_used": ev.diagnostics.terms_used,
                "quad_evals": ev.diagnostics.quad_evals,
                "warnings": list(ev.diagnostics.warnings),
            }
    elif what == "eta":
        if args.tau is None:
            raise UsageError("--what eta requires --tau")
        tau = parse_tau(args.tau)
        result["tau"] = [tau.tau1, tau.tau2]
        result["value"] = _cnum(eta(tau, prec))
    elif what == "zeta-p":
        if args.s is None:
            raise UsageError("--what zeta-p requires --s")
        s = parse_complex(args.s)
        result["s"] = _cnum(s)
        result["value"] = _cnum(zeta_p(s))
    else:
        raise UsageError(f"unknown --what {what!r}")

    _emit(args, _json(result))
    return EXIT_OK


def cmd_det(args: argparse.Namespace) -> int:
    prec = _precision_from(args)
    out: dict[str, Any] = {"schema": SCHEMA_VERSION, "command": "det", "target": args.target}
    if args.target == "torus":
        if args.tau is None:
            raise UsageError("det torus requires --tau")
        tau = parse_tau(args.tau)
        closed = determinant_torus(tau, prec)
        numeric = determinant_torus_numeric(tau, prec)
        out["tau"] = [tau.tau1, tau.tau2]
    else:
        if args.potential is None:
            raise UsageError("det operator requires --potential")
        try:
            v = parse_potential(args.potential)
        except PotentialParseError as exc:
            raise UsageError(str(exc)) from exc
        spec = OperatorSpec(v, args.potential)
        closed = math.exp(log_det(spec, prec))
        numeric = math.exp(log_det_numeric(spec, prec))
        out["potential"] = args.potential
    out["closed_form"] = closed
    out["numeric"] = numeric
    out["difference"] = abs(closed - numeric)
    _emit(args, _json(out))
    return EXIT_OK


def _suite_json(report: SuiteReport) -> str:
    # runtime_ms is intentionally not serialized: identical runs must give
    # identical bytes
    return _json({
        "schema": SCHEMA_VERSION,
        "command": "identities",
        "passed": report.passed,
        "entries": [
            {
                "id": e.check_id,
                "statement": e.statement,
                "lhs": _cnum(e.lhs),
                "rhs": _cnum(e.rhs),
                "residual": e.residual,
                "tolerance": e.tolerance,
                "pass": e.passed,
            }
            for e in report.entries
        ],
    })


def _suite_csv(report: SuiteReport) -> str:
    lines = ["id,residual,tolerance,pass"]
    for e in report.entries:
        lines.append(f"{e.check_id},{e.residual!r},{e.tolerance!r},{str(e.passed).lower()}")
    return "\n".join(lines)


def _suite_text(report: SuiteReport) -> str:
    lines = []
    for e in report.entries:
        mark = "ok  " if e.passed else "FAIL"
        lines.append(
            f"{mark} {e.check_id:55s} residual {e.residual:10.3e}"
            f"  tol {e.tolerance:8.1e}  {e.runtime_ms:8.1f} ms"
        )
    n_fail = sum(not e.passed for e in report.entries)
    lines.append(f"{len(report.entries)} identities, {n_fail} failed")
    return "\n".join(lines)


def cmd_identities(args: argparse.Namespace) -> int:
    prec = _precision_from(args)
    report = run_suite(prec, filter_pattern=args.filter, tol_override=args.tol_override)
    if args.format == "json":
        _emit(args, _suite_json(report))
    elif args.format == "csv":
        _emit(args, _suite_csv(report))
    else:
        _emit(args, _suite_text(report))
    return EXIT_OK if report.passed else EXIT_SUITE_FAILED


def _parse_grid(spec_text: str) -> list[float]:
    parts = spec_text.split(":")
    if len(parts) != 3:
        raise UsageError("grid must be start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"cannot parse grid {spec_text!r}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise UsageError(f"grid start, stop and step must be finite, got {spec_text!r}")
    if step <= 0:
        raise UsageError("grid step must be positive")
    if (stop - start) / step >= MAX_GRID_POINTS:
        raise UsageError(f"grid {spec_text!r} has more than {MAX_GRID_POINTS} points")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        values.append(round(v, 12))
        k += 1
    return values


def _tau_list(args: argparse.Namespace) -> list[TauPoint]:
    if args.tau_grid:
        kind, _, count = args.tau_grid.partition(":")
        try:
            n = int(count)
        except ValueError:
            raise UsageError("tau grid must be arc:N") from None
        if kind != "arc" or n < 0:
            raise UsageError("supported tau grid: arc:N (unit-circle boundary arc)")
        if n > MAX_GRID_POINTS:
            raise UsageError(f"tau grid has more than {MAX_GRID_POINTS} points")
        # boundary arc of the fundamental domain: tau = e^(i theta),
        # theta from 60 to 120 degrees
        return [
            TauPoint(math.cos(th), math.sin(th))
            for th in (
                math.pi / 3 + (math.pi / 3) * j / max(n - 1, 1) for j in range(n)
            )
        ]
    if args.tau:
        return [parse_tau(args.tau)]
    return [TauPoint(0.0, 1.0)]


def cmd_table(args: argparse.Namespace) -> int:
    prec = _precision_from(args)
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    known = {"direct", "cs", "contour", "q", "det"}
    bad = set(columns) - known
    if bad:
        raise UsageError(f"unknown columns {sorted(bad)}; choose from {sorted(known)}")
    skip = {parse_complex(v) for v in args.skip.split(",")} if args.skip else {1.0 + 0.0j}
    s_values = [complex(v) for v in _parse_grid(args.s_grid)] if args.s_grid else [None]
    taus = _tau_list(args)

    def cell(col: str, s: complex | None, tau: TauPoint) -> complex | float | None:
        try:
            if col == "det":
                return determinant_torus(tau, prec)
            if s is None:
                return None
            if col == "q":
                return remainder_bessel(s, tau, prec)
            method = {"cs": "chowla_selberg"}.get(col, col)
            return eisenstein(s, tau, method, prec).value
        except (DomainError, NonFiniteError):
            return None

    rows = []
    for tau in taus:
        for s in s_values:
            if s is not None and any(abs(s - p) < 1e-12 for p in skip):
                continue
            row: dict[str, Any] = {"tau": [tau.tau1, tau.tau2]}
            if s is not None:
                row["s"] = _cnum(s)
            for col in columns:
                val = cell(col, s, tau)
                if val is None:
                    row[col] = None
                elif isinstance(val, complex):
                    row[col] = _cnum(val)
                else:
                    row[col] = val
            rows.append(row)

    if args.format == "json":
        _emit(args, _json({"schema": SCHEMA_VERSION, "command": "table", "rows": rows}))
        return EXIT_OK

    header = ["tau1", "tau2", "s_re", "s_im"] + columns
    lines = [",".join(header)]
    for row in rows:
        cells = [repr(row["tau"][0]), repr(row["tau"][1])]
        cells += [repr(row["s"][0]), repr(row["s"][1])] if "s" in row else ["", ""]
        for col in columns:
            val = row[col]
            if val is None:
                cells.append("")
            elif isinstance(val, list):
                cells.append(f"{val[0]!r}+{val[1]!r}i" if val[1] else repr(val[0]))
            else:
                cells.append(repr(val))
        lines.append(",".join(cells))
    _emit(args, "\n".join(lines))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="toruszeta", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function at a point")
    p_eval.add_argument("--what", required=True,
                        choices=["eisenstein", "zeta-laplacian", "remainder", "eta", "zeta-p"])
    p_eval.add_argument("--s", default=None, help="complex argument, format a+bi")
    p_eval.add_argument("--tau", default=None, help="upper half-plane point, format a+bi")
    p_eval.add_argument("--method", default=None,
                        help="direct | chowla_selberg | contour (where applicable)")
    _add_precision_flags(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_det = sub.add_parser("det", help="functional determinant")
    p_det.add_argument("target", choices=["torus", "operator"])
    p_det.add_argument("--tau", default=None, help="torus modulus, format a+bi")
    p_det.add_argument("--potential", default=None,
                       help='potential expression, e.g. "x*(1-x)" or "4"')
    _add_precision_flags(p_det)
    p_det.set_defaults(fn=cmd_det)

    p_id = sub.add_parser("identities", help="run the identity suite")
    p_id.add_argument("--filter", default=None, help="substring filter on identity ids")
    p_id.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p_id.add_argument("--tol-override", type=float, default=None,
                      help="replace every entry tolerance (0 forces failures)")
    _add_precision_flags(p_id)
    p_id.set_defaults(fn=cmd_identities)

    p_tab = sub.add_parser("table", help="tabulate values over a grid")
    p_tab.add_argument("--s-grid", default=None, help="real s grid start:stop:step")
    p_tab.add_argument("--skip", default=None, help="comma list of s values to skip (default 1)")
    p_tab.add_argument("--tau", default=None, help="fixed tau, format a+bi")
    p_tab.add_argument("--tau-grid", default=None, help="arc:N for the |tau| = 1 boundary arc")
    p_tab.add_argument("--columns", default="cs", help="comma list: direct,cs,contour,q,det")
    p_tab.add_argument("--format", default="csv", choices=["csv", "json"])
    _add_precision_flags(p_tab)
    p_tab.set_defaults(fn=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0; usage errors exit 64
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"toruszeta: usage error: {exc}\n")
        return EXIT_USAGE
    except (
        DomainError,
        NormalizationError,
        NonFiniteError,
        OverflowError,
        ZeroDivisionError,
    ) as exc:
        sys.stdout.write(_json({
            "schema": SCHEMA_VERSION,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }) + "\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
