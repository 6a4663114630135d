"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are pinned here and
must not be loosened."""

import json
import math
import time

import pytest

from toruszeta.cli import main
from toruszeta.domain import Precision
from toruszeta.operator1d import OperatorSpec, log_det, zeta_operator
from toruszeta.specialfn import bessel_k, gamma, riemann_zeta, sinpi
from toruszeta.torus import (
    determinant_torus,
    eisenstein_cs,
    functional_equation_residual,
    heat_kernel,
    kronecker_constant,
    lambert_q1,
    nan_yue_williams_sum,
    pole_residue,
    remainder_fe_residual,
    weight_integral_check,
    zeta_laplacian,
    zeta_laplacian_deriv0_numeric,
)
from toruszeta.operator1d import zeta_p_functional_equation

TAUS3 = (1j, 0.5 + 0.866j, 0.3 + 2j)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {label}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {number}: {label} {detail}"


def test_criterion_01_nan_yue_williams_constant():
    nan_yue_williams_sum(1j)  # warm the Bessel memo before timing
    t0 = time.perf_counter()
    pair = nan_yue_williams_sum(1j)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    err = abs(pair.series - 0.000936341)
    report(
        1,
        "divisor Bessel constant at tau = i",
        err <= 5e-9 and elapsed_ms < 10.0,
        f"err={err:.2e}, {elapsed_ms:.2f} ms",
    )


def test_criterion_02_lambert_value():
    pair = lambert_q1(1j)
    err_const = abs(pair.series - 0.000936341)
    reduction = 0.5 * sum(
        1.0 / (n * math.expm1(2.0 * math.pi * n)) for n in range(1, 12)
    )
    err_red = abs(pair.series - reduction)
    report(
        2,
        "remainder series at s = 1, tau = i",
        err_const <= 5e-9 and err_red <= 1e-12,
        f"const err={err_const:.2e}, reduction err={err_red:.2e}",
    )


def test_criterion_03_determinant_identity():
    worst_rel = 0.0
    worst_closed = 0.0
    for tau in TAUS3:
        closed = determinant_torus(tau)
        numeric = math.exp(-zeta_laplacian_deriv0_numeric(tau))
        worst_rel = max(worst_rel, abs(numeric - closed) / closed)
        direct_form = (tau.imag if isinstance(tau, complex) else tau.tau2) ** 2
        from toruszeta.eta import eta

        t = complex(tau)
        worst_closed = max(
            worst_closed, abs(closed - t.imag**2 * abs(eta(t)) ** 4)
        )
    report(
        3,
        "exp(-zeta'(0)) = tau2^2 |eta|^4",
        worst_rel <= 1e-6 and worst_closed <= 1e-12,
        f"numeric rel={worst_rel:.2e}, closed abs={worst_closed:.2e}",
    )


def test_criterion_04_three_representation_agreement():
    worst_rel = 0.0
    for s in (2.0, 3.0, 2.5 + 1j):
        for tau in TAUS3:
            a = zeta_laplacian(s, tau, "direct").value
            b = zeta_laplacian(s, tau, "chowla_selberg").value
            worst_rel = max(worst_rel, abs(a - b) / abs(b))
    worst_abs = 0.0
    for s in (-1.5, -0.5, 0.3, 0.7):
        for tau in TAUS3:
            a = zeta_laplacian(s, tau, "contour").value
            b = zeta_laplacian(s, tau, "chowla_selberg").value
            worst_abs = max(worst_abs, abs(a - b))
    report(
        4,
        "direct/contour/Bessel-series agreement",
        worst_rel <= 1e-9 and worst_abs <= 1e-8,
        f"direct rel={worst_rel:.2e}, contour abs={worst_abs:.2e}",
    )


def test_criterion_05_pole_and_value_at_zero():
    worst_res = max(abs(pole_residue(tau) - math.pi) for tau in (1j, 0.2 + 1.3j))
    worst_zero = max(abs(eisenstein_cs(0.0, tau).value + 1.0) for tau in TAUS3)
    report(
        5,
        "residue pi at s = 1 and E*(0) = -1",
        worst_res <= 1e-7 and worst_zero <= 1e-10,
        f"residue err={worst_res:.2e}, zero err={worst_zero:.2e}",
    )


def test_criterion_06_kronecker_limit_formula():
    worst = max(kronecker_constant(tau).residual for tau in (1j, 0.2 + 1.3j))
    report(6, "limit-formula constant matches eta closed form", worst <= 1e-7,
           f"worst residual={worst:.2e}")


def test_criterion_07_functional_equations():
    fe = max(
        functional_equation_residual(s, tau)
        for s, tau in ((0.3, 1j), (2 + 0.5j, 0.4 + 0.7j), (0.5 + 2j, 1j))
    )
    feq = max(
        remainder_fe_residual(s, tau)
        for s, tau in ((0.3, 1j), (-0.7, 0.2 + 1.5j), (0.5 + 2j, 1j))
    )
    # points where the two sides are computed independently: no fixed point of
    # s -> 1 - s, and no u whose zeta(1 - u) goes through the reflection under test
    fep = max(zeta_p_functional_equation(u) for u in (1.3, -0.5, 0.3 + 2j))
    jacobi = max(
        abs(heat_kernel(x, tau) - heat_kernel(1.0 / x, tau) / x)
        for x in (0.5, 2.0, 5.0)
        for tau in (1j, 0.3 + 1.4j)
    )
    report(
        7,
        "all functional equations and the inversion law",
        fe <= 1e-9 and feq <= 1e-9 and fep <= 1e-9 and jacobi <= 1e-12,
        f"E*={fe:.2e}, Q={feq:.2e}, 1D={fep:.2e}, inversion={jacobi:.2e}",
    )


def test_criterion_08_operator_engine():
    free = OperatorSpec(lambda x: 0.0, "free")
    const4 = OperatorSpec(lambda x: 4.0, "c4")
    det_free = abs(math.exp(log_det(free)) - 2.0)
    det_c4 = abs(math.exp(log_det(const4)) - math.sinh(2.0))
    z0 = abs(zeta_operator(free, 0.0).value + 0.5)
    zm1 = abs(zeta_operator(free, -1.0).value)
    report(
        8,
        "argument-principle determinants and zeta values",
        det_free <= 1e-8 and det_c4 <= 1e-8 and z0 <= 1e-8 and zm1 <= 1e-8,
        f"det0={det_free:.2e}, det4={det_c4:.2e}, z(0)={z0:.2e}, z(-1)={zm1:.2e}",
    )


def test_criterion_09_special_function_oracles():
    weight = max(
        abs((lambda p: p[0] - p[1])(weight_integral_check(s, x)))
        for s in (0.6, 0.75, 0.9)
        for x in (0.5, 1.0, 3.0)
    )
    bessel = max(
        abs(bessel_k(0.5, 2 * math.pi * n) - math.exp(-2 * math.pi * n) / (2 * math.sqrt(n)))
        / (math.exp(-2 * math.pi * n) / (2 * math.sqrt(n)))
        for n in range(1, 6)
    )
    import random

    rng = random.Random(20130813)
    rec = refl = 0.0
    for _ in range(100):
        s = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(s - round(s.real)) < 0.05 or abs(s + 1 - round(s.real + 1)) < 0.05:
            continue
        rec = max(rec, abs(gamma(s + 1) - s * gamma(s)) / abs(gamma(s + 1)))
        refl = max(refl, abs(gamma(s) * gamma(1 - s) * sinpi(s) - math.pi) / math.pi)
    zeta_fe = 0.0
    for re in (-4.5, -2.5, -0.5, 0.5, 2.5, 4.5):
        for im in (-4.0, 0.0, 4.0):
            s = complex(re, im)
            if abs(s - 1) < 0.3:
                continue
            lhs = riemann_zeta(s)
            rhs = (
                2.0**s * math.pi ** (s - 1) * sinpi(s / 2)
                * gamma(1 - s) * riemann_zeta(1 - s)
            )
            zeta_fe = max(zeta_fe, abs(lhs - rhs) / max(abs(lhs), 1.0))
    report(
        9,
        "quadrature identity, Bessel closed forms, Gamma/zeta invariants",
        weight <= 1e-10 and bessel <= 1e-12 and rec <= 1e-11
        and refl <= 1e-10 and zeta_fe <= 1e-10,
        f"weight={weight:.2e}, K={bessel:.2e}, recur={rec:.2e}, "
        f"refl={refl:.2e}, zetaFE={zeta_fe:.2e}",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    outs = []
    for run in range(3):
        target = tmp_path / f"suite-{run}.json"
        code = main(["identities", "--format", "json", "--out", str(target)])
        capsys.readouterr()
        assert code == 0, "identity suite reported failures"
        outs.append(target.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    doc = json.loads(outs[0])
    report(
        10,
        "identity suite byte-identical across repeated runs",
        ok and doc["passed"],
        f"{len(doc['entries'])} entries",
    )
