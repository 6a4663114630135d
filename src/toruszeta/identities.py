"""Registry of machine-checkable identities.

Every mathematical statement realized by this package is registered here as
an IdentityCheck that computes a (lhs, rhs) pair under a given Precision and
compares them at a pinned tolerance.  The CLI `identities` command and the
acceptance tests run this registry; entries are pure, so the output is
deterministic.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable

from .domain import DEFAULT_PRECISION, Precision, Sl2zMatrix, as_tau
from .eta import eta, eta_transform_check
from .operator1d import (
    OperatorSpec,
    log_det,
    log_det_numeric,
    mellin_gamma_zeta_check,
    transfer,
    zeta_operator,
    zeta_p_functional_equation,
)
from .quadrature import taylor
from .specialfn import bessel_k, gamma, lambert_series, riemann_zeta, sigma, sinpi
from .torus import (
    _direct_unreduced,
    _head_plus,
    determinant_torus,
    determinant_torus_numeric,
    eisenstein_cs,
    eisenstein_direct,
    functional_equation_residual,
    heat_kernel,
    kronecker_constant,
    lambert_q1,
    mellin_remainder_tau_i,
    nan_yue_williams_sum,
    pole_residue,
    remainder_bessel,
    remainder_fe_residual,
    remainder_integral,
    theta_mellin_check,
    weight_integral_check,
    zeta_laplacian,
)

PairFn = Callable[[Precision], tuple[complex, complex]]


@dataclass(frozen=True)
class IdentityCheck:
    check_id: str
    statement: str
    tolerance: float
    relative: bool
    compute: PairFn


@dataclass
class SuiteEntry:
    check_id: str
    statement: str
    lhs: complex
    rhs: complex
    residual: float
    tolerance: float
    passed: bool
    runtime_ms: float


@dataclass
class SuiteReport:
    entries: list[SuiteEntry]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def _fmt(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}i"


_TAUS3 = (1j, 0.5 + 0.866j, 0.2 + 1.7j)
# the nyw closed form at tau = i, |eta(i)| = Gamma(1/4) / (2 pi^(3/4)), through
# math.gamma so that it stays independent of the package's own Gamma
_NYW_CONST = -0.5 * math.log(math.gamma(0.25) / (2.0 * math.pi**0.75)) - math.pi / 24.0


def _residual_entry(value_fn: Callable[[Precision], float]) -> PairFn:
    return lambda prec: (complex(value_fn(prec)), 0.0 + 0.0j)


def registry() -> list[IdentityCheck]:
    checks: list[IdentityCheck] = []
    add = checks.append

    # --- eta functional equations -------------------------------------------------
    shift = Sl2zMatrix.shift(1)
    invert = Sl2zMatrix.inversion()
    for tau in (0.3 + 1.2j, 1j):
        add(IdentityCheck(
            f"eta.shift.tau={_fmt(tau)}",
            "eta(tau+1) = e^(i pi/12) eta(tau)",
            1e-10, False,
            lambda prec, t=tau: (eta(as_tau(t).z + 1, prec),
                                 cmath.exp(1j * math.pi / 12) * eta(t, prec)),
        ))
    for tau in (0.5 + 0.8j, 1j):
        add(IdentityCheck(
            f"eta.inversion.tau={_fmt(tau)}",
            "eta(-1/tau) = sqrt(-i tau) eta(tau)",
            1e-10, False,
            lambda prec, t=tau: (eta(-1.0 / as_tau(t).z, prec),
                                 cmath.sqrt(-1j * as_tau(t).z) * eta(t, prec)),
        ))
    add(IdentityCheck(
        "eta.transform.c=5.tau=0.3+1.2i",
        "eta((a tau+b)/(c tau+d)) = eps (c tau+d)^(1/2) eta(tau) for (2,1;5,3)",
        1e-10, False,
        _residual_entry(lambda prec: eta_transform_check(
            Sl2zMatrix(2, 1, 5, 3), 0.3 + 1.2j, prec)),
    ))
    add(IdentityCheck(
        "eta.conjugation.tau=0.37+0.9i",
        "eta(-conj(tau)) = conj(eta(tau))",
        1e-12, False,
        lambda prec: (eta(-0.37 + 0.9j, prec), eta(0.37 + 0.9j, prec).conjugate()),
    ))

    # --- three-representation agreement -------------------------------------------
    for s in (2.0, 3.0, 2.5 + 1j):
        for tau in _TAUS3:
            add(IdentityCheck(
                f"three_method.direct_vs_cs.s={_fmt(s)}.tau={_fmt(tau)}",
                "lattice sum and Bessel series give the same zeta_Laplacian",
                1e-9, True,
                lambda prec, sv=s, t=tau: (
                    zeta_laplacian(sv, t, "direct", prec).value,
                    zeta_laplacian(sv, t, "chowla_selberg", prec).value,
                ),
            ))
    for s_re in (-1.5, -0.5, 0.3, 0.7):
        for s_im in (0.0, 0.5, -0.5):
            for tau in _TAUS3:
                s = complex(s_re, s_im)
                add(IdentityCheck(
                    f"three_method.contour_vs_cs.s={_fmt(s)}.tau={_fmt(tau)}",
                    "contour integral and Bessel series give the same zeta_Laplacian",
                    1e-8, False,
                    lambda prec, sv=s, t=tau: (
                        zeta_laplacian(sv, t, "contour", prec).value,
                        zeta_laplacian(sv, t, "chowla_selberg", prec).value,
                    ),
                ))

    # --- modular invariance of E* --------------------------------------------------
    # the public routes reduce tau first, so the left side sums on the unreduced
    # basis (1, m tau); for the direct sum that tests the shell fit on a skewed lattice
    word = Sl2zMatrix.shift(1) @ Sl2zMatrix.inversion() @ Sl2zMatrix.shift(-2)
    for mat, m_name in ((shift, "T"), (invert, "S"), (word, "TST^-2")):
        add(IdentityCheck(
            f"eisenstein.sl2.{m_name}.s=2.direct",
            "E*(s, m tau) = E*(s, tau) for m in SL(2, Z) (direct sum, s = 2)",
            1e-9, False,
            lambda prec, m=mat: (
                _direct_unreduced(2.0, m.apply(0.3 + 0.9j), prec).value,
                eisenstein_direct(2.0, 0.3 + 0.9j, prec).value,
            ),
        ))
        add(IdentityCheck(
            f"eisenstein.sl2.{m_name}.s=0.4.cs",
            "E*(s, m tau) = E*(s, tau) for m in SL(2, Z) (Bessel series, s = 0.4)",
            1e-9, False,
            lambda prec, m=mat: (
                _head_plus("chowla_selberg", 0.4, m.apply(0.3 + 0.9j), prec).value,
                eisenstein_cs(0.4, 0.3 + 0.9j, prec).value,
            ),
        ))

    # --- remainder equality (the two 'remainders' coincide), relative to |Q| -------
    for s, tau in ((0.3, 0.25 + 1.1j), (-0.5, 1j)):
        add(IdentityCheck(
            f"remainder.integral_vs_bessel.s={_fmt(s)}.tau={_fmt(tau)}",
            "branch-cut integral remainder equals the divisor Bessel series",
            1e-11, True,
            lambda prec, sv=s, t=tau: (
                remainder_integral(sv, t, prec),
                remainder_bessel(sv, t, prec),
            ),
        ))

    # --- pole data and limit formula ------------------------------------------------
    for tau in _TAUS3:
        add(IdentityCheck(
            f"eisenstein.at_zero.tau={_fmt(tau)}",
            "E*(0, tau) = -1",
            1e-10, False,
            lambda prec, t=tau: (eisenstein_cs(0.0, t, prec).value, -1.0 + 0.0j),
        ))
    for tau in (1j, 0.2 + 1.3j):
        add(IdentityCheck(
            f"pole.residue.tau={_fmt(tau)}",
            "(s-1) E*(s, tau) -> pi as s -> 1",
            1e-7, False,
            lambda prec, t=tau: (complex(pole_residue(t, prec)), complex(math.pi)),
        ))
        add(IdentityCheck(
            f"kronecker.limit.tau={_fmt(tau)}",
            "lim (E* - pi/(s-1)) = 2 pi (gamma - log 2 - log(sqrt(tau2) |eta|^2))",
            1e-13, False,
            lambda prec, t=tau: kronecker_constant(t, prec),
        ))

    # --- functional equations --------------------------------------------------------
    for s, tau in ((0.3, 1j), (2 + 0.5j, 0.4 + 0.7j), (0.5 + 2j, 1j), (2.5 + 1j, 0.3 + 0.8j)):
        add(IdentityCheck(
            f"eisenstein.fe.s={_fmt(s)}.tau={_fmt(tau)}",
            "pi^(1-2s) Gamma(s) E*(s) = Gamma(1-s) E*(1-s)",
            1e-9, False,
            _residual_entry(lambda prec, sv=s, t=tau: functional_equation_residual(sv, t, prec)),
        ))
    for s, tau in ((0.3, 1j), (-0.7, 0.2 + 1.5j), (0.5 + 2j, 1j)):
        add(IdentityCheck(
            f"remainder.fe.s={_fmt(s)}.tau={_fmt(tau)}",
            "pi^(1-2s) Gamma(s) Q(s) = Gamma(1-s) Q(1-s)",
            1e-9, False,
            _residual_entry(lambda prec, sv=s, t=tau: remainder_fe_residual(sv, t, prec)),
        ))
    # u = 3 takes the odd-integer branch; at u = 1.3 Euler-Maclaurin sums both
    # zeta(1.3) and zeta(-0.3), so the sides are independent (a zeta(1 - u) with
    # Re(1 - u) < -1/2 would come from the very reflection under test)
    for u in (3.0, 1.3, -0.5):
        add(IdentityCheck(
            f"zeta_p.fe.u={_fmt(u)}",
            "zeta_P(u/2) = 2^u pi^(u-1) Gamma(1-u) sin(pi u/2) zeta_P((1-u)/2)",
            1e-9, False,
            _residual_entry(lambda prec, uv=u: zeta_p_functional_equation(uv, prec)),
        ))

    # --- divisor Bessel sums ----------------------------------------------------------
    add(IdentityCheck(
        "nyw.constant.tau=i",
        "sum sigma_1(n) K_(1/2)(2 pi n) n^(-1/2) = -log(Gamma(1/4) / (2 pi^(3/4)))/2 - pi/24",
        1e-13, False,
        lambda prec: (complex(nan_yue_williams_sum(1j, prec).series), complex(_NYW_CONST)),
    ))
    for tau in (1j, 0.3 + 1.2j):
        add(IdentityCheck(
            f"nyw.closed_form.tau={_fmt(tau)}",
            "divisor Bessel sum = -(tau2^(-1/2)/2) log|eta| - sqrt(tau2) pi/24",
            1e-10, False,
            lambda prec, t=tau: nan_yue_williams_sum(t, prec),
        ))
    add(IdentityCheck(
        "lambert.q1.constant.tau=i",
        "sum sigma_(-1)(n) K_(-1/2)(2 pi n) n^(1/2) = -log(Gamma(1/4) / (2 pi^(3/4)))/2 - pi/24",
        1e-13, False,
        lambda prec: (complex(lambert_q1(1j, prec).series), complex(_NYW_CONST)),
    ))
    add(IdentityCheck(
        "lambert.q1.reduction.tau=i",
        "Q(1, i) = (1/2) sum (1/n) / (e^(2 pi n) - 1)",
        1e-12, False,
        lambda prec: (
            complex(lambert_q1(1j, prec).series),
            complex(0.5 * sum(1.0 / (n * math.expm1(2 * math.pi * n)) for n in range(1, 12))),
        ),
    ))
    for tau in (0.2 + 0.9j, 1j):
        add(IdentityCheck(
            f"lambert.q1.closed_form.tau={_fmt(tau)}",
            "divisor Bessel sum at s = 1 equals its elementary closed form",
            1e-10, False,
            lambda prec, t=tau: lambert_q1(t, prec),
        ))
    add(IdentityCheck(
        "lambert.series.alpha=-1",
        "sum sigma_(-1)(n) q^n equals the Lambert series at q = e^(-2 pi)",
        1e-12, False,
        lambda prec: (
            lambert_series(-1.0, math.exp(-2 * math.pi), prec),
            sum(sigma(-1.0, n) * math.exp(-2 * math.pi * n) for n in range(1, 12)),
        ),
    ))

    # --- determinants -------------------------------------------------------------------
    for tau in (1j, 0.5 + 0.866j, 0.3 + 2j):
        add(IdentityCheck(
            f"det.torus.tau={_fmt(tau)}",
            "exp(-zeta'(0)) from the contour rows at s = 0 = tau2^2 |eta|^4",
            1e-13, True,
            lambda prec, t=tau: (
                complex(determinant_torus_numeric(t, prec)),
                complex(determinant_torus(t, prec)),
            ),
        ))
    # the closed det takes log|eta| at tau reduced; check it against eta itself,
    # multiplier and cocycle included, at two points far from the domain
    for tau in (0.3 + 0.2j, 2.7 + 0.05j):
        add(IdentityCheck(
            f"det.torus.eta.tau={_fmt(tau)}",
            "det = tau2^2 |eta(tau)|^4 with eta through its transformation law",
            1e-12, True,
            lambda prec, t=tau: (
                complex(determinant_torus(t, prec)),
                complex(t.imag**2 * abs(eta(t, prec)) ** 4),
            ),
        ))
    add(IdentityCheck(
        "det.operator.free",
        "det(-d^2/dx^2) = 2 on [0, 1] with Dirichlet ends",
        1e-8, False,
        lambda prec: (complex(math.exp(log_det(OperatorSpec(lambda x: 0.0, "free"), prec))),
                      2.0 + 0.0j),
    ))
    add(IdentityCheck(
        "det.operator.const4",
        "det(-d^2/dx^2 + 4) = sinh(2)",
        1e-8, False,
        lambda prec: (complex(math.exp(log_det(OperatorSpec(lambda x: 4.0, "c4"), prec))),
                      complex(math.sinh(2.0))),
    ))
    vxx = OperatorSpec(lambda x: x * (1 - x), "vxx")
    add(IdentityCheck(
        "det.operator.cross.V=x(1-x)",
        "log det from zeta differentiation matches log(2 u_0(1))",
        1e-12, False,
        lambda prec: (
            complex(log_det_numeric(vxx, prec)),
            complex(log_det(vxx, prec)),
        ),
    ))

    # --- operator zeta against the free closed form ---------------------------------------
    free = OperatorSpec(lambda x: 0.0, "free")
    for s in (-2.5, -1.5, -0.5, 0.3, 0.7):
        add(IdentityCheck(
            f"operator.zeta.free.s={_fmt(s)}",
            "zeta of -d^2/dx^2 equals pi^(-2s) zeta_R(2s)",
            1e-8, False,
            lambda prec, sv=s: (
                zeta_operator(free, sv, prec).value,
                math.pi ** (-2.0 * sv) * riemann_zeta(2.0 * sv),
            ),
        ))
    for s in (-1.0, -2.0):
        add(IdentityCheck(
            f"operator.zeta.free.trivial_zero.s={_fmt(s)}",
            "zeta of -d^2/dx^2 vanishes at negative integers",
            1e-10, False,
            lambda prec, sv=s: (zeta_operator(free, sv, prec).value, 0.0 + 0.0j),
        ))
    add(IdentityCheck(
        "operator.zeta.free.at_zero",
        "zeta(0) = -1/2 for the free operator",
        1e-8, False,
        lambda prec: (zeta_operator(free, 0.0, prec).value, -0.5 + 0.0j),
    ))
    add(IdentityCheck(
        "mellin.gamma_zeta.u=2",
        "int y^(u-1)/(e^y-1) dy = Gamma(u) zeta_R(u) (= pi^2/6 at u = 2)",
        1e-10, False,
        lambda prec: mellin_gamma_zeta_check(2.0, prec),
    ))

    # --- heat kernel inversion --------------------------------------------------------------
    for x in (0.5, 2.0, 5.0):
        for tau in (1j, 0.3 + 1.4j):
            add(IdentityCheck(
                f"heat.jacobi.x={_fmt(x)}.tau={_fmt(tau)}",
                "K(x, tau) = x^(-1) K(1/x, tau)",
                1e-12, False,
                lambda prec, xv=x, t=tau: (
                    complex(heat_kernel(xv, t, prec)),
                    complex(heat_kernel(1.0 / xv, t, prec) / xv),
                ),
            ))

    # --- Mellin / theta consistency -----------------------------------------------------------
    add(IdentityCheck(
        "theta.mellin.s=2.tau=i",
        "(1/2) pi^(-s) Gamma(s) E*(s) equals the heat-trace Mellin integral",
        1e-8, False,
        _residual_entry(lambda prec: theta_mellin_check(2.0, 1j, prec)),
    ))
    add(IdentityCheck(
        "theta.mellin.s=2.5+1i.tau=0.3+0.8i",
        "(1/2) pi^(-s) Gamma(s) E*(s) equals the heat-trace Mellin integral",
        1e-9, False,
        _residual_entry(lambda prec: theta_mellin_check(2.5 + 1j, 0.3 + 0.8j, prec)),
    ))
    for s in (0.5, 0.3):
        add(IdentityCheck(
            f"mellin.remainder.s={_fmt(s)}.tau=i",
            "Mellin form of the remainder at tau = i equals Q(1-s, i)",
            1e-8, False,
            lambda prec, sv=s: (
                mellin_remainder_tau_i(sv, prec),
                remainder_bessel(1.0 - sv, 1j, prec),
            ),
        ))

    # --- quadrature identity for the branch weight ----------------------------------------------
    for s in (0.6, 0.75, 0.9):
        for x in (0.5, 1.0, 3.0):
            add(IdentityCheck(
                f"weight.integral.s={_fmt(s)}.x={_fmt(x)}",
                "int u^(-s) (u+2x)^(-s) du = x^(1-2s) Gamma(1-s) Gamma(s-1/2) / (2 sqrt(pi))",
                1e-10, False,
                lambda prec, sv=s, xv=x: weight_integral_check(sv, xv, prec),
            ))

    # --- special function anchors -----------------------------------------------------------------
    add(IdentityCheck(
        "riemann.basel",
        "zeta_R(2) = pi^2/6",
        1e-12, False,
        lambda prec: (riemann_zeta(2.0), complex(math.pi**2 / 6.0)),
    ))
    add(IdentityCheck(
        "riemann.at_zero",
        "zeta_R(0) = -1/2",
        1e-12, False,
        lambda prec: (riemann_zeta(0.0), -0.5 + 0.0j),
    ))
    add(IdentityCheck(
        "riemann.deriv_at_zero",
        "zeta_R'(0) = -log(2 pi)/2 (Taylor coefficient on a circle about 0)",
        1e-9, False,
        lambda prec: (
            complex(taylor(lambda zs: [riemann_zeta(z) for z in zs.tolist()], 0.0, 0.02)[1]),
            complex(-0.5 * math.log(2.0 * math.pi)),
        ),
    ))
    add(IdentityCheck(
        "gamma.reflection.s=0.3+0.7i",
        "Gamma(s) Gamma(1-s) = pi / sin(pi s)",
        1e-10, False,
        lambda prec: (
            gamma(0.3 + 0.7j) * gamma(0.7 - 0.7j),
            math.pi / sinpi(0.3 + 0.7j),
        ),
    ))
    for n in range(1, 6):
        add(IdentityCheck(
            f"bessel.half_order.n={n}",
            "K_(1/2)(2 pi n) = e^(-2 pi n) / (2 sqrt(n))",
            1e-12, True,
            lambda prec, nv=n: (
                complex(bessel_k(0.5, 2.0 * math.pi * nv, prec)),
                complex(math.exp(-2.0 * math.pi * nv) / (2.0 * math.sqrt(nv))),
            ),
        ))
    add(IdentityCheck(
        "sigma.fe.n=12",
        "sigma_v(n) = n^v sigma_(-v)(n) at v = 1-2s, s = 0.7",
        1e-12, True,
        lambda prec: (
            sigma(1.0 - 2.0 * 0.7, 12),
            12.0 ** (1.0 - 2.0 * 0.7) * sigma(-(1.0 - 2.0 * 0.7), 12),
        ),
    ))
    add(IdentityCheck(
        "operator.ivp.free.lambda=2.5",
        "u_lambda(1) = sin(sqrt(lambda))/sqrt(lambda) for V = 0",
        1e-10, False,
        lambda prec: (
            complex(transfer(free, [-2.5], prec)[0][0]),
            complex(math.sin(math.sqrt(2.5)) / math.sqrt(2.5)),
        ),
    ))

    checks.sort(key=lambda c: c.check_id)
    ids = [c.check_id for c in checks]
    if len(ids) != len(set(ids)):
        raise RuntimeError("duplicate identity ids in registry")
    return checks


def run_suite(
    prec: Precision = DEFAULT_PRECISION,
    filter_pattern: str | None = None,
) -> SuiteReport:
    """Run (a filtered subset of) the registry and report lhs/rhs/residual per
    identity, in registry order (sorted by id)."""
    checks = registry()
    if filter_pattern:
        needle = filter_pattern.lower()
        checks = [c for c in checks if needle in c.check_id.lower()]

    def run_one(check: IdentityCheck) -> SuiteEntry:
        start = time.perf_counter()
        lhs, rhs = check.compute(prec)
        elapsed = (time.perf_counter() - start) * 1e3
        lhs, rhs = complex(lhs), complex(rhs)
        residual = abs(lhs - rhs)
        if check.relative:
            residual /= max(abs(rhs), 1e-300)
        return SuiteEntry(
            check.check_id, check.statement, lhs, rhs, residual, check.tolerance,
            bool(residual <= check.tolerance), elapsed,
        )

    return SuiteReport([run_one(c) for c in checks])
