import cmath
import math

import pytest

from toruszeta.domain import Precision
from toruszeta.errors import DomainError, PoleError, SpectrumError, ZeroModeError
from toruszeta.operator1d import (
    OperatorSpec,
    log_det,
    log_det_numeric,
    mellin_gamma_zeta_check,
    shooting_solution,
    zeta_operator,
    zeta_p,
    zeta_p_functional_equation,
)
from toruszeta.quadrature import tanh_sinh
from toruszeta.specialfn import riemann_zeta, sinpi


def free_spec() -> OperatorSpec:
    return OperatorSpec(lambda x: 0.0, "free")


# ------------------------------------------------------------- IVP solution


def test_ivp_free_first_eigenvalue():
    sol = shooting_solution(free_spec(), math.pi**2)
    assert abs(sol.u_at_1) < 1e-11


def test_ivp_free_closed_form():
    sol = shooting_solution(free_spec(), 2.5)
    assert abs(sol.u_at_1 - math.sin(math.sqrt(2.5)) / math.sqrt(2.5)) < 1e-12


def test_ivp_constant_potential_closed_form():
    spec = OperatorSpec(lambda x: 4.0, "c4")
    sol = shooting_solution(spec, 0.0)
    assert abs(sol.u_at_1 - math.sinh(2.0) / 2.0) < 1e-12


def test_ivp_complex_lambda():
    lam = 1.5 + 2.0j
    sol = shooting_solution(free_spec(), lam)
    root = cmath.sqrt(lam)
    assert abs(sol.u_at_1 - cmath.sin(root) / root) < 1e-11


def test_operator_spec_rejects_nonfinite_potential():
    with pytest.raises(DomainError):
        OperatorSpec(lambda x: math.inf if x > 0.5 else 0.0, "bad")


# --------------------------------------------------------------- zeta values


def test_zeta_free_matches_riemann():
    spec = free_spec()
    for s in (-2.5, -1.5, -0.5, 0.3, 0.7):
        got = zeta_operator(spec, s).value.real
        want = (math.pi ** (-2.0 * s) * riemann_zeta(2.0 * s)).real
        assert abs(got - want) < 1e-8


def test_zeta_free_at_zero():
    assert zeta_operator(free_spec(), 0.0).value == -0.5


def test_zeta_free_trivial_zeros():
    spec = free_spec()
    for s in (-1.0, -2.0):
        assert abs(zeta_operator(spec, s).value) < 1e-10


def test_zeta_domain_windows():
    with pytest.raises(DomainError):
        zeta_operator(free_spec(), 1.2)
    bumpy = OperatorSpec(lambda x: 1.0 + x, "affine")
    with pytest.raises(DomainError):
        zeta_operator(bumpy, -0.75)


def test_zeta_pole_at_half():
    for spec in (free_spec(), OperatorSpec(lambda x: 1.0 + x, "affine")):
        with pytest.raises(PoleError):
            zeta_operator(spec, 0.5)


def test_zeta_asymptotic_part_derivative_is_minus_one():
    # closed form sin(pi s)/(2 pi) (1/(s-1/2) - 1/s): derivative -1 at 0
    def asy(s: float) -> float:
        return sinpi(s).real / (2.0 * math.pi) * (1.0 / (s - 0.5) - 1.0 / s)

    h = 1e-6
    deriv = (asy(h) - asy(-h)) / (2.0 * h)
    assert abs(deriv + 1.0) < 1e-9


def test_interval_power_tail_closed_form():
    # int_1^inf lambda^(-alpha) = 1/(alpha-1), via w = 1/lambda substitution
    for alpha in (1.5, 2.0, 3.0):
        quad = tanh_sinh(lambda w: w ** (alpha - 2.0), 0.0, 1.0, tol=1e-14).value
        assert abs(quad - 1.0 / (alpha - 1.0)) < 1e-12


# --------------------------------------------------------------- determinant


def test_det_free_is_two():
    assert abs(math.exp(log_det(free_spec())) - 2.0) < 1e-8


def test_det_constant_potential():
    spec = OperatorSpec(lambda x: 4.0, "c4")
    assert abs(math.exp(log_det(spec)) - math.sinh(2.0)) < 1e-8


def test_det_stable_under_tolerance_tightening():
    spec = OperatorSpec(lambda x: math.cos(2.0 * x), "cos")
    loose = Precision()
    tight = Precision(quad_rel_tol=0.5e-12, series_tail_tol=0.5e-14)
    assert abs(log_det(spec, loose) - log_det(spec, tight)) < 1e-8


def test_det_numeric_cross_check():
    spec = OperatorSpec(lambda x: x * (1.0 - x), "vxx")
    assert abs(log_det_numeric(spec) - log_det(spec)) < 1e-6


def test_det_numeric_cross_check_free():
    assert abs(log_det_numeric(free_spec()) - math.log(2.0)) < 1e-6


def test_zero_mode_rejected():
    # V = -pi^2 puts the first Dirichlet eigenvalue exactly at zero
    spec = OperatorSpec(lambda x: -math.pi**2, "zero-mode")
    with pytest.raises(ZeroModeError):
        log_det(spec)


def test_negative_spectrum_rejected():
    spec = OperatorSpec(lambda x: -(math.pi**2) - 5.0, "negative")
    with pytest.raises((SpectrumError, ZeroModeError)):
        log_det(spec)


# ----------------------------------------------------- zeta_P worked example


def test_zeta_p_values():
    assert zeta_p(0.0) == -0.5
    assert abs(zeta_p(1.0) - math.pi**2 / 6.0) < 1e-14
    assert zeta_p(-1.0) == 0.0


def test_zeta_p_functional_equation_grid():
    for u in (3.0, 2.0, 2.2, 0.5, -1.3, 2.0 + 1.0j, 5.0):
        assert zeta_p_functional_equation(u) < 1e-9


def test_zeta_p_functional_equation_example_point():
    assert zeta_p_functional_equation(3.0) < 1e-10


def test_zeta_p_functional_equation_poles():
    with pytest.raises(Exception):
        zeta_p_functional_equation(1.0)
    with pytest.raises(Exception):
        zeta_p_functional_equation(0.0)


def test_mellin_gamma_zeta_at_two():
    quad, closed = mellin_gamma_zeta_check(2.0)
    assert abs(quad - closed) < 1e-12
    assert abs(quad - math.pi**2 / 6.0) < 1e-12


def test_mellin_gamma_zeta_complex():
    quad, closed = mellin_gamma_zeta_check(3.5 + 1.0j)
    assert abs(quad - closed) < 1e-12


def test_mellin_gamma_zeta_domain():
    with pytest.raises(DomainError):
        mellin_gamma_zeta_check(0.8)
