import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from toruszeta import operator1d
from toruszeta.domain import Precision
from toruszeta.errors import (
    DomainError,
    PoleError,
    SpectrumError,
    TruncationWarning,
    ZeroModeError,
)
from toruszeta.operator1d import (
    OperatorSpec,
    log_det,
    log_det_numeric,
    mellin_gamma_zeta_check,
    shooting_solution,
    transfer,
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


# --------------------------------------------------- batched propagator

# one or two of each family, negative amplitudes included
FAMILIES = {
    "const-8": lambda x: -8.0,
    "const4": lambda x: 4.0,
    "poly": lambda x: -3.0 * x * x + 2.0 * x - 1.0,
    "sin": lambda x: -4.0 * math.sin(3.0 * x + 3.0),
    "sin2": lambda x: 2.0 * math.sin(2.1 * x + 1.0),
    "exp": lambda x: 1.1 * math.exp(0.9 * x),
    "exp-2": lambda x: -2.0 * math.exp(1.5 * x),
}
T_NODES = np.array([0.0, 1e-10, 1e-4, 0.3, 1.0, 7.0, 50.0, 200.0, 400.0])


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_transfer_matches_dop853(name):
    spec = OperatorSpec(FAMILIES[name], name)
    u, w = transfer(spec, T_NODES)
    oracle = np.array([shooting_solution(spec, -t).u_at_1.real for t in T_NODES])
    assert np.max(np.abs(np.log(u) - np.log(oracle))) < 1e-11
    # away from t = 0 the oracle's own divided difference is accurate
    moderate = slice(3, 6)
    want = (oracle[moderate] - oracle[0]) / T_NODES[moderate]
    assert np.max(np.abs(w[moderate] / want - 1.0)) < 1e-10
    # and w is the divided difference of the propagator's own u, to rounding
    own = (u[moderate] - u[0]) / T_NODES[moderate]
    assert np.max(np.abs(w[moderate] / own - 1.0)) < 1e-13


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_transfer_slope_at_zero_matches_variational_system(name):
    # v = du/dlambda solves v'' = V v - u, v(0) = v'(0) = 0; d/dt = -d/dlambda
    v_pot = FAMILIES[name]
    sol = solve_ivp(
        lambda x, y: [y[1], v_pot(x) * y[0], y[3], v_pot(x) * y[2] - y[0]],
        (0.0, 1.0), [0.0, 1.0, 0.0, 0.0], method="DOP853", rtol=1e-13, atol=1e-14,
    )
    u, w = transfer(OperatorSpec(v_pot, name), [0.0, 1e-10])
    assert abs(u[0] - sol.y[0, -1]) < 1e-11 * abs(u[0])
    assert abs(w[0] + sol.y[2, -1]) < 1e-10 * abs(w[0])
    assert abs(w[1] / w[0] - 1.0) < 1e-8


def test_transfer_step_cap_warns():
    spec = OperatorSpec(FAMILIES["sin"], "sin")
    with pytest.warns(TruncationWarning, match="Magnus step count hit n_max"):
        transfer(spec, [0.0], Precision(n_max=20))


def test_zeta_call_order_independent():
    # a loose call on a spec must not change a later default-precision call
    spec = OperatorSpec(FAMILIES["sin2"], "sin2")
    zeta_operator(spec, 0.3, Precision(quad_rel_tol=1e-4))
    fresh = OperatorSpec(FAMILIES["sin2"], "sin2")
    assert zeta_operator(spec, 0.3).value == zeta_operator(fresh, 0.3).value


def test_zeta_free_converges_and_counts_every_node(monkeypatch):
    heads = []

    def traced_tanh_sinh(*args, **kwargs):
        heads.append(tanh_sinh(*args, **kwargs))
        return heads[-1]

    monkeypatch.setattr(operator1d, "tanh_sinh", traced_tanh_sinh)
    for s in (0.7, 0.95):
        heads.clear()
        got = zeta_operator(free_spec(), s)
        want = math.pi ** (-2.0 * s) * riemann_zeta(2.0 * s).real
        assert abs(got.value - want) < 1e-12
        (head,) = heads
        assert head.err_estimate <= 1e-13 * max(1.0, abs(head.value))  # not the level cap
        # the tail: 24 + 32 Gauss nodes on each of [1, 2], [2, 4], ..., [256, 400]
        assert got.diagnostics.quad_evals == head.n_evals + 9 * (24 + 32)


@pytest.mark.parametrize("v, mean", [
    (lambda x: x * (1.0 - x), 1.0 / 6.0),
    (lambda x: math.exp(2.0 * x), (math.exp(2.0) - 1.0) / 2.0),
])
def test_operator_spec_mean_of_potential(v, mean):
    assert abs(OperatorSpec(v)._mean_v - mean) < 4e-15 * mean


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
    # V = -pi^2 puts the first Dirichlet eigenvalue exactly at zero; the step
    # count still converges, so no TruncationWarning comes first
    spec = OperatorSpec(lambda x: -math.pi**2, "zero-mode")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroModeError):
            log_det(spec)


def test_negative_spectrum_rejected():
    spec = OperatorSpec(lambda x: -(math.pi**2) - 5.0, "negative")
    with pytest.raises((SpectrumError, ZeroModeError)):
        log_det(spec)


def test_zeta_rejects_negative_spectrum():
    # one negative eigenvalue makes u_0(1) < 0; two leave u_0(1) > 0, and u
    # changes sign on the integrated range instead
    for shift in (math.pi**2 + 5.0, 4.0 * math.pi**2 + 5.0):
        spec = OperatorSpec(lambda x, c=-shift: c, "negative")
        with pytest.raises(SpectrumError):
            zeta_operator(spec, 0.3)


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
