import cmath
import math
import warnings

import numpy as np
import pytest

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
    transfer,
    zeta_operator,
    zeta_p,
    zeta_p_functional_equation,
)
from toruszeta.quadrature import (
    QuadResult,
    _leggauss,
    adaptive_gauss_rows,
    tanh_sinh,
    tanh_sinh_rows,
)
from toruszeta.specialfn import riemann_zeta, sinpi


def free_spec() -> OperatorSpec:
    return OperatorSpec(lambda x: 0.0, "free")


def dop853(v, lam: complex) -> complex:
    """u(1) of u'' = (V - lam) u, u(0) = 0, u'(0) = 1 by scipy's DOP853 in
    complex arithmetic: the independent oracle for the Magnus propagator."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    lam = complex(lam)
    sol = solve_ivp(
        lambda x, y: np.array([y[1], (v(x) - lam) * y[0]]),
        (0.0, 1.0), np.array([0.0j, 1.0 + 0.0j]), method="DOP853", rtol=1e-13, atol=1e-14,
    )
    assert sol.success, sol.message
    return complex(sol.y[0, -1])


def u_at_1(spec: OperatorSpec, lam: complex) -> complex:
    return complex(transfer(spec, [-lam])[0][0])


# ------------------------------------------------------------- IVP solution


def test_ivp_free_first_eigenvalue():
    assert abs(u_at_1(free_spec(), math.pi**2)) < 1e-11


def test_ivp_free_closed_form():
    assert abs(u_at_1(free_spec(), 2.5) - math.sin(math.sqrt(2.5)) / math.sqrt(2.5)) < 1e-12


def test_ivp_constant_potential_closed_form():
    spec = OperatorSpec(lambda x: 4.0, "c4")
    assert abs(u_at_1(spec, 0.0) - math.sinh(2.0) / 2.0) < 1e-12


def test_ivp_complex_lambda():
    lam = 1.5 + 2.0j
    root = cmath.sqrt(lam)
    assert abs(u_at_1(free_spec(), lam) - cmath.sin(root) / root) < 1e-11


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
    oracle = np.array([dop853(FAMILIES[name], -t).real for t in T_NODES])
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
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    sol = solve_ivp(
        lambda x, y: [y[1], v_pot(x) * y[0], y[3], v_pot(x) * y[2] - y[0]],
        (0.0, 1.0), [0.0, 1.0, 0.0, 0.0], method="DOP853", rtol=1e-13, atol=1e-14,
    )
    u, w = transfer(OperatorSpec(v_pot, name), [0.0, 1e-10])
    assert abs(u[0] - sol.y[0, -1]) < 1e-11 * abs(u[0])
    assert abs(w[0] + sol.y[2, -1]) < 1e-10 * abs(w[0])
    assert abs(w[1] / w[0] - 1.0) < 1e-8


@pytest.mark.parametrize("name", ["sin", "exp-2"])
def test_transfer_complex_lambda_matches_dop853(name):
    lams = np.array([3.0 + 4.0j, 30.0 - 10.0j, 50.0 + 20.0j])
    u, _ = transfer(OperatorSpec(FAMILIES[name], name), -lams)
    oracle = np.array([dop853(FAMILIES[name], lam) for lam in lams])
    assert np.max(np.abs(u / oracle - 1.0)) < 1e-11


@pytest.mark.parametrize("t", [20000.0, -20000.0])
def test_transfer_fits_step_count_to_largest_t(monkeypatch, t):
    # far past the t <= 400 that zeta_operator integrates over, a step count
    # fitted there alone leaves errors of 3e-11 (t = 20000) and 6e-11
    # (lambda = 20000)
    v = FAMILIES["sin"]
    spec = OperatorSpec(v, "sin")
    magnus_steps, sizes = operator1d._magnus_steps, []

    def recorded(v, n):
        sizes.append(n)
        return magnus_steps(v, n)

    monkeypatch.setattr(operator1d, "_magnus_steps", recorded)
    u, _ = transfer(spec, [t])
    n = sizes[-1] // 2  # the last doubling tried is the one that agreed
    ref, dref, _ = operator1d._propagate(magnus_steps(v, 8 * n), np.array([t]))
    scale = abs(ref[0]) + abs(dref[0]) / math.sqrt(1.0 + abs(t))
    assert abs(u[0] - ref[0]) < 1e-13 * scale


def test_transfer_empty_ts():
    for ts in (np.array([]), np.array([], complex)):
        u, w = transfer(free_spec(), ts)
        assert u.shape == w.shape == (0,) and u.dtype == w.dtype == ts.dtype


def test_operator_spec_takes_only_potential_and_label():
    # the free flag and the mean of V are derived from the potential
    with pytest.raises(TypeError):
        OperatorSpec(lambda x: x, "x", True)
    with pytest.raises(TypeError):
        OperatorSpec(lambda x: x, _mean_v=5.0)


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


def one_row(res: QuadResult) -> QuadResult:
    """The QuadResult of a one-row call of a stacked quadrature core."""
    (value,), (err,) = res.value, res.err_estimate
    return QuadResult(complex(value), float(err), res.n_evals)


def traced_tail(monkeypatch) -> list:
    """Record (integrand, a, b, QuadResult) of each adaptive_gauss_rows call
    that zeta_operator makes, its lambda tail in x = log lambda, as a one-row
    integrand f(x) and result."""
    calls = []

    def traced(f, a, b, rows, **kwargs):
        res = adaptive_gauss_rows(f, a, b, rows, **kwargs)
        calls.append((lambda x: f(x, np.zeros(1, int))[0], a, b, one_row(res)))
        return res

    monkeypatch.setattr(operator1d, "adaptive_gauss_rows", traced)
    return calls


def test_zeta_free_converges_and_counts_every_node(monkeypatch):
    heads = []

    def traced_tanh_sinh_rows(*args, **kwargs):
        res = tanh_sinh_rows(*args, **kwargs)
        heads.append(one_row(res))
        return res

    monkeypatch.setattr(operator1d, "tanh_sinh_rows", traced_tanh_sinh_rows)
    tails = traced_tail(monkeypatch)
    for s in (0.7, 0.95):
        heads.clear()
        tails.clear()
        got = zeta_operator(free_spec(), s)
        want = math.pi ** (-2.0 * s) * riemann_zeta(2.0 * s).real
        assert abs(got.value - want) < 1e-12
        (head,), ((_, _, _, tail),) = heads, tails
        assert head.err_estimate <= 1e-13 * max(1.0, abs(head.value))  # not the level cap
        assert got.diagnostics.quad_evals == head.n_evals + tail.n_evals


# the seven potentials of the tail checks; V = 0 takes the closed-form tail
TAIL_POTENTIALS = {
    "free": lambda x: 0.0,
    "const4": lambda x: 4.0,
    "const-8": lambda x: -8.0,
    "poly": lambda x: -3.0 * x * x + 2.0 * x - 1.0,
    "sin": lambda x: -4.0 * math.sin(3.0 * x + 3.0),
    "exp": lambda x: 1.7 * math.exp(-1.2 * x),
    "vxx": lambda x: x * (1.0 - x),
}
TAIL_S = [-0.45, -1e-5, 1e-5, 0.7, 0.95, 0.9 - 5j]


def fine_gauss(f, a: float, b: float) -> complex:
    """48-point Gauss-Legendre on 60 equal panels of [a, b]: geometric panels
    in lambda."""
    x, w = _leggauss(48)
    edges = np.linspace(a, b, 61)
    mid, half = (edges[1:] + edges[:-1])[:, None] / 2.0, (edges[1:] - edges[:-1])[:, None] / 2.0
    return complex(np.sum(half * w * f((mid + half * x).ravel()).reshape(60, -1)))


@pytest.mark.parametrize("s", TAIL_S, ids=str)
@pytest.mark.parametrize("name", sorted(TAIL_POTENTIALS))
def test_zeta_tail_estimate_bounds_error_without_runaway(monkeypatch, name, s):
    tails = traced_tail(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        zeta_operator(OperatorSpec(TAIL_POTENTIALS[name], name), s)
    ((f, a, b, tail),) = tails
    # h = log u + log(2 sqrt t) - sqrt t cancels terms of size sqrt t, so each
    # integrand value carries a rounding of about eps sqrt(t) |t^-s|, and no
    # rule gets closer than its integral, 2 eps int_a^b e^((1/2 - Re s) x) dx
    p = 0.5 - complex(s).real
    rounding = 2.0 * np.finfo(float).eps * (math.exp(p * b) - math.exp(p * a)) / p
    assert abs(tail.value - fine_gauss(f, a, b)) <= tail.err_estimate + rounding
    # a tail that chased the propagator's rounding would run to MAX_PANELS
    # and warn; a fixed 24/32-point Gauss pair on nine geometric panels, 504
    # nodes, already reaches this accuracy.  At 0.9-5i the head stops at its
    # level cap and warns.
    assert tail.n_evals <= 504
    assert isinstance(s, complex) or not caught, [str(w.message) for w in caught]


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


MISS_POTENTIALS = {"0": lambda x: 0.0, "x(1-x)": lambda x: x * (1.0 - x), "4": lambda x: 4.0}


@pytest.mark.parametrize("label", list(MISS_POTENTIALS))
def test_zeta_quadrature_miss_reaches_the_diagnostics(label):
    # at s = 0.9 - 5i the tanh-sinh head runs to its level cap; at s = 0.7
    # both lambda quadratures meet their tolerance
    spec = OperatorSpec(MISS_POTENTIALS[label], label)
    with pytest.warns(TruncationWarning, match="tanh_sinh hit max_level = 8"):
        missed = zeta_operator(spec, 0.9 - 5j)
    assert missed.diagnostics.warnings == [
        "lambda quadrature above max(1e-13, quad_rel_tol / 10)"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeta_operator(spec, 0.7).diagnostics.warnings == []


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
    assert abs(log_det_numeric(spec) - log_det(spec)) < 1e-12


def test_det_numeric_cross_check_free():
    assert abs(log_det_numeric(free_spec()) - math.log(2.0)) < 1e-12


# the four points above the axis of log_det_numeric's Taylor circle
CIRCLE_S = [0.01 * cmath.exp(1j * math.pi * (2 * k + 1) / 8) for k in range(4)]


@pytest.mark.parametrize("ss", [TAIL_S, CIRCLE_S], ids=["tail_s", "circle"])
@pytest.mark.parametrize("name", ["free", "const4", "sin", "vxx"])
def test_zeta_rows_match_one_row_calls(name, ss):
    # the stacked core shares the propagator and the nodes, not the result:
    # each row is the value zeta_operator gives for its s alone.  The rows
    # share their tail panels, and a converged row has its tail to rounding
    # on either panel set.  At 0.9-5i the head stops at its level cap and
    # warns; that row's tail panels then move it within its err_estimate.
    spec = OperatorSpec(TAIL_POTENTIALS[name], name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rows = operator1d._zeta_rows(spec, np.array(ss, complex))[0]
    for s, got in zip(ss, rows):
        with warnings.catch_warnings(record=True) as capped:
            warnings.simplefilter("always", TruncationWarning)
            want = zeta_operator(spec, s)
        bound = want.err_estimate if capped else 1e-15 * max(1.0, abs(want.value))
        assert abs(got - want.value) <= bound


def test_log_det_numeric_builds_one_propagator(monkeypatch):
    built = []
    propagator = operator1d._propagator

    def counted(*args, **kwargs):
        built.append(args)
        return propagator(*args, **kwargs)

    monkeypatch.setattr(operator1d, "_propagator", counted)
    log_det_numeric(OperatorSpec(TAIL_POTENTIALS["vxx"], "vxx"))
    assert len(built) == 1


# log_det and zeta_operator refuse an operator by one shared check of u_0(1)
DETERMINANT_AND_ZETA = (log_det, lambda spec: zeta_operator(spec, 0.3))


def test_zero_mode_rejected():
    # V = -pi^2 puts the first Dirichlet eigenvalue exactly at zero, and
    # -pi^2 +- 1e-8 within 1e-8 of it; the step count still converges, so no
    # TruncationWarning comes first
    for shift in (0.0, 1e-8, -1e-8):
        spec = OperatorSpec(lambda x, c=shift - math.pi**2: c, "zero-mode")
        for call in DETERMINANT_AND_ZETA:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ZeroModeError):
                    call(spec)


def test_negative_spectrum_rejected():
    spec = OperatorSpec(lambda x: -(math.pi**2) - 5.0, "negative")
    for call in DETERMINANT_AND_ZETA:
        with pytest.raises((SpectrumError, ZeroModeError)):
            call(spec)


def test_zeta_rejects_negative_spectrum():
    # one negative eigenvalue makes u_0(1) < 0; two leave u_0(1) > 0, and u
    # changes sign on the integrated range instead.  The stacked rows of
    # log_det_numeric check every node as a single s does.
    for shift in (math.pi**2 + 5.0, 4.0 * math.pi**2 + 5.0):
        spec = OperatorSpec(lambda x, c=-shift: c, "negative")
        for call in (lambda: zeta_operator(spec, 0.3), lambda: log_det_numeric(spec)):
            with pytest.raises(SpectrumError):
                call()


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
