import math
import warnings

import numpy as np
import pytest

from toruszeta import quadrature
from toruszeta.errors import DomainError, TruncationWarning
from toruszeta.quadrature import (
    adaptive_gauss,
    central_derivative,
    gauss_panel,
    richardson,
    tanh_sinh,
)


def test_adaptive_gauss_sin():
    res = adaptive_gauss(np.sin, 0.0, math.pi, rel_tol=1e-13)
    assert abs(res.value - 2.0) < 1e-13


def test_adaptive_gauss_needs_ordered_limits():
    with pytest.raises(DomainError):
        adaptive_gauss(np.sin, 1.0, 0.0)


def test_gauss_panel_polynomial_exact():
    # GL(31) integrates degree-61 polynomials exactly
    val = gauss_panel(lambda x: x**7 - 3 * x**2 + 1, 0.0, 2.0, n=31)
    assert abs(val - (2.0**8 / 8 - 2.0**3 + 2.0)) < 1e-12


def test_tanh_sinh_sqrt_singularity():
    res = tanh_sinh(lambda u: u**-0.5, 0.0, 1.0, tol=1e-13)
    assert abs(res.value - 2.0) < 1e-12


def test_tanh_sinh_strong_singularity():
    # u^(-0.9) is integrable but close to the non-integrable edge
    res = tanh_sinh(lambda u: u**-0.9, 0.0, 1.0, tol=1e-13)
    assert abs(res.value - 10.0) < 1e-9 * 10.0


def test_tanh_sinh_log_singularity():
    res = tanh_sinh(np.log, 0.0, 1.0, tol=1e-13)
    assert abs(res.value + 1.0) < 1e-12


def test_tanh_sinh_complex_exponent():
    # int_0^1 u^(-s) du = 1/(1-s) for Re s < 1
    s = 0.3 + 0.4j
    res = tanh_sinh(lambda u: np.exp(-s * np.log(u)), 0.0, 1.0, tol=1e-13)
    assert abs(res.value - 1.0 / (1.0 - s)) < 1e-11


def test_tanh_sinh_smooth():
    res = tanh_sinh(np.exp, 0.0, 1.0, tol=1e-13)
    assert abs(res.value - (math.e - 1.0)) < 1e-13


def test_converging_calls_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tanh_sinh(lambda u: u**-0.5, 0.0, 1.0, tol=1e-13)
        adaptive_gauss(np.sin, 0.0, math.pi, rel_tol=1e-13)


def test_tanh_sinh_level_cap_warns():
    # cos(30u)/sqrt(u) needs five halvings to reach 1e-13
    def f(u):
        return np.cos(30.0 * u) / np.sqrt(u)

    with pytest.warns(TruncationWarning, match="tanh_sinh hit max_level = 3"):
        res = tanh_sinh(f, 0.0, 1.0, tol=1e-13, max_level=3)
    assert res.err_estimate > 1e-13
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tanh_sinh(f, 0.0, 1.0, tol=1e-13, max_level=5)


def test_adaptive_gauss_panel_budget_warns(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2)
    # the kink at x = 1/3 keeps every panel that holds it from converging
    with pytest.warns(TruncationWarning, match="adaptive_gauss hit MAX_PANELS = 2"):
        res = adaptive_gauss(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, rel_tol=1e-13)
    assert abs(res.value - 5.0 / 18.0) < 1e-3


# -------------------------------------------------------------- extrapolation


def test_richardson_recovers_quadratic_limit():
    c, a, b = 1.25, -3.0, 7.0
    values = [c + a * h + b * h * h for h in (1e-1, 1e-2, 1e-3)]
    assert abs(richardson(values, 10.0) - c) < 1e-13


def test_richardson_single_value_is_itself():
    assert richardson([2.5 + 1j], 4.0) == 2.5 + 1j


@pytest.mark.parametrize("levels, bound", [(2, 1e-10), (3, 1e-13)])
@pytest.mark.parametrize("f, df", [(math.exp, math.exp), (math.sin, math.cos)])
def test_central_derivative(f, df, levels, bound):
    # at h = 1e-2 the errors are O(h^4) with two levels and O(h^6) with three
    for x in (-1.3, 0.0, 0.7):
        assert abs(central_derivative(f, x, 1e-2, levels) - df(x)) < bound
