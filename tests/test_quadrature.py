import math
import warnings

import numpy as np
import pytest

from toruszeta import quadrature
from toruszeta.errors import DomainError, TruncationWarning
from toruszeta.quadrature import (
    adaptive_gauss,
    adaptive_gauss_rows,
    central_derivative,
    gauss_panel,
    richardson,
    tanh_sinh,
    tanh_sinh_rows,
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


# ------------------------------------------------------------ stacked cores

# rows of smooth integrands on [0, 3] with scales far apart, and of endpoint
# singularities u^(-p) e^(-k u) on (0, 1) of different strengths
_SMOOTH = np.array([0.2, 1.0, 4.0, 15.0, 60.0])[:, None]
_SINGULAR = np.array([0.1 + 0.4j, 0.5, 0.8 - 0.3j, 0.95])[:, None]
_DECAY = np.array([1.0, 3.0, 0.5, 10.0])[:, None]


def smooth_rows(x, rows):
    return np.exp(-_SMOOTH[rows] * x) / (1.0 + x * x)


def singular_rows(u, rows):
    return np.exp(-_SINGULAR[rows] * np.log(u) - _DECAY[rows] * u)


def test_adaptive_gauss_rows_match_scalar_calls():
    # the error estimate is the 15-point rule's, so at rel_tol = 1e-14 the
    # 31-point values of both are accurate well below it
    res = adaptive_gauss_rows(smooth_rows, 0.0, 3.0, 5, rel_tol=1e-14)
    for r in range(5):
        one = adaptive_gauss(lambda x: smooth_rows(x, [r])[0], 0.0, 3.0, rel_tol=1e-14)
        assert abs(res.value[r] - one.value) <= 1e-14 * abs(one.value)
        assert res.err_estimate[r] <= 1e-14 * abs(res.value[r])


def test_tanh_sinh_rows_match_scalar_calls():
    res = tanh_sinh_rows(singular_rows, 0.0, 1.0, 4, tol=1e-13)
    for r in range(4):
        one = tanh_sinh(lambda u: singular_rows(u, [r])[0], 0.0, 1.0, tol=1e-13)
        assert abs(res.value[r] - one.value) <= 1e-14 * abs(one.value)
        assert res.err_estimate[r] <= 1e-13 * max(1.0, abs(res.value[r]))


def test_stacked_rows_meet_their_own_tolerance():
    # the first row is 1e-12 the size of the second; a tolerance taken from
    # the stack's total would leave it with no correct digit
    scale = np.array([1e-12, 1.0])[:, None]

    def f(x, rows):
        return scale[rows] * np.exp(-_SMOOTH[[3, 0]][rows] * x)

    res = adaptive_gauss_rows(f, 0.0, 3.0, 2, rel_tol=1e-13)
    for r, k in enumerate((15.0, 0.2)):
        exact = scale[r, 0] * (1.0 - math.exp(-3.0 * k)) / k
        assert abs(res.value[r] - exact) <= 1e-13 * exact


def test_stacked_cap_hits_warn():
    with pytest.warns(TruncationWarning, match="tanh_sinh hit max_level = 3"):
        tanh_sinh_rows(singular_rows, 0.0, 1.0, 4, tol=1e-13, max_level=3)


def test_stacked_panel_budget_warns(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2)
    kinks = np.array([1.0 / 3.0, 0.7])[:, None]
    with pytest.warns(TruncationWarning, match="adaptive_gauss hit MAX_PANELS = 2"):
        adaptive_gauss_rows(lambda x, rows: np.abs(x - kinks[rows]), 0.0, 1.0, 2, rel_tol=1e-13)


def test_integrand_calls_stay_within_the_chunk_bound(monkeypatch):
    sizes = []

    def recording(f):
        def g(x, rows):
            sizes.append(len(rows) * x.size)
            return f(x, rows)

        return g

    # all twelve levels of tanh-sinh on four rows, and the default bound
    with pytest.warns(TruncationWarning):
        tanh_sinh_rows(recording(singular_rows), 0.0, 1.0, 4, tol=1e-300, max_level=12)
    assert max(sizes) <= quadrature.CHUNK
    # a small bound splits both cores' calls, and the results do not move
    whole_ts = tanh_sinh_rows(singular_rows, 0.0, 1.0, 4, tol=1e-13)
    whole_ag = adaptive_gauss_rows(smooth_rows, 0.0, 3.0, 5, rel_tol=1e-13)
    monkeypatch.setattr(quadrature, "CHUNK", 64)
    sizes.clear()
    parts_ts = tanh_sinh_rows(recording(singular_rows), 0.0, 1.0, 4, tol=1e-13)
    parts_ag = adaptive_gauss_rows(recording(smooth_rows), 0.0, 3.0, 5, rel_tol=1e-13)
    assert max(sizes) <= 64
    assert np.allclose(parts_ts.value, whole_ts.value, rtol=1e-15, atol=0.0)
    assert np.allclose(parts_ag.value, whole_ag.value, rtol=1e-15, atol=0.0)


def test_stacked_eval_counts_are_rows_times_abscissae():
    one = tanh_sinh(lambda u: u**-0.5, 0.0, 1.0, tol=1e-13)
    both = tanh_sinh_rows(lambda u, rows: np.broadcast_to(u**-0.5, (len(rows), u.size)),
                          0.0, 1.0, 2, tol=1e-13)
    assert both.n_evals == 2 * one.n_evals
    assert adaptive_gauss(np.sin, 0.0, 1.0).n_evals == 46


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
