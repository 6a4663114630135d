import math
import warnings

import numpy as np
import pytest

from toruszeta import quadrature
from toruszeta.domain import Diagnostics, Precision
from toruszeta.errors import DomainError, NonFiniteError, TruncationWarning
from toruszeta.quadrature import (
    adaptive_gauss,
    adaptive_gauss_rows,
    gauss_panel,
    sum_series,
    tanh_sinh,
    tanh_sinh_rows,
    taylor,
    trapezoid_rows,
)

_EPS = np.finfo(float).eps


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


def test_tanh_sinh_err_estimate_carries_the_rounding_term():
    # a converged row's last change can be 0.0, but its node sums still carry
    # a rounding of 4 eps int |f|, taken from the level-0 sum of |f| (within
    # 10% of the integral for each of these)
    assert tanh_sinh(lambda u: u**-0.5, 0.0, 1.0).err_estimate >= 4.0 * _EPS * 2.0
    for f, b, abs_integral in [
        # int_0^5 u^(-0.3) e^(-u) du, the lower incomplete gamma(0.7, 5)
        (lambda u: u**-0.3 * np.exp(-u), 5.0, 1.2941011419345188),
        (np.exp, 1.0, math.e - 1.0),
    ]:
        res = tanh_sinh(f, 0.0, b)
        assert abs(res.value - abs_integral) <= 2e-15 * abs_integral
        assert res.err_estimate >= 4.0 * _EPS * 0.9 * abs_integral


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


def test_eval_counts_are_the_abscissae_f_received():
    # tanh-sinh drops the nodes that round onto an endpoint, and rows stop at
    # different levels; n_evals counts what f was given
    seen = []

    def f(u, rows):
        seen.append(len(rows) * u.size)
        return singular_rows(u, rows)

    res = tanh_sinh_rows(f, 0.0, 1.0, 4, tol=1e-13)
    assert res.n_evals == sum(seen)
    seen.clear()
    one = tanh_sinh(lambda u: f(u, np.zeros(1, int))[0], 0.0, 5.0)
    assert one.n_evals == sum(seen)


# ------------------------------------------------------------- trapezoid core

# int_0^(2 pi) e^(k cos x) dx = 2 pi I_0(k), by the trapezoid rule on a period
_PERIODIC = np.array([0.0, 0.5, 4.0, 20.0])[:, None]


def periodic_nodes(level):
    """Every node of 4 intervals on [0, 2 pi) at level 0, the new odd ones after."""
    n = 4 << level
    h = 2.0 * math.pi / n
    x = h * (np.arange(1, n, 2) if level else np.arange(n))
    return x, np.ones(x.size), h


def test_trapezoid_rows_stop_each_row_on_its_own_test():
    seen = []

    def f(x, rows):
        seen.append(rows.copy())
        return np.exp(_PERIODIC[rows] * np.cos(x))

    res = trapezoid_rows(f, periodic_nodes, 4, 1e-12, 0.0, 1, 10, "cap")
    exact = 2.0 * math.pi * np.i0(_PERIODIC[:, 0])
    assert np.all(np.abs(res.value - exact) <= res.err_estimate)
    assert np.all(res.err_estimate <= (1e-12 + 4.0 * _EPS) * exact)
    # the constant row is exact at level 0 and stops at level first = 1;
    # the others run longer, e^(20 cos x) longest
    assert [r.tolist() for r in seen[:3]] == [[0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3]]
    assert seen[-1].tolist() == [3]
    assert res.n_evals == 4 * 4 + sum(r.size * (4 << i) for i, r in enumerate(seen[1:]))


def test_trapezoid_rows_first_level_and_floor():
    # a constant row takes every level up to first; with floor 1 a row of
    # size 3e-22 stops on an absolute test at first, with floor 0 it does not
    def tiny(x, rows):
        return 1e-30 * np.exp(20.0 * np.cos(x)) * np.ones((rows.size, 1))

    const = trapezoid_rows(lambda x, rows: np.ones((rows.size, x.size)), periodic_nodes, 1,
                           1e-12, 1.0, 3, 10, "cap")
    assert const.n_evals == 4 + 4 + 8 + 16
    absolute = trapezoid_rows(tiny, periodic_nodes, 1, 1e-12, 1.0, 1, 10, "cap")
    relative = trapezoid_rows(tiny, periodic_nodes, 1, 1e-12, 0.0, 1, 10, "cap")
    assert absolute.n_evals == 4 + 4
    assert relative.n_evals > absolute.n_evals
    assert abs(relative.value[0] - 2e-30 * math.pi * np.i0(20.0)) <= relative.err_estimate[0]


def test_trapezoid_rows_cap_warns_with_its_message():
    # a NaN row never converges; the rows that do are left alone
    def f(x, rows):
        vals = np.exp(_PERIODIC[rows] * np.cos(x))
        vals[rows == 0] = np.nan
        return vals

    with pytest.warns(TruncationWarning, match="^my rule hit its cap$"):
        res = trapezoid_rows(f, periodic_nodes, 4, 1e-12, 0.0, 1, 6, "my rule hit its cap")
    assert np.isnan(res.value[0])
    exact = 2.0 * math.pi * np.i0(_PERIODIC[1:, 0])
    assert np.all(np.abs(res.value[1:] - exact) <= res.err_estimate[1:])
    # a last level below 1 leaves the level-0 sum, with no estimate of its error
    for last in (0, -1):
        with pytest.warns(TruncationWarning, match="^no halving$"):
            only = trapezoid_rows(f, periodic_nodes, 4, 1e-12, 0.0, 1, last, "no halving")
        assert only.n_evals == 4 * 4 and np.all(np.isinf(only.err_estimate[1:]))


def test_trapezoid_rows_miss_on_the_rounding_term_alone():
    # a constant row is exact from level 0, so it stops at level first with no
    # warning, but its rounding term 4 eps 2 pi is above tol = 1e-17 of it
    def ones(x, rows):
        return np.ones((rows.size, x.size))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tight = trapezoid_rows(ones, periodic_nodes, 1, 1e-17, 0.0, 1, 10, "cap")
        loose = trapezoid_rows(ones, periodic_nodes, 1, 1e-12, 0.0, 1, 10, "cap")
    assert tight.n_evals == loose.n_evals == 4 + 4
    assert tight.missed and not loose.missed


def test_cores_say_when_a_row_missed(monkeypatch):
    assert not tanh_sinh_rows(singular_rows, 0.0, 1.0, 4, tol=1e-13).missed
    assert not adaptive_gauss_rows(smooth_rows, 0.0, 3.0, 5, rel_tol=1e-13).missed
    with pytest.warns(TruncationWarning, match="tanh_sinh hit max_level = 3"):
        assert tanh_sinh_rows(singular_rows, 0.0, 1.0, 4, tol=1e-13, max_level=3).missed
    with pytest.warns(TruncationWarning, match="tanh_sinh hit max_level = 3"):
        assert tanh_sinh(lambda u: np.cos(30.0 * u) / np.sqrt(u), 0.0, 1.0, max_level=3).missed
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2)
    kinks = np.array([1.0 / 3.0, 0.7])[:, None]
    with pytest.warns(TruncationWarning, match="adaptive_gauss hit MAX_PANELS = 2"):
        res = adaptive_gauss_rows(lambda x, rows: np.abs(x - kinks[rows]), 0.0, 1.0, 2,
                                  rel_tol=1e-13)
    assert res.missed
    with pytest.warns(TruncationWarning, match="adaptive_gauss hit MAX_PANELS = 2"):
        assert adaptive_gauss(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, rel_tol=1e-13).missed
    # a positional three-field construction still works, with missed False
    assert not quadrature.QuadResult(1.0, 0.0, 1).missed


# ------------------------------------------------------------- series driver


def _tenths(calls: list[int], bad: complex | None = None, at: int = 0):
    """A series block of terms 10^-n that records its sizes; from term `at` on
    the terms are `bad`."""

    def block(ns: np.ndarray):
        calls.append(ns.size)
        terms = 10.0 ** -ns.astype(float) + 0j
        if bad is not None:
            terms[ns >= at] = bad
        return terms, 0, ""

    return block


# (-inf+nanj) is the cs prefactor at s = 0.5+452i; the last has finite parts
# but a modulus past the largest double, where abs() raises OverflowError
@pytest.mark.parametrize("scale", [complex(-math.inf, math.nan), complex(math.inf, 0.0), math.nan,
                                   complex(1.5e308, 1e308)])
def test_sum_series_refuses_a_non_finite_prefactor_before_any_block(scale):
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError) as refused:
            sum_series(_tenths(calls), scale, 0.1, Precision(), "tenths", None)
    assert str(refused.value) == f"tenths: prefactor {scale} overflows double precision"
    assert calls == []


# bad terms from n = 12 lie in the second block (n = 9..24), so the driver
# refuses there and asks for no third block; a finite prefactor too large
# for its terms is refused at the first block (n = 1..8)
@pytest.mark.parametrize("scale, bad, at, blocks", [
    (1.0, complex(math.inf, 0.0), 12, [8, 16]),
    (1.0, complex(math.nan, 0.0), 12, [8, 16]),
    (1.0, complex(1e308, 0.0), 12, [8, 16]),
    (1e308, complex(100.0, 0.0), 1, [8]),
])
def test_sum_series_refuses_a_non_finite_sum_at_its_block(scale, bad, at, blocks):
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no TruncationWarning: n_max is never reached
        with pytest.raises(NonFiniteError) as refused:
            sum_series(_tenths(calls, bad, at), scale, 0.1, Precision(), "tenths", None)
    assert str(refused.value) == f"tenths: prefactor times terms 1..{sum(blocks)} is not finite"
    assert calls == blocks


def test_sum_series_never_refuses_a_discarded_term():
    # 10^-15 and 10^-16 are the two small terms that stop the sum at n = 16,
    # inside the second block; the NaN terms after them are discarded
    calls, diag = [], Diagnostics()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = sum_series(_tenths(calls, math.nan, 17), 1.0, 0.1, Precision(), "tenths", diag)
    assert value == sum(10.0**-n for n in range(1, 17))
    assert calls == [8, 16] and diag.terms_used == 16 and diag.warnings == []


# ------------------------------------------------------- Taylor coefficients


@pytest.mark.parametrize("f, df, d2f", [
    (np.exp, math.exp, math.exp),
    (np.sin, math.cos, lambda x: -math.sin(x)),
], ids=["exp", "sin"])
def test_taylor_recovers_value_and_derivatives(f, df, d2f):
    # entire f, radius 0.05, 8 points: the aliased a_(j+8) 0.05^8 is below
    # 1e-15 and the rounding eps max|f| / 0.05^j grows with j
    for x in (-1.3, 0.0, 0.7, 2.0):
        a = taylor(f, x, 0.05)
        scale = math.exp(abs(x))
        assert a.shape == (8,)
        assert abs(a[0] - f(x)) < 4e-15 * scale
        assert abs(a[1] - df(x)) < 2e-14 * scale
        assert abs(a[2] - 0.5 * d2f(x)) < 4e-13 * scale


@pytest.mark.parametrize("levels, bound", [(2, 1e-10), (3, 1e-13)])
@pytest.mark.parametrize("f, df", [(np.exp, np.exp), (np.sin, np.cos)])
def test_central_derivative(f, df, levels, bound):
    # f'(x) as a_1 on a circle centred at x, from m = 4 levels points: 2 levels
    # evaluations of f, as many as a levels-deep central-difference table
    for x in (-1.3, 0.0, 0.7):
        assert abs(taylor(f, x, 0.05, 4 * levels)[1] - df(x)) < bound


@pytest.mark.parametrize("center, radius, m", [
    (0.0, 0.5, 8), (0.0, 0.5, 16), (0.0, 0.3, 8), (0.2, 0.4, 8), (-0.5, 0.75, 12)])
def test_taylor_error_follows_the_pole_distance_law(center, radius, m):
    # 1/(1 - z) has a_j = rho^(-j-1) about the center, rho = 1 - center; the
    # points z with (z - center)^m = -r^m alias every a_(j+lm) onto a_j with
    # sign (-1)^l, which sums to exactly -a_j (r/rho)^m / (1 + (r/rho)^m)
    rho = 1.0 - center
    ratio = (radius / rho) ** m
    a = taylor(lambda z: 1.0 / (1.0 - z), center, radius, m)
    exact = rho ** -(np.arange(m) + 1.0)
    assert np.allclose(a / exact - 1.0, -ratio / (1.0 + ratio), rtol=1e-4, atol=0.0)


def test_taylor_evaluates_only_the_upper_half_circle():
    seen = []

    def f(zs):
        seen.append(zs)
        return np.exp(zs)

    a = taylor(f, 1.0, 0.2, 12)
    (zs,) = seen  # one call on the array of the 6 points
    assert zs.shape == (6,)
    assert all(z.imag > 0 and abs(abs(z - 1.0) - 0.2) < 1e-15 for z in zs)
    assert a.dtype == float
    assert np.allclose(a[:6], math.e / np.cumprod([1.0, 1.0, 2.0, 3.0, 4.0, 5.0]), rtol=1e-9)
