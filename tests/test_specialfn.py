import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from toruszeta import quadrature, specialfn
from toruszeta.domain import Precision
from toruszeta.errors import DomainError, NonFiniteError, PoleError, TruncationWarning
from toruszeta.specialfn import (
    bessel_k,
    cospi,
    dedekind_sum_exact,
    gamma,
    lambert_series,
    rgamma,
    riemann_zeta,
    scaled_bessel_k,
    sigma,
    sinpi,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def gamma_integral_oracle(z: complex) -> complex:
    """Gamma by composite Simpson on the integral definition, shifted right by
    the recurrence so the integrand vanishes at 0; steps halved to stability."""
    shift = 6
    zs = z + shift

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp((zs - 1.0) * np.log(t) - t)

    a, b = 1e-9, 120.0
    prev = None
    n = 1 << 10
    for _ in range(8):
        t = np.linspace(a, b, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        val = (b - a) / (3 * n) * np.sum(w * integrand(t))
        if prev is not None and abs(val - prev) < 1e-13 * abs(val):
            break
        prev, n = val, n * 2
    denom = 1.0
    for k in range(shift):
        denom *= z + k
    return val / denom


# ------------------------------------------------------------------ gamma


def test_gamma_trivial_values():
    assert abs(gamma(1.0) - 1.0) < 1e-15
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14


def test_gamma_matches_integral_oracle():
    for z in (0.3 + 0.7j, 2.2 - 1.1j, 0.9):
        ref = gamma_integral_oracle(z)
        assert abs(gamma(z) - ref) / abs(ref) < 1e-10


def test_gamma_reflection_at_complex_point():
    s = 0.3 + 0.7j
    lhs = gamma(s) * gamma(1.0 - s)
    # both sides independently: the right side via the quadrature oracle too
    rhs = math.pi / sinpi(s)
    oracle = gamma_integral_oracle(s) * gamma_integral_oracle(1.0 - s)
    assert abs(lhs - rhs) / abs(rhs) < 1e-12
    assert abs(lhs - oracle) / abs(oracle) < 1e-9


def test_gamma_pole_rejection():
    for s in (0.0, -1.0, -7.0, -3.0 + 1e-14j):
        with pytest.raises(PoleError):
            gamma(s)


@SETTINGS
@given(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_gamma_recurrence(re, im):
    s = complex(re, im)
    if abs(s - round(s.real)) < 0.05 and round(s.real) <= 1:
        return
    lhs = gamma(s + 1.0)
    assert abs(lhs - s * gamma(s)) / abs(lhs) < 1e-11


@SETTINGS
@given(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_gamma_reflection_random(re, im):
    s = complex(re, im)
    if abs(s - round(s.real)) < 0.05:
        return
    val = gamma(s) * gamma(1.0 - s) * sinpi(s)
    assert abs(val - math.pi) / math.pi < 1e-10


def test_rgamma_entire():
    assert rgamma(0.0) == 0.0
    assert rgamma(-4.0) == 0.0
    assert abs(rgamma(2.0) - 1.0) < 1e-14
    assert abs(rgamma(0.5) - 1.0 / math.sqrt(math.pi)) < 1e-14


def test_sinpi_cospi_exact_at_integers():
    assert sinpi(3.0) == 0.0
    assert sinpi(-2.0) == 0.0
    assert abs(cospi(0.5)) == 0.0
    assert abs(sinpi(0.5) - 1.0) < 1e-16
    assert abs(cospi(1.0) + 1.0) < 1e-16


def test_sinpi_and_rgamma_refuse_overflow_by_name():
    # |sin(pi s)| ~ e^(pi |Im s|)/2 passes the largest double at |Im s| = 226.1;
    # |Gamma(1/2 + it)| ~ sqrt(2 pi) e^(-pi t / 2) falls below its reciprocal
    # at t = 452.1, and Gamma itself underflows to 0 from t of about 455
    assert cmath.isfinite(sinpi(0.3 + 226j))
    with pytest.raises(NonFiniteError) as refused:
        sinpi(0.3 + 227j)
    assert str(refused.value) == "sin(pi s) overflows double precision at s = (0.3+227j)"
    with pytest.raises(NonFiniteError, match=r"^sin\(pi s\) overflows"):
        gamma(0.3 - 300j)  # through the reflection
    assert cmath.isfinite(rgamma(0.5 + 452j))
    for s in (0.5 + 453j, 0.5 + 460j):
        with pytest.raises(NonFiniteError) as refused:
            rgamma(s)
        assert str(refused.value) == f"1/Gamma(s) overflows double precision at s = {s}"
    # Gamma stays below the largest double up to s = 171.6, but the power
    # t^(s - 1/2) of its Lanczos sum overflows from s of about 142.6; Gamma
    # names its own argument, through the reflection that of Gamma(1 - s)
    assert cmath.isfinite(gamma(142.5))
    for s, z in ((150.0, 150.0), (142.7, 142.7), (-150.5, 151.5)):
        with pytest.raises(NonFiniteError) as refused:
            gamma(s)
        assert str(refused.value) == f"Gamma(z) overflows double precision at z = {complex(z)}"


def test_sigma_and_bessel_k_refuse_overflow_by_name():
    # 34^202 passes the largest double, 6^201 does not
    assert cmath.isfinite(sigma(201, 6))
    with pytest.raises(NonFiniteError) as refused:
        sigma(202, 34)
    assert str(refused.value) == "sigma_v(n) overflows double precision at v = (202+0j), n = 34"
    # cosh(nu w) overflows at the last trapezoid node long before K_nu(x)
    # does; it is refused before the integrand runs, so numpy warns nothing
    assert math.isfinite(bessel_k(95, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (130, 130 + 5j):
            with pytest.raises(NonFiniteError) as refused:
                bessel_k(nu, 1.0)
            assert str(refused.value) == (
                f"K_nu: cosh(nu w) overflows double precision at nu = {complex(nu)}")


# ------------------------------------------------------------------ zeta


def test_zeta_basel():
    assert abs(riemann_zeta(2.0) - math.pi**2 / 6.0) < 1e-14


def test_zeta_at_zero():
    assert abs(riemann_zeta(0.0) + 0.5) < 1e-14


def test_zeta_derivative_at_zero():
    h = 1e-5
    deriv = (riemann_zeta(h) - riemann_zeta(-h)).real / (2.0 * h)
    assert abs(deriv + 0.5 * math.log(2.0 * math.pi)) < 1e-9


def test_zeta_special_rational_values():
    assert abs(riemann_zeta(-1.0) + 1.0 / 12.0) < 1e-15
    assert riemann_zeta(-2.0) == 0.0
    assert riemann_zeta(-4.0) == 0.0
    assert abs(riemann_zeta(4.0) - math.pi**4 / 90.0) < 1e-14


def test_zeta_pole():
    with pytest.raises(PoleError):
        riemann_zeta(1.0)


def test_zeta_refuses_large_imaginary_part_at_once():
    # its Euler-Maclaurin head would hold 1.3 |Im s| terms: 1.3e10 here
    for s in (0.5 + 1e10j, 0.5 - 1.000001e6j, -3.0 + 2e6j):
        with pytest.raises(DomainError, match="riemann_zeta needs"):
            riemann_zeta(s)


@SETTINGS
@given(
    st.floats(min_value=1.5, max_value=9.0),
    st.floats(min_value=-9.0, max_value=9.0),
)
def test_zeta_matches_dirichlet_sum(re, im):
    s = complex(re, im)
    direct = sum(n ** (-s) for n in range(1, 4000))
    # trapezoid-corrected tail of the truncated Dirichlet sum
    direct += 4000.0 ** (1 - s) / (s - 1) + 0.5 * 4000.0 ** (-s)
    direct += s / 12.0 * 4000.0 ** (-s - 1)
    assert abs(riemann_zeta(s) - direct) / abs(direct) < 1e-12


def test_zeta_functional_equation_grid():
    # chi(s) built from independently tested pieces
    for re in (-4.5, -2.5, -0.5, 0.5, 2.5, 4.5):
        for im in (-4.0, -1.5, 0.0, 1.5, 4.0):
            s = complex(re, im)
            if abs(s - 1.0) < 0.3:
                continue
            lhs = riemann_zeta(s)
            rhs = (
                2.0**s
                * math.pi ** (s - 1.0)
                * sinpi(0.5 * s)
                * gamma(1.0 - s)
                * riemann_zeta(1.0 - s)
            )
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


# ---------------------------------------------------- mpmath differential


def _mpmath_value(name: str, s: complex) -> complex:
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return complex(getattr(mp, name)(mp.mpc(s)))


@SETTINGS
@given(
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=-30.0, max_value=30.0),
)
def test_gamma_matches_mpmath(re, im):
    s = complex(re, im)
    assume(abs(s - round(re)) > 1e-6 or round(re) > 0)
    ref = _mpmath_value("gamma", s)
    # worst of 2000 random points in this box: 2.4e-14; bound with 4x margin
    assert abs(gamma(s) - ref) <= 1e-13 * abs(ref)


def _check_zeta_against_mpmath(s: complex, bound: float) -> None:
    # relative, and absolute where |zeta| < 1: next to a nontrivial zero the
    # relative error is set by the conditioning, not by the method
    ref = _mpmath_value("zeta", s)
    assert abs(riemann_zeta(s) - ref) <= bound * max(abs(ref), 1.0)


# worst of 7000 random and edge points in this box: 1.3e-13, at Re s = -1/2,
# |Im s| = 40, where Euler-Maclaurin still runs (left of it the reflection
# takes over); bound with 3.7x margin
@SETTINGS
@given(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=-40.0, max_value=40.0),
)
def test_zeta_matches_mpmath(re, im):
    s = complex(re, im)
    assume(abs(s - 1.0) > 1e-3)
    _check_zeta_against_mpmath(s, 5e-13)


@SETTINGS
@given(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=40.0, max_value=80.0, exclude_min=True),
    st.booleans(),
)
def test_zeta_matches_mpmath_at_large_imaginary_part(re, height, below):
    # worst of 6000 random and edge points in this box: 3.7e-13, again just
    # right of Re s = -1/2
    _check_zeta_against_mpmath(complex(re, -height if below else height), 3e-12)


# just above Re s = -1 the Euler-Maclaurin pieces cancel (errors of 8.4e-13,
# 5.1e-13 and 4.0e-13 here); the reflection formula keeps them below 1e-14
@pytest.mark.parametrize("s", [-0.99999, -0.973 + 0.738j, -0.61 - 60.5j])
def test_zeta_reflects_left_of_minus_one_half(s):
    ref = _mpmath_value("zeta", s)
    assert abs(riemann_zeta(s) - ref) <= 5e-14 * abs(ref)


# ------------------------------------------------------------------ bessel


def bessel_t_integral_oracle(nu: float, x: float) -> float:
    """Simpson quadrature of (1/2) int_0^inf e^(-(x/2)(t+1/t)) t^(nu-1) dt,
    halving the step until stable."""
    t_lo = x / 130.0
    t_hi = 130.0 / x + 10.0

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp(-(x / 2.0) * (t + 1.0 / t) + (nu - 1.0) * np.log(t))

    prev = None
    n = 1 << 12
    for _ in range(8):
        t = np.linspace(t_lo, t_hi, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        val = 0.5 * (t_hi - t_lo) / (3 * n) * float(np.sum(w * integrand(t)))
        if prev is not None and abs(val - prev) < 1e-13 * abs(val):
            break
        prev, n = val, 2 * n
    return val


def test_bessel_half_order_closed_form():
    for n in range(1, 6):
        closed = math.exp(-2.0 * math.pi * n) / (2.0 * math.sqrt(n))
        got = bessel_k(0.5, 2.0 * math.pi * n)
        assert abs(got - closed) / closed < 1e-12


def test_bessel_negative_half_order():
    closed = math.exp(-4.0 * math.pi) / (2.0 * math.sqrt(2.0))
    assert abs(bessel_k(-0.5, 4.0 * math.pi) - closed) / closed < 1e-12


def test_bessel_against_direct_quadrature():
    for nu, x in ((0.3, 1.7), (0.0, 2.0), (1.8, 0.9), (0.5, 6.0)):
        ref = bessel_t_integral_oracle(nu, x)
        assert abs(bessel_k(nu, x) - ref) / abs(ref) < 1e-11


def test_bessel_complex_order_reduces_to_real():
    assert abs(bessel_k(complex(0.3, 0.0), 1.7) - bessel_k(0.3, 1.7)) < 1e-15


def test_bessel_complex_order_conjugation():
    v = bessel_k(0.5 - 2.5j, 6.0)
    w = bessel_k(0.5 + 2.5j, 6.0)
    assert abs(v - w.conjugate()) < 1e-15 * abs(v)


@pytest.mark.parametrize("tau2", [0.05, 0.3, 1.0, 2.0])
@pytest.mark.parametrize("nu", [0.2 - 0.4j, -1.3 + 1.1j, 2.5 + 0.0j, 0.5 - 3.0j])
def test_batched_bessel_matches_mpmath(nu, tau2):
    # the stacked kernel the Bessel series uses, at its arguments x_n = 2 pi n tau2
    mp = pytest.importorskip("mpmath")
    ns = np.arange(1, 17)
    xs = 2.0 * math.pi * tau2 * ns
    got = scaled_bessel_k(nu, xs, 1e-12).value * np.exp(-xs)
    for x, k in zip(xs, got):
        with mp.workdps(30):
            ref = complex(mp.besselk(mp.mpc(nu), x))
        assert abs(k - ref) <= 1e-14 * abs(ref)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=1, max_value=16),
)
def test_bessel_k_matches_mpmath_at_complex_order(tau2, nu_re, nu_im, n):
    # every row of the Bessel series' stacked kernel at x_n = 2 pi n tau2, and
    # the one-row bessel_k at one of them: within 1e-14 relative and within
    # the kernel's own err_estimate (worst of 1,216 seeded points on this
    # grid: 4.2e-16 relative, 0.47 of the estimate)
    mp = pytest.importorskip("mpmath")
    nu = complex(nu_re, nu_im)
    xs = 2.0 * math.pi * tau2 * np.arange(1, 17)
    res = scaled_bessel_k(nu, xs, 1e-12)
    got, bound = res.value * np.exp(-xs), res.err_estimate * np.exp(-xs)
    with mp.workdps(20):
        refs = [complex(mp.besselk(mp.mpc(nu), x)) for x in xs]
    for k, e, ref in zip(got, bound, refs):
        assert abs(k - ref) <= 1e-14 * abs(ref)
        assert abs(k - ref) <= e
    one = bessel_k(nu, float(xs[n - 1]))
    assert abs(one - refs[n - 1]) <= 1e-14 * abs(refs[n - 1])


def test_bessel_k_is_the_one_row_kernel():
    for nu, x in ((0.3 + 0.7j, 1.9), (1.5, 0.4)):
        one = scaled_bessel_k(nu, np.array([x]), 1e-12).value[0] * math.exp(-x)
        assert abs(bessel_k(nu, x) - one) <= 1e-15 * abs(one)


def test_scaled_bessel_k_usually_takes_two_integrand_calls(monkeypatch):
    # the 33 nodes of h = w_max/32, then the 32 new odd nodes of one halving;
    # a smaller CHUNK splits the calls and leaves the values in place
    xs = 2.0 * math.pi * np.arange(1, 9)
    whole = scaled_bessel_k(0.2 - 0.7j, xs, 1e-12)
    assert whole.n_evals == xs.size * 65
    monkeypatch.setattr(quadrature, "CHUNK", 64)
    parts = scaled_bessel_k(0.2 - 0.7j, xs, 1e-12)
    assert np.allclose(parts.value, whole.value, rtol=1e-15, atol=0.0)


def test_scaled_bessel_k_counts_the_nodes_its_integrand_received(monkeypatch):
    # at small x and |Im nu| = 8 the rows stop after one to seven halvings
    seen = []

    def recording_core(f, *args):
        def g(w, rows):
            seen.append(len(rows) * w.size)
            return f(w, rows)

        return quadrature.trapezoid_rows(g, *args)

    monkeypatch.setattr(specialfn, "trapezoid_rows", recording_core)
    xs = 2.0 * math.pi * 0.05 * np.arange(1, 17)
    res = scaled_bessel_k(0.3 + 8j, xs, 1e-12)
    assert res.n_evals == sum(seen) > xs.size * 65


def test_bessel_domain():
    with pytest.raises(DomainError):
        bessel_k(0.5, 0.0)
    with pytest.raises(DomainError):
        bessel_k(0.5, -1.0)


@SETTINGS
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=20.0),
)
def test_bessel_even_in_order(nu, x):
    assert bessel_k(nu, x) == bessel_k(-nu, x)


# ------------------------------------------------------------------ sigma


def test_sigma_values():
    assert sigma(1.0, 6) == 12
    assert sigma(0.0, 7) == 2
    assert sigma(0.0, 13) == 2
    assert sigma(2.0, 4) == 1 + 4 + 16


def test_sigma_domain():
    with pytest.raises(DomainError):
        sigma(1.0, 0)


def test_sigma_functional_equation_fixed_point():
    v = 1.0 - 2.0 * 0.7
    n = 12
    lhs = sigma(v, n)
    rhs = n**v * sigma(-v, n)
    assert abs(lhs - rhs) / abs(rhs) < 1e-14


@SETTINGS
@given(
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_sigma_functional_equation_random(n, vre, vim):
    v = complex(vre, vim)
    lhs = sigma(v, n)
    rhs = n**v * sigma(-v, n)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# ------------------------------------------------------------------ dedekind


def test_dedekind_sum_small_cases():
    assert float(dedekind_sum_exact(5, 1)) == 0.0
    assert abs(float(dedekind_sum_exact(1, 3)) - 1.0 / 18.0) < 1e-16
    # brute-force oracle for (2, 5)
    brute = sum((n / 5.0) * (2 * n / 5.0 - math.floor(2 * n / 5.0) - 0.5) for n in range(1, 5))
    assert abs(float(dedekind_sum_exact(2, 5)) - brute) < 1e-15


def test_dedekind_sum_exact_rational():
    from fractions import Fraction

    assert dedekind_sum_exact(1, 3) == Fraction(1, 18)
    assert dedekind_sum_exact(1, 5) == Fraction(1, 5)


def test_dedekind_sum_exact_matches_enumeration():
    # the defining sum term by term, non-coprime pairs and negative h included
    from fractions import Fraction

    def enumerated(h: int, k: int) -> Fraction:
        total = Fraction(0)
        for n in range(1, k):
            hn = Fraction(h * n, k)
            total += Fraction(n, k) * (hn - math.floor(hn) - Fraction(1, 2))
        return total

    for k in range(1, 40):
        for h in range(-45, 46):
            assert dedekind_sum_exact(h, k) == enumerated(h, k)


def test_dedekind_sum_exact_large_k():
    # c = 1,607,521 reduces 0.7071067811865476 + 1e-13 i; reciprocity takes
    # it in Euclid steps, and s(1, k) = (k - 1)(k - 2) / (12 k) checks one
    from fractions import Fraction

    k = 1_607_521
    assert dedekind_sum_exact(1, k) == Fraction((k - 1) * (k - 2), 12 * k)
    assert dedekind_sum_exact(k + 1, k) == dedekind_sum_exact(1, k)


def test_dedekind_sum_domain():
    with pytest.raises(DomainError):
        float(dedekind_sum_exact(1, 0))


@SETTINGS
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=-40, max_value=40))
def test_dedekind_sum_matches_float_loop(k, h):
    brute = sum((n / k) * (h * n / k - math.floor(h * n / k) - 0.5) for n in range(1, k))
    assert abs(float(dedekind_sum_exact(h, k)) - brute) < 1e-12


# ------------------------------------------------------------------ lambert


def test_lambert_at_zero():
    assert lambert_series(1.0, 0.0) == 0.0


def test_lambert_nyw_related_value():
    # q = e^(-2 pi), alpha = -1: twice the divisor Bessel constant
    got = lambert_series(-1.0, math.exp(-2.0 * math.pi))
    assert abs(got - 2.0 * 0.000936341) < 1e-8
    assert abs(got - 0.0018726824497685463) < 1e-15


def test_lambert_brute_force_double_sum():
    # sum_{n,k} n^1 q^(nk) over n, k <= 200 at q = 0.1
    q = 0.1
    brute = sum(n * q ** (n * k) for n in range(1, 201) for k in range(1, 201))
    assert abs(lambert_series(1.0, q) - brute) < 1e-13


def test_lambert_domain():
    with pytest.raises(DomainError):
        lambert_series(1.0, 1.0)
    with pytest.raises(DomainError):
        lambert_series(1.0, -1.2)


def test_lambert_refuses_a_nan_q():
    # NaN passes the |q| < 1 test (the comparison is False); the series
    # driver refuses the first block of NaN terms, not the 10,000th term
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as refused:
        lambert_series(-1.0, math.nan)
    assert str(refused.value) == "lambert_series: prefactor times terms 1..8 is not finite"


def test_lambert_truncation_warning():
    tight = Precision(series_tail_tol=1e-30, n_max=5)
    with pytest.warns(TruncationWarning):
        lambert_series(1.0, 0.5, tight)


@SETTINGS
@given(
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_lambert_equals_divisor_series(alpha, mod, arg):
    q = mod * cmath.exp(1j * arg)
    lhs = lambert_series(alpha, q)
    n_cut = max(60, int(math.log(1e-15) / math.log(mod)) + 2)
    rhs = sum(sigma(alpha, n) * q**n for n in range(1, n_cut))
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))
