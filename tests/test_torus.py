import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruszeta.domain import DEFAULT_PRECISION, Diagnostics, Precision, Sl2zMatrix, as_tau
from toruszeta.errors import DomainError, NonFiniteError, PoleError, TruncationWarning
from toruszeta.eta import eta, fundamental_domain_reduce
from toruszeta.quadrature import adaptive_gauss, tanh_sinh
from toruszeta.specialfn import MAX_HALVINGS, bessel_k, gamma, rgamma, riemann_zeta, sigma
from toruszeta.torus import (
    ALIASES,
    METHODS,
    REMAINDERS,
    _contour_series,
    _cs_unreduced,
    _direct_unreduced,
    _square_sum_block,
    determinant_torus,
    determinant_torus_numeric,
    eisenstein,
    eisenstein_cs,
    eisenstein_contour,
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
    zeta_laplacian_deriv0,
    zeta_laplacian_deriv0_numeric,
)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

TAUS = (1j, 0.5 + 0.866j, 0.2 + 1.7j)

# Sum over nonzero (m, n) of (m^2 + n^2)^(-s) factors as 4 zeta(s) beta(s);
# frozen from that brute-force-checkable identity
E_STAR_2_I = 6.02681203969194012
E_STAR_3_I = 4.65891361560384344

# q-product oracle values
ETA_I = 0.7682254223260566
DET_I = 0.3483009824214192          # |eta(i)|^4
DET_2I = 0.4925719731282440         # 4 |eta(2i)|^4
DERIV0_I = 1.0546882809956719       # -log|eta(i)|^4
EULER_GAMMA = 0.5772156649015329
KRONECKER_I = 2.5849817595792532    # 2 pi (gamma - log 2 - log|eta(i)|^2)


# ------------------------------------------------------------- direct sum


def brute_lattice_sum(s: complex, tau: complex, k_max: int) -> complex:
    """Literal square-truncation lattice sum, no tail handling."""
    t1, t2 = tau.real, tau.imag
    m = np.arange(-k_max, k_max + 1)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    r2 = (mm + nn * t1) ** 2 + (nn * t2) ** 2
    r2[k_max, k_max] = 1.0  # placeholder; origin removed below
    vals = np.exp(-s * np.log(r2))
    vals[k_max, k_max] = 0.0
    return t2**s * complex(np.sum(vals))


def test_direct_matches_literal_brute_force_at_s3():
    # at s = 3 the raw square tail at K = 3000 is ~1e-13, so no tail model
    got = eisenstein_direct(3.0, 1j).value
    ref = brute_lattice_sum(3.0, 1j, 3000)
    assert abs(got - ref) < 5e-12


def test_direct_frozen_values_at_i():
    assert abs(eisenstein_direct(2.0, 1j).value - E_STAR_2_I) < 1e-11
    assert abs(eisenstein_direct(3.0, 1j).value - E_STAR_3_I) < 1e-11


def test_direct_requires_convergent_region():
    with pytest.raises(DomainError):
        eisenstein_direct(1.0 + 1e-13, 1j)
    with pytest.raises(DomainError):
        eisenstein_direct(0.5, 1j)


@pytest.mark.parametrize("method", ["cs", "contour"])
@pytest.mark.parametrize("s, cause", [(0.3 + 300j, "sin(pi s)"), (0.7 + 500j, "1/Gamma(s)")])
def test_large_imaginary_s_is_refused_with_its_cause(method, s, cause):
    # the contour route forms sin(pi s) for every Re s < 1, so it names that
    if method == "contour":
        cause = "sin(pi s)"
    message = f"{cause} overflows double precision at s = {complex(s)}"
    with pytest.raises(NonFiniteError) as refused:
        eisenstein(s, 1j, method)
    assert str(refused.value) == message


# the prefactors 8 pi^s sqrt(tau2) / Gamma(s) (|1/Gamma| about 6e307) and
# 2 tau2^s sin(pi s) / pi (|sin(pi s)| just below the largest double) overflow
# while each factor is finite; the series driver refuses before any term
@pytest.mark.parametrize("method, s, series", [
    ("cs", 0.5 + 452j, "divisor-Bessel series"),
    ("contour", 0.3 + 226j, "remainder_integral"),
])
def test_an_overflowing_prefactor_is_refused_before_the_series(method, s, series):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteError) as refused:
            eisenstein(s, 1j, method)
    message = str(refused.value)
    assert message.startswith(f"{series}: prefactor (")
    assert message.endswith(") overflows double precision")
    assert caught == []


# at tau2 = 0.001 the power tau2^s of the contour prefactor overflows from
# s of about -102.8; it is refused by name before the series driver sees it,
# except at the zeros of sin(pi s), where the remainder is 0 before tau2^s
def test_remainder_integral_names_an_overflowing_tau2_power():
    with pytest.raises(NonFiniteError) as refused:
        remainder_integral(-300.5, 0.001j)
    assert str(refused.value) == (
        "remainder_integral: prefactor 2 tau2^s sin(pi s)/pi overflows double precision "
        "at s = (-300.5+0j), tau2 = 0.001")
    assert remainder_integral(-300, 0.001j) == 0


def test_direct_truncation_cap_warns():
    capped = Precision(n_max=50)
    with pytest.warns(TruncationWarning):
        res = eisenstein_direct(2.0, 1j, capped)
    assert res.diagnostics.warnings


# at s = 3, tau = 0.5+0.6i, n_max = 2 the distance from the extrapolant to the
# last raw partial sum is half the actual error; n_max = 2 and 3 leave two and
# three checkpoints from K = 1, and 6, 20 and 40 leave two, three and four from
# K = 5, all short of the five that the stop rule needs; 50, 80, 100 and 150
# cut the ladder at its fifth or sixth checkpoint, before its fits agree
# (s = 2, tau = i and s = 3, tau = 0.5+0.6i stop at K = 160 and K = 80)
@pytest.mark.parametrize(
    "s, tau, n_max",
    [
        *[(2.0, 1j, n_max) for n_max in (2, 3, 20, 50, 80)],
        *[(3.0, 0.5 + 0.6j, n_max) for n_max in (2, 3, 6, 20, 40)],
        *[(1.2 + 0.5j, 0.3 + 0.9j, n_max) for n_max in (2, 3, 50, 100, 150)],
    ],
)
def test_direct_clipped_ladder_error_estimate_bounds_error(s, tau, n_max):
    with pytest.warns(TruncationWarning):
        res = eisenstein_direct(s, tau, Precision(n_max=n_max))
    assert res.err_estimate >= abs(res.value - eisenstein_cs(s, tau).value)


def test_direct_needs_two_checkpoints():
    with pytest.raises(DomainError), pytest.warns(TruncationWarning):
        eisenstein_direct(2.0, 1j, Precision(n_max=1))


def test_direct_ladder_cut_past_five_checkpoints_warns_and_bounds_error():
    # at s = 1.001 the ladder needs K = 320; n_max = 150 cuts it at 5, ..., 80, 150
    with pytest.warns(TruncationWarning):
        res = eisenstein_direct(1.001, 1j, Precision(n_max=150))
    assert res.err_estimate >= abs(res.value - eisenstein_cs(1.001, 1j).value)


def test_direct_warns_only_when_n_max_stops_the_ladder():
    # at s = 2, tau = i the fits through 5..80 and 10..160 agree, so an
    # n_max at the sixth checkpoint does not stop the ladder
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        capped = eisenstein_direct(2.0, 1j, Precision(n_max=160))
    assert capped.value == eisenstein_direct(2.0, 1j).value
    assert not capped.diagnostics.warnings


def e_star_mpmath(s: complex, tau: complex) -> complex:
    """E*(s, tau) in 20-digit arithmetic: the Chowla-Selberg series on the
    point reduced to the fundamental domain, where a few mpmath K_nu terms
    suffice (E* is SL(2, Z)-invariant)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        z = mp.mpc(tau)
        while True:
            z -= mp.nint(z.real)
            if abs(z) >= 1:
                break
            z = -1 / z
        ms, t1, t2 = mp.mpc(s), z.real, z.imag
        head = 2 * t2**ms * mp.zeta(2 * ms) + (
            2 * mp.sqrt(mp.pi) * t2 ** (1 - ms) * mp.gamma(ms - 0.5) * mp.zeta(2 * ms - 1)
            * mp.rgamma(ms)
        )
        series = mp.mpf(0)
        for n in range(1, 200):
            sig = mp.fsum(mp.mpf(d) ** (1 - 2 * ms) for d in range(1, n + 1) if n % d == 0)
            term = (sig * mp.cos(2 * mp.pi * n * t1) * mp.besselk(0.5 - ms, 2 * mp.pi * n * t2)
                    * mp.mpf(n) ** (ms - 0.5))
            series += term
            if abs(term) < mp.eps * max(abs(series), 1) and n > 2:
                break
        return complex(head + 8 * mp.pi**ms * mp.sqrt(t2) * mp.rgamma(ms) * series)


# a fit in K^(2-2s-j) on a fixed ladder to K = 1600 erred by up to 5.1e-10 at
# these points; 54/37 + 9i/37 is the TST^-2 image of 0.3+0.9i; a fixed ladder
# of 40..320 with no stop rule erred by 4.2e-8 at the skewed last point
@pytest.mark.parametrize(
    "s, tau",
    [
        (1.001, 1j),
        (1.01, 1j),
        (1.05, 0.1 + 1.3j),
        (1.2 + 0.5j, 0.3 + 0.9j),
        (3.0 + 1j, 0.5 + 0.6j),
        (2.0, complex(54 / 37, 9 / 37)),
        (1.2 + 0.5j, complex(54 / 37, 9 / 37)),
        (1.6315, -2.9213 + 0.1360j),
    ],
)
def test_direct_matches_mpmath(s, tau):
    # worst of these 8 points: 1.1e-15 relative; three-term fits alone erred by 6.9e-15
    ref = e_star_mpmath(s, tau)
    res = eisenstein_direct(s, tau)
    assert abs(res.value - ref) <= 5e-15 * abs(ref)
    assert res.err_estimate >= abs(res.value - ref)


# the skewed bases of the parametrization above, summed as given: the shell
# fit must hold on a lattice basis far from the fundamental domain
@pytest.mark.parametrize(
    "s, tau",
    [
        (2.0, complex(54 / 37, 9 / 37)),
        (1.2 + 0.5j, complex(54 / 37, 9 / 37)),
        (1.6315, -2.9213 + 0.1360j),
    ],
)
def test_direct_on_a_skewed_basis_matches_mpmath(s, tau):
    ref = e_star_mpmath(s, tau)
    res = _direct_unreduced(s, as_tau(tau), DEFAULT_PRECISION)
    assert abs(res.value - ref) <= 1e-13 * abs(ref)
    assert res.err_estimate >= abs(res.value - ref)


@pytest.mark.parametrize("s", [1.02 + 2j, 1.02])
def test_direct_sums_a_sheared_lattice_at_its_reduced_point(s):
    # tau = 3 + 0.05i reduces to 20i; summed on the basis (1, tau) the ladder
    # took 4.0e8 lattice points.  At 20i the ladder runs to K = 1280, where
    # the four-point fits through 80..640 and 160..1280 agree: 6,558,720
    # points.  A stop rule on the five-point fits alone, whose check window
    # reaches back to K of order tau2, took 26.2M
    res = eisenstein_direct(s, 3 + 0.05j)
    assert res.diagnostics.terms_used <= 6_558_720
    assert abs(res.value - eisenstein_cs(s, 3 + 0.05j).value) <= 1e-13 * abs(res.value)


@pytest.mark.parametrize("tau", [1j, 0.2 + 1.7j])
def test_direct_stops_at_the_sixth_checkpoint(tau):
    # the five-point fits through 5..80 and 10..160 agree: K = 160 is
    # 321^2 - 1 lattice points (a ladder from K = 20 needed K = 320)
    res = eisenstein_direct(2.5 + 1j, tau)
    assert res.diagnostics.terms_used <= 103_040


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.floats(min_value=1.02, max_value=3.5),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.05, max_value=5.0),
)
def test_direct_error_estimate_bounds_mpmath_error(re, im, tau1, tau2):
    s, tau = complex(re, im), complex(tau1, tau2)
    ref = e_star_mpmath(s, tau)
    res = eisenstein_direct(s, tau)
    assert res.err_estimate >= abs(res.value - ref)


def shell_sum_oracle(s: complex, tau: complex, k_lo: int, k_hi: int) -> tuple[complex, int]:
    """Plain loop over the full shell k_lo < max(|m|,|n|) <= k_hi, summed exactly."""
    terms = [
        ((m + n * tau.real) ** 2 + (n * tau.imag) ** 2) ** (-s)
        for m in range(-k_hi, k_hi + 1)
        for n in range(-k_hi, k_hi + 1)
        if max(abs(m), abs(n)) > k_lo
    ]
    value = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    return value, len(terms)


# (0, 130) and (20, 200) hold more than one CHUNK = 2^15 terms in one half
@pytest.mark.parametrize("k_lo, k_hi", [(0, 1), (0, 4), (3, 9), (0, 130), (20, 200)])
@pytest.mark.parametrize("tau", [1j, 0.3 + 0.9j, -0.4 + 0.7j])
@pytest.mark.parametrize("s", [2.0, 1.3 + 0.7j])
def test_square_sum_block_matches_full_shell_loop(s, tau, k_lo, k_hi):
    got, count = _square_sum_block(complex(s), as_tau(tau), k_lo, k_hi)
    ref, n_terms = shell_sum_oracle(complex(s), tau, k_lo, k_hi)
    assert count == n_terms == (2 * k_hi + 1) ** 2 - (2 * k_lo + 1) ** 2
    assert abs(got - ref) <= 1e-14 * abs(ref)


def test_direct_sum_peak_memory_is_flat():
    # numpy reports its buffers to tracemalloc; the ladder stops at K = 320
    # here, where an unchunked shell would take only about 4 MB, so the
    # long-ladder test below is the one that catches it
    tracemalloc.start()
    try:
        eisenstein_direct(1.2 + 0.5j, 0.3 + 0.9j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_direct_sum_peak_memory_is_flat_on_a_long_ladder():
    # the ladder runs to K = 2560 on this skewed basis, summed as given;
    # unchunked, its last shell takes about 105 MB
    tracemalloc.start()
    try:
        _direct_unreduced(1.6315, as_tau(-2.9213 + 0.1360j), DEFAULT_PRECISION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ---------------------------------------------------- Chowla-Selberg series


def test_cs_agrees_with_direct():
    for s in (2.0, 3.0, 2.5 + 1j):
        for tau in TAUS:
            a = eisenstein_direct(s, tau).value
            b = eisenstein_cs(s, tau).value
            assert abs(a - b) / abs(b) < 1e-9


def test_cs_at_zero_is_minus_one():
    for tau in TAUS:
        assert eisenstein_cs(0.0, tau).value == -1.0


def test_cs_pole_is_rejected():
    with pytest.raises(PoleError):
        eisenstein_cs(1.0, 1j)


def test_cs_residue_at_one():
    for tau in (1j, 0.2 + 1.3j):
        assert abs(pole_residue(tau) - math.pi) < 1e-7


@pytest.mark.parametrize("tau", [0.3 + 0.05j, -2.7 + 0.05j, 3 + 0.05j, 1.3 + 0.01j, -3 + 0.01j])
@pytest.mark.parametrize("s", [0.3 + 0.7j, -0.6, 0.8 - 0.4j])
@pytest.mark.parametrize("route", [eisenstein_cs, eisenstein_contour])
def test_series_routes_at_small_tau2_match_mpmath(route, s, tau):
    # unreduced, the remainders would need 100 terms at tau2 = 0.05 and 500 at 0.01
    ref = e_star_mpmath(s, tau)
    assert abs(route(s, tau).value - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("s", [0.498, 0.499, 0.501, 0.502, 0.503 + 0.004j, 0.4955 - 0.007j])
@pytest.mark.parametrize("route", [eisenstein_cs, eisenstein_contour])
def test_half_window_matches_mpmath(route, s):
    # within 0.01 of s = 1/2 the head is its Taylor series at 1/2; E* is
    # analytic there, so no point of the window may raise or lose digits
    for tau in (1j, 0.3 + 0.6j, -0.2 + 0.15j):
        ref = e_star_mpmath(s, tau)
        res = route(s, tau)
        assert abs(res.value - ref) <= 1e-13 * abs(ref)
        assert res.err_estimate == 1e-13 * max(1.0, abs(res.value))


def test_cs_half_point_smooth():
    # s = 1/2 sits on two cancelling poles; the value there must match
    # nearby regular evaluations extrapolated inward (even in h, so two
    # Richardson levels in h^2)
    v_half = eisenstein_cs(0.5, 1j).value

    def sym(h):
        return 0.5 * (eisenstein_cs(0.5 + h, 1j).value + eisenstein_cs(0.5 - h, 1j).value)

    a1, a2, a3 = sym(0.02), sym(0.01), sym(0.005)
    r1 = (4.0 * a2 - a1) / 3.0
    r2 = (4.0 * a3 - a2) / 3.0
    extrap = (16.0 * r2 - r1) / 15.0
    assert abs(v_half - extrap) < 2e-8
    assert abs(v_half - (-3.900264920001956)) < 1e-14  # mpmath, as the limit s -> 1/2


# ------------------------------------------------------------- remainders


def cs_main_terms_oracle(s: complex, tau: complex) -> complex:
    """First two series terms, assembled from independently tested pieces."""
    t2 = tau.imag
    term1 = 2.0 * t2**s * riemann_zeta(2 * s)
    term2 = (
        2.0
        * math.pi
        * t2 ** (1 - s)
        * gamma(s - 0.5)
        * rgamma(s)
        * riemann_zeta(2 * s - 1)
        / math.sqrt(math.pi)
    )
    return term1 + term2


def test_remainder_bessel_is_direct_minus_main_terms():
    for tau in (1j, 0.5 + 0.866j):
        expect = eisenstein_direct(2.0, tau).value - cs_main_terms_oracle(2.0, tau)
        assert abs(remainder_bessel(2.0, tau) - expect) < 1e-10


def test_remainder_bessel_vanishes_at_zero():
    assert remainder_bessel(0.0, 1j) == 0.0
    # limit path s -> 0: the 1/Gamma prefactor kills the series
    for k in (4, 6, 8):
        assert abs(remainder_bessel(10.0**-k, 1j)) < 10.0 ** (-k + 1)


def test_remainder_double_sum_identity():
    # double sum over (n, k) against the divisor-function single sum
    s, tau = 0.7, 0.2 + 1.3j
    t1, t2 = tau.real, tau.imag
    nu = 0.5 - s
    double = 0.0 + 0.0j
    for n in range(1, 9):
        for k in range(1, 9):
            double += (
                cmath.exp(2j * math.pi * k * n * t1)
                * bessel_k(nu, 2 * math.pi * k * n * t2)
                * (k / n) ** (s - 0.5)
            )
    single = 0.0 + 0.0j
    for n in range(1, 65):
        single += (
            sigma(1 - 2 * s, n)
            * cmath.exp(2j * math.pi * n * t1)
            * bessel_k(nu, 2 * math.pi * n * t2)
            * n ** (s - 0.5)
        )
    assert abs(double - single) < 1e-13


def q_mpmath(s: complex, tau: complex, n_terms: int = 60) -> complex:
    """The Bessel-series remainder summed independently in 30-digit
    arithmetic, with mpmath's complex-order K_nu and divisors by trial
    division."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ms, t1, t2 = mp.mpc(s), mp.mpf(tau.real), mp.mpf(tau.imag)
        total = mp.mpc(0)
        for n in range(1, n_terms + 1):
            sig = sum(mp.mpf(d) ** (1 - 2 * ms) for d in range(1, n + 1) if n % d == 0)
            total += (
                sig
                * mp.cos(2 * mp.pi * n * t1)
                * mp.besselk(0.5 - ms, 2 * mp.pi * n * t2)
                * mp.mpf(n) ** (ms - 0.5)
            )
        return complex(8 * mp.pi**ms * mp.sqrt(t2) * total / mp.gamma(ms))


def test_remainder_bessel_matches_mpmath_series():
    for s, tau in (
        (0.3 + 0.4j, 0.3 + 0.2j),
        (-0.6 + 1.1j, 0.3 + 0.2j),
        (1.7 - 0.5j, -0.4 + 0.35j),
        (2.5 + 3.0j, 0.1 + 0.15j),
    ):
        q = q_mpmath(s, tau)
        assert abs(remainder_bessel(s, tau) - q) < 1e-12 * abs(q)


def test_remainder_integral_sums_past_a_vanishing_branch():
    # at tau1 = 1/4 every branch n = 2 mod 4 has cos(2 pi n tau1) = -1, but
    # n = 3 has cos = 0 and leaves only its tiny rho^2 part (1.5e-18), while
    # n = 4 still adds 2.3e-12: a sum that stops at the first small branch
    # misses it, 4.6e-7 of Q
    s, tau = 0.3, 0.25 + 1.1j
    q = q_mpmath(s, tau)
    assert abs(remainder_integral(s, tau) - q) <= 1e-12 * abs(q)
    assert abs(remainder_integral(s, tau) - remainder_bessel(s, tau)) <= 1e-12 * abs(q)


def test_remainder_integral_equals_bessel():
    assert abs(remainder_integral(0.3, 0.25 + 1.1j) - remainder_bessel(0.3, 0.25 + 1.1j)) < 1e-8
    assert abs(remainder_integral(-0.5, 1j) - remainder_bessel(-0.5, 1j)) < 1e-8


@pytest.mark.parametrize("tau", [3j, 6j, 10j, 0.3 + 20j])
@pytest.mark.parametrize("s", [0.3, -0.5 + 1j])
def test_remainder_integral_is_relatively_accurate_at_large_tau2(s, tau):
    # every branch runs over the whole u range (0, 8), whatever tau2; a branch
    # cut off at u = 2 would lose about e^(-4 pi) = 3.5e-6 of its integral
    q = remainder_bessel(s, tau)
    assert abs(remainder_integral(s, tau) - q) <= 1e-8 * abs(q)


def test_remainder_integral_evaluation_count():
    d = Diagnostics()
    remainder_integral(0.3, 1j, diag=d)
    assert d.quad_evals <= 1200


def test_remainder_integral_domain():
    with pytest.raises(DomainError):
        remainder_integral(1.2, 1j)


def test_remainder_integral_telescopes_at_s_zero():
    # at s = 0 the u-weight is 1 and each n-integral telescopes to the
    # boundary values of the log
    assert remainder_integral(0.0, 1j) == 0.0
    tau = 0.3 + 0.9j
    n = 1
    t1, t2 = tau.real, tau.imag

    def logderiv(u):
        rho = np.exp(-2 * math.pi * u - 2 * math.pi * n * t2)
        c = math.cos(2 * math.pi * n * t1)
        return 4 * math.pi * (rho * c - rho * rho) / (1 - 2 * rho * c + rho * rho)

    quad = (
        tanh_sinh(logderiv, 0.0, 1.0, tol=1e-14).value
        + adaptive_gauss(logderiv, 1.0, 9.0, rel_tol=1e-13).value
    )
    e1 = cmath.exp(2j * math.pi * n * tau)
    e2 = cmath.exp(-2j * math.pi * n * tau.conjugate())
    boundary = -cmath.log((1 - e1) * (1 - e2))
    assert abs(quad - boundary.real) < 1e-12


# ------------------------------------------------------- three-way agreement


def test_contour_agrees_with_cs_on_grid():
    for s_re in (-1.5, -0.5, 0.3, 0.7):
        for s_im in (0.0, 0.5, -0.5):
            s = complex(s_re, s_im)
            for tau in TAUS:
                a = zeta_laplacian(s, tau, "contour").value
                b = zeta_laplacian(s, tau, "chowla_selberg").value
                assert abs(a - b) < 1e-8


def test_contour_agrees_with_cs_tall_torus():
    a = zeta_laplacian(0.4, 0.1 + 2j, "contour").value
    b = zeta_laplacian(0.4, 0.1 + 2j, "chowla_selberg").value
    assert abs(a - b) < 1e-9


def test_contour_domain():
    with pytest.raises(DomainError):
        eisenstein_contour(1.5, 1j)


def test_zeta_laplacian_is_scaled_eisenstein():
    val = zeta_laplacian(2.0, 1j, "direct").value
    assert abs(val - (2 * math.pi) ** -4 * E_STAR_2_I) < 1e-13


def test_zeta_laplacian_at_zero():
    for tau in TAUS:
        assert zeta_laplacian(0.0, tau, "chowla_selberg").value == -1.0


def test_unknown_method_rejected():
    with pytest.raises(DomainError):
        eisenstein(2.0, 1j, "fourier")


@SETTINGS
@given(st.lists(st.sampled_from(["T", "t", "S"]), min_size=1, max_size=4))
def test_eisenstein_modular_invariance(word):
    m = Sl2zMatrix.identity()
    for letter in word:
        step = {
            "T": Sl2zMatrix.shift(1),
            "t": Sl2zMatrix.shift(-1),
            "S": Sl2zMatrix.inversion(),
        }[letter]
        m = step @ m
    # the public routes reduce tau first, so m tau is summed as given
    tau = 0.3 + 0.9j
    moved = m.apply(tau)
    a = _direct_unreduced(2.0, moved, DEFAULT_PRECISION).value
    b = eisenstein_direct(2.0, tau).value
    assert abs(a - b) < 1e-9
    a = _cs_unreduced(0.4, moved, DEFAULT_PRECISION).value
    b = eisenstein_cs(0.4, tau).value
    assert abs(a - b) < 1e-9


# ------------------------------------------------- determinant and deriv(0)


def test_deriv0_closed_form_at_i():
    assert abs(zeta_laplacian_deriv0(1j) - DERIV0_I) < 1e-13


def test_deriv0_closed_form_at_2i():
    assert abs(zeta_laplacian_deriv0(2j) - (-math.log(DET_2I))) < 1e-13


def test_deriv0_numeric_matches_closed():
    for tau in (1j, 0.5 + 0.866j, 0.3 + 2j):
        closed = zeta_laplacian_deriv0(tau)
        numeric = zeta_laplacian_deriv0_numeric(tau)
        assert abs(numeric - closed) <= 1e-13 * abs(closed)


def test_deriv0_numeric_matches_closed_at_small_tau2():
    # the reduced point of 0.70710678... + i tau2 has a moderate tau2; that of
    # 0.1 + 1e-6i has tau2 = 1e4, where |eta(tau)|^4 underflows but log|eta|
    # does not.  The caller's log tau2 enters the numeric side only as -log tau2
    for tau in (0.7071067811865476 + 1e-6j, 0.7071067811865476 + 1e-13j, 0.1 + 1e-6j):
        closed = zeta_laplacian_deriv0(tau)
        assert abs(zeta_laplacian_deriv0_numeric(tau) - closed) <= 1e-13 * abs(closed)


@pytest.mark.parametrize("tau", [1j, 0.3 + 2j, 0.5 + 0.866j, 0.2 + 1.3j])
def test_contour_rows_at_zero_are_the_log_product(tau):
    # the quantity the paper's s = 0 proof names: sum I_n(0) = -sum log|1 - q^n|^2,
    # taken as log1p of |q^n|^2 - 2 |q^n| cos(2 pi n tau1) so that |q^n| << 1
    # keeps its digits (a naive log|1 - q^n|^2 loses five at 0.3+2i); it is at
    # most 0.8% of zeta'(0) at these points, so det.torus.* cannot see it alone
    t = as_tau(tau)
    rows = _contour_series(0.0, t, DEFAULT_PRECISION, 1.0).real
    ref = -math.fsum(
        math.log1p(r * r - 2.0 * r * math.cos(2.0 * math.pi * n * t.tau1))
        for n in range(1, 60)
        for r in [math.exp(-2.0 * math.pi * n * t.tau2)]
    )
    assert abs(rows - ref) <= 1e-13 * abs(ref)


def test_deriv0_equals_eta_form():
    # the log form at tau reduced against -log(tau2^2 |eta|^4) with eta
    # through its multiplier and cocycle
    for tau in (0.3 + 0.2j, 2.7 + 0.05j, -0.45 + 0.6j):
        closed = zeta_laplacian_deriv0(tau)
        via_eta = -math.log(tau.imag**2 * abs(eta(tau)) ** 4)
        assert abs(closed - via_eta) <= 1e-14 * abs(closed)


def test_determinant_at_i():
    assert abs(determinant_torus(1j) - DET_I) < 1e-14
    assert abs(determinant_torus(1j) - math.exp(-zeta_laplacian_deriv0(1j))) < 1e-15


def test_determinant_numeric_path():
    for tau in (1j, 0.5 + 0.866j, 0.3 + 2j):
        closed = determinant_torus(tau)
        assert abs(determinant_torus_numeric(tau) - closed) / closed < 1e-13


def _det_from_rows_at(w: complex) -> float:
    """exp(-zeta'(0)) from the contour rows at s = 0 summed at w as given, not
    reduced: zeta'(0) = -2 log w2 + pi w2/3 + 2 sum I_n(0)."""
    t = as_tau(w)
    rows = _contour_series(0.0, t, DEFAULT_PRECISION, 2.0).real
    return math.exp(2.0 * math.log(t.tau2) - math.pi * t.tau2 / 3.0 - rows)


def test_determinant_shift_invariance():
    # tau -> tau/(tau + 1) scales tau2^2 |eta|^4 by 1/|tau + 1|^2; the left side
    # is summed at the unreduced w, so eta's transformation law does the work
    tau = 0.3 + 1.4j
    lhs = _det_from_rows_at(tau / (tau + 1.0)) * abs(tau + 1.0) ** 2
    assert abs(lhs - determinant_torus(tau)) / determinant_torus(tau) < 1e-13


def test_determinant_inversion_covariance():
    # tau2^2 |eta|^4 is not modular invariant: under tau -> -1/tau it scales
    # by 1/|tau|^2 (tau2 |eta|^4 is the invariant combination)
    tau = 0.3 + 1.4j
    lhs = _det_from_rows_at(-1.0 / tau) * abs(tau) ** 2
    assert abs(lhs - determinant_torus(tau)) / determinant_torus(tau) < 1e-13


# -------------------------------------------------------- Kronecker constant


def test_kronecker_closed_form_frozen():
    k = kronecker_constant(1j)
    assert abs(k.closed_form - KRONECKER_I) < 1e-12


def test_kronecker_limit_matches_closed_form():
    for tau in (1j, 0.2 + 1.3j):
        k = kronecker_constant(tau)
        assert k.residual < 1e-13


def test_kronecker_closed_form_finite_where_eta_underflows():
    # reduced tau2 = 1e4
    k = kronecker_constant(0.1 + 1e-6j)
    assert abs(k.limit_estimate - k.closed_form) <= 1e-13 * abs(k.closed_form)


def test_kronecker_shift_invariance():
    # the constant is modular invariant; kronecker_constant takes the limit
    # side at the reduced tau, so form it here at two unreduced images w of
    # tau, where the Bessel remainder's transformation does the work
    tau = 0.2 + 1.3j
    closed = kronecker_constant(tau).closed_form
    for w in (tau / (tau + 1.0), -1.0 / tau):
        head = math.pi**2 * w.imag / 3.0 + 2.0 * math.pi * (EULER_GAMMA - math.log(2.0))
        limit = head - math.pi * math.log(w.imag) + remainder_bessel(1.0, w).real
        assert abs(limit - closed) <= 1e-13 * abs(closed)


# ----------------------------------------------------- functional equations


def test_functional_equation_grid():
    assert functional_equation_residual(0.3, 1j) < 1e-9
    assert functional_equation_residual(2 + 0.5j, 0.4 + 0.7j) < 1e-9
    # on the critical line E*(1-s) = conj E*(s): the residual checks that
    # pi^(-s) Gamma(s) E*(s) is real there (at s = 1/2 it is 0 by construction)
    assert functional_equation_residual(0.5 + 2j, 1j) < 1e-13


def test_functional_equation_excluded_points():
    with pytest.raises(PoleError):
        functional_equation_residual(0.0, 1j)
    with pytest.raises(PoleError):
        functional_equation_residual(1.0, 1j)


def test_remainder_fe_grid():
    assert remainder_fe_residual(0.3, 1j) < 1e-9
    assert remainder_fe_residual(-0.7, 0.2 + 1.5j) < 1e-9
    assert remainder_fe_residual(0.5 + 2j, 1j) < 1e-13


# ------------------------------------------------------------------ counters


@pytest.mark.parametrize(
    "route, remainder",
    [(eisenstein_cs, remainder_bessel), (eisenstein_contour, remainder_integral)],
    ids=["eisenstein_cs", "eisenstein_contour"],
)
def test_counters_are_real_and_deterministic(route, remainder):
    s = 0.3 + 0.2j
    first = route(s, 0.1 + 1.0j).diagnostics
    again = route(s, 0.1 + 1.0j).diagnostics
    assert (first.terms_used, first.quad_evals) == (again.terms_used, again.quad_evals)
    assert first.terms_used > 0 and first.quad_evals > 0
    # E* is summed at tau reduced to the fundamental domain, so its counters
    # at tau are those at the reduced point
    far = route(s, 0.1 + 0.3j).diagnostics
    reduced = route(s, fundamental_domain_reduce(0.1 + 0.3j)[0]).diagnostics
    assert (far.terms_used, far.quad_evals) == (reduced.terms_used, reduced.quad_evals)
    # a remainder alone is summed at the tau it is given, and decays like
    # e^(-2 pi n tau2): smaller tau2, more terms and work
    near, wider = Diagnostics(), Diagnostics()
    remainder(s, 0.1 + 1.0j, DEFAULT_PRECISION, near)
    remainder(s, 0.1 + 0.3j, DEFAULT_PRECISION, wider)
    assert wider.terms_used > near.terms_used
    assert wider.quad_evals > near.quad_evals


def test_zeta_laplacian_carries_the_counters():
    got = zeta_laplacian(0.3, 0.2 + 0.7j, "contour").diagnostics
    base = eisenstein_contour(0.3, 0.2 + 0.7j).diagnostics
    assert (got.terms_used, got.quad_evals) == (base.terms_used, base.quad_evals)


@pytest.mark.parametrize("method, remainder", [
    ("chowla_selberg", remainder_bessel), ("contour", remainder_integral)])
def test_counters_at_half_are_one_remainder_call(method, remainder):
    # the cancelling poles at s = 1/2 live in the head; the remainder is
    # entire there and evaluated once, at s and at the reduced tau
    tau = 0.2 + 0.9j
    want = Diagnostics()
    remainder(0.5, fundamental_domain_reduce(tau)[0], DEFAULT_PRECISION, want)
    got = eisenstein(0.5, tau, method).diagnostics
    assert (got.terms_used, got.quad_evals) == (want.terms_used, want.quad_evals)


# ------------------------------------------------------- Bessel-sum constants


@pytest.mark.parametrize(
    "call, n_max, messages",
    [
        (lambda p: remainder_bessel(0.3, 1j, p), 1, ["divisor-Bessel series"]),
        (lambda p: nan_yue_williams_sum(1j, p), 1, ["divisor-Bessel series", "eta product"]),
        # at n_max = 6 the closed form has stopped and only the series is cut
        (lambda p: lambert_q1(1j, p), 6, ["divisor-Bessel series"]),
        (lambda p: lambert_q1(1j, p), 1, ["divisor-Bessel series", "lambert_q1 closed form"]),
        (lambda p: mellin_remainder_tau_i(0.3, p), 1, ["mellin_remainder_tau_i"]),
        (lambda p: eta(1j, p), 1, ["eta product"]),
    ],
    ids=[
        "remainder_bessel", "nan_yue_williams", "lambert_series", "lambert_closed", "mellin", "eta",
    ],
)
def test_series_cap_warns(call, n_max, messages):
    # every warning the call raises is asserted, so none leaks out of the test
    with pytest.warns(TruncationWarning) as caught:
        call(Precision(n_max=n_max))
    assert [str(w.message) for w in caught] == [f"{m} hit n_max = {n_max}" for m in messages]


def test_bessel_cap_hit_reaches_the_diagnostics():
    # at Im s = 15 the K_nu rows cancel to about e^(-15 pi / 2) of their
    # integrand, so the trapezoid halvings chase rounding to their cap
    # (ROADMAP item 4); the cap hit warns and is in the result's diagnostics
    with pytest.warns(TruncationWarning) as caught:
        res = eisenstein_cs(0.3 + 15j, 0.1 + 1j)
    assert {str(w.message) for w in caught} == {f"scaled_bessel_k hit MAX_HALVINGS = {MAX_HALVINGS}"}
    assert res.diagnostics.warnings == ["K_nu quadrature above quad_rel_tol = 1e-12"]
    assert eisenstein_cs(0.3 + 1j, 0.1 + 1j).diagnostics.warnings == []


def test_bessel_estimate_miss_reaches_the_diagnostics_without_a_cap_hit():
    # at Im s = 10 every K_nu row stops on its change before the cap, but
    # some row's estimate, rounding term included, is above quad_rel_tol; at
    # Im s = 8 every row meets it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        missed = eisenstein_cs(0.3 + 10j, 0.1 + 1j)
        met = eisenstein_cs(0.3 + 8j, 0.1 + 1j)
    assert missed.diagnostics.warnings == ["K_nu quadrature above quad_rel_tol = 1e-12"]
    assert met.diagnostics.warnings == []


def test_eisenstein_refuses_an_unknown_route_name():
    with pytest.raises(DomainError) as caught:
        eisenstein(0.3, 1j, "bogus")
    assert str(caught.value) == (
        "unknown method 'bogus'; expected one of ('direct', 'chowla_selberg', 'contour')")


# the public route of each name that eisenstein takes
_ROUTES = {"direct": eisenstein_direct, "chowla_selberg": eisenstein_cs,
           "contour": eisenstein_contour}


@pytest.mark.parametrize("name", [*METHODS, *ALIASES])
def test_eisenstein_takes_every_route_name(name):
    assert set(_ROUTES) == set(METHODS) and set(REMAINDERS) < set(METHODS)
    s, tau = (2.0 + 0.3j if name == "direct" else 0.3 + 0.3j), 1.3 + 0.4j
    got = eisenstein(s, tau, name)
    want = _ROUTES[ALIASES.get(name, name)](s, tau)
    assert (got.value, got.err_estimate, got.method) == (want.value, want.err_estimate, want.method)
    assert got.method == ALIASES.get(name, name)
    assert got.diagnostics == want.diagnostics
    assert got.diagnostics.reduced_tau == fundamental_domain_reduce(tau)[0]
    assert got.diagnostics.reduced_tau.tau2 >= math.sqrt(3.0) / 2.0


def test_nan_yue_williams_at_i():
    pair = nan_yue_williams_sum(1j)
    assert abs(pair.series - 0.000936341) < 5e-9
    closed = -0.5 * math.log(ETA_I) - math.pi / 24.0
    assert abs(pair.series - closed) < 1e-13
    assert abs(pair.closed_form - closed) < 1e-15
    assert pair.residual < 1e-12


def test_nan_yue_williams_generic_tau():
    pair = nan_yue_williams_sum(0.3 + 1.2j)
    assert pair.residual < 1e-10


def test_lambert_q1_at_i():
    pair = lambert_q1(1j)
    assert abs(pair.series - 0.000936341) < 5e-9
    assert abs(pair.series - (-0.5 * math.log(ETA_I) - math.pi / 24.0)) < 1e-13
    reduction = 0.5 * sum(1.0 / (n * math.expm1(2 * math.pi * n)) for n in range(1, 12))
    assert abs(pair.series - reduction) < 1e-12
    assert pair.residual < 1e-12


def test_lambert_q1_generic_tau():
    assert lambert_q1(0.2 + 0.9j).residual < 1e-10


# ------------------------------------------------------------ Mellin at tau=i


def test_mellin_remainder_self_dual_point():
    got = mellin_remainder_tau_i(0.5)
    assert abs(got - remainder_bessel(0.5, 1j)) < 1e-8


def test_mellin_remainder_reflected_point():
    got = mellin_remainder_tau_i(0.3)
    assert abs(got - remainder_bessel(0.7, 1j)) < 1e-8


def test_mellin_remainder_first_term_dominates():
    def n_term(n: int) -> float:
        def f(u):
            root = np.sqrt(n * n + u)
            return u ** (0.5 - 1.0) * math.pi / (np.expm1(2 * math.pi * root) * root)

        return (
            tanh_sinh(f, 0.0, 1.0, tol=1e-13).value
            + adaptive_gauss(f, 1.0, 60.0, rel_tol=1e-12, abs_tol=1e-18).value
        ).real

    ratio = abs(n_term(2)) / abs(n_term(1))
    assert ratio < math.exp(-2 * math.pi) * 10.0


def test_mellin_remainder_domain():
    with pytest.raises(DomainError):
        mellin_remainder_tau_i(1.2)
    with pytest.raises(DomainError):
        mellin_remainder_tau_i(0.0)


# ----------------------------------------------------------------- heat trace


def test_heat_kernel_inversion():
    for x in (0.5, 2.0, 5.0):
        for tau in (1j, 0.3 + 1.4j):
            assert abs(heat_kernel(x, tau) - heat_kernel(1.0 / x, tau) / x) < 1e-12


def _heat_kernel_box(x: float, tau: complex, k: int = 60) -> float:
    """K(x, tau) summed over the box |m|, |n| <= k on the lattice as given."""
    m, n = np.meshgrid(np.arange(-k, k + 1.0), np.arange(-k, k + 1.0))
    return float(np.sum(np.exp(-math.pi * x * np.abs(m + n * tau) ** 2 / tau.imag)))


def test_heat_kernel_modular_invariance():
    tau = 0.2 + 0.8j
    t, s = Sl2zMatrix.shift(1), Sl2zMatrix.inversion()
    for g in (t, s, t @ s @ Sl2zMatrix.shift(-2)):
        moved = g.apply(tau).z
        for x in (0.5, 1.0, 3.0):
            want = heat_kernel(x, tau)
            assert abs(heat_kernel(x, moved) - want) <= 1e-13 * want
            assert abs(_heat_kernel_box(x, moved) - want) <= 1e-13 * want


def test_heat_kernel_array_equals_scalar():
    xs = np.array([[0.5, 1.0], [2.0, 7.5]])
    for tau in (1j, 0.3 + 0.05j):
        got = heat_kernel(xs, tau)
        assert got.shape == xs.shape
        assert isinstance(heat_kernel(1.0, tau), float)
        for x, k in zip(xs.ravel(), got.ravel()):
            assert abs(k - heat_kernel(float(x), tau)) <= 1e-15 * k


def test_heat_kernel_large_x_limit():
    assert abs(heat_kernel(60.0, 1j) - 1.0) < 1e-15


def test_heat_kernel_domain():
    with pytest.raises(DomainError):
        heat_kernel(0.0, 1j)


def test_theta_mellin_checks():
    assert theta_mellin_check(2.0, 1j) < 1e-8
    with pytest.raises(DomainError):
        theta_mellin_check(0.5, 1j)
    assert theta_mellin_check(2.5 + 1j, 0.3 + 0.8j) < 1e-9
    # skewed: the shortest lattice vector is 1 - 3 tau, of squared length 0.0226
    assert theta_mellin_check(2.0, 0.33 + 0.05j) < 1e-12


# ----------------------------------------------------------- weight integral


def test_weight_integral_nine_point_grid():
    # the complex s takes the complex-power path of cpow
    for s in (0.6, 0.75, 0.9, 0.75 + 0.5j):
        for x in (0.5, 1.0, 3.0):
            quad, closed = weight_integral_check(s, x)
            assert abs(quad - closed) < 1e-10


def test_weight_integral_domain():
    with pytest.raises(DomainError):
        weight_integral_check(0.3, 1.0)
    with pytest.raises(DomainError):
        weight_integral_check(0.7, -1.0)
