"""Self-contained special functions: complex Gamma, Riemann zeta with
analytic continuation, the modified Bessel function K_nu by the nested
trapezoid rule on its integral definition (the one trapezoid core,
``quadrature.trapezoid_rows``, that tanh-sinh runs on as well), divisor sums,
Dedekind sums and Lambert series.

Everything here is a pure function of its inputs; the only state is a
bounded, thread-safe memo on the one-value Bessel evaluator ``bessel_k``.
Series that need K_nu at many x call ``scaled_bessel_k`` once, uncached.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .domain import DEFAULT_PRECISION, Precision, require_finite
from .errors import DomainError, NonFiniteError, PoleError
from .quadrature import QuadResult, sum_series, trapezoid_rows

_POLE_TOL = 1e-12

# scaled_bessel_k: trapezoid intervals on [0, w_max] before the first halving,
# and the most halvings
_FIRST_INTERVALS = 32
MAX_HALVINGS = 10

# Lanczos approximation, g = 607/128 with 15 coefficients (Godfrey's set);
# relative accuracy ~1e-15 on the right half-plane.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

# Bernoulli numbers B_2 .. B_60 (even index) for the Euler-Maclaurin tail.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
    -7709321041217.0 / 510.0,
    2577687858367.0 / 6.0,
    -26315271553053477373.0 / 1919190.0,
    2929993913841559.0 / 6.0,
    -261082718496449122051.0 / 13530.0,
    1520097643918070802691.0 / 1806.0,
    -27833269579301024235023.0 / 690.0,
    596451111593912163277961.0 / 282.0,
    -5609403368997817686249127547.0 / 46410.0,
    495057205241079648212477525.0 / 66.0,
    -801165718135489957347924991853.0 / 1590.0,
    29149963634884862421418123812691.0 / 798.0,
    -2479392929313226753685415739663229.0 / 870.0,
    84483613348880041862046775994036021.0 / 354.0,
    -1215233140483755572040304994079820246041491.0 / 56786730.0,
)


def sinpi(z: complex) -> complex:
    """sin(pi z) with exact integer-argument reduction (accurate near zeros)."""
    z = complex(z)
    m = math.floor(z.real + 0.5)
    r = complex(z.real - m, z.imag)
    try:
        val = cmath.sin(math.pi * r)
    except OverflowError:
        raise NonFiniteError(f"sin(pi s) overflows double precision at s = {z}") from None
    return -val if m % 2 else val


def cospi(z: complex) -> complex:
    """cos(pi z), reduced like sinpi."""
    z = complex(z)
    return sinpi(complex(z.real + 0.5, z.imag))


def cpow(x: np.ndarray, p: complex) -> np.ndarray:
    """x**p for positive x: a real power when p is real, else exp(p log x)."""
    if p.imag == 0.0:
        return x ** p.real
    return np.exp(p * np.log(x))


def _near_nonpositive_integer(s: complex, tol: float = _POLE_TOL) -> bool:
    n = round(s.real)
    return n <= 0 and abs(s - n) < tol


def gamma(s: complex) -> complex:
    """Gamma(s) on the cut-free complex plane; PoleError at 0, -1, -2, ..."""
    s = complex(s)
    if _near_nonpositive_integer(s):
        raise PoleError(f"gamma pole at s = {s}")
    if s.real < 0.5:
        # reflection; sinpi keeps full accuracy next to the (excluded) poles
        return require_finite(math.pi / (sinpi(s) * gamma(1.0 - s)), "gamma")
    z = s - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    try:  # t ** (z + 0.5) overflows from Re s of about 142.8, the product from 142.6
        val = math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc
    except OverflowError:
        val = math.inf
    if not cmath.isfinite(val):
        raise NonFiniteError(f"Gamma(z) overflows double precision at z = {s}")
    return val


def rgamma(s: complex) -> complex:
    """1/Gamma(s), entire; exactly 0 at the nonpositive integers; NonFiniteError on overflow."""
    s = complex(s)
    if _near_nonpositive_integer(s):
        return 0.0 + 0.0j
    if s.real < 0.5:
        return sinpi(s) * gamma(1.0 - s) / math.pi
    g = gamma(s)
    if abs(g) * sys.float_info.max < 1.0:  # Gamma(s) is 0 or too small to invert
        raise NonFiniteError(f"1/Gamma(s) overflows double precision at s = {s}")
    return 1.0 / g


def _zeta_euler_maclaurin(s: complex) -> complex:
    """Euler-Maclaurin evaluation, reliable for Re s >= -1 (any Im s tested,
    |Im s| <= ~40); N grows with |Im s| to keep the correction series decaying."""
    n_cut = max(18, int(1.3 * abs(s.imag)) + 8)
    terms = [n ** (-s) for n in range(1, n_cut)]
    head_re = math.fsum(t.real for t in terms)
    head_im = math.fsum(t.imag for t in terms)
    head = complex(head_re, head_im)
    tail = n_cut ** (1.0 - s) / (s - 1.0) + 0.5 * n_cut ** (-s)
    # correction sum: B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1)
    poch = s
    power = n_cut ** (-s - 1.0)
    fact = 2.0
    corr = 0.0 + 0.0j
    n_cut_sq = float(n_cut) * n_cut
    prev_mag = math.inf
    for k, b2k in enumerate(_BERNOULLI, start=1):
        term = (b2k / fact) * poch * power
        mag = abs(term)
        if mag > prev_mag:  # asymptotic series turned; stop at its best
            break
        corr += term
        if mag < 1e-18 * max(1.0, abs(head + tail)):
            break
        prev_mag = mag
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
        power = power / n_cut_sq
        fact = fact * (2 * k + 1) * (2 * k + 2)
    return head + tail + corr


def riemann_zeta(s: complex) -> complex:
    """Riemann zeta with analytic continuation; PoleError at s = 1.

    Euler-Maclaurin handles Re s >= -1/2 directly; further left its summation
    pieces cancel (8e-13 relative error near s = -1), so the reflection
    zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s) is used instead.
    Its head sums 1.3 |Im s| terms, so |Im s| > 1e6 is refused (DomainError).
    """
    s = complex(s)
    if abs(s - 1.0) < _POLE_TOL:
        raise PoleError("riemann_zeta pole at s = 1")
    if abs(s.imag) > 1e6:
        raise DomainError(f"riemann_zeta needs |Im s| <= 1e6, got {s.imag!r}")
    if s.real >= -0.5:
        return require_finite(_zeta_euler_maclaurin(s), "riemann_zeta")
    sin_half = sinpi(0.5 * s)
    if sin_half == 0:  # trivial zeros, exactly
        return 0.0 + 0.0j
    chi = 2.0**s * math.pi ** (s - 1.0) * sin_half * gamma(1.0 - s)
    return require_finite(chi * _zeta_euler_maclaurin(1.0 - s), "riemann_zeta")


def scaled_bessel_k(nu: complex, xs: np.ndarray, rel_tol: float) -> QuadResult:
    """exp(x) K_nu(x) for every x of xs, by one stacked trapezoid rule.

    Substituting t = e^w in the defining integral
    K_nu(x) = 1/2 int_0^inf exp(-(x/2)(t + 1/t)) t^(nu-1) dt
    folds the two half-lines together into
    K_nu(x) = int_0^inf exp(-x cosh w) cosh(nu w) dw,
    which is manifestly even in nu.  The e^x rescaling keeps the integrand
    O(1) so each row is accurate relative to K's own (tiny) scale.  All rows
    share the range [0, w_max] of the smallest x, past which its integrand
    is below e^(-45); the larger x decay sooner.

    The integrand is even in w, analytic in a strip about the real axis and
    decays doubly exponentially, so the trapezoid rule converges
    geometrically in 1/h (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).
    quadrature.trapezoid_rows runs it: the step starts at w_max/32 and
    halves at most MAX_HALVINGS times.  A row stops once its change from the
    last halving is within rel_tol * |row|; its err_estimate is that change
    plus the rounding of its node sums, which is not part of the stop.
    """
    xs = np.asarray(xs, dtype=float)
    x = float(np.min(xs))
    a = abs(complex(nu).real)
    # find w_max with x(cosh w - 1) - a*w > ~45
    w_max = 1.0
    for _ in range(40):
        need = (45.0 + a * w_max + math.log1p(w_max)) / x + 1.0
        new = math.acosh(max(need, 1.0 + 1e-12))
        if new <= w_max:
            break
        w_max = new

    nu_c = complex(nu)
    nu_arg: complex | float = nu_c if nu_c.imag != 0 else nu_c.real
    if a * w_max > 709.0:  # below, e^(a w) < DBL_MAX: no cosh(nu w) can overflow
        with np.errstate(over="ignore", invalid="ignore"):  # the last node; exact for real nu
            if not np.isfinite(np.cosh(nu_arg * w_max)):
                raise NonFiniteError(f"K_nu: cosh(nu w) overflows double precision at nu = {nu}")
    col = xs[:, None]

    def f(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # cosh(w) - 1 = -expm1(w) expm1(-w) / 2, accurate near w = 0
        return np.exp(col[rows] * (0.5 * np.expm1(w) * np.expm1(-w))) * np.cosh(nu_arg * w)

    def nodes(level: int) -> tuple[np.ndarray, np.ndarray, float]:
        h = w_max / _FIRST_INTERVALS * 0.5**level
        k = np.arange(1, _FIRST_INTERVALS << level, 2) if level else np.arange(_FIRST_INTERVALS + 1)
        w = np.ones(k.size)
        if not level:
            w[[0, -1]] = 0.5
        return h * k, w, h

    return trapezoid_rows(f, nodes, xs.size, rel_tol, 0.0, 1, MAX_HALVINGS,
                          f"scaled_bessel_k hit MAX_HALVINGS = {MAX_HALVINGS}")


@lru_cache(maxsize=8192)
def _bessel_k_cached(nu_re: float, nu_im: float, x: float, rel_tol: float) -> complex:
    return complex(scaled_bessel_k(complex(nu_re, nu_im), np.array([x]), rel_tol).value[0])


def bessel_k(nu: float | complex, x: float, prec: Precision = DEFAULT_PRECISION) -> float | complex:
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    Real order returns a float; complex order (needed for evaluation at
    complex s through nu = 1/2 - s) goes through the identical quadrature
    path and returns a complex value.  K_nu = K_{-nu} holds by construction.
    """
    if not x > 0:
        raise DomainError(f"bessel_k requires x > 0, got {x}")
    nu_c = complex(nu)
    scaled = _bessel_k_cached(abs(nu_c.real), abs(nu_c.imag), float(x), prec.quad_rel_tol)
    # cosh is even, so only |Re nu|, |Im nu| matter up to conjugation
    if nu_c.imag != 0 and (nu_c.real < 0) != (nu_c.imag < 0):
        scaled = scaled.conjugate()
    val = scaled * math.exp(-x)
    if isinstance(nu, complex) and nu.imag != 0:
        return val
    return val.real


def sigma(v: complex, n: int) -> complex:
    """Divisor power sum sigma_v(n) = sum over d|n of d^v, by enumeration."""
    if n < 1:
        raise DomainError(f"sigma requires n >= 1, got {n}")
    v = complex(v)
    total = 0.0 + 0.0j
    d = 1
    try:
        while d * d <= n:
            if n % d == 0:
                total += d**v
                e = n // d
                if e != d:
                    total += e**v
            d += 1
    except OverflowError:
        raise NonFiniteError(f"sigma_v(n) overflows double precision at v = {v}, n = {n}") from None
    return total


def dedekind_sum_exact(h: int, k: int) -> Fraction:
    """s(h, k) = sum_{n=1}^{k-1} (n/k)(hn/k - floor(hn/k) - 1/2), exactly, in
    O(log k) steps.  With g = gcd(h, k) the terms at the multiples of k/g sum
    to -(g - 1)/4 and the rest to s(h/g, k/g), which the reciprocity law
    s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4 reduces in Euclid steps
    (Apostol, Modular Functions and Dirichlet Series, Thm 3.7)."""
    if k < 1:
        raise DomainError(f"dedekind_sum requires k >= 1, got {k}")
    g = math.gcd(h, k)
    total, sign = Fraction(1 - g, 4), 1
    h, k = h // g % (k // g), k // g
    while h:  # s(h, k) with 0 < h < k coprime; s(0, 1) = 0 ends it
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign = -sign
        h, k = k % h, h
    return total


def lambert_series(
    alpha: complex, q: complex, prec: Precision = DEFAULT_PRECISION
) -> complex:
    """sum_{n>=1} n^alpha q^n / (1 - q^n) for |q| < 1, summed by the series
    driver ``quadrature.sum_series`` at geometric ratio |q|."""
    q = complex(q)
    if abs(q) >= 1.0:
        raise DomainError(f"lambert_series requires |q| < 1, got |q| = {abs(q)}")
    if q == 0:
        return 0.0 + 0.0j
    alpha = complex(alpha)

    def block(ns: np.ndarray) -> tuple[np.ndarray, int, str]:
        qn = np.power(q, ns)
        return cpow(ns, alpha) * qn / (1.0 - qn), 0, ""

    return sum_series(block, 1.0, abs(q), prec, "lambert_series", None)
