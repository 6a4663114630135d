"""Spectral zeta function of the tau-Laplacian on a complex torus and the
completed Eisenstein series E*(s, tau), by three independent routes:

* ``direct``          -- lattice sum over square shells (Re s > 1), with the
                         shell tail eliminated through its asymptotic expansion,
                         fitted along a doubling ladder of shells from K = 5;
* ``chowla_selberg``  -- two Riemann-zeta terms plus an exponentially
                         convergent Bessel remainder (all s != 1);
* ``contour``         -- the same two zeta terms plus the branch-cut integral
                         remainder (Re s < 1, realized numerically).

The routes are one table (``REMAINDERS``, ``METHODS``, ``ALIASES``) with one
entry, ``eisenstein``, which the three public routes call.  E* is SL(2,
Z)-invariant, so it sums at tau moved into the fundamental domain, where
tau2 >= sqrt(3)/2 and the remainders, which converge like e^(-2 pi n tau2),
need a handful of terms.  ``zeta_laplacian`` scales by the caller's tau2^s.
The remainders ``remainder_bessel`` and ``remainder_integral`` are not
invariant on their own and are summed at the tau they are given.

The module also extracts the functional determinant, the constant term of the
Laurent expansion at s = 1, the remainder functional equation, the divisor
Bessel-sum constants, the lattice heat kernel with its inversion law, and the
Mellin/theta consistency checks that tie everything together.  The numeric
zeta'(0) and Kronecker constant take no Taylor circle: each is the head in
closed form plus a remainder, the contour rows at s = 0 or Q(1, tau).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .domain import (
    DEFAULT_PRECISION,
    Diagnostics,
    EvalResult,
    Precision,
    TauPoint,
    as_tau,
)
from .errors import DomainError, NonFiniteError, PoleError, warn_truncation
from .eta import fundamental_domain_reduce, log_abs_eta
from .quadrature import (
    CHUNK,
    adaptive_gauss,
    sum_series,
    tanh_sinh,
    tanh_sinh_rows,
    taylor,
)
# bessel_k is not called here; benchmarks/test_benchmark.py checks that the
# tracer wraps this binding
from .specialfn import bessel_k  # noqa: F401
from .specialfn import _POLE_TOL, cpow, gamma, rgamma, riemann_zeta
from .specialfn import scaled_bessel_k, sigma, sinpi

EULER_GAMMA = 0.5772156649015328606

_HALF_WINDOW = 0.01  # |s - 1/2| below which the head comes from its Taylor series at 1/2
_SUM_ROUNDING = 1e-15  # u: rounding bound of a direct-sum partial sum, relative to it


class PairedValue(NamedTuple):
    """A quantity computed two ways; `series` and `closed_form` must agree."""

    series: float
    closed_form: float

    @property
    def residual(self) -> float:
        return abs(self.series - self.closed_form)


def _check_not_pole(s: complex) -> complex:
    s = complex(s)
    if abs(s - 1.0) < _POLE_TOL:
        raise PoleError("E*(s, tau) has its pole at s = 1")
    return s


# ----------------------------------------------------------------- direct sum


def _square_sum_block(
    s: complex, t: TauPoint, k_lo: int, k_hi: int
) -> tuple[complex, int]:
    """Sum of |m + n tau|^(-2s) over k_lo < max(|m|,|n|) <= k_hi, and its count.

    -(m + n tau) rounds to the same float as m + n tau, so the shell is summed
    over one half, the rows n > k_lo plus the columns m > k_lo of the band
    |n| <= k_lo, and doubled; slabs of rows hold at most CHUNK terms."""

    def half(ms: np.ndarray, ns: np.ndarray) -> complex:
        total = 0.0 + 0.0j
        step = max(1, CHUNK // ms.size)
        for i in range(0, ns.size, step):
            n = ns[i : i + step, None]
            r2 = (ms + n * t.tau1) ** 2 + (n * t.tau2) ** 2
            total += complex(np.sum(cpow(r2, -s)))
        return total

    outer = np.arange(k_lo + 1.0, k_hi + 1.0)
    total = half(np.arange(-k_hi, k_hi + 1.0), outer) + half(outer, np.arange(-k_lo, k_lo + 1.0))
    return 2.0 * total, (2 * k_hi + 1) ** 2 - (2 * k_lo + 1) ** 2


def eisenstein_direct(
    s: complex, tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> EvalResult:
    """E*(s, tau) by direct lattice summation over square shells, Re s > 1,
    at tau reduced to the fundamental domain.

    The shell max(|m|,|n|) <= K is a midpoint rule on [-N, N]^2, N = K + 1/2,
    so its partial sum is S(K) = E - a N^(2-2s) - b N^(-2s) - c N^(-2s-2) -
    d N^(-2s-4) - ..., with only even gaps past the singular term (Lyness,
    Math. Comp. 30 (1976) 1).  Partial sums at K = 5, 10, 20, ... are fitted
    through windows of w to the first w - 1 terms: at each checkpoint the fit
    through the last w is checked against the fit through the w before, for
    w = 5 and then w = 4 (which agrees first at large tau2), and the ladder
    stops once a pair agrees to quad_rel_tol.  err_estimate is the pair's
    difference plus the rounding of the partial sums (u = _SUM_ROUNDING each)
    carried through the fit.  If n_max stops the ladder before five
    checkpoints, every checkpoint is fitted and checked against the fit
    without the first (with two, against the first raw partial sum); after,
    the last four-point pair is returned.
    """
    return eisenstein(s, tau, "direct", prec)


def _direct_unreduced(s: complex, t: TauPoint, prec: Precision) -> EvalResult:
    """eisenstein_direct on the lattice basis (1, t) as given."""
    s = _check_not_pole(s)
    if not s.real > 1.0:
        raise DomainError("the direct lattice sum requires Re s > 1")

    def fit(points: list[tuple[int, complex]]) -> tuple[complex, float]:
        """E = sum_i w_i S_i through every point, and its rounding sum |w| max |S| u.

        With b_j = a_j N_last^p_j, S_i - S_last = -sum_j b_j ((N_i/N_last)^p_j - 1) and
        E = S_last + sum_j b_j; expm1 keeps the p = 2 - 2s column exact as s -> 1."""
        n = np.array([k for k, _ in points]) + 0.5
        logs = np.log(n[:-1] / n[-1])
        g = np.column_stack([np.expm1((2.0 - 2.0 * s - 2.0 * j) * logs) for j in range(len(logs))])
        v = np.linalg.solve(g.T, np.ones(len(logs)))
        vals = np.array([val for _, val in points])
        weights = np.abs(v).sum() + abs(1.0 + v.sum())  # |first row of the fit's inverse|
        value = vals[-1] - v @ (vals[:-1] - vals[-1])
        return complex(value), float(weights * np.abs(vals).max()) * _SUM_ROUNDING

    diag = Diagnostics()
    stopped = f"direct-sum ladder stopped by n_max = {prec.n_max}"
    if prec.n_max < 2:
        warn_truncation(stopped)
        raise DomainError("the direct sum needs n_max >= 2 for two checkpoints")
    partials: list[tuple[int, complex]] = []
    running = 0.0 + 0.0j
    k = 5 if prec.n_max > 5 else prec.n_max // 2  # a lone checkpoint is its own check
    agreed = False
    while not agreed:
        blk, cnt = _square_sum_block(s, t, partials[-1][0] if partials else 0, k)
        running += blk
        diag.terms_used += cnt
        partials.append((k, running))
        if len(partials) >= 5:
            for w in (5, 4) if len(partials) > 5 else (4,):
                (full, rounding), (check, _) = fit(partials[-w:]), fit(partials[-w - 1 : -1])
                agreed = abs(full - check) <= prec.quad_rel_tol * abs(full)
                if agreed:
                    break
        elif len(partials) > 1:
            full, rounding = fit(partials)
            check = fit(partials[1:])[0] if len(partials) > 2 else partials[0][1]
        if not agreed and k == prec.n_max:  # never the first checkpoint
            diag.warnings.append(stopped)
            warn_truncation(stopped)
            break
        k = min(2 * k, prec.n_max)
    tau2_s = t.tau2**s
    value = tau2_s * full
    err = abs(tau2_s) * (abs(full - check) + rounding)
    return EvalResult(value, err, "direct", diag)


# ------------------------------------------------- shared Chowla-Selberg head


def _cs_main_terms(s: complex, t: TauPoint) -> complex:
    """2 tau2^s zeta(2s) + 2 pi tau2^(1-s) Gamma(s-1/2) zeta(2s-1) / (sqrt(pi) Gamma(s)).

    For Re s < 3/4 the product Gamma(s-1/2) zeta(2s-1) is rewritten (via the
    reflection formulas, with the cos factors cancelled analytically) as
    2^(2s-1) pi^(2s-1) Gamma(2-2s) zeta(2-2s) / Gamma(3/2-s), which stays
    finite across the trivial zeros / Gamma poles at s = -1/2, -3/2, ...

    The two terms have cancelling poles at s = 1/2, where their sum is
    analytic; within _HALF_WINDOW of it the sum is the Taylor series taken on
    the circle |s - 1/2| = 0.1 (24 points; the nearest singularity is s = 1).
    """
    if abs(s - 0.5) < _HALF_WINDOW:
        coeffs = taylor(lambda zs: [_cs_main_terms(z, t) for z in zs.tolist()], 0.5, 0.1, 24)
        return complex(np.polynomial.polynomial.polyval(s - 0.5, coeffs))
    term1 = 2.0 * t.tau2**s * riemann_zeta(2.0 * s)
    rg = rgamma(s)
    if rg == 0:
        return term1
    if s.real >= 0.75:
        pair = gamma(s - 0.5) * riemann_zeta(2.0 * s - 1.0)
    else:
        pair = (
            2.0 ** (2.0 * s - 1.0)
            * math.pi ** (2.0 * s - 1.0)
            * gamma(2.0 - 2.0 * s)
            * riemann_zeta(2.0 - 2.0 * s)
            / gamma(1.5 - s)
        )
    term2 = 2.0 * math.pi * t.tau2 ** (1.0 - s) * pair * rg / math.sqrt(math.pi)
    return term1 + term2


# ------------------------------------------------------------------ remainders


def _divisor_bessel_series(
    s: complex, t: TauPoint, prec: Precision, scale: complex = 1.0, diag: Diagnostics | None = None
) -> complex:
    """scale * sum_{n>=1} sigma_(1-2s)(n) cos(2 pi n tau1) K_(1/2-s)(2 pi n tau2) n^(s-1/2),
    with the K_nu of a block of n from one stacked quadrature, which notes for
    sum_series a K_nu row whose error estimate missed quad_rel_tol (as at its cap)."""
    missed = f"K_nu quadrature above quad_rel_tol = {prec.quad_rel_tol:g}"

    def block(ns: np.ndarray) -> tuple[np.ndarray, int, str]:
        xs = 2.0 * math.pi * t.tau2 * ns
        k = scaled_bessel_k(0.5 - s, xs, prec.quad_rel_tol)
        sig = np.array([sigma(1.0 - 2.0 * s, int(n)) for n in ns])
        vals = sig * np.cos(2.0 * math.pi * t.tau1 * ns) * (k.value * np.exp(-xs)) * ns ** (s - 0.5)
        return vals, k.n_evals, missed if k.missed else ""

    return sum_series(
        block, scale, math.exp(-2.0 * math.pi * t.tau2), prec, "divisor-Bessel series", diag
    )


def remainder_bessel(
    s: complex,
    tau: TauPoint | complex,
    prec: Precision = DEFAULT_PRECISION,
    diag: Diagnostics | None = None,
) -> complex:
    """Bessel-series remainder
    Q(s,tau) = (8 pi^s tau2^(1/2) / Gamma(s)) *
               sum_{n>=1} sigma_(1-2s)(n) cos(2 pi n tau1) K_(1/2-s)(2 pi n tau2) n^(s-1/2).
    Terms decay like e^(-2 pi n tau2).  diag, if given, gains the terms summed and
    the evaluations; sum_series refuses a prefactor or partial sum that is not finite."""
    s = complex(s)
    t = as_tau(tau)
    rg = rgamma(s)
    if rg == 0:
        return 0.0 + 0.0j
    pref = 8.0 * math.pi**s * math.sqrt(t.tau2) * rg
    return _divisor_bessel_series(s, t, prec, pref, diag)


def _contour_series(
    s: complex, t: TauPoint, prec: Precision, scale: complex, diag: Diagnostics | None = None
) -> complex:
    """scale * sum_{n>=1} I_n(s), I_n(s) = int_0^inf (u^2 + 2 u n tau2)^(-s)
    d/du log[(1 - E1)(1 - E2)] du, a block of n by one tanh-sinh pass over
    (0, 8), one row per n; past u = 8 each row has decayed by e^(-16 pi).
    A block notes for sum_series a row whose error estimate missed its tolerance
    (as at its cap)."""
    tol = max(1e-14, 0.1 * prec.quad_rel_tol)
    missed = f"contour quadrature above tol = {tol:g}"

    def block(ns: np.ndarray) -> tuple[np.ndarray, int, str]:
        two_n_tau2 = (2.0 * t.tau2 * ns)[:, None]
        decay = np.exp(-math.pi * two_n_tau2)  # e^(-2 pi n tau2)
        c = np.cos(2.0 * math.pi * t.tau1 * ns)[:, None]

        def integrand(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
            rho = np.exp(-2.0 * math.pi * u) * decay[rows]
            cr = c[rows]
            log_derivative = 4.0 * math.pi * rho * (cr - rho) / (1.0 - rho * (2.0 * cr - rho))
            return cpow(u * (u + two_n_tau2[rows]), -s) * log_derivative

        res = tanh_sinh_rows(integrand, 0.0, 8.0, ns.size, tol=tol)
        return res.value, res.n_evals, missed if res.missed else ""

    return sum_series(
        block, scale, math.exp(-2.0 * math.pi * t.tau2), prec, "remainder_integral", diag
    )


def remainder_integral(
    s: complex,
    tau: TauPoint | complex,
    prec: Precision = DEFAULT_PRECISION,
    diag: Diagnostics | None = None,
) -> complex:
    """Branch-cut integral remainder (Re s < 1):

    Q(s,tau) = 2 tau2^s sin(pi s)/pi * sum_{n>=1} I_n(s),
    I_n(s) = int_0^inf du (u^2 + 2 u n tau2)^(-s) d/du log[(1 - E1)(1 - E2)],
    E1 = e^(-2 pi u - 2 pi i n conj(tau)), E2 = e^(-2 pi u + 2 pi i n tau).

    Both exponentials have modulus rho = e^(-2 pi (u + n tau2)), so the
    logarithmic derivative is 4 pi Re[E/(1-E)]
    = 4 pi (rho c - rho^2) / (1 - 2 rho c + rho^2), c = cos(2 pi n tau1),
    and the u-integrand has only the algebraic u^(-s) endpoint singularity.
    _contour_series sums the rows; Q'(0) = 2 sum I_n(0), where Q(0) = 0.  diag, if given,
    gains the terms and evaluations; sum_series refuses a non-finite prefactor or sum.
    """
    s = complex(s)
    t = as_tau(tau)
    if not s.real < 1.0:
        raise DomainError("the contour remainder is realized only for Re s < 1")
    sp = sinpi(s)
    if sp == 0:  # Q = 0 before tau2^s, which can overflow at an unreduced tau
        return 0.0 + 0.0j
    try:
        pref = 2.0 * t.tau2**s * sp / math.pi
    except OverflowError:  # tau2^s, before sum_series could see the prefactor
        raise NonFiniteError(f"remainder_integral: prefactor 2 tau2^s sin(pi s)/pi overflows "
                             f"double precision at s = {s}, tau2 = {t.tau2}") from None
    return _contour_series(s, t, prec, pref, diag)


# ------------------------------------------------------------- E* evaluators

# the series routes and their remainders; every route name lives here
REMAINDERS = {"chowla_selberg": remainder_bessel, "contour": remainder_integral}
METHODS = ("direct", *REMAINDERS)
ALIASES = {"cs": "chowla_selberg"}
DEFAULT_METHOD = "cs"  # by its short name, which `table` prints as its default column


def eisenstein(
    s: complex,
    tau: TauPoint | complex,
    method: str = DEFAULT_METHOD,
    prec: Precision = DEFAULT_PRECISION,
) -> EvalResult:
    """Completed nonholomorphic Eisenstein series E*(s, tau) by a route of METHODS
    or ALIASES, at tau moved into the fundamental domain, where remainder terms
    decay at least like e^(-pi sqrt(3) n); the diagnostics record that tau."""
    method = ALIASES.get(method, method)
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")
    t = fundamental_domain_reduce(tau)[0]
    result = _direct_unreduced(s, t, prec) if method == "direct" else _head_plus(method, s, t, prec)
    result.diagnostics.reduced_tau = t
    return result


def _head_plus(method: str, s: complex, t: TauPoint, prec: Precision) -> EvalResult:
    """_cs_main_terms plus the route's remainder (which checks its own domain
    first) at t as given, with err_estimate 1e-13 max(1, |E*|); EvalResult
    refuses a value that is not finite."""
    s = _check_not_pole(s)
    diag = Diagnostics()
    value = REMAINDERS[method](s, t, prec, diag) + _cs_main_terms(s, t)
    return EvalResult(value, 1e-13 * max(1.0, abs(value)), method, diag)


def _cs_unreduced(s: complex, t: TauPoint, prec: Precision) -> EvalResult:
    """eisenstein_cs at t as given."""
    return _head_plus("chowla_selberg", s, t, prec)


def eisenstein_cs(
    s: complex, tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> EvalResult:
    """E*(s, tau) via the Chowla-Selberg series, valid for every s != 1, at tau
    reduced to the fundamental domain: the head _cs_main_terms plus
    remainder_bessel, with err_estimate 1e-13 max(1, |E*|)."""
    return eisenstein(s, tau, "chowla_selberg", prec)


def eisenstein_contour(
    s: complex, tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> EvalResult:
    """E*(s, tau) via the branch-cut contour representation (Re s < 1), at tau
    reduced to the fundamental domain: the head _cs_main_terms plus
    remainder_integral, with err_estimate 1e-13 max(1, |E*|)."""
    return eisenstein(s, tau, "contour", prec)


def zeta_laplacian(
    s: complex,
    tau: TauPoint | complex,
    method: str = DEFAULT_METHOD,
    prec: Precision = DEFAULT_PRECISION,
) -> EvalResult:
    """Spectral zeta of the tau-Laplacian: (2 pi)^(-2s) tau2^s E*(s, tau)."""
    s = complex(s)
    t = as_tau(tau)
    base = eisenstein(s, t, method, prec)
    scale = (2.0 * math.pi) ** (-2.0 * s) * t.tau2**s
    return EvalResult(
        scale * base.value,
        abs(scale) * base.err_estimate,
        base.method,
        base.diagnostics,
    )


# ----------------------------------------------- determinant and limit formula


def zeta_laplacian_deriv0(
    tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> float:
    """The paper's closed form of d/ds zeta_Laplacian at s = 0, -log(tau2^2 |eta(tau)|^4),
    as -2 log tau2 - 4 log|eta(tau)|: finite where |eta(tau)| underflows."""
    return -2.0 * math.log(as_tau(tau).tau2) - 4.0 * log_abs_eta(tau, prec)


def zeta_laplacian_deriv0_numeric(
    tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> float:
    """Same derivative by the paper's contour proof, with neither Kronecker's
    limit formula nor the functional equation.  At z = tau reduced, zeta'(0) =
    (log tau2 - 2 log 2 pi) E*(0, z) + E*'(0, z), E*(0, z) = -1; the head's
    derivative is -log z2 - 2 log 2 pi + pi z2/3 (zeta_R(0), zeta_R'(0) =
    -(1/2) log 2 pi, 2 sqrt(pi) Gamma(-1/2) zeta_R(-1) = pi/3), and as sin 0 = 0,
    Q'(0) = 2 sum I_n(0), the contour rows at s = 0 (I_n(0) = -log|1 - q^n|^2)."""
    t = as_tau(tau)
    z = fundamental_domain_reduce(t)[0]
    rows = _contour_series(0.0, z, prec, 2.0).real
    return -math.log(t.tau2) - math.log(z.tau2) + math.pi * z.tau2 / 3.0 + rows


def determinant_torus(
    tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> float:
    """det of the tau-Laplacian, exp(-zeta'(0)) = tau2^2 |eta(tau)|^4, from the closed zeta'(0)."""
    return math.exp(-zeta_laplacian_deriv0(tau, prec))


def determinant_torus_numeric(
    tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> float:
    """Determinant from zeta_laplacian_deriv0_numeric, the contour rows at s = 0."""
    return math.exp(-zeta_laplacian_deriv0_numeric(tau, prec))


def pole_residue(tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION) -> float:
    """Residue of E*(s, tau) at s = 1, a_0 of (s - 1) E* on |s - 1| = 0.05; exact value is pi."""
    return float(taylor(
        lambda zs: [(z - 1.0) * eisenstein_cs(z, tau, prec).value for z in zs.tolist()], 1.0, 0.05
    )[0])


class KroneckerLimit(NamedTuple):
    limit_estimate: float  # lim_{s->1} (E*(s,tau) - pi/(s-1)): the head's constant plus Q(1, tau)
    closed_form: float     # 2 pi (gamma - log 2 - log(tau2^(1/2) |eta|^2))

    @property
    def residual(self) -> float:
        return abs(self.limit_estimate - self.closed_form)


def kronecker_constant(
    tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> KroneckerLimit:
    """Constant term of E*(s, tau) at s = 1, taking no limit: at z = tau reduced,
    the head's Laurent constant pi^2 z2/3 + 2 pi (gamma - log 2 - (1/2) log z2)
    (psi(1/2) = -gamma - 2 log 2) plus Q(1, z); and in closed form through eta."""
    t = as_tau(tau)
    z = fundamental_domain_reduce(t)[0]
    head = math.pi**2 * z.tau2 / 3.0 + 2.0 * math.pi * (EULER_GAMMA - math.log(2.0))
    limit = head - math.pi * math.log(z.tau2) + remainder_bessel(1.0, z, prec).real
    closed = 2.0 * math.pi * (
        EULER_GAMMA - math.log(2.0) - 0.5 * math.log(t.tau2) - 2.0 * log_abs_eta(t, prec)
    )
    return KroneckerLimit(limit, closed)


# ------------------------------------------------------- functional equations


def _fe_residual(s: complex, what: str, weight: Callable, series: Callable) -> float:
    """|pi^(1-2s) weight(s) series(s) - weight(1-s) series(1-s)|, or PoleError
    "<what> undefined" within 1e-9 of s = 0 or 1, where one side has its pole."""
    s = complex(s)
    for p in (0.0, 1.0):
        if abs(s - p) < 1e-9 or abs((1.0 - s) - p) < 1e-9:
            raise PoleError(f"{what} undefined at s = {s}")
    lhs = math.pi ** (1.0 - 2.0 * s) * weight(s) * series(s)
    rhs = weight(1.0 - s) * series(1.0 - s)
    return abs(lhs - rhs)


def functional_equation_residual(
    s: complex, tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> float:
    """|pi^(1-2s) Gamma(s) E*(s,tau) - Gamma(1-s) E*(1-s,tau)|, both sides via
    the Chowla-Selberg evaluator."""
    t = as_tau(tau)
    return _fe_residual(
        s, "functional equation residual", gamma, lambda sv: eisenstein_cs(sv, t, prec).value
    )


def remainder_fe_residual(
    s: complex, tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> float:
    """|pi^(1-2s) Gamma(s) Q(s,tau) - Gamma(1-s) Q(1-s,tau)| for the Bessel
    remainder.  Gamma(s) Q(s,tau) is formed as 8 pi^s tau2^(1/2) * (series),
    cancelling Gamma against 1/Gamma analytically."""
    t = as_tau(tau)

    def gamma_times_q(sv: complex) -> complex:
        return _divisor_bessel_series(sv, t, prec, 8.0 * math.pi**sv * math.sqrt(t.tau2))

    return _fe_residual(s, "remainder functional equation", lambda sv: 1.0, gamma_times_q)


# ------------------------------------------------ Bessel-sum closed constants


def nan_yue_williams_sum(
    tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> PairedValue:
    """sum_{n>=1} sigma_1(n) cos(2 pi n tau1) K_(1/2)(2 pi n tau2) n^(-1/2)
    paired with its closed form -(tau2^(-1/2)/2) log|eta(tau)| - tau2^(1/2) pi/24."""
    t = as_tau(tau)
    total = _divisor_bessel_series(0.0, t, prec).real
    closed = -0.5 * t.tau2**-0.5 * log_abs_eta(t, prec) - math.sqrt(t.tau2) * math.pi / 24.0
    return PairedValue(total, closed)


def lambert_q1(
    tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> PairedValue:
    """The remainder series at s = 1,
    sum_{n>=1} sigma_(-1)(n) cos(2 pi n tau1) K_(-1/2)(2 pi n tau2) n^(1/2),
    paired with its elementary closed form
    -(tau2^(-1/2)/4) sum (1/n) (1 - 2 e^(2 pi i n tau) + e^(2 pi i n (tau+conj tau)))
                               / ((e^(2 pi i n tau)-1)(e^(2 pi i n conj tau)-1)).
    The closed-form term is evaluated after dividing through by
    e^(2 pi i n conj(tau)) so that every exponential decays."""
    t = as_tau(tau)
    series = _divisor_bessel_series(1.0, t, prec).real
    z = t.z

    def block(ns: np.ndarray) -> tuple[np.ndarray, int, str]:
        e_tau = np.exp(2j * math.pi * z * ns)  # decays
        e_conj_neg = np.exp(-2j * math.pi * z.conjugate() * ns)  # decays
        e_diff = np.exp(-4.0 * math.pi * t.tau2 * ns)  # e^(2 pi i n (tau - conj tau))
        num = e_conj_neg - 2.0 * e_diff + e_tau
        den = (e_tau - 1.0) * (1.0 - e_conj_neg)
        return num / (den * ns), 0, ""

    ratio = math.exp(-2.0 * math.pi * t.tau2)
    closed_sum = sum_series(block, 1.0, ratio, prec, "lambert_q1 closed form", None)
    closed = -0.25 * t.tau2**-0.5 * closed_sum.real
    return PairedValue(series, closed)


# -------------------------------------------------- Mellin form of Q at tau=i


def mellin_remainder_tau_i(
    s: complex, prec: Precision = DEFAULT_PRECISION
) -> complex:
    """4 sin(pi s)/pi * sum_{n>=1} int_0^inf u^(s-1)
    pi / ((e^(2 pi sqrt(n^2+u)) - 1) sqrt(n^2+u)) du, which equals Q(1-s, i);
    defined on the strip 0 < Re s < 1.  The n-integrals are computed a block
    at a time, by one tanh-sinh pass over (0, u_hi), u_hi = max(4, 54 - n^2)
    for the block's first n."""
    s = complex(s)
    if not (0.0 < s.real < 1.0):
        raise DomainError("mellin_remainder_tau_i needs 0 < Re s < 1")
    tol = max(1e-14, 0.1 * prec.quad_rel_tol)

    def block(ns: np.ndarray) -> tuple[np.ndarray, int, str]:
        n2 = (ns * ns).astype(float)[:, None]

        def integrand(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
            root = np.sqrt(n2[rows] + u)
            core = math.pi / (np.expm1(2.0 * math.pi * root) * root)
            return cpow(u, s - 1.0) * core

        u_hi = max(4.0, 54.0 - float(ns[0]) ** 2)
        res = tanh_sinh_rows(integrand, 0.0, u_hi, ns.size, tol=tol)
        return res.value, res.n_evals, ""

    pref = 4.0 * sinpi(s) / math.pi
    return sum_series(block, pref, math.exp(-2.0 * math.pi), prec, "mellin_remainder_tau_i", None)


# ---------------------------------------------------------------- heat kernel


def heat_kernel(
    x: float | np.ndarray, tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> float | np.ndarray:
    """Lattice heat trace K(x, tau) = sum over all (m, n) in Z^2 of
    exp(-|m + n tau|^2 pi x / tau2), truncated by a Gaussian tail rule, with
    the inversion law K(x, tau) = x^(-1) K(1/x, tau).  The form
    |m + n tau|^2 / tau2 is SL(2, Z)-invariant, so the sum runs at tau
    reduced.  An array of x is summed over one lattice enumeration, made for
    the smallest x, one row of m per n; a scalar x returns a float."""
    xs = np.asarray(x, dtype=float)
    if not np.all(xs > 0):
        raise DomainError("heat_kernel requires x > 0")
    z = fundamental_domain_reduce(tau)[0]
    rates = math.pi * xs.reshape(-1, 1) / z.tau2
    cut = -math.log(min(prec.series_tail_tol, 1e-16)) + 8.0
    r2_max = cut / float(rates.min())
    n_lim = int(math.sqrt(r2_max) / z.tau2) + 1
    total = np.zeros(xs.size)
    for n in range(-n_lim, n_lim + 1):
        height = (n * z.tau2) ** 2
        if height > r2_max:
            continue
        half_w = math.sqrt(r2_max - height)
        m = np.arange(math.ceil(-n * z.tau1 - half_w), math.floor(-n * z.tau1 + half_w) + 1)
        r2 = (m + n * z.tau1) ** 2 + height
        total += np.sum(np.exp(-rates * r2), axis=1)
    return float(total[0]) if xs.ndim == 0 else total.reshape(xs.shape)


def theta_mellin_check(
    s: complex, tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> float:
    """|E~(s) - (1/2) int_0^inf (K(t) - 1) t^(s-1) dt| for Re s > 1, with
    E~(s) = (1/2) pi^(-s) Gamma(s) E*(s, tau).  The inversion law folds (0, 1)
    onto (1, inf): the integral is 1/(s-1) - 1/s plus one adaptive Gauss call
    for int_1^t_hi (K(t) - 1)(t^(s-1) + t^(-s)) dt.  Both sides run at tau
    reduced, where the shortest lattice vector is 1, so K(t) - 1 decays like
    e^(-pi t / tau2) and t_hi = max(2, 50 tau2 / pi)."""
    s = complex(s)
    if not s.real > 1.0:
        raise DomainError("theta_mellin_check needs Re s > 1, where the Mellin integral converges")
    z = fundamental_domain_reduce(tau)[0]
    tol = max(1e-13, 0.1 * prec.quad_rel_tol)

    def folded(tv: np.ndarray) -> np.ndarray:
        return (heat_kernel(tv, z, prec) - 1.0) * (cpow(tv, s - 1.0) + cpow(tv, -s))

    t_hi = max(2.0, 50.0 * z.tau2 / math.pi)
    quad = adaptive_gauss(folded, 1.0, t_hi, rel_tol=tol, abs_tol=1e-16)
    mellin = 1.0 / (s - 1.0) - 1.0 / s + quad.value
    completed = 0.5 * math.pi ** (-s) * gamma(s) * _cs_unreduced(s, z, prec).value
    return abs(completed - 0.5 * mellin)


# ------------------------------------------------------- quadrature identity


def weight_integral_check(
    s: complex, x: float, prec: Precision = DEFAULT_PRECISION
) -> tuple[complex, complex]:
    """The branch-weight integral int_0^inf u^(-s) (u+2x)^(-s) du against its
    closed form x^(1-2s) Gamma(1-s) Gamma(s-1/2) / (2 sqrt(pi)), for
    1/2 < Re s < 1 and x > 0.  Returns (quadrature value, closed form)."""
    s = complex(s)
    if not (0.5 < s.real < 1.0):
        raise DomainError("the weight integral converges only for 1/2 < Re s < 1")
    if not x > 0:
        raise DomainError("x must be positive")
    tol = max(1e-14, 0.1 * prec.quad_rel_tol)
    split = max(1.0, 2.0 * x)

    def head(u: np.ndarray) -> np.ndarray:
        # two factors, so that neither underflows next to u = 0
        return cpow(u, -s) * cpow(u + 2.0 * x, -s)

    def tail(w: np.ndarray) -> np.ndarray:
        # u = 1/w folds (split, inf) onto (0, 1/split)
        return cpow(w, 2.0 * s - 2.0) * cpow(1.0 + 2.0 * x * w, -s)

    quad = (
        tanh_sinh(head, 0.0, split, tol=tol).value
        + tanh_sinh(tail, 0.0, 1.0 / split, tol=tol).value
    )
    closed = x ** (1.0 - 2.0 * s) * gamma(1.0 - s) * gamma(s - 0.5) / (2.0 * math.sqrt(math.pi))
    return quad, closed
