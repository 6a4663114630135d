"""Functional determinants of 1D Schroedinger operators -d^2/dx^2 + V(x) on
[0, 1] with Dirichlet conditions, without computing a single eigenvalue.

The spectral zeta function is represented as a branch-cut integral of the
logarithmic derivative of u_(-lambda)(1), where u solves the shifted initial
value problem u'' = (V + lambda) u, u(0) = 0, u'(0) = 1.  Subtracting the
large-lambda behaviour e^(sqrt lambda)/(2 sqrt lambda) splits off a closed
form 'asymptotic' part and leaves integrals that are evaluated after an
integration by parts, so the ODE solution itself is never differentiated
numerically:

  zeta(s) = sin(pi s)/(2 pi) (1/(s - 1/2) - 1/s)
          + sin(pi s)/pi * [ g(1) - g(0) - h(1)
              + s ( int_0^1 t^(-s-1) (g(t) - g(0)) dt
                  + int_1^inf t^(-s-1) h(t) dt ) ],

with g(t) = log u_(-t)(1) and h(t) = log[u_(-t)(1) * 2 sqrt t e^(-sqrt t)].
In particular zeta(0) = -1/2 always and zeta'(0) = -log(2 u_0(1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp as _scipy_solve_ivp

from .domain import (
    DEFAULT_PRECISION,
    Diagnostics,
    EvalResult,
    Precision,
    require_finite,
)
from .errors import (
    DomainError,
    OdeToleranceError,
    PoleError,
    SpectrumError,
    ZeroModeError,
)
from .quadrature import adaptive_gauss, gauss_panel, tanh_sinh
from .specialfn import cospi, cpow, gamma, riemann_zeta, rgamma, sinpi

_SAMPLE_POINTS = np.linspace(0.0, 1.0, 101)


@dataclass
class OperatorSpec:
    """-d^2/dx^2 + V(x) on [0, 1], Dirichlet ends; V smooth and bounded.

    The spectrum is assumed positive; a vanishing or negative u_0(1) is
    rejected when the determinant is requested."""

    potential: Callable[[float], float]
    label: str = ""
    _cache: dict[float, complex] = field(default_factory=dict, repr=False)
    _is_free: bool = field(default=False, repr=False)
    _mean_v: float = field(default=0.0, repr=False)
    _gp0: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        samples = np.array([float(self.potential(x)) for x in _SAMPLE_POINTS])
        if not np.all(np.isfinite(samples)):
            raise DomainError("potential must be finite on [0, 1]")
        self._is_free = bool(np.all(samples == 0.0))
        # trapezoid average, used for the analytic quadrature tail
        self._mean_v = float(np.trapezoid(samples, _SAMPLE_POINTS))


@dataclass(frozen=True)
class IvpSolution:
    lam: complex
    u_at_1: complex
    du_at_1: complex


def shooting_solution(
    spec: OperatorSpec, lam: complex, prec: Precision = DEFAULT_PRECISION
) -> IvpSolution:
    """Solve (O - lambda) u = 0 with u(0) = 0, u'(0) = 1 and return u(1), u'(1)."""
    lam = complex(lam)
    rtol = max(1e-13, 0.01 * prec.quad_rel_tol)
    v = spec.potential

    if lam.imag == 0.0:
        lam_r = lam.real

        def rhs(x: float, y: np.ndarray) -> np.ndarray:
            return np.array([y[1], (v(x) - lam_r) * y[0]])

        y0 = np.array([0.0, 1.0])
    else:

        def rhs(x: float, y: np.ndarray) -> np.ndarray:
            return np.array([y[1], (v(x) - lam) * y[0]])

        y0 = np.array([0.0 + 0.0j, 1.0 + 0.0j])

    sol = _scipy_solve_ivp(
        rhs, (0.0, 1.0), y0, method="DOP853", rtol=rtol, atol=1e-14, dense_output=False
    )
    if not sol.success:
        raise OdeToleranceError(f"IVP integration failed: {sol.message}")
    return IvpSolution(lam, complex(sol.y[0, -1]), complex(sol.y[1, -1]))


def _log_u_minus(spec: OperatorSpec, lam: float, prec: Precision) -> float:
    """g(lam) = log u_(-lam)(1) for lam >= 0, memoized on the operator record."""
    cached = spec._cache.get(lam)
    if cached is None:
        cached = shooting_solution(spec, -lam, prec).u_at_1
        spec._cache[lam] = cached
    u = cached.real
    if not u > 0.0:
        raise SpectrumError(
            f"u at lambda = {-lam} is {u}; the operator has a nonpositive eigenvalue"
        )
    return math.log(u)


def _g_prime_at_zero(spec: OperatorSpec, prec: Precision) -> float:
    """g'(0) = d/dt log u_(-t)(1) at t = 0, from the variational system
    v'' = V v - u alongside u'' = V u (exact sensitivity; no numerical
    differentiation of the shooting solution)."""
    if spec._gp0 is not None:
        return spec._gp0
    v_pot = spec.potential

    def rhs(x: float, y: np.ndarray) -> np.ndarray:
        vx = v_pot(x)
        return np.array([y[1], vx * y[0], y[3], vx * y[2] - y[0]])

    sol = _scipy_solve_ivp(
        rhs,
        (0.0, 1.0),
        np.array([0.0, 1.0, 0.0, 0.0]),
        method="DOP853",
        rtol=1e-13,
        atol=1e-14,
    )
    if not sol.success:
        raise OdeToleranceError(f"variational IVP failed: {sol.message}")
    u1, v1 = sol.y[0, -1], sol.y[2, -1]
    # u_(-t) has d/dt = -d/dlambda, and v = du/dlambda
    spec._gp0 = float(-v1 / u1)
    return spec._gp0


def _h_subtracted(spec: OperatorSpec, lam: float, prec: Precision) -> float:
    """h(lam) = log[u_(-lam)(1) * 2 sqrt(lam) * e^(-sqrt(lam))]."""
    root = math.sqrt(lam)
    if spec._is_free:
        # exact for V = 0: u = sinh(root)/root, so h = log(1 - e^(-2 root))
        return math.log1p(-math.exp(-2.0 * root))
    return _log_u_minus(spec, lam, prec) + math.log(2.0 * root) - root


_TAIL_CUT = 400.0  # upper end of the numerically integrated lambda range


def zeta_operator(
    spec: OperatorSpec, s: complex, prec: Precision = DEFAULT_PRECISION
) -> EvalResult:
    """Spectral zeta of the operator, continued to the left of Re s = 1.

    For V = 0 the subtracted integrand decays like e^(-2 sqrt(lambda)) and
    any Re s < 1 is reachable.  For V != 0 the subtraction only removes the
    leading asymptotics, the tail decays like lambda^(-3/2), and the window
    is -1/2 < Re s < 1 (the first neglected asymptotic order is restored
    analytically through the mean of V)."""
    s = complex(s)
    if not s.real < 1.0:
        raise DomainError("zeta_operator requires Re s < 1")
    if not spec._is_free and s.real <= -0.5:
        raise DomainError(
            "for nonzero potentials the realized window is -1/2 < Re s < 1"
        )
    if abs(s - 0.5) < 1e-12:
        raise PoleError("zeta_operator has its pole at s = 1/2")
    diag = Diagnostics()
    if abs(s) < 1e-300:  # the sin(pi s) factor kills everything but -1/2
        return EvalResult(-0.5 + 0.0j, 1e-15, "contour", diag)
    asy = sinpi(s) / (2.0 * math.pi) * (1.0 / (s - 0.5) - 1.0 / s)

    g0 = _log_u_minus(spec, 0.0, prec)
    g1 = _log_u_minus(spec, 1.0, prec)
    h1 = _h_subtracted(spec, 1.0, prec)
    constant = g1 - g0 - h1

    tol = max(1e-13, 0.1 * prec.quad_rel_tol)

    gp0 = _g_prime_at_zero(spec, prec)

    def head(ts: np.ndarray) -> np.ndarray:
        # (g(t) - g0)/t stays bounded at 0, leaving only the t^(-s) weight.
        # Below t0 the quotient is replaced by its exact limit g'(0): the
        # curvature error is O(t0), while the raw quotient would amplify the
        # solver's ulp-level noise by t^(-1).
        vals = np.full(ts.shape, gp0)
        big = ts >= 1e-8
        if np.any(big):
            raw = np.array([_log_u_minus(spec, float(t), prec) for t in ts[big]])
            vals[big] = (raw - g0) / ts[big]
        return vals * cpow(ts, -s)

    def tail(ts: np.ndarray) -> np.ndarray:
        vals = np.array([_h_subtracted(spec, float(t), prec) for t in ts])
        return vals * cpow(ts, -s - 1.0)

    head_q = tanh_sinh(head, 0.0, 1.0, tol=tol, max_level=8)
    # geometric panels keep the node set fixed across s, so ODE solves are shared
    lo = 1.0
    tail_val = 0.0 + 0.0j
    tail_err = 0.0
    while lo < _TAIL_CUT:
        hi = min(2.0 * lo, _TAIL_CUT)
        coarse = gauss_panel(tail, lo, hi, n=24)
        fine = gauss_panel(tail, lo, hi, n=32)
        tail_val += fine
        tail_err += abs(fine - coarse)
        lo = hi
    if not spec._is_free:
        # analytic continuation of the neglected tail: h ~ (mean V / 2) t^(-1/2)
        tail_val += 0.5 * spec._mean_v * _TAIL_CUT ** (-s - 0.5) / (s + 0.5)

    integrals = head_q.value + tail_val
    diag.quad_evals = head_q.n_evals
    value = asy + sinpi(s) / math.pi * (constant + s * integrals)
    err = abs(sinpi(s) / math.pi) * (abs(s) * (head_q.err_estimate + tail_err) + 1e-13)
    return EvalResult(require_finite(value, "zeta_operator"), err, "contour", diag)


def log_det(spec: OperatorSpec, prec: Precision = DEFAULT_PRECISION) -> float:
    """-zeta'(0) = log(2 u_0(1)); det O = 2 u_0(1)."""
    u0 = shooting_solution(spec, 0.0, prec).u_at_1.real
    if abs(u0) < 1e-9:
        raise ZeroModeError("u_0(1) vanishes; the operator has a zero mode")
    if u0 < 0.0:
        raise SpectrumError("u_0(1) < 0; the operator has a negative eigenvalue")
    return math.log(2.0 * u0)


def log_det_numeric(spec: OperatorSpec, prec: Precision = DEFAULT_PRECISION) -> float:
    """-zeta'(0) by central differencing of zeta_operator, for cross-checks."""
    h = prec.diff_step

    def deriv(step: float) -> float:
        zp = zeta_operator(spec, complex(step, 0.0), prec).value.real
        zm = zeta_operator(spec, complex(-step, 0.0), prec).value.real
        return (zp - zm) / (2.0 * step)

    d1 = deriv(h)
    d2 = deriv(0.5 * h)
    return -(4.0 * d2 - d1) / 3.0


def zeta_p(s: complex) -> complex:
    """Spectral zeta of -d^2/dx^2 with Dirichlet ends on [0, pi]-normalized
    spectrum n^2: zeta_P(s) = zeta_R(2s)."""
    return riemann_zeta(2.0 * complex(s))


def zeta_p_functional_equation(
    u: complex, prec: Precision = DEFAULT_PRECISION
) -> float:
    """Residual of zeta_P(u/2) = 2^u pi^(u-1) Gamma(1-u) sin(pi u/2) zeta_P((1-u)/2).

    The right side is a 0*inf pair at integer u >= 2: for even u the pair
    sin(pi u/2) Gamma(1-u) is collapsed to pi / (2 cos(pi u/2) Gamma(u)); at
    odd u >= 3 the Gamma pole is instead cancelled by the trivial zero of
    zeta, and the product is restored through a numerically differentiated
    zeta at the even negative integer (no use of the identity under test)."""
    u = complex(u)
    if abs(u - 1.0) < 1e-9 or abs(u) < 1e-9:
        raise PoleError(f"functional equation undefined at u = {u}")
    lhs = zeta_p(0.5 * u)

    if u.real < 0.5:
        # Gamma(1-u) and zeta(1-u) are both regular here
        rhs = (
            2.0**u
            * math.pi ** (u - 1.0)
            * gamma(1.0 - u)
            * sinpi(0.5 * u)
            * zeta_p(0.5 * (1.0 - u))
        )
        return abs(lhs - rhs)

    k = round(u.real)
    if k >= 3 and k % 2 == 1 and abs(u - k) < 1e-8:
        # zeta(1-u) has a trivial zero at 1-u = -(k-1); take the limit of
        # zeta(1-u)/cos(pi u/2) with zeta'(-(k-1)) from central differences
        m = (k - 1) // 2
        zp = _zeta_derivative_at(float(1 - k))
        ratio = 2.0 * (-1.0) ** m * zp / math.pi
        rhs = 2.0**u * math.pi ** (u - 1.0) * (math.pi * rgamma(u) / 2.0) * ratio
        return abs(lhs - rhs)

    pair = math.pi * rgamma(u) / (2.0 * cospi(0.5 * u))
    rhs = 2.0**u * math.pi ** (u - 1.0) * pair * zeta_p(0.5 * (1.0 - u))
    return abs(lhs - rhs)


def _zeta_derivative_at(x: float) -> float:
    """zeta_R'(x) by Richardson-extrapolated central differences."""
    h = 0.02

    def central(step: float) -> float:
        return (riemann_zeta(x + step).real - riemann_zeta(x - step).real) / (2.0 * step)

    d1 = central(h)
    d2 = central(0.5 * h)
    d3 = central(0.25 * h)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def mellin_gamma_zeta_check(
    u: complex, prec: Precision = DEFAULT_PRECISION
) -> tuple[complex, complex]:
    """int_0^inf y^(u-1)/(e^y - 1) dy against Gamma(u) zeta_R(u), Re u > 1.
    Returns (quadrature value, closed form)."""
    u = complex(u)
    if not u.real > 1.0:
        raise DomainError("the Mellin integral converges only for Re u > 1")
    tol = max(1e-14, 0.1 * prec.quad_rel_tol)

    def f(y: np.ndarray) -> np.ndarray:
        core = 1.0 / np.expm1(y)
        return cpow(y, u - 1.0) * core

    head = tanh_sinh(f, 0.0, 1.0, tol=tol)
    tail = adaptive_gauss(f, 1.0, 60.0, rel_tol=tol, abs_tol=1e-17)
    return head.value + tail.value, gamma(u) * riemann_zeta(u)
