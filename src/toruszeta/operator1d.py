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

u_(-t)(1) comes for all quadrature nodes at once from a sixth-order Magnus
propagator (``transfer``), which also carries (u_(-t)(1) - u_0(1))/t, so the
head integrand is formed without cancellation.  It is the package's only ODE
solver: it takes real t in float arithmetic and complex t (complex lambda)
in complex arithmetic, and it needs nothing beyond numpy.  One propagator and
one node table serve every s of a call (the circle points of log_det_numeric),
each integrand's s-free part formed once per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .domain import DEFAULT_PRECISION, Diagnostics, EvalResult, Precision, require_finite
from .errors import (
    DomainError,
    NonFiniteError,
    PoleError,
    SpectrumError,
    ZeroModeError,
    warn_truncation,
)
from .quadrature import _leggauss, adaptive_gauss_rows, tanh_sinh, tanh_sinh_rows, taylor
from .specialfn import cospi, cpow, gamma, riemann_zeta, rgamma, sinpi

_SAMPLE_POINTS = np.linspace(0.0, 1.0, 101)


@dataclass
class OperatorSpec:
    """-d^2/dx^2 + V(x) on [0, 1], Dirichlet ends; V smooth and bounded.

    The spectrum is assumed positive; a vanishing or negative u_0(1) is
    rejected when the determinant is requested."""

    potential: Callable[[float], float]
    label: str = ""
    _is_free: bool = field(init=False, repr=False)
    _mean_v: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        samples = np.array([float(self.potential(x)) for x in _SAMPLE_POINTS])
        if not np.all(np.isfinite(samples)):
            raise DomainError("potential must be finite on [0, 1]")
        self._is_free = bool(np.all(samples == 0.0))
        # Gauss-Legendre mean of V, used for the analytic quadrature tail
        x, w = _leggauss(32)
        self._mean_v = 0.5 * float(np.dot(w, [float(self.potential(0.5 + 0.5 * xi)) for xi in x]))


_GAUSS3 = math.sqrt(15.0) / 10.0  # the outer 3-point Gauss nodes sit at 1/2 -+ this
_CHUNK = 2**12  # t values x steps propagated at once; keeps the peak memory flat
_TAIL_CUT = 400.0  # upper end of the numerically integrated lambda range
_PROBES = np.array([0.0, _TAIL_CUT])  # where the step count is fitted


def _magnus_steps(v: Callable[[float], float], n: int) -> tuple[np.ndarray, ...]:
    """Sixth-order Magnus exponents of y' = [[0, 1], [V + t, 0]] y over n equal
    steps, from V at three Gauss points per step (Blanes, Casas, Oteo and Ros,
    Phys. Rep. 470 (2009) 151).  All commutators of such matrices are traceless
    and a step's exponent is [[a, b], [c, -a]], with a and c linear in t and b
    constant; returns a, b, c at t = 0 and da/dt, dc/dt."""
    h = 1.0 / n
    mid = (np.arange(n) + 0.5) * h
    v1, v2, v3 = (np.array([float(v(x)) for x in mid + k * _GAUSS3 * h]) for k in (-1, 0, 1))
    if not np.all(np.isfinite(v1 + v2 + v3)):
        raise DomainError("potential must be finite on [0, 1]")
    e2, e3 = math.sqrt(15.0) / 3.0 * h * (v3 - v1), 10.0 / 3.0 * h * (v3 - 2.0 * v2 + v1)
    k1 = h * e2
    # the commutator of X = [[k1, -20h], [xc, -k1]] and Y = [[y, yb], [yc, -y]]
    y, yb = -h * e3 / 30.0, h * k1 / 30.0
    xc, yc = -20.0 * h * v2 - e3, e2 - yb * v2
    a = (-20.0 * h * yc - yb * xc) / 240.0
    b = h + (k1 * yb + 20.0 * h * y) / 120.0
    c = h * v2 + e3 / 12.0 + (xc * y - k1 * yc) / 120.0
    return a, b, c, h * h * k1 / 180.0, h + h * (k1 * k1 / 30.0 - 20.0 * y) / 120.0


def _horner(coef: list[float], z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(z) and the divided difference (p(z) - p(z0))/(z - z0), z0 = z[:, :1]."""
    p, dp = np.full_like(z, coef[-1]), np.zeros_like(z)
    for k in reversed(coef[:-1]):
        dp = p[:, :1] + z * dp
        p = k + z * p
    return p, dp


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y over the two leading axes."""
    return x[:, :1] * y[:1] + x[:, 1:] * y[1:]


def _propagate(steps: tuple[np.ndarray, ...], ts: np.ndarray) -> tuple[np.ndarray, ...]:
    """u_t(1), u_t'(1) and w_t = (u_t(1) - u_0(1))/t for each t of ts.

    A step is exp(Omega) = C I + S Omega, with z = -det Omega, C = cosh sqrt z
    and S = sinh sqrt z / sqrt z: Taylor series in the small z, whose divided
    differences in t are exact sums.  The steps of every t, and of t = 0 in
    column 0, are multiplied pairwise as I + N, so that no rounding of
    1 + small builds up, together with the divided difference D of the
    product: D(AB) = A_t D(B) + D(A) B_0."""
    a0, b, c0, da, dc = (x[:, None] for x in steps)  # steps down, t across
    t = np.concatenate(([0.0], ts))
    at, ct = a0 + t * da, c0 + t * dc
    z = at * at + b * ct
    dz = (at + a0) * da + b * dc  # (z - z[:, :1])/t
    zmax, terms = np.max(np.abs(z)), 1  # enough terms that the next is below 1e-17
    while zmax**terms / math.factorial(2 * terms + 2) > 1e-17:
        terms += 1
    # C - 1 = z cz and S - 1 = z sz
    cz, dcz = _horner([1.0 / math.factorial(2 * k + 2) for k in range(terms)], z)
    sz, dsz = _horner([1.0 / math.factorial(2 * k + 3) for k in range(terms)], z)
    s = 1.0 + z * sz
    dcos, dsin = (cz + z[:, :1] * dcz) * dz, (sz + z[:, :1] * dsz) * dz
    nt = np.array([[z * cz + s * at, s * b], [s * ct, z * cz - s * at]])
    dd = dsin * a0 + s * da
    d = np.array([[dcos + dd, dsin * b], [dsin * c0 + s * dc, dcos - dd]])
    while nt.shape[2] > 1:
        late, early, dl, de = nt[:, :, 1::2], nt[:, :, ::2], d[:, :, 1::2], d[:, :, ::2]
        d = dl + de + _mul(late, de) + _mul(dl, early[..., :1])
        nt = late + early + _mul(late, early)
    return nt[0, 1, 0, 1:], 1.0 + nt[1, 1, 0, 1:], d[0, 1, 0, 1:]


def _propagator(
    spec: OperatorSpec, prec: Precision, diag: Diagnostics, probes: np.ndarray = _PROBES
) -> Callable[[np.ndarray], tuple[np.ndarray, ...]]:
    """ts -> _propagate(steps, ts) with V sampled once.  The step count doubles
    from 16 until u(1) at n and 2n steps agree, at each t of probes, to the
    quadrature tolerance relative to |u| + |u'|/sqrt(1 + |t|), which stays
    finite at a zero mode; n stops at prec.n_max, which warns and notes it in diag."""
    tol = max(1e-13, 0.1 * prec.quad_rel_tol)
    n = min(16, 1 << (prec.n_max.bit_length() - 1))
    steps = _magnus_steps(spec.potential, n)
    u = _propagate(steps, probes)[0]
    if not np.all(np.isfinite(u)):
        raise NonFiniteError("u(1) overflows double precision")
    while 2 * n <= prec.n_max:
        finer = _magnus_steps(spec.potential, 2 * n)
        u2, du2, _ = _propagate(finer, probes)
        scale = np.abs(u2) + np.abs(du2) / np.sqrt(1.0 + np.abs(probes))
        if np.max(np.abs(u - u2) / scale) <= tol:
            break
        n, steps, u = 2 * n, finer, u2
    else:
        diag.warnings.append(f"Magnus step count hit n_max = {prec.n_max}")
        warn_truncation(diag.warnings[-1])
    width = max(1, _CHUNK // n)

    def propagate(ts: np.ndarray) -> tuple[np.ndarray, ...]:
        # an empty ts still makes one (empty) part
        parts = [_propagate(steps, ts[i : i + width]) for i in range(0, max(ts.size, 1), width)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    return propagate


def transfer(
    spec: OperatorSpec, ts: np.ndarray, prec: Precision = DEFAULT_PRECISION
) -> tuple[np.ndarray, np.ndarray]:
    """u_t(1) and w_t = (u_t(1) - u_0(1))/t, w_0 = d u_t(1)/dt at 0, for each t
    of ts, where u'' = (V + t) u, u(0) = 0, u'(0) = 1: lambda = -t.

    Real ts run in float arithmetic, complex ts in complex.  The step count is
    fitted at t = 0 and t = _TAIL_CUT, the range zeta_operator uses, and also
    at the t of largest modulus when that lies beyond _TAIL_CUT."""
    ts = np.asarray(ts, dtype=complex if np.iscomplexobj(ts) else float).ravel()
    far = ts[np.argmax(np.abs(ts))] if ts.size else 0.0
    probes = np.append(_PROBES, far) if abs(far) > _TAIL_CUT else _PROBES
    u, _, w = _propagator(spec, prec, Diagnostics(), probes)(ts)
    return u, w


# A name the benchmark tracer looks up; nothing calls it.  It stays only until
# ROADMAP item 1 drops that lookup.
def _scipy_solve_ivp() -> None:
    pass


def _checked_log_det(u0: float) -> float:
    """log(2 u_0(1)), refused at a zero mode or a negative eigenvalue."""
    if abs(u0) < 1e-9:
        raise ZeroModeError("u_0(1) vanishes; the operator has a zero mode")
    if u0 < 0.0:
        raise SpectrumError("u_0(1) < 0; the operator has a negative eigenvalue")
    return math.log(2.0 * u0)


def _require_positive(u: np.ndarray, ts: np.ndarray) -> np.ndarray:
    if not np.all(u > 0.0):
        i = np.argmin(u > 0.0)
        raise SpectrumError(
            f"u at lambda = {-ts[i]} is {u[i]}; the operator has a nonpositive eigenvalue"
        )
    return u


def _zeta_rows(
    spec: OperatorSpec, ss: np.ndarray, prec: Precision = DEFAULT_PRECISION,
    diag: Diagnostics | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """zeta_operator's values and error estimates at each s of ss (s != 0 in its
    window): one propagator and one node table serve every s, whose integrands
    are stacked rows sharing the s-free part of each node's value.  diag, if
    given, gains the evaluations spent and a Magnus cap hit or quadrature miss."""
    diag = diag if diag is not None else Diagnostics()
    propagate = _propagator(spec, prec, diag)
    u0 = float(propagate(np.zeros(1))[0][0])
    # g(1) - g(0) - h(1), where h(1) = g(1) + log 2 - 1
    constant = 1.0 - _checked_log_det(u0)
    tol = max(1e-13, 0.1 * prec.quad_rel_tol)

    def head(ts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # (g(t) - g0)/t = log1p(r)/t with r = t w_t/u0 = u_t/u0 - 1, formed
        # from the carried w_t, so nothing of size t^(-1) is cancelled
        u, _, w = propagate(ts)
        _require_positive(u, ts)
        r = ts * w / u0
        ratio = np.divide(np.log1p(r), r, out=np.ones_like(r), where=r != 0.0)
        return w / u0 * ratio * np.array([cpow(ts, -s) for s in ss[rows]])

    def tail(xs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # h(t) t^(-s) at t = e^x: int_1^400 h(t) t^(-s-1) dt in x = log t
        ts = np.exp(xs)
        root = np.sqrt(ts)
        if spec._is_free:
            # exact for V = 0: u = sinh(root)/root, so h = log(1 - e^(-2 root))
            vals = np.log1p(-np.exp(-2.0 * root))
        else:
            u = _require_positive(propagate(ts)[0], ts)
            vals = np.log(u) + np.log(2.0 * root) - root
        return vals * np.array([cpow(ts, -s) for s in ss[rows]])

    head_q = tanh_sinh_rows(head, 0.0, 1.0, ss.size, tol=tol, max_level=8)
    tail_q = adaptive_gauss_rows(tail, 0.0, math.log(_TAIL_CUT), ss.size, rel_tol=tol, abs_tol=tol)
    values = []
    for s, integrals in zip(ss.tolist(), (head_q.value + tail_q.value).tolist()):
        if not spec._is_free:
            # analytic continuation of the neglected tail: h ~ (mean V / 2) t^(-1/2)
            integrals += 0.5 * spec._mean_v * _TAIL_CUT ** (-s - 0.5) / (s + 0.5)
        asy = sinpi(s) / (2.0 * math.pi) * (1.0 / (s - 0.5) - 1.0 / s)
        value = asy + sinpi(s) / math.pi * (constant + s * integrals)
        values.append(require_finite(value, "zeta_operator"))
    errs = [abs(sinpi(s) / math.pi) * (abs(s) * e + 1e-13)
            for s, e in zip(ss.tolist(), (head_q.err_estimate + tail_q.err_estimate).tolist())]
    diag.quad_evals += head_q.n_evals + tail_q.n_evals
    if head_q.missed or tail_q.missed:
        diag.warnings.append("lambda quadrature above max(1e-13, quad_rel_tol / 10)")
    return np.array(values), np.array(errs)


def zeta_operator(
    spec: OperatorSpec, s: complex, prec: Precision = DEFAULT_PRECISION
) -> EvalResult:
    """Spectral zeta of the operator, continued to the left of Re s = 1.

    For V = 0 the subtracted integrand decays like e^(-2 sqrt(lambda)) and
    any Re s < 1 is reachable.  For V != 0 the subtraction only removes the
    leading asymptotics, the tail decays like lambda^(-3/2), and the window
    is -1/2 < Re s < 1 (the first neglected asymptotic order is restored
    analytically through the mean of V).

    The one-row case of _zeta_rows: the lambda integral runs through tanh-sinh
    on [0, 1] and adaptive Gauss in log lambda on [1, 400], each row until its
    error estimate is within max(1e-13, quad_rel_tol / 10) * max(1, |integral|);
    a quadrature miss or a Magnus cap hit adds a message to diagnostics.warnings."""
    s = complex(s)
    if not s.real < 1.0:
        raise DomainError("zeta_operator requires Re s < 1")
    if not spec._is_free and s.real <= -0.5:
        raise DomainError("for nonzero potentials the realized window is -1/2 < Re s < 1")
    if abs(s - 0.5) < 1e-12:
        raise PoleError("zeta_operator has its pole at s = 1/2")
    diag = Diagnostics()
    if abs(s) < 1e-300:  # the sin(pi s) factor kills everything but -1/2
        return EvalResult(-0.5 + 0.0j, 1e-15, "contour", diag)
    values, errs = _zeta_rows(spec, np.array([s]), prec, diag)
    return EvalResult(complex(values[0]), float(errs[0]), "contour", diag)


def log_det(spec: OperatorSpec, prec: Precision = DEFAULT_PRECISION) -> float:
    """-zeta'(0) = log(2 u_0(1)); det O = 2 u_0(1)."""
    return _checked_log_det(float(transfer(spec, [0.0], prec)[0][0]))


def log_det_numeric(spec: OperatorSpec, prec: Precision = DEFAULT_PRECISION) -> float:
    """-zeta'(0) as -a_1 of zeta_operator at 0, taken on the circle |s| = 0.01
    (the nearest pole is s = 1/2), for cross-checks: its four points above the
    axis are the rows of one _zeta_rows call, one propagator and node table."""
    return -float(taylor(lambda zs: _zeta_rows(spec, zs, prec)[0], 0.0, 0.01)[1])


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
    zeta, and the product is restored through zeta' at the even negative
    integer, the Taylor coefficient a_1 taken on a circle of radius 0.02
    about it (no use of the identity under test)."""
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
        # zeta(1-u)/cos(pi u/2) with zeta'(-(k-1)) from a circle about it
        m = (k - 1) // 2
        zp = taylor(lambda zs: [riemann_zeta(z) for z in zs.tolist()], float(1 - k), 0.02)[1]
        ratio = 2.0 * (-1.0) ** m * zp / math.pi
        rhs = 2.0**u * math.pi ** (u - 1.0) * (math.pi * rgamma(u) / 2.0) * ratio
        return abs(lhs - rhs)

    pair = math.pi * rgamma(u) / (2.0 * cospi(0.5 * u))
    rhs = 2.0**u * math.pi ** (u - 1.0) * pair * zeta_p(0.5 * (1.0 - u))
    return abs(lhs - rhs)


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

    return tanh_sinh(f, 0.0, 60.0, tol=tol).value, gamma(u) * riemann_zeta(u)
