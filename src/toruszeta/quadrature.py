"""Quadrature and extrapolation kernels used by every evaluator.

Two integrators, each warning (TruncationWarning) when its cap stops it
before its tolerance is met:

* ``adaptive_gauss`` -- globally adaptive Gauss-Legendre for smooth
  integrands, error estimated from a 15/31-point pair per panel.
* ``tanh_sinh`` -- double-exponential rule on a finite interval; converges
  geometrically even when the integrand has an integrable algebraic
  singularity u^(-s) (complex s, Re s < 1) at an endpoint.

Every numerical derivative and limit goes through ``richardson`` and the
``central_derivative`` built on it.

Integrands must accept a numpy array of abscissae and return an array
(real or complex).  All reductions run in a fixed order so results are
bit-reproducible across runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, TruncationWarning

Integrand = Callable[[np.ndarray], np.ndarray]

MAX_PANELS = 4096  # adaptive_gauss splits at most this many panels
U_MAX = 6.5  # tanh_sinh truncates its u axis to [-U_MAX, U_MAX]


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass
class QuadResult:
    value: complex
    err_estimate: float
    n_evals: int


def gauss_panel(f: Integrand, a: float, b: float, n: int = 31) -> complex:
    """Fixed n-point Gauss-Legendre estimate of int_a^b f."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * complex(np.sum(w * f(mid + half * x)))


def adaptive_gauss(
    f: Integrand,
    a: float,
    b: float,
    rel_tol: float = 1e-12,
    abs_tol: float = 0.0,
) -> QuadResult:
    """Adaptive bisection with a nested 15/31-point error estimate per panel.

    Panels are split until the summed error estimate meets
    max(abs_tol, rel_tol * |integral|), for at most MAX_PANELS splits;
    accepted panels are re-summed left-to-right with math.fsum.
    """
    if not b > a:
        raise DomainError("adaptive_gauss requires b > a")
    x15, w15 = _leggauss(15)
    x31, w31 = _leggauss(31)
    n_evals = 0

    def panel(lo: float, hi: float) -> tuple[complex, float]:
        nonlocal n_evals
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        coarse = half * complex(np.sum(w15 * f(mid + half * x15)))
        fine = half * complex(np.sum(w31 * f(mid + half * x31)))
        n_evals += 46
        return fine, abs(fine - coarse)

    work = [(a, b, *panel(a, b))]
    for _ in range(MAX_PANELS):
        total = complex(sum(p[2] for p in work))
        err = math.fsum(p[3] for p in work)
        if err <= max(abs_tol, rel_tol * abs(total)):
            break
        # split the panel with the worst estimate
        i = max(range(len(work)), key=lambda k: work[k][3])
        lo, hi, _, _ = work.pop(i)
        mid = 0.5 * (lo + hi)
        work.append((lo, mid, *panel(lo, mid)))
        work.append((mid, hi, *panel(mid, hi)))
    else:
        warnings.warn(f"adaptive_gauss hit MAX_PANELS = {MAX_PANELS}", TruncationWarning, 2)

    work.sort(key=lambda p: p[0])
    value = complex(
        math.fsum(p[2].real for p in work), math.fsum(p[2].imag for p in work)
    )
    err = math.fsum(p[3] for p in work)
    return QuadResult(value, err, n_evals)


def tanh_sinh(
    f: Integrand,
    a: float,
    b: float,
    tol: float = 1e-13,
    max_level: int = 12,
) -> QuadResult:
    """Double-exponential quadrature of int_a^b f.

    The map x = m + r*tanh((pi/2) sinh u) pushes the endpoints to infinity;
    the weight decays doubly exponentially, which tames integrable endpoint
    singularities.  Abscissae near the endpoints are formed as offsets
    2r/(1+exp(-+2 theta)) to avoid cancellation, so f sees points that are
    accurate *relative to the endpoint distance* when a or b is 0.  The step
    halves from 1 at most max_level times.
    """
    if not b > a:
        raise DomainError("tanh_sinh requires b > a")
    m, r = 0.5 * (a + b), 0.5 * (b - a)
    pi_half = 0.5 * math.pi

    def nodes(us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = pi_half * np.sinh(us)
        # 1 +- tanh(theta) without cancellation; the far nodes overflow exp
        # harmlessly to a zero weight
        with np.errstate(over="ignore"):
            one_plus = 2.0 / (1.0 + np.exp(-2.0 * theta))   # = 1 + tanh
            one_minus = 2.0 / (1.0 + np.exp(2.0 * theta))   # = 1 - tanh
        x = np.where(us >= 0, b - r * one_minus, a + r * one_plus)
        w = pi_half * np.cosh(us) * (one_plus * one_minus)  # sech^2 = (1+t)(1-t)
        return x, r * w

    def eval_level(us: np.ndarray) -> complex:
        x, w = nodes(us)
        keep = (x > a) & (x < b) & (w > 0)
        if not np.any(keep):
            return 0.0
        vals = np.asarray(f(x[keep])) * w[keep]
        return complex(np.sum(vals))

    n_evals = 0
    h = 1.0
    # level 0: trapezoid over u = k*h
    k = np.arange(-int(U_MAX / h), int(U_MAX / h) + 1)
    total = eval_level(k * h) * h
    n_evals += k.size
    prev = total
    err = math.inf
    for level in range(1, max_level + 1):
        h *= 0.5
        # only the new (odd) nodes
        kmax = int(U_MAX / h)
        k = np.arange(-kmax, kmax + 1)
        k = k[k % 2 != 0]
        new = eval_level(k * h)
        n_evals += k.size
        total = 0.5 * prev + h * new
        err = abs(total - prev)
        prev = total
        if err <= tol * max(1.0, abs(total)) and level >= 3:
            break
    else:
        warnings.warn(f"tanh_sinh hit max_level = {max_level}", TruncationWarning, 2)
    return QuadResult(prev, err, n_evals)


def richardson(values: Sequence[complex], ratio: float) -> complex:
    """Extrapolate g(h) to h = 0 from g sampled at h, h/q, h/q^2, ..., where
    g(h) = g(0) + c1 h^p + c2 h^(2p) + ... and ratio = q^p.

    Level k of the table removes the h^(kp) term:
    (ratio^k g(h/q) - g(h)) / (ratio^k - 1)."""
    table = list(values)
    for level in range(1, len(table)):
        factor = ratio**level
        table = [(factor * b - a) / (factor - 1.0) for a, b in zip(table, table[1:])]
    return table[0]


def central_derivative(
    f: Callable[[float], complex], x: float, h: float, levels: int = 2
) -> complex:
    """f'(x) from central differences at steps h, h/2, ..., h/2^(levels-1),
    whose errors run in h^2, h^4, ..., Richardson-extrapolated."""
    steps = [h * 0.5**k for k in range(levels)]
    return richardson([(f(x + d) - f(x - d)) / (2.0 * d) for d in steps], 4.0)
