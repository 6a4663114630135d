"""Dedekind eta function on the upper half-plane and its transformation law
under the full modular group, with the multiplier system built from
Dedekind sums, plus log|eta|, which needs no multiplier.

The q-product eta(tau) = e^(i pi tau/12) prod_{n>=1} (1 - e^(2 pi i n tau))
converges at rate e^(-2 pi tau2); its log, i pi tau/12 + sum log1p(-q^n), is
summed by the package's one series driver, ``quadrature.sum_series``, with
its stopping rule and its n_max warning.  Every point is first moved into the
fundamental domain (tau2 >= sqrt(3)/2, so |q| <= 4.3e-3) with shift/inversion
moves, the same reduction the E* routes of ``torus`` use.  ``eta`` applies the
transformation law backwards; ``log_abs_eta`` needs only |c tau + d|.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .domain import DEFAULT_PRECISION, Precision, Sl2zMatrix, TauPoint, as_tau
from .quadrature import sum_series
from .specialfn import dedekind_sum_exact


def _log_eta_product(tau: TauPoint, prec: Precision) -> complex:
    """i pi tau/12 + sum_{n>=1} log1p(-q^n), q = e^(2 pi i tau), a log of
    eta(tau), with the log-factors summed by the series driver."""
    z = tau.z

    def block(ns: np.ndarray) -> tuple[np.ndarray, int, str]:
        return np.log1p(-np.exp(2j * math.pi * z * ns)), 0, ""

    ratio = math.exp(-2.0 * math.pi * tau.tau2)
    log_prod = sum_series(block, 1.0, ratio, prec, "eta product", None)
    return 1j * math.pi * z / 12.0 + log_prod


def fundamental_domain_reduce(tau: TauPoint | complex) -> tuple[TauPoint, Sl2zMatrix]:
    """Return (z, g) with z = g(tau) in the standard fundamental domain
    (|Re z| <= 1/2, |z| >= 1), by shift/inversion moves (Cohen, GTM 138, sec. 7.4).

    After every inversion z is formed anew from tau, in exact integer
    arithmetic on the float components x, y, and rounded once, so neither the
    moves chosen nor the z returned carry the rounding of earlier moves:
    z = ((a x + b)(c x + d) + a c y^2 + i y) / ((c x + d)^2 + c^2 y^2)."""
    t = as_tau(tau)

    def image(a: int, b: int, c: int, d: int) -> complex:
        # over the common denominator q v of x = p/q, y = u/v: a x + b, c x + d and y
        (p, q), (u, v) = t.tau1.as_integer_ratio(), t.tau2.as_integer_ratio()
        top, bottom, height = (a * p + b * q) * v, (c * p + d * q) * v, u * q
        norm = bottom * bottom + (c * height) ** 2
        return complex((top * bottom + a * c * height * height) / norm, height * q * v / norm)

    z = t.z
    a, b, c, d = 1, 0, 0, 1  # running g as raw integers; normalized at the end
    for _ in range(10_000):
        n = math.floor(z.real + 0.5)
        a, b = a - n * c, b - n * d
        if abs(z - n) >= 1.0 - 1e-15:
            break
        a, b, c, d = -c, -d, a, b
        z = image(a, b, c, d)
    # a shift alone is exact in floats; after an inversion z is formed once more
    z = z - n if c == 0 else image(a, b, c, d)
    return TauPoint.from_complex(z), Sl2zMatrix.normalized(a, b, c, d)


def eta_multiplier(m: Sl2zMatrix) -> complex:
    """Multiplier eps(a,b,c,d) in eta(m tau) = eps(m) (c tau + d)^(1/2) eta(tau),
    principal square root.

    For c = 0, d = 1 this is e^(i pi b / 12).  For c > 0 it is
    exp(i pi ((a + d)/(12 c) - s(d, c) - 1/4)) with s the Dedekind sum:
    the (a+d)/(12c) and the grouping of s(d,c), 1/4 inside the i*pi argument
    are what make the transformation law hold numerically.
    """
    if m.c == 0:
        return cmath.exp(1j * math.pi * m.b / 12.0)
    s_dc = dedekind_sum_exact(m.d, m.c)
    phase = (m.a + m.d) / (12.0 * m.c) - float(s_dc) - 0.25
    return cmath.exp(1j * math.pi * phase)


def eta(tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION) -> complex:
    """Dedekind eta(tau): exp of the log q-product at z = tau reduced, times the
    multiplier and root cocycle of delta = g^{-1}, both exactly 1 when z = tau."""
    z, g = fundamental_domain_reduce(tau)
    # tau = g^{-1} z, so eta(tau) = eta(delta z) with delta = g^{-1}
    delta = g.inverse()
    val = cmath.exp(_log_eta_product(z, prec))
    return eta_multiplier(delta) * cmath.sqrt(delta.cocycle(z)) * val


def log_abs_eta(tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION) -> float:
    """log|eta(tau)| = (1/4) log(z2/tau2) + Re log eta(z), z = tau reduced: no
    multiplier, Dedekind sum or cocycle, and finite where |eta(tau)| underflows."""
    z = fundamental_domain_reduce(tau)[0]
    return 0.25 * math.log(z.tau2 / as_tau(tau).tau2) + _log_eta_product(z, prec).real


def eta_transform_check(
    m: Sl2zMatrix, tau: TauPoint | complex, prec: Precision = DEFAULT_PRECISION
) -> float:
    """Residual |eta(m tau) - eps(m) (c tau + d)^(1/2) eta(tau)|."""
    t = as_tau(tau)
    lhs = eta(m.apply(t), prec)
    rhs = eta_multiplier(m) * cmath.sqrt(m.cocycle(t)) * eta(t, prec)
    return abs(lhs - rhs)
