"""Quadrature kernels used by every evaluator.

Two integrators, each warning (TruncationWarning) when its cap stops it
before its tolerance is met:

* ``adaptive_gauss`` -- globally adaptive Gauss-Legendre for smooth
  integrands, error estimated from a 15/31-point pair per panel.
* ``tanh_sinh`` -- double-exponential rule on a finite interval; converges
  geometrically even when the integrand has an integrable algebraic
  singularity u^(-s) (complex s, Re s < 1) at an endpoint.

They rest on two cores, each integrating a stack of integrands sharing their
abscissae (the n-terms of a series, say) in one pass, and says in
``QuadResult.missed`` whether every row met its tolerance.  The Gauss core is
``adaptive_gauss_rows``; every adaptive Gauss integral, the lambda tail of the
operator zeta function included, goes through it, and ``gauss_panel`` is the
one fixed rule (the 32-point mean of V in ``OperatorSpec``).  The trapezoid
core is ``trapezoid_rows``, the nested trapezoid rule that halves its step
and stops each row on its own change: tanh-sinh is that rule after the
double-exponential map (``tanh_sinh_rows``), and ``specialfn.scaled_bessel_k``
is that rule on K_nu's integral.  A stacked integrand f(x, rows) returns the
rows asked for (an index array) as stacked rows, shape (len(rows), len(x));
every row meets its own tolerance, and no call of f sees more than CHUNK rows
x abscissae.
The public functions are their one-row cases.

Every numerical derivative and limit goes through ``taylor``: the Taylor
coefficients of a function analytic on a small disc about a real point, from
the trapezoid rule for Cauchy's integral on the circle, which converges
geometrically in the number of points (Trefethen & Weideman, SIAM Rev. 56
(2014) 385).  Its f takes all the circle points at once, as an array, so
work they share (the operator zeta function's propagator) is done once.

Every q-expansion (terms decaying like |q|^n) goes through the one series
driver ``sum_series`` (the three remainders and the Lambert series, which gives
log eta and the s = 1 closed form), with one stopping rule, one n_max warning,
one record of a quadrature miss and one refusal of a non-finite prefactor or sum.

Integrands of the public functions take a numpy array of abscissae and
return an array of the same length (real or complex).  All reductions run
in a fixed order so results are bit-reproducible across runs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .domain import Diagnostics, Precision
from .errors import DomainError, NonFiniteError, warn_truncation

Integrand = Callable[[np.ndarray], np.ndarray]
RowIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]  # f(x, rows)

MAX_PANELS = 4096  # adaptive_gauss splits at most this many panels
U_MAX = 6.5  # tanh_sinh truncates its u axis to [-U_MAX, U_MAX]
CHUNK = 2**15  # rows x abscissae per integrand call; keeps the peak memory flat

_FIRST_BLOCK, _BLOCK = 8, 16  # series terms computed per block, first and later
_TINY = np.finfo(float).tiny
_ROUNDING = 4.0 * np.finfo(float).eps  # trapezoid_rows: rounding of a node sum per unit of int |f|

# glibc gives freed heap back to the OS once its top free block passes a trim
# threshold that starts at 128 KB and rises only when a larger mmapped block
# is freed.  The chunked direct sum and the Magnus propagator free several
# blocks of 100 KB to 512 KB per call, which would otherwise be returned and
# faulted back in every time: per benchmark pass 4e4 minor page faults and
# a tenth of the wall time on operator_det, 1.7e4 and a fifth on
# lattice_direct (2-vCPU VM).  Freeing one 1 MB block raises the threshold.
np.empty(1 << 17)


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=1)
def _gauss_pair() -> tuple[np.ndarray, np.ndarray]:
    """The 15- and 31-point abscissae side by side, and the (46, 2) matrix
    that maps an integrand's values there to the two rules."""
    x15, w15 = _leggauss(15)
    x31, w31 = _leggauss(31)
    weights = np.zeros((46, 2))
    weights[:15, 0] = w15
    weights[15:, 1] = w31
    return np.concatenate([x15, x31]), weights


@dataclass
class QuadResult:
    """value and err_estimate are scalars from adaptive_gauss and tanh_sinh,
    and arrays with one entry per row from the stacked *_rows cores."""

    value: complex | np.ndarray
    err_estimate: float | np.ndarray
    n_evals: int  # rows x abscissae evaluated
    missed: bool = False  # some row's err_estimate is above its tolerance


def gauss_panel(f: Integrand, a: float, b: float, n: int = 31) -> complex:
    """Fixed n-point Gauss-Legendre estimate of int_a^b f."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return complex((half * w) @ f(mid + half * x))


def _pieces(f: RowIntegrand, x: np.ndarray, rows: np.ndarray):
    """(slice of x, f(x[slice], rows) as a (rows.size, slice size) array),
    in pieces such that one call of f sees at most CHUNK rows x abscissae."""
    width = max(1, CHUNK // rows.size)
    for i in range(0, x.size, width):
        piece = slice(i, i + width)
        xs = x[piece]
        vals = f(xs, rows)
        if np.shape(vals) != (rows.size, xs.size):
            vals = np.broadcast_to(vals, (rows.size, xs.size))
        yield piece, vals


def adaptive_gauss_rows(
    f: RowIntegrand,
    a: float,
    b: float,
    rows: int,
    rel_tol: float = 1e-12,
    abs_tol: float = 0.0,
) -> QuadResult:
    """Adaptive bisection with a 15/31-point error estimate per panel, for a
    stack of integrands sharing their abscissae: f(x, np.arange(rows)) has
    shape (rows, x.size).

    Every row must meet max(abs_tol, rel_tol * |row integral|) with its summed
    error estimate.  The panel split next is the one with the largest error
    relative to its row's tolerance, over the rows not yet converged, for at
    most MAX_PANELS splits; one integrand call evaluates both rules on both
    halves.  Panels are kept, and summed per row, from left to right.
    """
    if not b > a:
        raise DomainError("adaptive_gauss requires b > a")
    nodes, weights = _gauss_pair()
    every = np.arange(rows)
    n_evals = 0

    def panels(lo: list[float], hi: list[float]) -> tuple[np.ndarray, np.ndarray]:
        """The 31-point value and the 15/31 difference of each panel, (panels, rows)."""
        nonlocal n_evals
        lo_a, hi_a = np.array(lo), np.array(hi)
        mid, half = 0.5 * (lo_a + hi_a), 0.5 * (hi_a - lo_a)
        x = (mid[:, None] + half[:, None] * nodes).ravel()
        vals = np.concatenate([v for _, v in _pieces(f, x, every)], axis=1)
        n_evals += rows * x.size
        rules = (vals.reshape(-1, nodes.size) @ weights).reshape(rows, len(lo), 2) * half[:, None]
        fine = rules[..., 1].T
        return fine, np.abs(fine - rules[..., 0].T)

    ends = [(a, b)]  # panels in order, left to right
    vals, errs = panels([a], [b])
    for _ in range(MAX_PANELS):
        tol = np.maximum(abs_tol, rel_tol * np.abs(vals.sum(axis=0)))
        pending = ~(errs.sum(axis=0) <= tol)  # NaN keeps a row pending
        if not pending.any():
            break
        worst = errs[:, pending] / np.maximum(tol[pending], _TINY)
        i = int(np.argmax(worst.max(axis=1)))
        lo, hi = ends[i]
        mid = 0.5 * (lo + hi)
        halves = panels([lo, mid], [mid, hi])
        ends[i : i + 1] = [(lo, mid), (mid, hi)]
        vals = np.concatenate([vals[:i], halves[0], vals[i + 1 :]])
        errs = np.concatenate([errs[:i], halves[1], errs[i + 1 :]])
    else:
        warn_truncation(f"adaptive_gauss hit MAX_PANELS = {MAX_PANELS}")
    # the loop's test on the final panels: after a break every row meets it
    missed = not np.all(errs.sum(axis=0) <= np.maximum(abs_tol, rel_tol * abs(vals.sum(axis=0))))
    return QuadResult(vals.sum(axis=0), errs.sum(axis=0), n_evals, missed)


def adaptive_gauss(
    f: Integrand,
    a: float,
    b: float,
    rel_tol: float = 1e-12,
    abs_tol: float = 0.0,
) -> QuadResult:
    """int_a^b f by adaptive_gauss_rows with one row: the summed error
    estimate meets max(abs_tol, rel_tol * |integral|)."""
    res = adaptive_gauss_rows(lambda x, rows: f(x), a, b, 1, rel_tol, abs_tol)
    return QuadResult(complex(res.value[0]), float(res.err_estimate[0]), res.n_evals, res.missed)


def trapezoid_rows(
    f: RowIntegrand, nodes: Callable[[int], tuple[np.ndarray, np.ndarray, float]], rows: int,
    tol: float, floor: float, first: int, last: int, cap: str,
) -> QuadResult:
    """The nested trapezoid rule for a stack of integrands sharing their
    abscissae: f(x, rows) has shape (rows.size, x.size).

    nodes(level) returns the abscissae, weights and step h of a level: every
    node at level 0, only the new odd nodes after, which the rows still
    running add to half the last sum.  From level first on, a row stops once
    its change is within tol * max(floor, |row|); running on past level last
    warns (TruncationWarning, cap).  err_estimate is a row's last change plus
    the rounding of its node sums, 4 eps int |f|, with int |f| taken from
    the level-0 nodes; the rounding is not part of the stop.  n_evals counts
    the rows x abscissae that f received.  missed: some row's err_estimate
    is above tol * max(floor, |row|), at the cap or by its rounding alone.
    """
    running = np.arange(rows)
    scale, err = np.zeros(rows), np.full(rows, math.inf)
    n_evals = 0
    for level in range(max(last, 0) + 1):  # level 0 always
        x, w, h = nodes(level)
        fresh = np.zeros(running.size, complex)
        for piece, vals in _pieces(f, x, running):
            fresh += vals @ w[piece]
            if not level:
                scale += np.abs(vals) @ w[piece]
        n_evals += running.size * x.size
        if not level:
            value, rounding = h * fresh, (_ROUNDING * h) * scale
            continue
        new = 0.5 * value[running] + h * fresh
        err[running] = np.abs(new - value[running])
        value[running] = new
        if level >= first:
            # a NaN row never converges, so it runs to the cap and warns
            running = running[~(err[running] <= tol * np.maximum(floor, np.abs(new)))]
            if not running.size:
                break
    else:
        warn_truncation(cap)
    err += rounding
    return QuadResult(value, err, n_evals, not np.all(err <= tol * np.maximum(floor, abs(value))))


@lru_cache(maxsize=64)
def _tanh_sinh_nodes(a: float, b: float, level: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Abscissae, weights and step h = 2^-level of one tanh-sinh level on
    (a, b): u = k h, every k at level 0 and the odd k after, |u| <= U_MAX.
    Nodes that round onto an endpoint or get a zero weight are dropped."""
    h = 0.5**level
    kmax = int(U_MAX / h)
    k = np.arange(-kmax, kmax + 1)
    if level:
        k = k[k % 2 != 0]
    us = k * h
    r = 0.5 * (b - a)
    pi_half = 0.5 * math.pi
    theta = pi_half * np.sinh(us)
    # 1 +- tanh(theta) without cancellation; the far nodes overflow exp
    # harmlessly to a zero weight
    with np.errstate(over="ignore"):
        one_plus = 2.0 / (1.0 + np.exp(-2.0 * theta))   # = 1 + tanh
        one_minus = 2.0 / (1.0 + np.exp(2.0 * theta))   # = 1 - tanh
    x = np.where(us >= 0, b - r * one_minus, a + r * one_plus)
    w = r * (pi_half * np.cosh(us) * (one_plus * one_minus))  # sech^2 = (1+t)(1-t)
    keep = (x > a) & (x < b) & (w > 0)
    x, w = x[keep], w[keep]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w, h


def tanh_sinh_rows(
    f: RowIntegrand,
    a: float,
    b: float,
    rows: int,
    tol: float = 1e-13,
    max_level: int = 12,
) -> QuadResult:
    """Double-exponential quadrature of int_a^b f for a stack of integrands
    sharing their abscissae: f(x, rows) has shape (rows.size, x.size).

    The map x = m + r*tanh((pi/2) sinh u) pushes the endpoints to infinity;
    the weight decays doubly exponentially, which tames integrable endpoint
    singularities.  Abscissae near the endpoints are formed as offsets
    2r/(1+exp(-+2 theta)) to avoid cancellation, so f sees points that are
    accurate *relative to the endpoint distance* when a or b is 0.  The rule
    is trapezoid_rows in u: the step halves from 1, at least 3 and at most
    max_level times, and a row stops once its change is within
    tol * max(1, |row integral|).
    """
    if not b > a:
        raise DomainError("tanh_sinh requires b > a")
    return trapezoid_rows(f, lambda level: _tanh_sinh_nodes(a, b, level), rows, tol, 1.0, 3,
                          max_level, f"tanh_sinh hit max_level = {max_level}")


def tanh_sinh(
    f: Integrand,
    a: float,
    b: float,
    tol: float = 1e-13,
    max_level: int = 12,
) -> QuadResult:
    """int_a^b f by tanh_sinh_rows with one row: converges geometrically even
    for an integrable algebraic singularity at an endpoint."""
    res = tanh_sinh_rows(lambda x, rows: f(x), a, b, 1, tol, max_level)
    return QuadResult(complex(res.value[0]), float(res.err_estimate[0]), res.n_evals, res.missed)


def taylor(f: Integrand, center: float, radius: float, m: int = 8) -> np.ndarray:
    """Taylor coefficients a_0, ..., a_(m-1) of f about a real center: the
    m-point trapezoid rule for Cauchy's integral, at center + radius e^(i pi (2k+1)/m).

    m is even.  f must be analytic on the closed disc and real on the real axis,
    so f(conj z) = conj f(z): only the m/2 points above the axis are evaluated,
    in one call of f on the array of them, and the coefficients are real.  a_j
    is off by the aliased -a_(j+m) radius^m + a_(j+2m) radius^(2m) - ...,
    O((radius/rho)^m) for a nearest singularity at distance rho, and by
    rounding of order eps max|f| / radius^j (Lyness & Moler, SIAM J. Numer.
    Anal. 4 (1967) 202).
    """
    theta = math.pi * (2.0 * np.arange(m // 2) + 1.0) / m
    vals = np.asarray(f(center + radius * np.exp(1j * theta)), dtype=complex)
    j = np.arange(m)
    return (2.0 / m) * (np.exp(-1j * np.outer(j, theta)) @ vals).real / radius**j


def sum_series(
    block: Callable[[np.ndarray], tuple[np.ndarray, int, str]],
    scale: complex,
    ratio: float,
    prec: Precision,
    name: str,
    diag: Diagnostics | None,
) -> complex:
    """scale * sum_{n>=1} term(n), where block(ns) returns the terms of a block
    of consecutive n, the quadrature evaluations spent on them and a note: ""
    or the message that the block's quadrature missed its tolerance.

    The terms decay like ratio^n, ratio = |q| < 1; the sum stops once two
    consecutive scaled terms fall below series_tail_tol (1 - ratio), which
    bounds the geometric tail by the same tolerance; later terms are discarded.
    Reaching n_max first warns (TruncationWarning, "<name> hit n_max = <n_max>").
    diag, if given, gains the terms summed, the evaluations, each note once and that warning.
    NonFiniteError: |scale| not finite, before the first block; after a block, the scaled
    sum of the terms summed so far not finite (Python complex arithmetic: no numpy warning)."""
    if not math.hypot(scale.real, scale.imag) < math.inf:  # where abs(scale) would raise
        raise NonFiniteError(f"{name}: prefactor {scale} overflows double precision")
    diag = diag if diag is not None else Diagnostics()
    stop = prec.series_tail_tol * (1.0 - ratio)
    scale_abs = abs(scale)
    total = 0.0 + 0.0j
    small = 0
    n, size = 1, _FIRST_BLOCK
    while n <= prec.n_max and small < 2:
        terms, evals, note = block(np.arange(n, min(n + size, prec.n_max + 1)))
        diag.quad_evals += evals
        if note and note not in diag.warnings:
            diag.warnings.append(note)
        for term in terms.tolist():
            total += term
            n += 1
            small = small + 1 if abs(term) * scale_abs < stop else 0
            if small >= 2:
                break
        if not cmath.isfinite(scale * total):
            raise NonFiniteError(f"{name}: prefactor times terms 1..{n - 1} is not finite")
        size = _BLOCK
    diag.terms_used += n - 1
    if small < 2:
        diag.warnings.append(f"{name} hit n_max = {prec.n_max}")
        warn_truncation(diag.warnings[-1])
    return scale * total
