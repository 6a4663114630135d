"""Quadrature and extrapolation kernels used by every evaluator.

Two integrators, each warning (TruncationWarning) when its cap stops it
before its tolerance is met:

* ``adaptive_gauss`` -- globally adaptive Gauss-Legendre for smooth
  integrands, error estimated from a 15/31-point pair per panel.
* ``tanh_sinh`` -- double-exponential rule on a finite interval; converges
  geometrically even when the integrand has an integrable algebraic
  singularity u^(-s) (complex s, Re s < 1) at an endpoint.

Each has one core, ``adaptive_gauss_rows`` and ``tanh_sinh_rows``, that
integrates a stack of integrands sharing their abscissae (the n-terms of a
series, say) in one pass.  A stacked integrand f(x, rows) returns the rows
asked for (an index array) as stacked rows, shape (len(rows), len(x)); every
row meets its own tolerance, and no call of f sees more than CHUNK
rows x abscissae.  The public functions are their one-row cases.

Every numerical derivative and limit goes through ``richardson`` and the
``central_derivative`` built on it.

Every q-expansion -- a series whose terms decay like |q|^n -- goes through
the one series driver ``sum_series``: the divisor-Bessel, contour and Mellin
remainders, the Dedekind eta product, the Lambert series and the s = 1
closed form.  It has one stopping rule and one TruncationWarning at n_max.

Integrands of the public functions take a numpy array of abscissae and
return an array of the same length (real or complex).  All reductions run
in a fixed order so results are bit-reproducible across runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .domain import Diagnostics, Precision
from .errors import DomainError, TruncationWarning

Integrand = Callable[[np.ndarray], np.ndarray]
RowIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]  # f(x, rows)

MAX_PANELS = 4096  # adaptive_gauss splits at most this many panels
U_MAX = 6.5  # tanh_sinh truncates its u axis to [-U_MAX, U_MAX]
CHUNK = 2**15  # rows x abscissae per integrand call; keeps the peak memory flat

_FIRST_BLOCK, _BLOCK = 8, 16  # series terms computed per block, first and later
_TINY = np.finfo(float).tiny

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


def gauss_panel(f: Integrand, a: float, b: float, n: int = 31) -> complex:
    """Fixed n-point Gauss-Legendre estimate of int_a^b f."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * complex(np.sum(w * f(mid + half * x)))


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


def _one_row(f: Integrand) -> RowIntegrand:
    return lambda x, rows: f(x)


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
        warnings.warn(f"adaptive_gauss hit MAX_PANELS = {MAX_PANELS}", TruncationWarning, 2)
    return QuadResult(vals.sum(axis=0), errs.sum(axis=0), n_evals)


def adaptive_gauss(
    f: Integrand,
    a: float,
    b: float,
    rel_tol: float = 1e-12,
    abs_tol: float = 0.0,
) -> QuadResult:
    """int_a^b f by adaptive_gauss_rows with one row: the summed error
    estimate meets max(abs_tol, rel_tol * |integral|)."""
    res = adaptive_gauss_rows(_one_row(f), a, b, 1, rel_tol, abs_tol)
    return QuadResult(complex(res.value[0]), float(res.err_estimate[0]), res.n_evals)


@lru_cache(maxsize=64)
def _tanh_sinh_nodes(a: float, b: float, level: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Abscissae and weights of one tanh-sinh level on (a, b): u = k h with
    h = 2^-level, every k at level 0 and the odd k after, |u| <= U_MAX.
    Nodes that round onto an endpoint or get a zero weight are dropped; the
    count of all of them is returned as well."""
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
    return x, w, k.size


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
    accurate *relative to the endpoint distance* when a or b is 0.  The step
    halves from 1, at least 3 and at most max_level times.  A row stops
    once its change is within tol * max(1, |row integral|); later levels
    evaluate only the rows still running.
    """
    if not b > a:
        raise DomainError("tanh_sinh requires b > a")

    def level_sum(level: int, rows: np.ndarray) -> tuple[np.ndarray, int]:
        x, w, count = _tanh_sinh_nodes(a, b, level)
        total = np.zeros(rows.size, complex)
        for piece, vals in _pieces(f, x, rows):
            total += vals @ w[piece]
        return total, rows.size * count

    # level 0: trapezoid over u = k, h = 1
    running = np.arange(rows)
    value, n_evals = level_sum(0, running)
    err = np.full(rows, math.inf)
    for level in range(1, max_level + 1):
        fresh, evals = level_sum(level, running)
        n_evals += evals
        total = 0.5 * value[running] + 0.5**level * fresh
        err[running] = np.abs(total - value[running])
        value[running] = total
        if level >= 3:
            # a NaN row never converges, so it runs to the cap and warns
            running = running[~(err[running] <= tol * np.maximum(1.0, np.abs(total)))]
            if not running.size:
                break
    else:
        warnings.warn(f"tanh_sinh hit max_level = {max_level}", TruncationWarning, 2)
    return QuadResult(value, err, n_evals)


def tanh_sinh(
    f: Integrand,
    a: float,
    b: float,
    tol: float = 1e-13,
    max_level: int = 12,
) -> QuadResult:
    """int_a^b f by tanh_sinh_rows with one row: converges geometrically even
    for an integrable algebraic singularity at an endpoint."""
    res = tanh_sinh_rows(_one_row(f), a, b, 1, tol, max_level)
    return QuadResult(complex(res.value[0]), float(res.err_estimate[0]), res.n_evals)


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
    f: Callable[[float], complex], x: float, h: float = 1e-5, levels: int = 2
) -> complex:
    """f'(x) from central differences at steps h, h/2, ..., h/2^(levels-1),
    whose errors run in h^2, h^4, ..., Richardson-extrapolated."""
    steps = [h * 0.5**k for k in range(levels)]
    return richardson([(f(x + d) - f(x - d)) / (2.0 * d) for d in steps], 4.0)


def sum_series(
    block: Callable[[np.ndarray], tuple[np.ndarray, int]],
    scale: complex,
    ratio: float,
    prec: Precision,
    name: str,
    diag: Diagnostics | None,
) -> complex:
    """scale * sum_{n>=1} term(n), where block(ns) returns the terms of a
    block of consecutive n and the quadrature evaluations spent on them.

    The terms decay like ratio^n, with ratio = |q| < 1; the sum stops once
    two consecutive scaled terms fall below series_tail_tol (1 - ratio),
    which bounds the geometric tail by the same tolerance.  Terms computed
    past the stop are discarded; reaching n_max first warns
    (TruncationWarning, "<name> hit n_max").  diag, if given, gains the
    terms summed and the evaluations spent."""
    diag = diag if diag is not None else Diagnostics()
    stop = prec.series_tail_tol * (1.0 - ratio)
    scale_abs = abs(scale)
    total = 0.0 + 0.0j
    small = 0
    n, size = 1, _FIRST_BLOCK
    while n <= prec.n_max:
        terms, evals = block(np.arange(n, min(n + size, prec.n_max + 1)))
        diag.quad_evals += evals
        for term in terms.tolist():
            total += term
            diag.terms_used += 1
            small = small + 1 if abs(term) * scale_abs < stop else 0
            if small >= 2:
                return scale * total
        n, size = n + len(terms), _BLOCK
    warnings.warn(f"{name} hit n_max = {prec.n_max}", TruncationWarning, stacklevel=3)
    return scale * total
