"""Independent references for the benchmark, computed with mpmath.

Nothing here imports toruszeta.  Each function works at 20 significant
digits and returns Python floats/complex numbers; the benchmark calls them
only after the timed phase.

* E*(s, tau): Chowla-Selberg series on the point reduced to the standard
  fundamental domain (E* is SL(2, Z)-invariant), so a handful of mpmath
  ``besselk`` terms suffice whatever tau2 is.
* det(tau) = tau2^2 |eta(tau)|^4, with eta from mpmath ``qp`` on the reduced
  point and tau2 |eta|^4 carried back by its modular invariance.
* 1D operators: u'' = V u, u(0) = 0, u'(0) = 1 by mpmath's Taylor-series
  ``odefun``, so log det = log(2 u(1)); for constant V = c the closed form
  det = 2 sinh(sqrt c)/sqrt c and zeta(s) = sum_k binom(-s, k) c^k
  pi^(-2s-2k) zeta_R(2s+2k) (|c| < pi^2).
* zeta(s) for any smooth V: the lowest eigenvalues of a sine-basis Galerkin
  matrix (numpy, double precision), summed, plus the tail continued
  analytically with Hurwitz zeta functions from the eigenvalues'
  asymptotic form pi^2 n^2 + mean(V) + a/n^2 + b/n^4.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

DPS = 20


def _reduce(tau: complex) -> mp.mpc:
    """Move tau into |Re z| <= 1/2, |z| >= 1 by z -> z + n and z -> -1/z."""
    z = mp.mpc(tau)
    for _ in range(1000):
        z -= mp.nint(z.real)
        if abs(z) >= 1:
            return z
        z = -1 / z
    raise RuntimeError(f"fundamental-domain reduction of {tau} did not finish")


def _eisenstein(s: mp.mpc, tau: complex) -> mp.mpc:
    z = _reduce(tau)
    t1, t2 = z.real, z.imag
    head = 2 * t2**s * mp.zeta(2 * s) + (
        2 * mp.sqrt(mp.pi) * t2 ** (1 - s) * mp.gamma(s - 0.5) * mp.zeta(2 * s - 1)
        * mp.rgamma(s)
    )
    nu = 0.5 - s
    series = mp.mpf(0)
    for n in range(1, 200):
        sig = mp.fsum(mp.mpf(d) ** (1 - 2 * s) for d in range(1, n + 1) if n % d == 0)
        term = (sig * mp.cos(2 * mp.pi * n * t1) * mp.besselk(nu, 2 * mp.pi * n * t2)
                * mp.mpf(n) ** (s - 0.5))
        series += term
        if abs(term) < mp.eps * max(abs(series), 1) and n > 2:
            break
    return head + 8 * mp.pi**s * mp.sqrt(t2) * mp.rgamma(s) * series


def eisenstein(s: complex, tau: complex) -> complex:
    """Completed Eisenstein series E*(s, tau) = sum' tau2^s / |m + n tau|^(2s)."""
    s = complex(s)
    k = s - 0.5
    if k.imag == 0 and k.real <= 0 and k.real == round(k.real):
        # Gamma(s - 1/2) has a pole here, cancelled by the other head term
        # (s = 1/2) or by a trivial zero of zeta(2s - 1); E* is analytic, so
        # the mean over s +- eps is exact to O(eps^2)
        with mp.workdps(DPS + 30):
            eps = mp.mpf(10) ** -25
            return complex((_eisenstein(mp.mpc(s) + eps, tau) + _eisenstein(mp.mpc(s) - eps, tau)) / 2)
    with mp.workdps(DPS):
        return complex(_eisenstein(mp.mpc(s), tau))


def determinant_torus(tau: complex) -> float:
    """tau2^2 |eta(tau)|^4, using that tau2 |eta(tau)|^4 is modular invariant."""
    with mp.workdps(DPS):
        z = _reduce(tau)
        q = mp.exp(2j * mp.pi * z)
        eta = mp.exp(1j * mp.pi * z / 12) * mp.qp(q)
        return float(mp.mpf(complex(tau).imag) * z.imag * abs(eta) ** 4)


def potential(family: str, coef: list[float]):
    """The mpmath function for a generated potential, built from its parameters
    (not from the expression string the program parses)."""
    if family == "const":
        (c,) = coef
        return lambda x: mp.mpf(c)
    if family == "poly":
        a, b, c = coef
        return lambda x: (mp.mpf(a) * x + b) * x + c
    if family == "sin":
        a, b, c = coef
        return lambda x: a * mp.sin(b * x + c)
    if family == "exp":
        a, b = coef
        return lambda x: a * mp.exp(b * x)
    raise ValueError(f"unknown potential family {family!r}")


def operator_log_det(family: str, coef: list[float]) -> float:
    """log det(-d^2/dx^2 + V) on [0, 1], Dirichlet ends, = log(2 u(1))."""
    with mp.workdps(DPS):
        v = potential(family, coef)
        sol = mp.odefun(lambda x, y: [y[1], v(x) * y[0]], 0, [mp.mpf(0), mp.mpf(1)])
        return float(mp.log(2 * sol(1)[0]))


def constant_log_det(c: float) -> float:
    """log of the closed form det = 2 sinh(sqrt c)/sqrt c (2 at c = 0)."""
    with mp.workdps(DPS):
        c = mp.mpf(c)
        if c == 0:
            return float(mp.log(2))
        root = mp.sqrt(c)  # imaginary for c < 0, where sinh turns into sin
        return float(mp.log(mp.re(2 * mp.sinh(root) / root)))


def constant_zeta(c: float, s: complex) -> complex:
    """sum_n (pi^2 n^2 + c)^(-s) by the binomial series in zeta_R, |c| < pi^2."""
    with mp.workdps(DPS):
        c, s = mp.mpf(c), mp.mpc(s)
        if not abs(c) < mp.pi**2:
            raise ValueError("the binomial series needs |c| < pi^2")
        total = mp.mpf(0)
        for k in range(0, 10_000):
            term = mp.binomial(-s, k) * c**k * mp.pi ** (-2 * s - 2 * k) * mp.zeta(2 * s + 2 * k)
            total += term
            if k > 2 and abs(term) < mp.mpf(10) ** (-DPS) * abs(total):
                return complex(total)
        raise RuntimeError(f"binomial series for c = {c} did not converge")


GALERKIN_MODES = 600   # sine modes in the Galerkin matrix
EXACT_MODES = 150      # eigenvalues summed one by one; the rest form the tail
TAIL_ORDER = 6         # powers of n^-2 kept in the tail's expansion


def _cosine_moments(v, kmax: int) -> np.ndarray:
    """int_0^1 V(x) cos(k pi x) dx for k = 0..kmax, by 16-point Gauss-Legendre
    on panels short enough that each spans under a period of cos(kmax pi x)."""
    panels = kmax + 8
    g, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 1.0, panels + 1)
    x = ((edges[:-1, None] + edges[1:, None]) / 2 + np.outer(np.diff(edges) / 2, g)).ravel()
    wx = np.outer(np.diff(edges) / 2, w).ravel() * v(x)
    return np.array([wx @ np.cos(k * np.pi * x) for k in range(kmax + 1)])


def numpy_potential(family: str, coef: list[float]):
    """The generated potential as a numpy ufunc of x, from its parameters."""
    if family == "const":
        return lambda x: np.full_like(x, coef[0])
    if family == "poly":
        a, b, c = coef
        return lambda x: (a * x + b) * x + c
    if family == "sin":
        a, b, c = coef
        return lambda x: a * np.sin(b * x + c)
    if family == "exp":
        a, b = coef
        return lambda x: a * np.exp(b * x)
    raise ValueError(f"unknown potential family {family!r}")


def operator_eigenvalues(family: str, coef: list[float]) -> np.ndarray:
    """The EXACT_MODES lowest Dirichlet eigenvalues of -d^2/dx^2 + V on [0, 1].

    In the basis sqrt(2) sin(n pi x) the matrix is pi^2 n^2 delta_mn +
    c_|m-n| - c_(m+n), with c_k the cosine moments of V."""
    m = GALERKIN_MODES
    c = _cosine_moments(numpy_potential(family, coef), 2 * m)
    n = np.arange(1, m + 1)
    h = c[np.abs(n[:, None] - n[None, :])] - c[n[:, None] + n[None, :]]
    h[n - 1, n - 1] += (np.pi * n) ** 2
    return np.linalg.eigvalsh(h)[:EXACT_MODES]


def operator_zeta(family: str, coef: list[float], s: float) -> float:
    """sum_n lambda_n^(-s), continued analytically in s (s != 1/2).

    The eigenvalues past EXACT_MODES follow pi^2 n^2 + mean(V) + a/n^2 +
    b/n^4, with a and b fitted to the upper half of the exact ones; then
    lambda_n^(-s) = (pi n)^(-2s) sum_q g_q n^(-2q), and each power sums to a
    Hurwitz zeta value."""
    lam = operator_eigenvalues(family, coef)
    mean_v = _cosine_moments(numpy_potential(family, coef), 0)[0]
    n = np.arange(1, lam.size + 1, dtype=float)
    upper = n > lam.size / 2
    excess = (lam - (np.pi * n) ** 2 - mean_v)[upper] * n[upper] ** 2
    b, a = np.polyfit(n[upper] ** -2.0, excess, 1)
    with mp.workdps(DPS):
        s = mp.mpf(s)
        # (1 + x)^(-s) with x = sum_p e_p n^(-2p), as a series in n^(-2)
        e = [mp.mpf(0), mp.mpf(mean_v), mp.mpf(a), mp.mpf(b)] + [mp.mpf(0)] * TAIL_ORDER
        e = [ep / mp.pi**2 for ep in e[: TAIL_ORDER + 1]]
        g = [mp.mpf(1)] + [mp.mpf(0)] * TAIL_ORDER
        power = list(g)
        for j in range(1, TAIL_ORDER + 1):
            power = [mp.fsum(power[i] * e[q - i] for i in range(q + 1)) for q in range(TAIL_ORDER + 1)]
            g = [gq + mp.binomial(-s, j) * pq for gq, pq in zip(g, power)]
        tail = mp.fsum(gq * mp.zeta(2 * s + 2 * q, lam.size + 1) for q, gq in enumerate(g))
        head = mp.fsum(mp.mpf(float(x)) ** -s for x in lam)
        return float(head + mp.pi ** (-2 * s) * tail)
